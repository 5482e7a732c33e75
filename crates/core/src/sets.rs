//! The abstract domains `LabelSet = P(Label)` and
//! `LabelPairSet = P(Label × Label)` (paper §4.1) as dense bitsets.
//!
//! The paper's complexity analysis (§5.2) assumes bit-vector sets: "If we
//! represent each set as a bit vector with O(n²) entries, then set union
//! takes O(n²) time." [`LabelSet`] is a dense `u64` bitset over the
//! program's labels. [`PairSet`] is a *symmetric* bit matrix whose rows
//! are allocated lazily — MHP relations concentrate on async-related
//! labels, so most rows stay empty and the realistic footprint is far
//! below `n²` bits (the paper's measured MBs confirm theirs was too).
//!
//! All mutating operations report whether they changed the set, which is
//! what the fixed-point solvers key on.

use fx10_syntax::Label;
use std::sync::Arc;

/// A set of labels over a fixed universe `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSet {
    n: usize,
    words: Box<[u64]>,
}

#[inline]
fn word_count(n: usize) -> usize {
    n.div_ceil(64)
}

impl LabelSet {
    /// The empty set over a universe of `n` labels.
    pub fn empty(n: usize) -> LabelSet {
        LabelSet {
            n,
            words: vec![0u64; word_count(n)].into_boxed_slice(),
        }
    }

    /// `{l}`.
    pub fn singleton(n: usize, l: Label) -> LabelSet {
        let mut s = LabelSet::empty(n);
        s.insert(l);
        s
    }

    /// Builds a set from labels.
    pub fn from_labels(n: usize, labels: impl IntoIterator<Item = Label>) -> LabelSet {
        let mut s = LabelSet::empty(n);
        for l in labels {
            s.insert(l);
        }
        s
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `l`; returns true if it was absent.
    #[inline]
    pub fn insert(&mut self, l: Label) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old != self.words[w]
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, l: Label) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// `self ∪= other`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &LabelSet) -> bool {
        debug_assert_eq!(self.n, other.n);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let old = *a;
            *a |= b;
            changed |= old != *a;
        }
        changed
    }

    /// `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &LabelSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &LabelSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Label> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(Label((wi * 64) as u32 + b))
                }
            })
        })
    }

    /// Raw words (read-only), used by [`PairSet`] bulk operations.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes held by the set (space accounting, Figure 8).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl std::fmt::Display for LabelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for l in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// A symmetric set of label pairs over a universe `0..n`, stored as
/// lazily-allocated bitset rows. Inserting `(a, b)` also inserts `(b, a)`
/// — the analysis only ever builds symmetric relations (`symcross`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSet {
    n: usize,
    rows: Vec<Option<Box<[u64]>>>,
    /// Total set bits across rows (= ordered-pair count).
    bits: usize,
}

impl PairSet {
    /// The empty relation over `n` labels.
    pub fn empty(n: usize) -> PairSet {
        PairSet {
            n,
            rows: vec![None; n],
            bits: 0,
        }
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    fn row_mut(&mut self, l: usize) -> &mut [u64] {
        let n = self.n;
        self.rows[l].get_or_insert_with(|| vec![0u64; word_count(n)].into_boxed_slice())
    }

    /// Sets bit `(a, b)` only (not the mirror); returns true if new.
    fn set_bit(&mut self, a: usize, b: usize) -> bool {
        let row = self.row_mut(a);
        let (w, bit) = (b / 64, b % 64);
        let old = row[w];
        row[w] |= 1 << bit;
        if old != row[w] {
            self.bits += 1;
            true
        } else {
            false
        }
    }

    /// Inserts the unordered pair `{a, b}`; returns true if it was absent.
    pub fn insert(&mut self, a: Label, b: Label) -> bool {
        let c1 = self.set_bit(a.index(), b.index());
        if a != b {
            self.set_bit(b.index(), a.index());
        }
        c1
    }

    /// True iff the unordered pair `{a, b}` is present.
    pub fn contains(&self, a: Label, b: Label) -> bool {
        match &self.rows[a.index()] {
            Some(row) => {
                let (w, bit) = (b.index() / 64, b.index() % 64);
                row[w] & (1 << bit) != 0
            }
            None => false,
        }
    }

    /// `self ∪= other`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &PairSet) -> bool {
        debug_assert_eq!(self.n, other.n);
        let mut changed = false;
        for (l, orow) in other.rows.iter().enumerate() {
            let Some(orow) = orow else { continue };
            if orow.iter().all(|&w| w == 0) {
                continue;
            }
            let mut delta = 0usize;
            let row = self.row_mut(l);
            for (a, b) in row.iter_mut().zip(orow.iter()) {
                let old = *a;
                *a |= b;
                delta += (*a ^ old).count_ones() as usize;
            }
            self.bits += delta;
            changed |= delta != 0;
        }
        changed
    }

    /// `self ∪= Lcross(l, set) = symcross({l}, set)`; returns true if grew.
    pub fn add_lcross(&mut self, l: Label, set: &LabelSet) -> bool {
        if set.is_empty() {
            return false;
        }
        let mut changed = self.or_row(l.index(), set);
        for b in set.iter() {
            changed |= self.set_bit(b.index(), l.index());
        }
        changed
    }

    /// `self ∪= symcross(a, b) = (a × b) ∪ (b × a)`; returns true if grew.
    pub fn add_symcross(&mut self, a: &LabelSet, b: &LabelSet) -> bool {
        if a.is_empty() || b.is_empty() {
            return false;
        }
        let mut changed = false;
        for l in a.iter() {
            changed |= self.or_row(l.index(), b);
        }
        for l in b.iter() {
            changed |= self.or_row(l.index(), a);
        }
        changed
    }

    /// `row(l) ∪= set` with bit accounting; returns true if the row grew.
    fn or_row(&mut self, l: usize, set: &LabelSet) -> bool {
        let mut delta = 0usize;
        let row = self.row_mut(l);
        for (a, b) in row.iter_mut().zip(set.words().iter()) {
            let old = *a;
            *a |= b;
            delta += (*a ^ old).count_ones() as usize;
        }
        self.bits += delta;
        delta != 0
    }

    /// Does label `l` pair with any member of `set`?
    pub fn row_intersects(&self, l: Label, set: &LabelSet) -> bool {
        match &self.rows[l.index()] {
            Some(row) => row.iter().zip(set.words().iter()).any(|(a, b)| a & b != 0),
            None => false,
        }
    }

    /// Every label paired with `l`, as a fresh [`LabelSet`].
    pub fn partners(&self, l: Label) -> LabelSet {
        let mut out = LabelSet::empty(self.n);
        if let Some(row) = &self.rows[l.index()] {
            for (a, b) in out.words.iter_mut().zip(row.iter()) {
                *a |= b;
            }
        }
        out
    }

    /// Number of *unordered* pairs (diagonal pairs count once).
    pub fn len(&self) -> usize {
        let diag = (0..self.n)
            .filter(|&l| self.contains(Label(l as u32), Label(l as u32)))
            .count();
        (self.bits - diag) / 2 + diag
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// `self ⊆ other` (as symmetric relations).
    pub fn is_subset(&self, other: &PairSet) -> bool {
        for (l, row) in self.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            match &other.rows[l] {
                Some(orow) => {
                    if row.iter().zip(orow.iter()).any(|(a, b)| a & !b != 0) {
                        return false;
                    }
                }
                None => {
                    if row.iter().any(|&w| w != 0) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Iterates unordered pairs `(a, b)` with `a <= b`, in order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (Label, Label)> + '_ {
        self.rows.iter().enumerate().flat_map(move |(a, row)| {
            let a_lab = Label(a as u32);
            row.iter()
                .flat_map(move |r| {
                    r.iter().enumerate().flat_map(move |(wi, &w)| {
                        let mut bits = w;
                        std::iter::from_fn(move || {
                            if bits == 0 {
                                None
                            } else {
                                let b = bits.trailing_zeros();
                                bits &= bits - 1;
                                Some(Label((wi * 64) as u32 + b))
                            }
                        })
                    })
                })
                .filter(move |&b| a_lab <= b)
                .map(move |b| (a_lab, b))
        })
    }

    /// Heap bytes held (space accounting, Figure 8).
    pub fn bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.as_ref().map_or(0, |row| row.len() * 8))
            .sum::<usize>()
            + self.rows.len() * std::mem::size_of::<Option<Box<[u64]>>>()
    }
}

/// `symcross(A, B)` as a fresh relation (Figure 3, equation 37). The
/// solvers use the in-place [`PairSet::add_symcross`]; this standalone
/// version exists for tests and the type-system implementation.
pub fn symcross(a: &LabelSet, b: &LabelSet) -> PairSet {
    let mut out = PairSet::empty(a.universe());
    out.add_symcross(a, b);
    out
}

/// `Lcross(l, A) = symcross({l}, A)` (equation 38).
pub fn lcross(n: usize, l: Label, a: &LabelSet) -> PairSet {
    let mut out = PairSet::empty(n);
    out.add_lcross(l, a);
    out
}

/// Shared, immutable label set — constants referenced by many constraints.
/// `Arc` rather than `Rc` keeps constraint systems `Send + Sync`.
pub type SharedLabelSet = Arc<LabelSet>;

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> Label {
        Label(i)
    }

    #[test]
    fn labelset_basics() {
        let mut s = LabelSet::empty(130);
        assert!(s.is_empty());
        assert!(s.insert(l(0)));
        assert!(s.insert(l(64)));
        assert!(s.insert(l(129)));
        assert!(!s.insert(l(129)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(l(64)));
        assert!(!s.contains(l(65)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![l(0), l(64), l(129)]);
        assert_eq!(format!("{s}"), "{L0, L64, L129}");
    }

    #[test]
    fn labelset_union_and_subset() {
        let mut a = LabelSet::from_labels(100, [l(1), l(2)]);
        let b = LabelSet::from_labels(100, [l(2), l(3)]);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 3);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
        let c = LabelSet::from_labels(100, [l(99)]);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn pairset_insert_is_symmetric() {
        let mut m = PairSet::empty(10);
        assert!(m.insert(l(3), l(7)));
        assert!(!m.insert(l(7), l(3)));
        assert!(m.contains(l(7), l(3)));
        assert_eq!(m.len(), 1);
        assert!(m.insert(l(4), l(4)));
        assert_eq!(m.len(), 2);
        assert_eq!(
            m.iter_pairs().collect::<Vec<_>>(),
            vec![(l(3), l(7)), (l(4), l(4))]
        );
    }

    #[test]
    fn pairset_union_tracks_changes() {
        let mut a = PairSet::empty(10);
        a.insert(l(1), l(2));
        let mut b = PairSet::empty(10);
        b.insert(l(1), l(2));
        b.insert(l(5), l(5));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 2);
        assert!(b.is_subset(&a));
    }

    #[test]
    fn lcross_matches_definition() {
        let s = LabelSet::from_labels(10, [l(2), l(9)]);
        let m = lcross(10, l(0), &s);
        assert_eq!(m.len(), 2);
        assert!(m.contains(l(0), l(2)));
        assert!(m.contains(l(9), l(0)));
        // Lcross with an empty set is empty.
        assert!(lcross(10, l(0), &LabelSet::empty(10)).is_empty());
    }

    #[test]
    fn symcross_matches_definition() {
        let a = LabelSet::from_labels(10, [l(1), l(2)]);
        let b = LabelSet::from_labels(10, [l(2), l(3)]);
        let m = symcross(&a, &b);
        // (1,2), (1,3), (2,2), (2,3): 4 unordered pairs.
        assert_eq!(m.len(), 4);
        assert!(m.contains(l(2), l(2)));
        assert!(m.contains(l(3), l(1)));
        assert!(!m.contains(l(1), l(1)));
        // symcross is commutative (Lemma 7.1).
        assert_eq!(m, symcross(&b, &a));
    }

    #[test]
    fn symcross_distributes_over_union() {
        // Lemma 7.3: symcross(A, C) ∪ symcross(B, C) = symcross(A ∪ B, C).
        let a = LabelSet::from_labels(20, [l(1)]);
        let b = LabelSet::from_labels(20, [l(2), l(15)]);
        let c = LabelSet::from_labels(20, [l(3), l(19)]);
        let mut lhs = symcross(&a, &c);
        lhs.union_with(&symcross(&b, &c));
        let mut ab = a.clone();
        ab.union_with(&b);
        assert_eq!(lhs, symcross(&ab, &c));
    }

    #[test]
    fn partners_row_view() {
        let mut m = PairSet::empty(10);
        m.insert(l(1), l(2));
        m.insert(l(1), l(5));
        let row = m.partners(l(1));
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![l(2), l(5)]);
        assert!(m.row_intersects(l(2), &LabelSet::from_labels(10, [l(1)])));
        assert!(!m.row_intersects(l(2), &LabelSet::from_labels(10, [l(5)])));
    }

    #[test]
    fn bytes_accounting_is_lazy() {
        let empty = PairSet::empty(1000);
        let mut one = PairSet::empty(1000);
        one.insert(l(0), l(1));
        // Only two rows allocated out of 1000.
        assert!(one.bytes() < empty.bytes() + 3 * (1000_usize.div_ceil(64)) * 8);
    }
}
