//! Fixed-point solvers for union constraint systems (paper §5.2–5.3).
//!
//! A constraint is `lhs ⊇ union(terms)`. The paper's systems give every
//! variable exactly one equality constraint with distinct left-hand
//! sides, in which case the least solution of the ⊇-system coincides with
//! the least fixed point of the paper's function `F` (each pass applies
//! `F` once and keeps previous values — monotonicity makes accumulation
//! and recomputation agree at the least fixed point). The ⊇-form also
//! accommodates the context-insensitive analysis's genuine subset
//! constraints `r_s ⊆ r_i` (constraint 83) with no special casing.
//!
//! Two solvers, picked by [`SolverKind`], serve both domains — label
//! sets ([`SetSystem`]: `Slabels` and level 1) and label-pair sets
//! ([`PairSystem`]: level 2) — through one loop each:
//! - **naive** — round-robin passes over all constraints until a full pass
//!   changes nothing. The pass count is reported; this is the "Number of
//!   iterations" column of Figure 8 (the final, changeless pass included,
//!   matching the paper's minimum of 2). A constraint none of whose
//!   variable inputs changed since it last ran is skipped — re-running
//!   it could add nothing — but a skip still counts as one evaluation and
//!   one meter tick, so pass counts, `evals` and budget cut points are
//!   those of the plain loop that re-evaluates everything. The CLI
//!   default.
//! - **worklist** — seeds all constraints, then re-evaluates only the
//!   constraints whose right-hand-side variables changed. Same solution,
//!   usually far fewer evaluations; it counts evaluations, not passes.
//!
//! [`solve_set`] and [`solve_pair`] take the solver and a [`BudgetMeter`]:
//! one meter tick per constraint evaluation, so a `max_iters` budget
//! bounds the whole analysis across phases. Budget exhaustion returns
//! the partial (under-approximate) solution tagged with its
//! [`Exhaustion`] provenance; cancellation returns
//! [`Fx10Error::Cancelled`]. [`solve_set_naive`] and [`solve_pair_naive`]
//! are the unbudgeted naive solves.

use crate::sets::{LabelSet, PairSet, SharedLabelSet};
use fx10_robust::{BudgetMeter, Exhaustion, Fx10Error, Stop};
use fx10_syntax::Label;
use std::collections::VecDeque;

/// Which fixed-point algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The paper's round-robin iteration; pass counts are reported.
    Naive,
    /// Worklist iteration (same solutions, fewer evaluations); reports
    /// evaluations only.
    Worklist,
}

/// A level-1 (or Slabels) set variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetVar(pub u32);

impl SetVar {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A right-hand-side atom of a set constraint.
#[derive(Debug, Clone)]
pub enum SetTerm {
    /// A constant label set.
    Const(SharedLabelSet),
    /// Another variable's current value.
    Var(SetVar),
}

/// `lhs ⊇ union(terms)`.
#[derive(Debug, Clone)]
pub struct SetConstraint {
    /// The constrained variable.
    pub lhs: SetVar,
    /// Right-hand-side atoms, joined by union.
    pub terms: Vec<SetTerm>,
}

/// A system of set constraints over `n_vars` variables whose values are
/// label sets over `universe` labels.
#[derive(Debug, Clone)]
pub struct SetSystem {
    /// Number of variables.
    pub n_vars: usize,
    /// Number of labels the sets range over.
    pub universe: usize,
    /// The constraints.
    pub constraints: Vec<SetConstraint>,
}

/// A level-2 (pair) variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairVar(pub u32);

impl PairVar {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A right-hand-side atom of a level-2 constraint, *after* the level-1
/// solution has been substituted in (the paper's "simplified level-2
/// constraints", §5.3): label-set arguments are constants.
#[derive(Debug, Clone)]
pub enum PairTerm {
    /// `Lcross(l, c)` for a solved set `c`.
    Lcross(Label, SharedLabelSet),
    /// `symcross(c1, c2)` for solved sets (covers `Scross` too).
    Symcross(SharedLabelSet, SharedLabelSet),
    /// Another m-variable.
    MVar(PairVar),
}

/// `lhs ⊇ union(terms)` over pair sets.
#[derive(Debug, Clone)]
pub struct PairConstraint {
    /// The constrained m-variable.
    pub lhs: PairVar,
    /// Right-hand-side atoms, joined by union.
    pub terms: Vec<PairTerm>,
}

/// A simplified level-2 system.
#[derive(Debug, Clone)]
pub struct PairSystem {
    /// Number of m-variables.
    pub n_vars: usize,
    /// Number of labels the pairs range over.
    pub universe: usize,
    /// The constraints.
    pub constraints: Vec<PairConstraint>,
}

/// The least solution of a constraint system plus solver statistics.
#[derive(Debug, Clone)]
pub struct Solution<V> {
    /// Value per variable.
    pub values: Vec<V>,
    /// Round-robin passes (naive) or 0 (worklist).
    pub passes: usize,
    /// Individual constraint evaluations.
    pub evals: usize,
    /// `Some` when a budget cut the solve short: the values are a sound
    /// under-approximation of the least solution.
    pub exhausted: Option<Exhaustion>,
}

/// The solution of a [`SetSystem`].
pub type SetSolution = Solution<LabelSet>;

/// The solution of a [`PairSystem`].
pub type PairSolution = Solution<PairSet>;

impl SetSolution {
    /// Value of a variable.
    #[inline]
    pub fn get(&self, v: SetVar) -> &LabelSet {
        &self.values[v.index()]
    }

    /// Total heap bytes of all values (space accounting).
    pub fn bytes(&self) -> usize {
        self.values.iter().map(|s| s.bytes()).sum()
    }
}

impl PairSolution {
    /// Value of a variable.
    #[inline]
    pub fn get(&self, v: PairVar) -> &PairSet {
        &self.values[v.index()]
    }

    /// Total heap bytes of all values.
    pub fn bytes(&self) -> usize {
        self.values.iter().map(|s| s.bytes()).sum()
    }
}

/// `(&mut values[lhs], &values[rhs])` for distinct indices.
fn split_pair<V>(values: &mut [V], lhs: usize, rhs: usize) -> (&mut V, &V) {
    if lhs < rhs {
        let (left, right) = values.split_at_mut(rhs);
        (&mut left[lhs], &right[0])
    } else {
        let (left, right) = values.split_at_mut(lhs);
        (&mut right[0], &left[rhs])
    }
}

/// What the solver loops need from a constraint.
trait Rule {
    type Value;
    /// Index of the constrained variable.
    fn lhs(&self) -> usize;
    /// Indices of the variables the right-hand side reads, in term
    /// order. The self-read `x ⊇ x` is included: the worklist re-queues
    /// a constraint that grew its own input, and its `evals` count that.
    fn reads(&self) -> impl Iterator<Item = usize> + '_;
    /// Unions the right-hand side into the lhs; true when the lhs grew.
    fn eval(&self, values: &mut [Self::Value]) -> bool;
}

impl Rule for SetConstraint {
    type Value = LabelSet;
    fn lhs(&self) -> usize {
        self.lhs.index()
    }
    fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().filter_map(|t| match t {
            SetTerm::Var(v) => Some(v.index()),
            SetTerm::Const(_) => None,
        })
    }
    fn eval(&self, values: &mut [LabelSet]) -> bool {
        let mut changed = false;
        for t in &self.terms {
            match t {
                SetTerm::Const(s) => changed |= values[self.lhs.index()].union_with(s),
                // x ⊇ x is vacuous.
                SetTerm::Var(v) if *v == self.lhs => {}
                SetTerm::Var(v) => {
                    let (lhs, rhs) = split_pair(values, self.lhs.index(), v.index());
                    changed |= lhs.union_with(rhs);
                }
            }
        }
        changed
    }
}

impl Rule for PairConstraint {
    type Value = PairSet;
    fn lhs(&self) -> usize {
        self.lhs.index()
    }
    fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().filter_map(|t| match t {
            PairTerm::MVar(v) => Some(v.index()),
            PairTerm::Lcross(..) | PairTerm::Symcross(..) => None,
        })
    }
    fn eval(&self, values: &mut [PairSet]) -> bool {
        let mut changed = false;
        for t in &self.terms {
            match t {
                PairTerm::Lcross(l, s) => changed |= values[self.lhs.index()].add_lcross(*l, s),
                PairTerm::Symcross(a, b) => changed |= values[self.lhs.index()].add_symcross(a, b),
                PairTerm::MVar(v) if *v == self.lhs => {}
                PairTerm::MVar(v) => {
                    let (lhs, rhs) = split_pair(values, self.lhs.index(), v.index());
                    changed |= lhs.union_with(rhs);
                }
            }
        }
        changed
    }
}

/// One meter tick: `Ok(Some(_))` when a budget ran out, `Err` on
/// cancellation.
fn tick(meter: &mut BudgetMeter) -> Result<Option<Exhaustion>, Fx10Error> {
    match meter.tick() {
        Ok(()) => Ok(None),
        Err(Stop::Exhausted(e)) => Ok(Some(e)),
        Err(stop @ Stop::Cancelled) => Err(stop.into()),
    }
}

/// The naive solver: passes over all constraints until a full pass
/// changes nothing.
///
/// A constraint is skipped when none of its variable inputs changed
/// since it last ran: its constants went into the lhs on that run and
/// the lhs only grows, so a re-run would add nothing. A skip still ticks
/// the meter and counts as an evaluation, so `passes`, `evals` and the
/// point where a budget cuts in are those of the loop that re-runs every
/// constraint.
fn naive<C: Rule>(
    constraints: &[C],
    mut values: Vec<C::Value>,
    meter: &mut BudgetMeter,
) -> Result<Solution<C::Value>, Fx10Error> {
    // Stamps are 1-based evaluation numbers; 0 means "never".
    let mut changed_at = vec![0usize; values.len()];
    let mut ran_at = vec![0usize; constraints.len()];
    let mut passes = 0usize;
    let mut evals = 0usize;
    loop {
        passes += 1;
        let mut changed = false;
        for (c, ran) in constraints.iter().zip(&mut ran_at) {
            if let Some(e) = tick(meter)? {
                return Ok(Solution {
                    values,
                    passes,
                    evals,
                    exhausted: Some(e),
                });
            }
            evals += 1;
            let lhs = c.lhs();
            if *ran == 0 || c.reads().any(|v| v != lhs && changed_at[v] > *ran) {
                *ran = evals;
                if c.eval(&mut values) {
                    changed_at[lhs] = evals;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(Solution {
                values,
                passes,
                evals,
                exhausted: None,
            });
        }
    }
}

/// The worklist solver: seeds every constraint in order, then re-queues
/// the readers of each variable that grew.
fn worklist<C: Rule>(
    constraints: &[C],
    mut values: Vec<C::Value>,
    meter: &mut BudgetMeter,
) -> Result<Solution<C::Value>, Fx10Error> {
    // readers[v] = constraints whose rhs mentions v.
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); values.len()];
    for (ci, c) in constraints.iter().enumerate() {
        for v in c.reads() {
            readers[v].push(ci as u32);
        }
    }
    let mut on_queue = vec![true; constraints.len()];
    let mut queue: VecDeque<u32> = (0..constraints.len() as u32).collect();
    let mut evals = 0usize;
    let mut exhausted = None;
    while let Some(ci) = queue.pop_front() {
        if let Some(e) = tick(meter)? {
            exhausted = Some(e);
            break;
        }
        on_queue[ci as usize] = false;
        let c = &constraints[ci as usize];
        evals += 1;
        if c.eval(&mut values) {
            for &d in &readers[c.lhs()] {
                if !on_queue[d as usize] {
                    on_queue[d as usize] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    Ok(Solution {
        values,
        passes: 0,
        evals,
        exhausted,
    })
}

/// Runs `kind` on `constraints` from the bottom `values`.
fn run<C: Rule>(
    constraints: &[C],
    values: Vec<C::Value>,
    kind: SolverKind,
    meter: &mut BudgetMeter,
) -> Result<Solution<C::Value>, Fx10Error> {
    match kind {
        SolverKind::Naive => naive(constraints, values, meter),
        SolverKind::Worklist => worklist(constraints, values, meter),
    }
}

/// Solves a set system with `kind` under `meter`; exhaustion returns the
/// partial solution tagged, cancellation returns `Err`.
pub fn solve_set(
    sys: &SetSystem,
    kind: SolverKind,
    meter: &mut BudgetMeter,
) -> Result<SetSolution, Fx10Error> {
    let values = vec![LabelSet::empty(sys.universe); sys.n_vars];
    run(&sys.constraints, values, kind, meter)
}

/// Solves a level-2 system with `kind` under `meter`; exhaustion returns
/// the partial solution tagged, cancellation returns `Err`.
pub fn solve_pair(
    sys: &PairSystem,
    kind: SolverKind,
    meter: &mut BudgetMeter,
) -> Result<PairSolution, Fx10Error> {
    let values = vec![PairSet::empty(sys.universe); sys.n_vars];
    run(&sys.constraints, values, kind, meter)
}

/// Fallback for the unbudgeted solves: an unlimited meter cannot trip,
/// so this is unreachable — but library paths never panic, so degrade to
/// an empty, exhaustion-tagged solution instead.
fn unreachable_partial<V>(_: Fx10Error) -> Solution<V> {
    Solution {
        values: Vec::new(),
        passes: 0,
        evals: 0,
        exhausted: Some(Exhaustion::SolverIterations),
    }
}

/// The naive solve of a set system, unbudgeted; reports the pass count.
pub fn solve_set_naive(sys: &SetSystem) -> SetSolution {
    solve_set(sys, SolverKind::Naive, &mut BudgetMeter::unlimited())
        .unwrap_or_else(unreachable_partial)
}

/// The naive solve of a level-2 system, unbudgeted; reports the pass
/// count.
pub fn solve_pair_naive(sys: &PairSystem) -> PairSolution {
    solve_pair(sys, SolverKind::Naive, &mut BudgetMeter::unlimited())
        .unwrap_or_else(unreachable_partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn c(labels: &[u32]) -> SharedLabelSet {
        Arc::new(LabelSet::from_labels(16, labels.iter().map(|&l| Label(l))))
    }

    fn worklist_pairs(sys: &PairSystem) -> PairSolution {
        solve_pair(sys, SolverKind::Worklist, &mut BudgetMeter::unlimited()).unwrap()
    }

    fn sys_chain() -> SetSystem {
        // v0 = {0}; v1 = v0 ∪ {1}; v2 = v1; cyclic v0 ⊇ v2 keeps it
        // interesting but adds nothing new.
        SetSystem {
            n_vars: 3,
            universe: 16,
            constraints: vec![
                SetConstraint {
                    lhs: SetVar(0),
                    terms: vec![SetTerm::Const(c(&[0]))],
                },
                SetConstraint {
                    lhs: SetVar(1),
                    terms: vec![SetTerm::Var(SetVar(0)), SetTerm::Const(c(&[1]))],
                },
                SetConstraint {
                    lhs: SetVar(2),
                    terms: vec![SetTerm::Var(SetVar(1))],
                },
                SetConstraint {
                    lhs: SetVar(0),
                    terms: vec![SetTerm::Var(SetVar(2))],
                },
            ],
        }
    }

    #[test]
    fn naive_and_worklist_agree() {
        let sys = sys_chain();
        let a = solve_set_naive(&sys);
        let b = solve_set(&sys, SolverKind::Worklist, &mut BudgetMeter::unlimited()).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.get(SetVar(2)).iter().count(), 2);
        assert!(a.get(SetVar(0)).contains(Label(1)), "cycle propagates back");
    }

    #[test]
    fn naive_pass_count_includes_final_check() {
        // A system already at fixpoint (all empty) takes exactly 1 pass;
        // the chain takes a few, ending with a changeless pass.
        let empty = SetSystem {
            n_vars: 1,
            universe: 8,
            constraints: vec![SetConstraint {
                lhs: SetVar(0),
                terms: vec![],
            }],
        };
        assert_eq!(solve_set_naive(&empty).passes, 1);
        assert!(solve_set_naive(&sys_chain()).passes >= 2);
    }

    #[test]
    fn reverse_order_needs_more_passes_than_worklist_evals_suggest() {
        // Constraints listed against dependency order force extra passes.
        let mut sys = sys_chain();
        sys.constraints.reverse();
        let fwd = solve_set_naive(&sys_chain());
        let rev = solve_set_naive(&sys);
        assert_eq!(fwd.values, rev.values);
        assert!(rev.passes >= fwd.passes);
    }

    #[test]
    fn pair_system_solves_lcross_chain() {
        let sys = PairSystem {
            n_vars: 2,
            universe: 16,
            constraints: vec![
                PairConstraint {
                    lhs: PairVar(0),
                    terms: vec![PairTerm::Lcross(Label(3), c(&[1, 2]))],
                },
                PairConstraint {
                    lhs: PairVar(1),
                    terms: vec![
                        PairTerm::MVar(PairVar(0)),
                        PairTerm::Symcross(c(&[5]), c(&[6])),
                    ],
                },
            ],
        };
        let a = solve_pair_naive(&sys);
        let b = worklist_pairs(&sys);
        assert_eq!(a.values, b.values);
        assert_eq!(a.get(PairVar(1)).len(), 3); // (1,3), (2,3), (5,6)
        assert!(a.get(PairVar(1)).contains(Label(5), Label(6)));
        assert!(a.get(PairVar(0)).is_subset(a.get(PairVar(1))));
    }

    #[test]
    fn pair_cycles_converge() {
        // m0 ⊇ m1, m1 ⊇ m0, m1 ⊇ {(1,1)}.
        let sys = PairSystem {
            n_vars: 2,
            universe: 8,
            constraints: vec![
                PairConstraint {
                    lhs: PairVar(0),
                    terms: vec![PairTerm::MVar(PairVar(1))],
                },
                PairConstraint {
                    lhs: PairVar(1),
                    terms: vec![
                        PairTerm::MVar(PairVar(0)),
                        PairTerm::Lcross(Label(1), c(&[1])),
                    ],
                },
            ],
        };
        let s = solve_pair_naive(&sys);
        assert_eq!(s.get(PairVar(0)), s.get(PairVar(1)));
        assert_eq!(s.get(PairVar(0)).len(), 1);
    }

    fn chain_with_cycle() -> PairSystem {
        // m0 → m1 → m2 with a cycle {m1, m2} and a constant seed at m2.
        PairSystem {
            n_vars: 4,
            universe: 16,
            constraints: vec![
                PairConstraint {
                    lhs: PairVar(0),
                    terms: vec![
                        PairTerm::MVar(PairVar(1)),
                        PairTerm::Lcross(Label(0), c(&[5])),
                    ],
                },
                PairConstraint {
                    lhs: PairVar(1),
                    terms: vec![PairTerm::MVar(PairVar(2))],
                },
                PairConstraint {
                    lhs: PairVar(2),
                    terms: vec![
                        PairTerm::MVar(PairVar(1)),
                        PairTerm::Symcross(c(&[1, 2]), c(&[3])),
                    ],
                },
                // m3 independent (parallel branch).
                PairConstraint {
                    lhs: PairVar(3),
                    terms: vec![PairTerm::Lcross(Label(9), c(&[10, 11]))],
                },
            ],
        }
    }

    #[test]
    fn cyclic_chain_naive_matches_worklist() {
        let sys = chain_with_cycle();
        let naive = solve_pair_naive(&sys);
        let wl = worklist_pairs(&sys);
        assert_eq!(naive.values, wl.values);
        // The cycle propagated the symcross both ways and up to m0.
        assert!(wl.get(PairVar(0)).contains(Label(1), Label(3)));
        assert!(wl.get(PairVar(1)).contains(Label(2), Label(3)));
        assert!(wl.get(PairVar(3)).contains(Label(9), Label(11)));
    }

    #[test]
    fn worklist_converges_on_a_deep_chain_without_recursion() {
        // m_v ⊇ m_{v+1} for a 20,000-long chain seeded at its far end,
        // listed against dependency order: the worklist walks it back
        // one constraint at a time, iteratively.
        let n = 20_000usize;
        let constraints = (0..n as u32)
            .map(|v| PairConstraint {
                lhs: PairVar(v),
                terms: vec![if v + 1 < n as u32 {
                    PairTerm::MVar(PairVar(v + 1))
                } else {
                    PairTerm::Lcross(Label(0), c(&[1]))
                }],
            })
            .collect();
        let sys = PairSystem {
            n_vars: n,
            universe: 16,
            constraints,
        };
        let wl = worklist_pairs(&sys);
        assert!(wl.exhausted.is_none());
        assert!(wl.values.iter().all(|m| m.contains(Label(0), Label(1))));
        // One seeding sweep, then one re-run per link back up the chain.
        assert_eq!(wl.evals, 2 * n - 1);
    }
}
