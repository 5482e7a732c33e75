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
//! Two solvers are provided for each domain:
//! - **naive** — round-robin passes over all constraints until a full pass
//!   changes nothing. The pass count is reported; this is the "Number of
//!   iterations" column of Figure 8 (the final, changeless pass included,
//!   matching the paper's minimum of 2). A constraint none of whose
//!   variable inputs changed since it last ran is skipped — re-running
//!   it could add nothing — but a skip still counts as one evaluation and
//!   one meter tick, so pass counts, `evals` and budget cut points are
//!   those of the plain loop that re-evaluates everything.
//! - **worklist** — seeds all constraints, then re-evaluates only the
//!   constraints whose right-hand-side variables changed. Same solution;
//!   used as the production path and measured by the solver-ablation
//!   bench.
//!
//! Every solver also has a `_budgeted` variant taking a [`BudgetMeter`]:
//! one meter tick per constraint evaluation, so a `max_iters` budget
//! bounds the whole analysis across phases. Budget exhaustion returns
//! the partial (under-approximate) solution tagged with its
//! [`Exhaustion`] provenance; cancellation returns
//! [`Fx10Error::Cancelled`].

use crate::sets::{LabelSet, PairSet, SharedLabelSet};
use fx10_robust::{BudgetMeter, Exhaustion, Fx10Error, Stop};
use fx10_syntax::Label;

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

/// The least solution of a [`SetSystem`] plus solver statistics.
#[derive(Debug, Clone)]
pub struct SetSolution {
    /// Value per variable.
    pub values: Vec<LabelSet>,
    /// Round-robin passes (naive) or 0 (worklist).
    pub passes: usize,
    /// Individual constraint evaluations.
    pub evals: usize,
    /// `Some` when a budget cut the solve short: the values are a sound
    /// under-approximation of the least solution.
    pub exhausted: Option<Exhaustion>,
}

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

fn eval_set_constraint(c: &SetConstraint, values: &mut [LabelSet]) -> bool {
    let mut changed = false;
    for t in &c.terms {
        match t {
            SetTerm::Const(s) => {
                changed |= {
                    let lhs = &mut values[c.lhs.index()];
                    lhs.union_with(s)
                }
            }
            SetTerm::Var(v) => {
                if *v == c.lhs {
                    continue; // x ⊇ x is vacuous
                }
                // Split borrows: lhs and rhs are distinct indices.
                let (a, b) = (c.lhs.index(), v.index());
                let (lo, hi) = (a.min(b), a.max(b));
                let (left, right) = values.split_at_mut(hi);
                let (lhs, rhs) = if a < b {
                    (&mut left[lo], &right[0])
                } else {
                    (&mut right[0], &left[lo])
                };
                changed |= lhs.union_with(rhs);
            }
        }
    }
    changed
}

/// Fallback for the infallible wrappers: an unlimited meter cannot trip,
/// so this is unreachable — but library paths never panic, so degrade to
/// an empty, exhaustion-tagged solution instead.
macro_rules! unreachable_partial {
    ($sol:ident) => {
        $sol {
            values: Vec::new(),
            passes: 0,
            evals: 0,
            exhausted: Some(Exhaustion::SolverIterations),
        }
    };
}

/// What the shared naive loop needs from a constraint.
trait NaiveRule {
    type Value;
    /// Index of the constrained variable.
    fn lhs(&self) -> usize;
    /// Indices of the variables the right-hand side reads, without the
    /// vacuous self-read `x ⊇ x`.
    fn inputs(&self) -> impl Iterator<Item = usize> + '_;
    /// Unions the right-hand side into the lhs; true when the lhs grew.
    fn eval(&self, values: &mut [Self::Value]) -> bool;
}

impl NaiveRule for SetConstraint {
    type Value = LabelSet;
    fn lhs(&self) -> usize {
        self.lhs.index()
    }
    fn inputs(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().filter_map(|t| match t {
            SetTerm::Var(v) if *v != self.lhs => Some(v.index()),
            _ => None,
        })
    }
    fn eval(&self, values: &mut [LabelSet]) -> bool {
        eval_set_constraint(self, values)
    }
}

/// The round-robin loop of both naive solvers: passes over all
/// constraints until a full pass changes nothing. Returns
/// `(passes, evals, exhausted)`; the values are left in `values`.
///
/// A constraint is skipped when none of its variable inputs changed
/// since it last ran: its constants went into the lhs on that run and
/// the lhs only grows, so a re-run would add nothing. A skip still ticks
/// the meter and counts as an evaluation, so `passes`, `evals` and the
/// point where a budget cuts in are those of the loop that re-runs every
/// constraint.
fn naive_passes<C: NaiveRule>(
    constraints: &[C],
    values: &mut [C::Value],
    meter: &mut BudgetMeter,
) -> Result<(usize, usize, Option<Exhaustion>), Fx10Error> {
    // Stamps are 1-based evaluation numbers; 0 means "never".
    let mut changed_at = vec![0usize; values.len()];
    let mut ran_at = vec![0usize; constraints.len()];
    let mut passes = 0usize;
    let mut evals = 0usize;
    loop {
        passes += 1;
        let mut changed = false;
        for (c, ran) in constraints.iter().zip(&mut ran_at) {
            match meter.tick() {
                Ok(()) => {}
                Err(Stop::Exhausted(e)) => return Ok((passes, evals, Some(e))),
                Err(stop @ Stop::Cancelled) => return Err(stop.into()),
            }
            evals += 1;
            if *ran == 0 || c.inputs().any(|v| changed_at[v] > *ran) {
                *ran = evals;
                if c.eval(values) {
                    changed_at[c.lhs()] = evals;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok((passes, evals, None));
        }
    }
}

/// Naive round-robin solver; reports the pass count.
pub fn solve_set_naive(sys: &SetSystem) -> SetSolution {
    solve_set_naive_budgeted(sys, &mut BudgetMeter::unlimited())
        .unwrap_or_else(|_| unreachable_partial!(SetSolution))
}

/// [`solve_set_naive`] under a budget; exhaustion returns the partial
/// solution tagged, cancellation returns `Err`.
pub fn solve_set_naive_budgeted(
    sys: &SetSystem,
    meter: &mut BudgetMeter,
) -> Result<SetSolution, Fx10Error> {
    let mut values = vec![LabelSet::empty(sys.universe); sys.n_vars];
    let (passes, evals, exhausted) = naive_passes(&sys.constraints, &mut values, meter)?;
    Ok(SetSolution {
        values,
        passes,
        evals,
        exhausted,
    })
}

/// Worklist solver; same least solution, usually far fewer evaluations.
pub fn solve_set_worklist(sys: &SetSystem) -> SetSolution {
    solve_set_worklist_budgeted(sys, &mut BudgetMeter::unlimited())
        .unwrap_or_else(|_| unreachable_partial!(SetSolution))
}

/// [`solve_set_worklist`] under a budget.
pub fn solve_set_worklist_budgeted(
    sys: &SetSystem,
    meter: &mut BudgetMeter,
) -> Result<SetSolution, Fx10Error> {
    let mut values = vec![LabelSet::empty(sys.universe); sys.n_vars];
    // deps[v] = constraints whose rhs mentions v.
    let mut deps: Vec<Vec<u32>> = vec![Vec::new(); sys.n_vars];
    for (ci, c) in sys.constraints.iter().enumerate() {
        for t in &c.terms {
            if let SetTerm::Var(v) = t {
                deps[v.index()].push(ci as u32);
            }
        }
    }
    let mut on_queue = vec![true; sys.constraints.len()];
    let mut queue: std::collections::VecDeque<u32> = (0..sys.constraints.len() as u32).collect();
    let mut evals = 0usize;
    let mut exhausted = None;
    while let Some(ci) = queue.pop_front() {
        match meter.tick() {
            Ok(()) => {}
            Err(Stop::Exhausted(e)) => {
                exhausted = Some(e);
                break;
            }
            Err(stop @ Stop::Cancelled) => return Err(stop.into()),
        }
        on_queue[ci as usize] = false;
        let c = &sys.constraints[ci as usize];
        evals += 1;
        if eval_set_constraint(c, &mut values) {
            for &d in &deps[c.lhs.index()] {
                if !on_queue[d as usize] {
                    on_queue[d as usize] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    Ok(SetSolution {
        values,
        passes: 0,
        evals,
        exhausted,
    })
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

/// The least solution of a [`PairSystem`] plus solver statistics.
#[derive(Debug, Clone)]
pub struct PairSolution {
    /// Value per variable.
    pub values: Vec<PairSet>,
    /// Round-robin passes (naive) or 0 (worklist).
    pub passes: usize,
    /// Individual constraint evaluations.
    pub evals: usize,
    /// `Some` when a budget cut the solve short: the values are a sound
    /// under-approximation of the least solution.
    pub exhausted: Option<Exhaustion>,
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

fn eval_pair_constraint(c: &PairConstraint, values: &mut [PairSet]) -> bool {
    let mut changed = false;
    for t in &c.terms {
        match t {
            PairTerm::Lcross(l, s) => {
                changed |= values[c.lhs.index()].add_lcross(*l, s);
            }
            PairTerm::Symcross(a, b) => {
                changed |= values[c.lhs.index()].add_symcross(a, b);
            }
            PairTerm::MVar(v) => {
                if *v == c.lhs {
                    continue;
                }
                let (a, b) = (c.lhs.index(), v.index());
                let (lo, hi) = (a.min(b), a.max(b));
                let (left, right) = values.split_at_mut(hi);
                let (lhs, rhs) = if a < b {
                    (&mut left[lo], &right[0])
                } else {
                    (&mut right[0], &left[lo])
                };
                changed |= lhs.union_with(rhs);
            }
        }
    }
    changed
}

impl NaiveRule for PairConstraint {
    type Value = PairSet;
    fn lhs(&self) -> usize {
        self.lhs.index()
    }
    fn inputs(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().filter_map(|t| match t {
            PairTerm::MVar(v) if *v != self.lhs => Some(v.index()),
            _ => None,
        })
    }
    fn eval(&self, values: &mut [PairSet]) -> bool {
        eval_pair_constraint(self, values)
    }
}

/// Naive round-robin level-2 solver; reports the pass count.
pub fn solve_pair_naive(sys: &PairSystem) -> PairSolution {
    solve_pair_naive_budgeted(sys, &mut BudgetMeter::unlimited())
        .unwrap_or_else(|_| unreachable_partial!(PairSolution))
}

/// [`solve_pair_naive`] under a budget.
pub fn solve_pair_naive_budgeted(
    sys: &PairSystem,
    meter: &mut BudgetMeter,
) -> Result<PairSolution, Fx10Error> {
    let mut values = vec![PairSet::empty(sys.universe); sys.n_vars];
    let (passes, evals, exhausted) = naive_passes(&sys.constraints, &mut values, meter)?;
    Ok(PairSolution {
        values,
        passes,
        evals,
        exhausted,
    })
}

/// Worklist level-2 solver.
pub fn solve_pair_worklist(sys: &PairSystem) -> PairSolution {
    solve_pair_worklist_budgeted(sys, &mut BudgetMeter::unlimited())
        .unwrap_or_else(|_| unreachable_partial!(PairSolution))
}

/// [`solve_pair_worklist`] under a budget.
pub fn solve_pair_worklist_budgeted(
    sys: &PairSystem,
    meter: &mut BudgetMeter,
) -> Result<PairSolution, Fx10Error> {
    let mut values = vec![PairSet::empty(sys.universe); sys.n_vars];
    let mut deps: Vec<Vec<u32>> = vec![Vec::new(); sys.n_vars];
    for (ci, c) in sys.constraints.iter().enumerate() {
        for t in &c.terms {
            if let PairTerm::MVar(v) = t {
                deps[v.index()].push(ci as u32);
            }
        }
    }
    let mut on_queue = vec![true; sys.constraints.len()];
    let mut queue: std::collections::VecDeque<u32> = (0..sys.constraints.len() as u32).collect();
    let mut evals = 0usize;
    let mut exhausted = None;
    while let Some(ci) = queue.pop_front() {
        match meter.tick() {
            Ok(()) => {}
            Err(Stop::Exhausted(e)) => {
                exhausted = Some(e);
                break;
            }
            Err(stop @ Stop::Cancelled) => return Err(stop.into()),
        }
        on_queue[ci as usize] = false;
        let c = &sys.constraints[ci as usize];
        evals += 1;
        if eval_pair_constraint(c, &mut values) {
            for &d in &deps[c.lhs.index()] {
                if !on_queue[d as usize] {
                    on_queue[d as usize] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    Ok(PairSolution {
        values,
        passes: 0,
        evals,
        exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn c(labels: &[u32]) -> SharedLabelSet {
        Arc::new(LabelSet::from_labels(16, labels.iter().map(|&l| Label(l))))
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
        let b = solve_set_worklist(&sys);
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
        let b = solve_pair_worklist(&sys);
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
}
