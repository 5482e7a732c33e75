//! Oracles for the two fast paths behind `fx10 mhp`.
//!
//! 1. **Naive solvers.** The library's round-robin solvers skip a
//!    constraint whose variable inputs have not changed since it last
//!    ran. [`reference_set_naive`] and [`reference_pair_naive`] are the
//!    plain loops that re-evaluate every constraint on every pass, kept
//!    here as the oracle. On random programs, context-sensitive and
//!    context-insensitive, both must give the same values, `passes` and
//!    `evals` for all three phases (Slabels, level 1, level 2), and under
//!    every `max_iters` budget the same [`Exhaustion`] at the same point
//!    with the same partial values.
//! 2. **Pair order.** `Analysis::pairs_by_name` ranks labels by display
//!    name and sorts integer tuples. [`reference_pairs_named`] is the
//!    old rendering that sorted and deduplicated `(String, String)`
//!    tuples; the two must agree, including where string order is not
//!    label order (`L10` before `L2`) and where a user label shares an
//!    auto label's name.

use fx10::analysis::gen::{generate, simplify, Mode};
use fx10::analysis::sets::{LabelSet, PairSet};
use fx10::analysis::slabels::{compute_slabels, slabels_system};
use fx10::analysis::solver::{
    solve_pair, solve_set, solve_set_naive, PairConstraint, PairSystem, PairTerm, SetConstraint,
    SetSystem, SetTerm, SolverKind,
};
use fx10::analysis::{analyze, analyze_ci, Analysis, StmtIndex};
use fx10::robust::{Budget, BudgetMeter, CancelToken, Exhaustion, Fx10Error, Stop};
use fx10::suite::{random_fx10, RandomConfig};
use fx10::syntax::Program;
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Reference naive solvers: every constraint, every pass
// ---------------------------------------------------------------------------

fn reference_eval_set(c: &SetConstraint, values: &mut [LabelSet]) -> bool {
    let mut changed = false;
    for t in &c.terms {
        let rhs = match t {
            SetTerm::Const(s) => (**s).clone(),
            SetTerm::Var(v) if *v == c.lhs => continue,
            SetTerm::Var(v) => values[v.index()].clone(),
        };
        changed |= values[c.lhs.index()].union_with(&rhs);
    }
    changed
}

fn reference_eval_pair(c: &PairConstraint, values: &mut [PairSet]) -> bool {
    let mut changed = false;
    for t in &c.terms {
        changed |= match t {
            PairTerm::Lcross(l, s) => values[c.lhs.index()].add_lcross(*l, s),
            PairTerm::Symcross(a, b) => values[c.lhs.index()].add_symcross(a, b),
            PairTerm::MVar(v) if *v == c.lhs => continue,
            PairTerm::MVar(v) => {
                let rhs = values[v.index()].clone();
                values[c.lhs.index()].union_with(&rhs)
            }
        };
    }
    changed
}

/// `(values, passes, evals, exhausted)` of a naive solve.
type Solved<V> = (Vec<V>, usize, usize, Option<Exhaustion>);

/// The plain round-robin loop: re-evaluates every constraint on every
/// pass until a full pass changes nothing, one meter tick per
/// evaluation.
fn reference_naive<C, V>(
    constraints: &[C],
    mut values: Vec<V>,
    eval: fn(&C, &mut [V]) -> bool,
    meter: &mut BudgetMeter,
) -> Result<Solved<V>, Fx10Error> {
    let mut passes = 0usize;
    let mut evals = 0usize;
    let mut exhausted = None;
    'solve: loop {
        passes += 1;
        let mut changed = false;
        for c in constraints {
            match meter.tick() {
                Ok(()) => {}
                Err(Stop::Exhausted(e)) => {
                    exhausted = Some(e);
                    break 'solve;
                }
                Err(stop @ Stop::Cancelled) => return Err(stop.into()),
            }
            evals += 1;
            changed |= eval(c, &mut values);
        }
        if !changed {
            break;
        }
    }
    Ok((values, passes, evals, exhausted))
}

fn reference_set_naive(sys: &SetSystem, meter: &mut BudgetMeter) -> Solved<LabelSet> {
    let values = vec![LabelSet::empty(sys.universe); sys.n_vars];
    reference_naive(&sys.constraints, values, reference_eval_set, meter).unwrap()
}

fn reference_pair_naive(sys: &PairSystem, meter: &mut BudgetMeter) -> Solved<PairSet> {
    let values = vec![PairSet::empty(sys.universe); sys.n_vars];
    reference_naive(&sys.constraints, values, reference_eval_pair, meter).unwrap()
}

fn meter(max_iters: Option<u64>) -> BudgetMeter {
    let budget = Budget {
        max_iters,
        ..Budget::unlimited()
    };
    BudgetMeter::new(budget, CancelToken::new())
}

/// Budgets to sweep for a solve of `total` evaluations: the first few
/// ticks, interior points, the last tick and one past it.
fn budgets(total: usize, pick: u64) -> BTreeSet<u64> {
    let t = total as u64;
    let mut ks: BTreeSet<u64> = [
        0,
        1,
        2,
        3,
        t / 4,
        t / 2,
        3 * t / 4,
        t.saturating_sub(1),
        t,
        t + 1,
    ]
    .into_iter()
    .collect();
    ks.insert(pick % (t + 2));
    ks
}

/// The three naive systems of one analysis of `p`: Slabels, level 1 and
/// the simplified level 2.
fn systems(p: &Program, mode: Mode) -> (SetSystem, SetSystem, PairSystem) {
    let idx = StmtIndex::build(p);
    let slab = compute_slabels(&idx, true);
    let gen = generate(p, &idx, &slab, mode);
    let l1 = solve_set_naive(&gen.level1);
    let l2 = simplify(&gen, &l1, &slab);
    (slabels_system(&idx), gen.level1, l2)
}

/// Checks a library solve against its reference, unbudgeted and at every
/// budget of [`budgets`].
fn assert_matches<V: PartialEq + std::fmt::Debug>(
    what: &str,
    pick: u64,
    library: impl Fn(&mut BudgetMeter) -> Solved<V>,
    reference: impl Fn(&mut BudgetMeter) -> Solved<V>,
) -> Result<(), TestCaseError> {
    let total = reference(&mut meter(None)).2;
    for k in std::iter::once(None).chain(budgets(total, pick).into_iter().map(Some)) {
        let (got, want) = (library(&mut meter(k)), reference(&mut meter(k)));
        prop_assert_eq!(got, want, "{} at max_iters {:?}", what, k);
    }
    Ok(())
}

fn cfg(seed: u64, methods: usize, stmts: usize, depth: usize) -> RandomConfig {
    RandomConfig {
        methods,
        stmts_per_method: stmts,
        max_depth: depth,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oracle 1: the skipping naive solvers match the plain loop on every
    /// phase, CS and CI, with and without an iteration budget.
    #[test]
    fn skipping_naive_solvers_match_the_plain_loop(
        seed in 0u64..10_000,
        methods in 1usize..5,
        stmts in 1usize..7,
        depth in 0usize..4,
        pick in 0u64..100_000,
    ) {
        let p = random_fx10(cfg(seed, methods, stmts, depth));
        for mode in [Mode::ContextSensitive, Mode::ContextInsensitive { keep_scross: true }] {
            let (slab, l1, l2) = systems(&p, mode);
            for (what, sys) in [("slabels", &slab), ("level-1", &l1)] {
                assert_matches(
                    what,
                    pick,
                    |m| {
                        let s = solve_set(sys, SolverKind::Naive, m).unwrap();
                        (s.values, s.passes, s.evals, s.exhausted)
                    },
                    |m| reference_set_naive(sys, m),
                )?;
            }
            assert_matches(
                "level-2",
                pick,
                |m| {
                    let s = solve_pair(&l2, SolverKind::Naive, m).unwrap();
                    (s.values, s.passes, s.evals, s.exhausted)
                },
                |m| reference_pair_naive(&l2, m),
            )?;
        }
    }
}

// ---------------------------------------------------------------------------
// Reference pair order: sort and deduplicate rendered strings
// ---------------------------------------------------------------------------

/// The old `pairs_named`: render both names, order each pair as
/// strings, sort, deduplicate.
fn reference_pairs_named(a: &Analysis, p: &Program) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = a
        .mhp()
        .iter_pairs()
        .map(|(a, b)| {
            let (x, y) = (p.labels().display(a), p.labels().display(b));
            if x <= y {
                (x, y)
            } else {
                (y, x)
            }
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

fn assert_order_matches(a: &Analysis, p: &Program) -> Result<(), TestCaseError> {
    let want = reference_pairs_named(a, p);
    prop_assert_eq!(&a.pairs_named(p), &want);
    let by_name = a.pairs_by_name(p);
    for &(x, y) in &by_name {
        prop_assert!(a.may_happen_in_parallel(x, y));
    }
    let rendered: Vec<(String, String)> = by_name
        .iter()
        .map(|&(x, y)| (p.labels().display(x), p.labels().display(y)))
        .collect();
    prop_assert_eq!(rendered, want);
    Ok(())
}

#[test]
fn pair_order_matches_string_order_on_colliding_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/programs/mhp_names.fx10");
    let p = Program::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    for a in [analyze(&p), analyze_ci(&p)] {
        assert_order_matches(&a, &p).unwrap();
        let by_name = a.pairs_by_name(&p);
        // The fixture must keep exercising both hazards: label order is
        // not name order, and two labels' pairs collapse into one line.
        let mut by_label = by_name.clone();
        by_label.sort();
        assert_ne!(by_label, by_name, "string order differs from label order");
        let distinct: BTreeSet<_> = a
            .mhp()
            .iter_pairs()
            .map(|(x, y)| (x.min(y), x.max(y)))
            .collect();
        assert!(
            by_name.len() < distinct.len(),
            "a shared name collapses pairs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oracle 2 on random programs, whose auto labels run well past `L9`.
    #[test]
    fn pair_order_matches_string_order_on_random_programs(
        seed in 0u64..10_000,
        methods in 1usize..5,
        stmts in 2usize..7,
        depth in 0usize..4,
    ) {
        let p = random_fx10(cfg(seed, methods, stmts, depth));
        assert_order_matches(&analyze(&p), &p)?;
        assert_order_matches(&analyze_ci(&p), &p)?;
    }
}
