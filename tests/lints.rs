//! Property tests for the lint suite's dynamic-evidence contract.
//!
//! Two properties tie the static lint engine to the exact semantics:
//!
//! 1. **Witness replay** — every witness the bounded search finds is a
//!    real schedule: replaying its successor choices from the initial
//!    state reaches a tree where the two racing labels are co-enabled
//!    (`parallel(T)` contains the pair).
//! 2. **No confirmed ghost races** — on programs the explorer can fully
//!    enumerate, a race diagnostic at confidence `confirmed` always names
//!    a pair the exact dynamic MHP contains. The explorer is ground
//!    truth; `confirmed` must never overclaim.
//!
//! A third property pins the shared witness search the lint race pass
//! runs: `find_witnesses` must answer every target exactly as a lone
//! search would. The oracle is [`reference_find_witness`], the
//! one-target BFS kept here verbatim, independent of the library code.

use fx10::analysis::analyze_ci;
use fx10::analysis::race::{accesses, detect_races_with};
use fx10::lints::{lint, Confidence, LintOptions};
use fx10::robust::{Budget, BudgetMeter, CancelToken, Fx10Error, Stop};
use fx10::semantics::parallel::{pair, parallel, LabelPair};
use fx10::semantics::step::{initial_tree, successors};
use fx10::semantics::witness::{
    find_witness_simple, find_witnesses, witness_exhibits, Witness, WitnessSearch,
};
use fx10::semantics::{explore, ArrayState, ExploreConfig, Tree};
use fx10::suite::{random_fx10, random_fx10_loop_free, RandomConfig};
use fx10::syntax::{Label, Program};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

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

    /// Property 1: found witness schedules replay to co-occurring
    /// redexes. (Loop-free programs keep the raw space finite.)
    #[test]
    fn witness_schedules_replay_to_co_enabled_pairs(
        seed in 0u64..10_000,
        methods in 1usize..3,
        stmts in 1usize..5,
        depth in 0usize..3,
    ) {
        let p = random_fx10_loop_free(cfg(seed, methods, stmts, depth));
        let ci = analyze_ci(&p);
        let races = detect_races_with(&accesses(&p), |x, y| ci.may_happen_in_parallel(x, y));
        for race in &races {
            let target = (race.first.label, race.second.label);
            if let WitnessSearch::Found(w) =
                find_witness_simple(&p, &[], target.0, target.1, 60_000)
            {
                prop_assert!(
                    witness_exhibits(&p, &[], &w.schedule, target),
                    "schedule {:?} does not exhibit {:?}",
                    w.schedule,
                    target
                );
            }
        }
    }

    /// Property 2: on fully-explorable programs, `confirmed` race
    /// diagnostics only name pairs the exact dynamic MHP contains.
    #[test]
    fn confirmed_races_are_in_the_exact_dynamic_mhp(
        seed in 0u64..10_000,
        methods in 1usize..3,
        stmts in 1usize..5,
        depth in 0usize..3,
    ) {
        let p = random_fx10_loop_free(cfg(seed, methods, stmts, depth));
        let e = explore(&p, &[], ExploreConfig {
            max_states: 60_000,
            ..ExploreConfig::default()
        });
        prop_assume!(!e.truncated);

        let report = lint(
            &p,
            &LintOptions { witness_states: 60_000, ..LintOptions::default() },
            &CancelToken::new(),
        ).unwrap();
        for d in &report.diagnostics {
            if !d.code.starts_with("race-") || d.confidence != Confidence::Confirmed {
                continue;
            }
            let (a, b) = d.pair.expect("race diagnostics carry their pair");
            let key = (a.min(b), a.max(b));
            prop_assert!(
                e.mhp.contains(&key),
                "lint confirmed {:?} but the explorer's exact MHP refutes it",
                key
            );
            prop_assert!(d.witness.is_some(), "confirmed races carry a witness");
        }
    }
}

/// Test oracle: the one-target witness BFS, kept independent of the
/// library's shared search. It expands raw states in insertion order,
/// checks the target on each newly reached state before the cap, and
/// stops at the first hit, the cap, the budget or an empty frontier.
fn reference_find_witness(
    p: &Program,
    input: &[i64],
    target: LabelPair,
    max_states: usize,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<WitnessSearch, Fx10Error> {
    let target = pair(target.0, target.1);
    let mut meter = BudgetMeter::new(budget, cancel.clone());

    // Parent-pointer BFS: `nodes[i]` remembers how state `i` was reached
    // so the schedule reconstructs by walking back to the root.
    struct Node {
        parent: usize,
        choice: u32,
    }
    let root = (ArrayState::with_input(p, input), initial_tree(p));
    if parallel(&root.1).contains(&target) {
        return Ok(WitnessSearch::Found(Witness {
            pair: target,
            schedule: Vec::new(),
            states: 1,
        }));
    }
    let mut nodes = vec![Node {
        parent: usize::MAX,
        choice: 0,
    }];
    let mut states: Vec<(ArrayState, Tree)> = vec![root.clone()];
    let mut seen: HashSet<(ArrayState, Tree)> = HashSet::from([root]);
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    while let Some(at) = frontier.pop_front() {
        match meter.tick() {
            Ok(()) => {}
            Err(Stop::Cancelled) => return Err(Fx10Error::Cancelled),
            Err(Stop::Exhausted(_)) => return Ok(WitnessSearch::Exhausted { states: seen.len() }),
        }
        let (array, tree) = states[at].clone();
        for (choice, succ) in successors(p, &array, &tree).into_iter().enumerate() {
            let key = (succ.array, succ.tree);
            if seen.contains(&key) {
                continue;
            }
            if parallel(&key.1).contains(&target) {
                let mut schedule = vec![choice as u32];
                let mut up = at;
                while up != 0 {
                    schedule.push(nodes[up].choice);
                    up = nodes[up].parent;
                }
                schedule.reverse();
                return Ok(WitnessSearch::Found(Witness {
                    pair: target,
                    schedule,
                    states: seen.len() + 1,
                }));
            }
            if seen.len() >= max_states {
                return Ok(WitnessSearch::Exhausted { states: seen.len() });
            }
            nodes.push(Node {
                parent: at,
                choice: choice as u32,
            });
            states.push(key.clone());
            seen.insert(key);
            frontier.push_back(nodes.len() - 1);
        }
    }
    Ok(WitnessSearch::Refuted { states: seen.len() })
}

/// Targets in every shape the shared search must answer like lone
/// searches: the static race pairs; the pairs co-enabled at the root
/// (always none: `parallel(⟨s⟩)` is empty, which the caller asserts)
/// and one or two steps from it; each of those reversed; label pairs
/// from `picks`, most of which never co-occur; and a duplicate.
fn mixed_targets(p: &Program, picks: &[(u32, u32)]) -> Vec<LabelPair> {
    let ci = analyze_ci(p);
    let races = detect_races_with(&accesses(p), |x, y| ci.may_happen_in_parallel(x, y));
    let mut targets: Vec<LabelPair> = races
        .iter()
        .map(|r| (r.first.label, r.second.label))
        .collect();
    let root = initial_tree(p);
    let mut shallow: BTreeSet<LabelPair> = parallel(&root);
    for one in successors(p, &ArrayState::with_input(p, &[]), &root) {
        shallow.extend(parallel(&one.tree));
        for two in successors(p, &one.array, &one.tree) {
            shallow.extend(parallel(&two.tree));
        }
    }
    targets.extend(shallow);
    let reversed: Vec<LabelPair> = targets.iter().map(|&(a, b)| (b, a)).collect();
    targets.extend(reversed);
    let n = p.labels().len() as u32;
    targets.extend(picks.iter().map(|&(a, b)| (Label(a % n), Label(b % n))));
    if let Some(&first) = targets.first() {
        targets.push(first);
    }
    targets
}

/// Checks `find_witnesses` against the reference for every target under
/// one cap and budget; returns the answers.
fn assert_matches_reference(
    p: &Program,
    targets: &[LabelPair],
    max_states: usize,
    budget: Budget,
) -> Result<Vec<WitnessSearch>, TestCaseError> {
    let cancel = CancelToken::new();
    let shared = find_witnesses(p, &[], targets, max_states, budget, &cancel).unwrap();
    prop_assert_eq!(shared.len(), targets.len());
    let mut lone: HashMap<LabelPair, WitnessSearch> = HashMap::new();
    for (&target, got) in targets.iter().zip(&shared) {
        let want = lone.entry(target).or_insert_with(|| {
            reference_find_witness(p, &[], target, max_states, budget, &cancel).unwrap()
        });
        prop_assert_eq!(
            got,
            &*want,
            "target {:?} at max_states {} budget {:?}",
            target,
            max_states,
            budget.max_iters
        );
    }
    Ok(shared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 3: one shared search gives each target the byte-identical
    /// answer of a lone reference search: schedule, `states` count and
    /// outcome, under tight, medium and default state caps and under an
    /// iteration budget.
    #[test]
    fn shared_witness_search_matches_the_lone_reference(
        seed in 0u64..10_000,
        loops in 0u8..2,
        stmts in 2usize..5,
        depth in 1usize..4,
        picks in proptest::collection::vec((0u32..64, 0u32..64), 0..4),
        iters in 1u64..300,
    ) {
        let shape = cfg(seed, 1 + seed as usize % 3, stmts, depth);
        let p = if loops == 1 { random_fx10(shape) } else { random_fx10_loop_free(shape) };
        prop_assert!(parallel(&initial_tree(&p)).is_empty());
        let targets = mixed_targets(&p, &picks);
        for max_states in [1, 64, 10_000] {
            assert_matches_reference(&p, &targets, max_states, Budget::unlimited())?;
        }
        let budget = Budget { max_iters: Some(iters), ..Budget::unlimited() };
        assert_matches_reference(&p, &targets, 10_000, budget)?;
    }
}

/// The lint fixture with every witness outcome: at the default cap one
/// shared search finds two pairs and refutes two, and at a cap of 160 it
/// still finds both but runs out of room on the other two, each answer
/// equal to the lone reference search's.
#[test]
fn shared_witness_search_mixes_outcomes_like_lone_searches() {
    let src = std::fs::read_to_string("programs/lint_multi_race.fx10").unwrap();
    let p = Program::parse(&src).unwrap();
    let label = |name: &str| p.labels().lookup(name).unwrap();
    let targets = [
        (label("S4"), label("T")),
        (label("S3"), label("S4")),
        (label("Y"), label("X")),
        (label("S3"), label("T")),
        (label("S4"), label("T")),
    ];
    let kinds = |answers: &[WitnessSearch]| -> Vec<&str> {
        answers
            .iter()
            .map(|a| match a {
                WitnessSearch::Found(_) => "found",
                WitnessSearch::Refuted { .. } => "refuted",
                WitnessSearch::Exhausted { .. } => "exhausted",
            })
            .collect()
    };
    let full = assert_matches_reference(&p, &targets, 10_000, Budget::unlimited()).unwrap();
    assert_eq!(
        kinds(&full),
        ["found", "refuted", "found", "refuted", "found"]
    );
    let capped = assert_matches_reference(&p, &targets, 160, Budget::unlimited()).unwrap();
    assert_eq!(
        kinds(&capped),
        ["found", "exhausted", "found", "exhausted", "found"]
    );
}
