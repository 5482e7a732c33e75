//! Dynamic witness extraction for MHP/race diagnostics.
//!
//! A static race report says two labels *may* happen in parallel; the
//! strongest possible evidence is a concrete schedule that drives the
//! program to a state whose `parallel(T)` contains the pair — then both
//! racing instructions are enabled redexes at once. This module searches
//! for such a schedule with a bounded breadth-first exploration and
//! returns it as a trace of successor-choice indices, the same format
//! [`run_traced`](crate::interp::run_traced) records and
//! [`replay`](crate::interp::replay) consumes.
//!
//! Unlike the main explorer, the search runs over **raw** trees: no
//! `∥`-canonicalization and no administrative normalization. Canonical
//! dedup is a bisimulation — sound for reachability — but it permutes the
//! order [`successors`] enumerates transitions in, which would invalidate
//! the recorded choice indices. Determinism matters too: the BFS expands
//! states in insertion order, so the witness for a given program, input
//! and budget is always the same schedule.

use crate::parallel::{pair, parallel, LabelPair};
use crate::state::ArrayState;
use crate::step::{initial_tree, successors};
use crate::tree::Tree;

use fx10_robust::{Budget, BudgetMeter, CancelToken, Fx10Error, Stop};
use fx10_syntax::{Label, Program};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::rc::Rc;

/// A concrete interleaving exhibiting a label pair running in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The exhibited (unordered, normalized) label pair.
    pub pair: LabelPair,
    /// Successor-choice indices from the initial state; replaying the
    /// whole schedule reaches a state with the pair in `parallel(T)`.
    pub schedule: Vec<u32>,
    /// States the search expanded before finding the witness.
    pub states: usize,
}

/// The outcome of a bounded witness search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessSearch {
    /// A schedule exhibiting the pair was found.
    Found(Witness),
    /// The full (raw) state space was exhausted without the pair ever
    /// co-occurring: the static report is a proven false positive.
    Refuted {
        /// States visited by the complete search.
        states: usize,
    },
    /// The state budget ran out first — the report stands, tagged
    /// may-be-spurious.
    Exhausted {
        /// States visited before the budget tripped.
        states: usize,
    },
}

/// Searches for a schedule under which `target`'s two labels are both
/// enabled redexes, visiting at most `max_states` raw states.
///
/// The search additionally honors `budget`'s wall-clock deadline and the
/// cancel token (cancellation surfaces as [`Fx10Error::Cancelled`]; a
/// deadline trip degrades to [`WitnessSearch::Exhausted`], matching the
/// explorer's budget semantics). This is the one-target case of
/// [`find_witnesses`].
pub fn find_witness(
    p: &Program,
    input: &[i64],
    target: LabelPair,
    max_states: usize,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<WitnessSearch, Fx10Error> {
    let mut found = find_witnesses(p, input, &[target], max_states, budget, cancel)?;
    Ok(found.pop().expect("one answer per target"))
}

/// Answers every target with one shared breadth-first search; result
/// `i` belongs to `targets[i]`.
///
/// The BFS order depends only on the program and the input, never on the
/// targets, so the multi-target search is a set of lone searches run in
/// lockstep: each target resolves at the first state that contains it,
/// exactly where its own [`find_witness`] call would stop, with the same
/// schedule and the same `states` count. A lone search that has not
/// stopped yet has visited the same prefix, so the state cap and the
/// iteration budget trip for every still-pending target together, and
/// each gets the `Exhausted` count its lone search would have reported.
/// An empty frontier refutes whatever is still pending. The search ends
/// as soon as no target is pending; cancellation aborts the whole call.
pub fn find_witnesses(
    p: &Program,
    input: &[i64],
    targets: &[LabelPair],
    max_states: usize,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<Vec<WitnessSearch>, Fx10Error> {
    let mut targets = Targets::new(targets);
    let root = Rc::new((ArrayState::with_input(p, input), initial_tree(p)));
    targets.settle(&parallel(&root.1), 1, Vec::new);
    if targets.pending.is_empty() {
        return Ok(targets.answers(None));
    }
    let mut meter = BudgetMeter::new(budget, cancel.clone());

    // Parent-pointer BFS: `nodes[i]` remembers how state `i` was reached
    // so the schedule reconstructs by walking back to the root. Each raw
    // state is stored once, shared by `states` and `seen`.
    struct Node {
        parent: usize,
        choice: u32,
    }
    let mut nodes = vec![Node {
        parent: usize::MAX,
        choice: 0,
    }];
    let mut states: Vec<Rc<(ArrayState, Tree)>> = vec![Rc::clone(&root)];
    let mut seen: HashSet<Rc<(ArrayState, Tree)>> = HashSet::from([root]);
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    let rest = 'bfs: loop {
        let Some(at) = frontier.pop_front() else {
            break WitnessSearch::Refuted { states: seen.len() };
        };
        match meter.tick() {
            Ok(()) => {}
            Err(Stop::Cancelled) => return Err(Fx10Error::Cancelled),
            Err(Stop::Exhausted(_)) => break WitnessSearch::Exhausted { states: seen.len() },
        }
        let here = Rc::clone(&states[at]);
        for (choice, succ) in successors(p, &here.0, &here.1).into_iter().enumerate() {
            let key = (succ.array, succ.tree);
            if seen.contains(&key) {
                continue;
            }
            targets.settle(&parallel(&key.1), seen.len() + 1, || {
                let mut schedule = vec![choice as u32];
                let mut up = at;
                while up != 0 {
                    schedule.push(nodes[up].choice);
                    up = nodes[up].parent;
                }
                schedule.reverse();
                schedule
            });
            if targets.pending.is_empty() {
                return Ok(targets.answers(None));
            }
            if seen.len() >= max_states {
                break 'bfs WitnessSearch::Exhausted { states: seen.len() };
            }
            nodes.push(Node {
                parent: at,
                choice: choice as u32,
            });
            let key = Rc::new(key);
            states.push(Rc::clone(&key));
            seen.insert(key);
            frontier.push_back(nodes.len() - 1);
        }
    };
    Ok(targets.answers(Some(rest)))
}

/// The targets of one [`find_witnesses`] call and what is known so far.
struct Targets {
    /// Normalized target pairs, in the caller's order.
    pairs: Vec<LabelPair>,
    /// `answers[i]` is set once `pairs[i]` is found.
    answers: Vec<Option<WitnessSearch>>,
    /// Indices of the targets not found yet.
    pending: Vec<usize>,
}

impl Targets {
    fn new(targets: &[LabelPair]) -> Self {
        Targets {
            pairs: targets.iter().map(|&(a, b)| pair(a, b)).collect(),
            answers: vec![None; targets.len()],
            pending: (0..targets.len()).collect(),
        }
    }

    /// Resolves every pending target in `par` (the `parallel(T)` of a
    /// newly reached state) as found there, all with the one schedule
    /// `schedule` builds; it is built only if some target is found.
    fn settle(
        &mut self,
        par: &BTreeSet<LabelPair>,
        states: usize,
        schedule: impl FnOnce() -> Vec<u32>,
    ) {
        let pairs = &self.pairs;
        if !self.pending.iter().any(|&i| par.contains(&pairs[i])) {
            return;
        }
        let schedule = schedule();
        let answers = &mut self.answers;
        self.pending.retain(|&i| {
            if !par.contains(&pairs[i]) {
                return true;
            }
            answers[i] = Some(WitnessSearch::Found(Witness {
                pair: pairs[i],
                schedule: schedule.clone(),
                states,
            }));
            false
        });
    }

    /// Every answer, with each still-pending target answered by `rest`
    /// (`None` only when nothing is pending).
    fn answers(self, rest: Option<WitnessSearch>) -> Vec<WitnessSearch> {
        self.answers
            .into_iter()
            .map(|a| {
                a.or_else(|| rest.clone())
                    .expect("a pending target needs an answer")
            })
            .collect()
    }
}

/// Validates a witness schedule: replays it from the initial state and
/// checks that the final tree really has `target` in `parallel(T)`.
///
/// This is the property the race proptests pin down — a witness is only
/// evidence if an independent replay through the interpreter's
/// transition enumeration reproduces the co-occurrence.
pub fn witness_exhibits(p: &Program, input: &[i64], schedule: &[u32], target: LabelPair) -> bool {
    let target = pair(target.0, target.1);
    let mut array = ArrayState::with_input(p, input);
    let mut tree = initial_tree(p);
    for &choice in schedule {
        let succ = successors(p, &array, &tree);
        let Some(chosen) = succ.into_iter().nth(choice as usize) else {
            return false;
        };
        array = chosen.array;
        tree = chosen.tree;
    }
    parallel(&tree).contains(&target)
}

/// Convenience for diagnostics: searches for a witness of `(a, b)` with
/// an unlimited time budget and no cancellation.
pub fn find_witness_simple(
    p: &Program,
    input: &[i64],
    a: Label,
    b: Label,
    max_states: usize,
) -> WitnessSearch {
    match find_witness(
        p,
        input,
        (a, b),
        max_states,
        Budget::unlimited(),
        &CancelToken::new(),
    ) {
        Ok(w) => w,
        // Unreachable (nobody cancels), but degrade rather than panic.
        Err(_) => WitnessSearch::Exhausted { states: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::replay;

    fn racey() -> Program {
        Program::parse("def main() { W1: async { a[0] = 1; } W2: a[0] = 2; }").unwrap()
    }

    #[test]
    fn finds_a_witness_for_the_racy_pair() {
        let p = racey();
        // The racing accesses: the assign inside W1's async body, and W2.
        let w1 = Label(p.labels().lookup("W1").unwrap().0 + 1);
        let w2 = p.labels().lookup("W2").unwrap();
        match find_witness_simple(&p, &[], w1, w2, 10_000) {
            WitnessSearch::Found(w) => {
                assert!(witness_exhibits(&p, &[], &w.schedule, w.pair));
                // The schedule replays cleanly through the interpreter.
                assert!(replay(&p, &[], &w.schedule).is_ok());
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn refutes_a_finish_protected_pair() {
        let p = Program::parse("def main() { finish { X: async { a[0] = 1; } } Y: a[0] = 2; }")
            .unwrap();
        let x = p.labels().lookup("X").unwrap();
        let y = p.labels().lookup("Y").unwrap();
        // X's body and Y never co-occur; the search must prove it.
        let body = Label(x.0 + 1);
        match find_witness_simple(&p, &[], body, y, 10_000) {
            WitnessSearch::Refuted { states } => assert!(states > 0),
            other => panic!("expected refuted, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // The racing pair only co-occurs after both prefix skips run;
        // one admitted state cannot get there.
        let p = Program::parse("def main() { async { skip; X: a[0] = 1; } skip; Y: a[0] = 2; }")
            .unwrap();
        let x = p.labels().lookup("X").unwrap();
        let y = p.labels().lookup("Y").unwrap();
        match find_witness_simple(&p, &[], x, y, 1) {
            WitnessSearch::Exhausted { .. } => {}
            other => panic!("expected exhausted, got {other:?}"),
        }
        // With room to search, the same pair gets a witness.
        match find_witness_simple(&p, &[], x, y, 10_000) {
            WitnessSearch::Found(w) => {
                assert!(witness_exhibits(&p, &[], &w.schedule, (x, y)));
            }
            other => panic!("expected found, got {other:?}"),
        }
    }

    #[test]
    fn witness_search_is_deterministic() {
        let p = racey();
        let w1 = Label(p.labels().lookup("W1").unwrap().0 + 1);
        let w2 = p.labels().lookup("W2").unwrap();
        let a = find_witness_simple(&p, &[], w1, w2, 10_000);
        let b = find_witness_simple(&p, &[], w1, w2, 10_000);
        assert_eq!(a, b);
    }
}
