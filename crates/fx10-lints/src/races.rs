//! The upgraded race pass: classification, confidence tiers, witnesses.
//!
//! Detection itself is `fx10_core::race::detect_races_with` — the same
//! pair logic `fx10 race` uses — run twice: once against the
//! context-sensitive MHP and once against the context-insensitive one.
//! CS ⊆ CI (Theorem: context sensitivity only removes pairs), so the CI
//! run is the universe of findings and membership in the CS run decides
//! the static tier. Each surviving finding then gets the answer of a
//! bounded dynamic witness search (one search, shared by all findings,
//! answers each exactly as a search of its own would):
//!
//! * **found** — the finding is `confirmed`, with the schedule attached;
//! * **refuted** — the raw state space was exhausted without the pair
//!   co-occurring: the finding is dropped (and counted);
//! * **budget out** — the finding keeps its static tier, tagged
//!   `may-be-spurious`.
//!
//! When a *complete* feasibility oracle is available, it runs first:
//! pairs whose labels the value analysis proves can never co-execute are
//! downgraded to `infeasible-race` notes (skipping the witness search —
//! the abstract proof is stronger than a bounded refutation), and every
//! finding that survives with the may-be-spurious tag gets a
//! `guard_fact` hint quoting the abstract values that kept it feasible.

use crate::diag::{Confidence, Diagnostic, Severity};
use fx10_absint::FeasibilityOracle;
use fx10_core::analysis::Analysis;
use fx10_core::race::{accesses, detect_races_with, Race};
use fx10_robust::{Budget, CancelToken, Fx10Error};
use fx10_semantics::witness::{find_witnesses, WitnessSearch};
use fx10_syntax::{Label, Program};
use std::collections::{HashMap, HashSet};

/// Outcome of the race pass.
pub struct RacePassOutput {
    /// One diagnostic per surviving (pair, cell) group.
    pub diagnostics: Vec<Diagnostic>,
    /// Statically-reported races the witness search refuted.
    pub refuted: usize,
}

/// Runs the race pass. `witness_states` caps the one shared witness
/// search, which answers each finding exactly as a lone search under the
/// same cap would (0 disables the search entirely: every finding keeps
/// its static tier with the may-be-spurious tag). `oracle`, when present and
/// complete, downgrades abstractly-infeasible pairs and annotates
/// surviving unconfirmed findings with guard facts.
#[allow(clippy::too_many_arguments)]
pub fn race_pass(
    p: &Program,
    cs: &Analysis,
    ci: &Analysis,
    input: &[i64],
    witness_states: usize,
    oracle: Option<&FeasibilityOracle>,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<RacePassOutput, Fx10Error> {
    let acc = accesses(p);
    let cs_races = detect_races_with(&acc, |x, y| cs.may_happen_in_parallel(x, y));
    let ci_races = detect_races_with(&acc, |x, y| ci.may_happen_in_parallel(x, y));
    let oracle = oracle.filter(|o| o.complete);
    let cs_keys: HashSet<_> = cs_races.iter().map(race_key).collect();
    // The oracle that proves `race` infeasible, if there is one.
    let pruned_by =
        |race: &Race| oracle.filter(|o| !o.pair_feasible(race.first.label, race.second.label));

    // One shared search answers every distinct label pair that needs a
    // witness; findings on the same pair at different cells share it.
    let mut distinct = HashSet::new();
    let targets: Vec<_> = ci_races
        .iter()
        .filter(|r| witness_states > 0 && pruned_by(r).is_none())
        .map(|r| (r.first.label, r.second.label))
        .filter(|&pair| distinct.insert(pair))
        .collect();
    let answers = find_witnesses(p, input, &targets, witness_states, budget, cancel)?;
    let searches: HashMap<_, _> = targets.into_iter().zip(answers).collect();

    let mut diagnostics = Vec::new();
    let mut refuted = 0usize;
    for race in &ci_races {
        let tier = if cs_keys.contains(&race_key(race)) {
            Confidence::CsStatic
        } else {
            Confidence::CiOnly
        };
        if let Some(o) = pruned_by(race) {
            diagnostics.push(infeasible(p, race, o));
            continue;
        }
        let search = searches.get(&(race.first.label, race.second.label));
        let (confidence, may_be_spurious, witness) = match search {
            None => (tier, true, None),
            Some(WitnessSearch::Found(w)) => {
                (Confidence::Confirmed, false, Some(w.schedule.clone()))
            }
            Some(WitnessSearch::Refuted { .. }) => {
                refuted += 1;
                continue;
            }
            Some(WitnessSearch::Exhausted { .. }) => (tier, true, None),
        };
        // An unconfirmed finding keeps a note on why the value analysis
        // could not rule it out either — the facts a fix must change.
        let guard_fact = match oracle {
            Some(o) if may_be_spurious => Some(format!(
                "value analysis ({} domain) cannot rule this pair out: {}; {}",
                o.facts.domain(),
                o.facts.guard_fact(race.first.label, p),
                o.facts.guard_fact(race.second.label, p)
            )),
            _ => None,
        };
        diagnostics.push(describe(
            p,
            race,
            confidence,
            may_be_spurious,
            witness,
            guard_fact,
        ));
    }
    Ok(RacePassOutput {
        diagnostics,
        refuted,
    })
}

/// A finding's identity for the CS-membership test: the label pair and
/// the cell.
fn race_key(race: &Race) -> (Label, Label, usize) {
    (race.first.label, race.second.label, race.first.index)
}

/// A statically-reported race the value analysis proves infeasible:
/// demoted to an `infeasible-race` note carrying the unreachability
/// proof, and excused from the witness search.
fn infeasible(p: &Program, race: &Race, oracle: &FeasibilityOracle) -> Diagnostic {
    let first = p.labels().display(race.first.label);
    let second = p.labels().display(race.second.label);
    let dead = [race.first.label, race.second.label]
        .into_iter()
        .find(|&l| !oracle.label_feasible(l))
        .unwrap_or(race.first.label);
    let why = oracle
        .facts
        .reason(dead)
        .unwrap_or_else(|| "label is abstractly unreachable".to_string());
    Diagnostic {
        code: "infeasible-race",
        severity: Severity::Note,
        line: p.labels().line(race.first.label),
        primary: first.clone(),
        message: format!(
            "static race on a[{}] between {first} and {second} is infeasible: \
             {} is unreachable",
            race.first.index,
            p.labels().display(dead)
        ),
        pair: Some((race.first.label, race.second.label)),
        confidence: Confidence::Confirmed,
        may_be_spurious: false,
        witness: None,
        guard_fact: Some(format!("{} domain: {why}", oracle.facts.domain())),
    }
}

fn describe(
    p: &Program,
    race: &Race,
    confidence: Confidence,
    may_be_spurious: bool,
    witness: Option<Vec<u32>>,
    guard_fact: Option<String>,
) -> Diagnostic {
    let (code, what) = if race.is_write_write() {
        ("race-write-write", "parallel writes to")
    } else {
        ("race-read-write", "a read races a parallel write of")
    };
    let first = p.labels().display(race.first.label);
    let second = p.labels().display(race.second.label);
    let message = if race.first.label == race.second.label {
        format!(
            "{what} a[{}]: two overlapping instances of {first}",
            race.first.index
        )
    } else {
        format!(
            "{what} a[{}]: {first} (line {}) and {second} (line {})",
            race.first.index,
            p.labels().line(race.first.label),
            p.labels().line(race.second.label),
        )
    };
    Diagnostic {
        code,
        severity: Severity::Warning,
        line: p.labels().line(race.first.label),
        primary: first,
        message,
        pair: Some((race.first.label, race.second.label)),
        confidence,
        may_be_spurious,
        witness,
        guard_fact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_absint::Domain;
    use fx10_core::analysis::{analyze, analyze_ci};

    fn run(src: &str, witness_states: usize) -> RacePassOutput {
        let p = Program::parse(src).unwrap();
        race_pass(
            &p,
            &analyze(&p),
            &analyze_ci(&p),
            &[],
            witness_states,
            None,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap()
    }

    fn run_with_oracle(src: &str, input: &[i64], witness_states: usize) -> RacePassOutput {
        let p = Program::parse(src).unwrap();
        let cs = analyze(&p);
        let oracle = FeasibilityOracle::build(&p, &cs, Domain::Interval, Some(input));
        race_pass(
            &p,
            &cs,
            &analyze_ci(&p),
            input,
            witness_states,
            Some(&oracle),
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap()
    }

    #[test]
    fn racy_write_write_is_confirmed_with_witness() {
        let out = run(
            "def main() { W1: async { a[0] = 1; } W2: a[0] = 2; }",
            10_000,
        );
        assert_eq!(out.refuted, 0);
        assert_eq!(out.diagnostics.len(), 1);
        let d = &out.diagnostics[0];
        assert_eq!(d.code, "race-write-write");
        assert_eq!(d.confidence, Confidence::Confirmed);
        assert!(d.witness.is_some());
        assert!(!d.may_be_spurious);
    }

    #[test]
    fn zero_witness_budget_tags_may_be_spurious() {
        let out = run("def main() { async { a[0] = 1; } a[0] = 2; }", 0);
        assert_eq!(out.diagnostics.len(), 1);
        let d = &out.diagnostics[0];
        assert_eq!(d.confidence, Confidence::CsStatic);
        assert!(d.may_be_spurious);
        assert!(d.witness.is_none());
    }

    #[test]
    fn read_write_is_classified() {
        let out = run(
            "def main() { async { a[0] = 1; } a[1] = a[0] + 1; }",
            10_000,
        );
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].code, "race-read-write");
    }

    #[test]
    fn clean_program_has_no_findings() {
        let out = run(
            "def main() { finish { async { a[0] = 1; } } a[0] = 2; }",
            10_000,
        );
        assert!(out.diagnostics.is_empty());
        assert_eq!(out.refuted, 0);
    }

    #[test]
    fn oracle_demotes_dead_loop_race_to_infeasible_note() {
        // The race lives inside a loop whose guard is provably 0.
        let src = "def main() { a[0] = 0; while (a[0] != 0) { async { a[1] = 1; } a[1] = 2; } }";
        let out = run_with_oracle(src, &[0, 0], 0);
        assert!(!out.diagnostics.is_empty());
        for d in &out.diagnostics {
            assert_eq!(d.code, "infeasible-race");
            assert_eq!(d.severity, Severity::Note);
            assert_eq!(d.confidence, Confidence::Confirmed);
            assert!(!d.may_be_spurious);
            assert!(d.witness.is_none());
            let fact = d.guard_fact.as_deref().unwrap();
            assert!(fact.starts_with("interval domain: "), "{fact}");
        }
        // Without the oracle the same races are plain static warnings.
        let plain = run(src, 0);
        assert_eq!(plain.diagnostics.len(), out.diagnostics.len());
        assert!(plain
            .diagnostics
            .iter()
            .all(|d| d.code == "race-write-write"));
    }

    #[test]
    fn surviving_unconfirmed_race_cites_guard_facts() {
        // witness_states = 0 keeps the finding may-be-spurious, so the
        // oracle's "could not rule it out" hint attaches.
        let out = run_with_oracle("def main() { async { a[0] = 1; } a[0] = 2; }", &[], 0);
        assert_eq!(out.diagnostics.len(), 1);
        let d = &out.diagnostics[0];
        assert_eq!(d.code, "race-write-write");
        assert!(d.may_be_spurious);
        let fact = d.guard_fact.as_deref().unwrap();
        assert!(fact.contains("cannot rule this pair out"), "{fact}");
        // Confirmed findings carry no hint — the witness is the evidence.
        let confirmed =
            run_with_oracle("def main() { async { a[0] = 1; } a[0] = 2; }", &[], 10_000);
        assert!(confirmed.diagnostics[0].guard_fact.is_none());
    }
}
