//! The differential soundness gate.
//!
//! Runs the exact explorer and the abstract interpreter on the same
//! program and input, and checks the Galois connection empirically:
//!
//! 1. **containment** — for every visited concrete state `(A, T)` and
//!    every front label `l ∈ FTlabels(T)`, the abstract environment at
//!    `l` admits `A` (`A(d) ∈ γ(Env[l](d))` for every cell `d`);
//! 2. **pruning** — no pair the feasibility oracle prunes appears in the
//!    exact dynamic MHP relation.
//!
//! Both checks remain valid on a truncated exploration (visited ⊆
//! reachable), so the gate can cap the state budget and still mean
//! something; [`GateReport::truncated`] records when that happened.

use crate::domain::Domain;
use crate::oracle::FeasibilityOracle;
use fx10_core::analyze;
use fx10_robust::{Budget, CancelToken, Fx10Error};
use fx10_semantics::{explore_budgeted, ExploreConfig};
use fx10_syntax::Program;

/// The outcome of one gate run (one program, one input, one domain).
#[derive(Debug, Clone)]
pub struct GateReport {
    /// The domain checked.
    pub domain: Domain,
    /// Distinct concrete states visited.
    pub states: usize,
    /// Containment checks performed (state × front-label pairs).
    pub checks: usize,
    /// True when the state budget cut the exploration short.
    pub truncated: bool,
    /// Containment or pruning violations, human-readable. Soundness holds
    /// iff this is empty. Capped at [`MAX_VIOLATIONS`].
    pub violations: Vec<String>,
    /// Static MHP pairs before pruning.
    pub pairs_before: usize,
    /// Pairs surviving the feasibility oracle.
    pub pairs_after: usize,
}

/// Violation messages kept per report; the count in excess is summarized.
pub const MAX_VIOLATIONS: usize = 20;

impl GateReport {
    /// Did the run witness soundness?
    pub fn sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the gate for one domain. `max_states` caps the exploration (the
/// gate stays valid on the explored prefix).
pub fn soundness_gate(
    p: &Program,
    input: &[i64],
    domain: Domain,
    max_states: usize,
) -> Result<GateReport, Fx10Error> {
    let analysis = analyze(p);
    let oracle = FeasibilityOracle::build(p, &analysis, domain, Some(input));

    let mut violations: Vec<String> = Vec::new();
    let mut suppressed = 0usize;
    let mut checks = 0usize;
    let facts = &oracle.facts;
    let labels = p.labels().clone();
    let mut sink = |sample: fx10_semantics::FrontSample| {
        for &l in &sample.fronts {
            checks += 1;
            if facts.admits(l, &sample.cells) {
                continue;
            }
            if violations.len() >= MAX_VIOLATIONS {
                suppressed += 1;
                continue;
            }
            let why = if !facts.reachable(l) {
                "label marked unreachable".to_string()
            } else {
                format!(
                    "env [{}] rejects the state",
                    facts
                        .env(l)
                        .unwrap_or(&[])
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            violations.push(format!(
                "{domain}: front {} with a = {:?}: {why}",
                labels.display(l),
                sample.cells
            ));
        }
    };
    let exploration = explore_budgeted(
        p,
        input,
        ExploreConfig {
            max_states,
            ..ExploreConfig::default()
        },
        Budget::unlimited(),
        &CancelToken::new(),
        Some(&mut sink),
    )?;

    let report = oracle.prune(&analysis);
    for &(a, b) in &report.pruned {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if exploration.mhp.contains(&(a, b)) {
            if violations.len() >= MAX_VIOLATIONS {
                suppressed += 1;
                continue;
            }
            violations.push(format!(
                "{domain}: pruned pair ({}, {}) occurs in dynamic MHP",
                labels.display(a),
                labels.display(b)
            ));
        }
    }
    if suppressed > 0 {
        violations.push(format!("... and {suppressed} more violation(s)"));
    }

    Ok(GateReport {
        domain,
        states: exploration.visited,
        checks,
        truncated: exploration.truncated,
        violations,
        pairs_before: analysis.mhp().len(),
        pairs_after: report.kept.len(),
    })
}

/// Runs [`soundness_gate`] at every domain, collecting the reports.
pub fn soundness_gate_all(
    p: &Program,
    input: &[i64],
    max_states: usize,
) -> Result<Vec<GateReport>, Fx10Error> {
    Domain::ALL
        .iter()
        .map(|&d| soundness_gate(p, input, d, max_states))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_all(src: &str, input: &[i64]) -> Vec<GateReport> {
        let p = Program::parse(src).unwrap();
        soundness_gate_all(&p, input, 50_000).unwrap()
    }

    #[test]
    fn gate_passes_on_racing_counters() {
        let src = "def main() { finish { async { a[0] = a[0] + 1; } a[0] = a[1] + 1; } a[1] = a[0] + 1; }";
        for r in gate_all(src, &[0, 0]) {
            assert!(r.sound(), "{:?}", r.violations);
            assert!(!r.truncated);
            assert!(r.checks > 0);
        }
    }

    #[test]
    fn gate_passes_with_dead_loop_pruning() {
        let src = "def main() { a[0] = 0; while (a[0] != 0) { async { a[1] = 1; } a[1] = 2; } async { a[2] = 3; } skip; }";
        for r in gate_all(src, &[0, 0, 0]) {
            assert!(r.sound(), "{:?}", r.violations);
            // Parity cannot refute a zero guard (0 is even); the exact
            // domains prune the dead loop body's pairs.
            if r.domain != Domain::Parity {
                assert!(
                    r.pairs_after < r.pairs_before,
                    "{}: expected pruning ({} -> {})",
                    r.domain,
                    r.pairs_before,
                    r.pairs_after
                );
            }
        }
    }

    #[test]
    fn gate_valid_on_truncated_runs() {
        // Unbounded interleaving space; tiny budget truncates it.
        let src = "def main() { a[0] = 1; async { while (a[0] != 0) { a[1] = a[1] + 1; } } while (a[0] != 0) { a[2] = a[2] + 1; } }";
        let p = Program::parse(src).unwrap();
        let r = soundness_gate(&p, &[0, 0, 0], Domain::Interval, 500).unwrap();
        assert!(r.truncated);
        assert!(r.sound(), "{:?}", r.violations);
    }
}
