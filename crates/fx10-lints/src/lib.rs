//! MHP-backed lint suite for FX10 programs.
//!
//! The engine runs the paper's static may-happen-in-parallel analysis
//! (context-sensitive and the §7 context-insensitive baseline) and turns
//! it into actionable diagnostics:
//!
//! | code | what it proves |
//! |------|----------------|
//! | `race-write-write`, `race-read-write` | conflicting parallel accesses, classified by kind and ranked by confidence; `confirmed` findings carry a replayable schedule from the bounded explorer |
//! | `dead-method` | unreachable from `main` through the call graph |
//! | `redundant-finish` | the body spawns no async, transitively |
//! | `inert-async` | no executable label of the body has any MHP partner |
//! | `stuck-loop` | guard cell non-zero on entry and never written |
//! | `precision-delta` | MHP pair only the context-insensitive analysis reports |
//!
//! The race pass is where static and dynamic meet: every statically
//! reported race gets a bounded witness search over the raw (uncanonized)
//! state space. A found witness upgrades the finding to `confirmed` and
//! attaches the schedule; a fully-explored space without co-occurrence
//! *refutes* the finding (it is dropped and counted); budget exhaustion
//! keeps the static tier and tags the finding `may-be-spurious`.
//!
//! All findings share one breadth-first search per lint run. Its order
//! does not depend on the targets, so each pair resolves where a lone
//! search for it would stop: same schedule, same outcome, and the state
//! cap still applies to each finding as if it searched alone. Under a
//! wall-clock deadline the still-pending pairs run out together.
//!
//! Reports render as human text, machine JSON, or SARIF 2.1.0 — all
//! deterministic, so golden files can assert on the bytes.

pub mod audit;
pub mod diag;
pub mod engine;
pub mod races;
pub mod render;
pub mod structure;

pub use diag::{
    rule, selector_is_known, selector_matches, Confidence, Diagnostic, LintReport, Rule, Severity,
    RULES,
};
pub use engine::{lint, LintOptions};
pub use render::{render_json, render_sarif, render_text};
