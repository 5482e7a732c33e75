//! End-to-end tests of `fx10 lint`: format contract, golden files, the
//! `--deny`/`--allow` exit-code semantics, and flag auditing.
//!
//! Goldens live in `programs/golden/` and are byte-exact: the renderers
//! embed no timestamps or environment data, so any drift is a real
//! behavior change and must be reviewed by regenerating the file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

fn fx10(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fx10"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(repo_root().join("programs/golden").join(name))
        .unwrap_or_else(|e| panic!("golden `{name}` unreadable: {e}"))
}

fn assert_golden(args: &[&str], name: &str) {
    let out = fx10(args);
    assert_eq!(stdout(&out), golden(name), "golden drift for {args:?}");
}

#[test]
fn text_goldens_are_stable() {
    for f in [
        "lint_ww_race",
        "lint_rw_race",
        "lint_dead_method",
        "lint_redundant_finish",
        "lint_inert_async",
        "lint_precision_delta",
        "lint_clean",
        "lint_multi_race",
    ] {
        assert_golden(
            &["lint", &format!("programs/{f}.fx10")],
            &format!("{f}.txt"),
        );
    }
    assert_golden(
        &["lint", "programs/lint_stuck_loop.fx10", "--input", "0,1"],
        "lint_stuck_loop.txt",
    );
    // Refuted and may-be-spurious pairs cannot share one run: a pair is
    // refuted only when the whole raw space fits under the cap, which
    // leaves nothing to run out of. The tighter cap pins the other mix.
    assert_golden(
        &[
            "lint",
            "programs/lint_multi_race.fx10",
            "--witness-states",
            "160",
        ],
        "lint_multi_race_capped.txt",
    );
}

#[test]
fn sarif_goldens_cover_racy_and_clean() {
    assert_golden(
        &["lint", "programs/lint_ww_race.fx10", "--format", "sarif"],
        "lint_ww_race.sarif",
    );
    assert_golden(
        &["lint", "programs/lint_clean.fx10", "--format", "sarif"],
        "lint_clean.sarif",
    );
}

#[test]
fn sarif_on_racey_has_a_witnessed_race() {
    let out = fx10(&["lint", "programs/racey.fx10", "--format", "sarif"]);
    assert!(out.status.success(), "{out:?}");
    let s = stdout(&out);
    assert!(s.contains("\"version\": \"2.1.0\""), "{s}");
    assert!(s.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
    assert!(s.contains("\"ruleId\": \"race-write-write\""), "{s}");
    assert!(s.contains("\"witnessSchedule\": ["), "{s}");
    assert!(s.contains("\"confidence\": \"confirmed\""), "{s}");
}

#[test]
fn json_format_carries_the_full_model() {
    let out = fx10(&["lint", "programs/lint_ww_race.fx10", "--format", "json"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("\"code\": \"race-write-write\""), "{s}");
    assert!(s.contains("\"line\": 3"), "{s}");
    assert!(s.contains("\"confidence\": \"confirmed\""), "{s}");
    assert!(s.contains("\"may_be_spurious\": false"), "{s}");
    assert!(s.contains("\"witness\": [0]"), "{s}");
    assert!(s.contains("\"refuted_races\": 0"), "{s}");
}

#[test]
fn deny_fails_on_matching_findings_only() {
    // A denied race: exit 1.
    let out = fx10(&["lint", "programs/racey.fx10", "--deny", "race"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // Clean fixture, same deny: exit 0.
    let out = fx10(&["lint", "programs/lint_clean.fx10", "--deny", "race"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // The group selector `race` covers read-write too.
    let out = fx10(&["lint", "programs/lint_rw_race.fx10", "--deny", "race"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // Denying an unrelated rule on a racy program: exit 0.
    let out = fx10(&["lint", "programs/racey.fx10", "--deny", "dead-method"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // `--deny all` on the stuck-loop fixture under the stuck input.
    let out = fx10(&[
        "lint",
        "programs/lint_stuck_loop.fx10",
        "--input",
        "0,1",
        "--deny",
        "all",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn allow_suppresses_before_deny_sees_it() {
    let out = fx10(&[
        "lint",
        "programs/racey.fx10",
        "--allow",
        "race",
        "--deny",
        "all",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("0 errors, 0 warnings, 0 notes"));
}

#[test]
fn unknown_selector_or_format_is_a_usage_error() {
    let out = fx10(&["lint", "programs/racey.fx10", "--deny", "tyop"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = fx10(&["lint", "programs/racey.fx10", "--allow", "racy"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = fx10(&["lint", "programs/racey.fx10", "--format", "xml"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Lint flags are meaningless elsewhere: audited, not ignored.
    let out = fx10(&["race", "programs/racey.fx10", "--deny", "race"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = fx10(&["lint", "programs/racey.fx10", "--jobs", "4"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn zero_witness_budget_tags_spurious_races() {
    let out = fx10(&["lint", "programs/racey.fx10", "--witness-states", "0"]);
    assert!(out.status.success(), "{out:?}");
    let s = stdout(&out);
    assert!(s.contains("[may-be-spurious]"), "{s}");
    assert!(s.contains("(cs-static)"), "{s}");
    assert!(!s.contains("witness:"), "{s}");
}

#[test]
fn race_output_is_deterministic_and_deduplicated() {
    let one = stdout(&fx10(&["race", "programs/fork_join.fx10"]));
    for _ in 0..3 {
        assert_eq!(stdout(&fx10(&["race", "programs/fork_join.fx10"])), one);
    }
    // Symmetric duplicates are collapsed: each unordered (pair, cell)
    // group appears exactly once.
    let report_lines: Vec<&str> = one.lines().filter(|l| l.contains("a[")).collect();
    let mut dedup = report_lines.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(report_lines.len(), dedup.len(), "{one}");
}

#[test]
fn every_sample_program_lints_in_sarif() {
    // The CI job runs this same sweep from the workflow; keeping it as a
    // test means `cargo test` catches a crash on any shipped sample
    // before the workflow does.
    let dir = repo_root().join("programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".fx10") || name.starts_with("bad_") {
            continue;
        }
        let rel = format!("programs/{name}");
        let out = fx10(&["lint", &rel, "--format", "sarif"]);
        assert!(
            out.status.success(),
            "lint {rel} failed: {:?}",
            String::from_utf8_lossy(&out.stderr)
        );
        let s = stdout(&out);
        assert!(s.contains("\"version\": \"2.1.0\""), "{rel}: {s}");
        checked += 1;
    }
    assert!(
        checked >= 10,
        "expected to sweep the sample programs, got {checked}"
    );
}
