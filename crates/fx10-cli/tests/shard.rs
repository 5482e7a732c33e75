//! End-to-end tests of `fx10 explore --shards N`: the differential
//! oracle (sharded answers are byte-identical to the sequential
//! reference, with and without injected faults), supervisor restart and
//! work migration, the sharded rung of the `check --ladder` degradation
//! ladder, the chaos-hook gating contract, and the
//! resume-under-changed-budget matrix.
//!
//! Fault injection uses the environment hooks:
//!
//! | variable               | effect                                        |
//! |------------------------|-----------------------------------------------|
//! | `FX10_SHARD_KILL=k[:n]`| shard `k` exits mid-protocol at its nth ckpt  |
//! | `FX10_SHARD_WEDGE=k[:s]`| shard `k` hangs forever after `s` expansions |
//! | `FX10_SHARD_RESTARTS=N`| overrides the restart budget (0 = migrate)    |

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

fn fx10_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fx10"));
    cmd.current_dir(repo_root()).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn fx10(args: &[&str]) -> Output {
    fx10_env(args, &[])
}

fn code(out: &Output) -> i32 {
    out.status.code().unwrap_or(-1)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Drops the run-shape preamble (`jobs: ...` / `shards: ...`) so that
/// sequential and sharded runs can be compared byte for byte on the
/// *answer*: state count, terminals, verdict, MHP pairs, digest.
fn answer(out: &Output) -> String {
    stdout(out)
        .lines()
        .filter(|l| !l.starts_with("jobs:") && !l.starts_with("shards:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn temp_dir_for(tag: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("fx10-shard-{tag}-{}-{n}", std::process::id()))
        .display()
        .to_string()
}

const WIDE: &str = "programs/chaos_wide.fx10";

fn sequential_reference() -> Output {
    let out = fx10(&["explore", WIDE, "--digest-xor"]);
    assert_eq!(code(&out), 0, "{out:?}");
    out
}

/// The differential oracle: `--shards 1`, `2` and `4` all reproduce the
/// sequential digest, MHP set and verdict byte for byte.
#[test]
fn sharded_answer_is_byte_identical_at_shards_1_2_4() {
    let reference = sequential_reference();
    assert!(stdout(&reference).contains("digest-xor:"), "{reference:?}");
    for shards in ["1", "2", "4"] {
        let out = fx10(&["explore", WIDE, "--digest-xor", "--shards", shards]);
        assert_eq!(code(&out), 0, "--shards {shards}: {out:?}");
        let s = stdout(&out);
        assert!(
            s.contains(&format!("shards: {shards} worker process(es)")),
            "{s}"
        );
        assert_eq!(
            answer(&out),
            answer(&reference),
            "--shards {shards} diverged from the sequential reference"
        );
    }
}

/// One shard SIGKILLed at its first checkpoint *and* one shard wedged
/// mid-run: the supervisor restarts both from their durable checkpoints
/// and the final answer is still byte-identical.
#[test]
fn killed_and_wedged_shards_restart_and_converge() {
    let reference = sequential_reference();
    let ck = temp_dir_for("kill-wedge");
    let out = fx10_env(
        &[
            "explore",
            WIDE,
            "--digest-xor",
            "--shards",
            "4",
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "200",
        ],
        &[
            ("FX10_SHARD_KILL", "1:1"),
            ("FX10_SHARD_WEDGE", "2:5000"),
            ("FX10_STALL_MS", "1500"),
        ],
    );
    assert_eq!(code(&out), 0, "{out:?}");
    let s = stdout(&out);
    assert!(
        s.contains("2 restart(s)"),
        "both injected faults must be healed by restarts: {s}\n{}",
        stderr(&out)
    );
    assert_eq!(
        answer(&out),
        answer(&reference),
        "faults must not change the answer"
    );
    let _ = std::fs::remove_dir_all(&ck);
}

/// With the restart budget forced to zero, a killed shard cannot come
/// back — its checkpoint and unacked frames migrate to a survivor,
/// which adopts the digest range and completes the full reachable set.
#[test]
fn dead_shard_migrates_its_work_to_a_survivor() {
    let reference = sequential_reference();
    let ck = temp_dir_for("migrate");
    let out = fx10_env(
        &[
            "explore",
            WIDE,
            "--digest-xor",
            "--shards",
            "3",
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "200",
        ],
        &[("FX10_SHARD_KILL", "0:1"), ("FX10_SHARD_RESTARTS", "0")],
    );
    assert_eq!(code(&out), 0, "{out:?}");
    let s = stdout(&out);
    let e = stderr(&out);
    assert!(s.contains("1 migration(s)"), "{s}\n{e}");
    assert!(
        e.contains("migrating shard"),
        "the migration event must be traced: {e}"
    );
    assert_eq!(
        answer(&out),
        answer(&reference),
        "migration must preserve the full reachable set"
    );
    let _ = std::fs::remove_dir_all(&ck);
}

/// `check --ladder --shards N` answers on the sharded rung when the
/// fleet is healthy, and reports it.
#[test]
fn ladder_answers_on_the_sharded_rung() {
    let out = fx10(&[
        "check",
        "programs/example22.fx10",
        "--ladder",
        "--shards",
        "2",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let s = stdout(&out);
    assert!(
        s.contains("ladder: answered on rung sharded-explore"),
        "{s}"
    );
    assert!(s.contains("soundness check PASSED"), "{s}");
}

/// When the whole fleet dies and cannot restart, the ladder records the
/// sharded failure and descends to the in-process parallel rung, which
/// still answers.
#[test]
fn fleet_death_descends_the_ladder_to_parallel_explore() {
    let out = fx10_env(
        &[
            "check",
            "programs/example22.fx10",
            "--ladder",
            "--shards",
            "1",
        ],
        &[("FX10_SHARD_KILL", "0:1"), ("FX10_SHARD_RESTARTS", "0")],
    );
    assert_eq!(code(&out), 0, "{out:?}");
    let s = stdout(&out);
    assert!(
        s.contains("sharded-explore failed"),
        "the descent must be traced: {s}"
    );
    assert!(
        s.contains("ladder: answered on rung parallel-explore"),
        "{s}"
    );
    assert!(s.contains("soundness check PASSED"), "{s}");
}

/// Sharding flags obey the usage contract: `--shards 0` is rejected,
/// `--resume` cannot be combined with `--shards`, and `check --shards`
/// requires the ladder.
#[test]
fn shard_flag_misuse_exits_2() {
    let out = fx10(&["explore", WIDE, "--shards", "0"]);
    assert_eq!(code(&out), 2, "{out:?}");

    let out = fx10(&["explore", WIDE, "--shards", "2", "--resume", "x.fxsnap"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("per-shard checkpoints"),
        "{}",
        stderr(&out)
    );

    let out = fx10(&["check", "programs/example22.fx10", "--shards", "2"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("--ladder"), "{}", stderr(&out));

    let out = fx10(&["mhp", "programs/example22.fx10", "--shards", "2"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("is not valid for"),
        "{}",
        stderr(&out)
    );
}

/// `fx10 shard-worker` is an internal child mode that dials its
/// supervisor: run by hand without `--connect` it is a usage error
/// (exit 2) that names the missing flag.
#[test]
fn shard_worker_run_by_hand_fails_fast() {
    let out = fx10(&["shard-worker"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("--connect"), "{}", stderr(&out));
}

/// Chaos hooks only make sense on commands that explore; on anything
/// else a set hook is a usage error, not a silent no-op (satellite:
/// a fault you planned must never be silently skipped).
#[test]
fn chaos_hooks_are_rejected_on_non_exploring_commands() {
    for var in [
        "FX10_KILL_AT_CHECKPOINT",
        "FX10_WEDGE_WORKER",
        "FX10_STALL_MS",
        "FX10_SHARD_KILL",
        "FX10_SHARD_WEDGE",
        "FX10_SHARD_RESTARTS",
    ] {
        for cmd in ["parse", "mhp", "lint"] {
            let out = fx10_env(&[cmd, "programs/example22.fx10"], &[(var, "1")]);
            assert_eq!(code(&out), 2, "{var} on {cmd}: {out:?}");
            let e = stderr(&out);
            assert!(
                e.contains(var) && e.contains("commands that explore"),
                "{var} on {cmd}: {e}"
            );
        }
        // ... and `run` executes a single schedule, it does not explore.
        let out = fx10_env(&["run", "programs/fork_join.fx10"], &[(var, "1")]);
        assert_eq!(code(&out), 2, "{var} on run: {out:?}");
    }
}

/// Malformed values in the shard chaos hooks are usage errors on the
/// commands that *do* explore — a typo must not disable the fault.
#[test]
fn malformed_shard_hooks_exit_2() {
    for (key, val) in [
        ("FX10_SHARD_KILL", "first"),
        ("FX10_SHARD_KILL", "1:zero"),
        ("FX10_SHARD_KILL", "1:0"),
        ("FX10_SHARD_WEDGE", "one"),
        ("FX10_SHARD_WEDGE", "1:lots"),
        ("FX10_SHARD_RESTARTS", "none"),
    ] {
        let out = fx10_env(&["explore", WIDE, "--shards", "2"], &[(key, val)]);
        assert_eq!(code(&out), 2, "{key}={val}: {out:?}");
        assert!(stderr(&out).contains(key), "{key}: {}", stderr(&out));
    }
}

/// The resume-under-changed-budget matrix. The snapshot fingerprint
/// deliberately excludes `--max-states`, so a truncated run's
/// checkpoint resumes under any budget: a smaller or equal budget stays
/// inconclusive (exit 3), a larger budget completes the exploration
/// (exit 0) and reproduces the uninterrupted reference answer.
#[test]
fn resume_under_changed_budget_matrix() {
    let ck = format!("{}.fxsnap", temp_dir_for("budget-matrix"));
    let truncated = fx10(&[
        "explore",
        WIDE,
        "--max-states",
        "5000",
        "--checkpoint",
        &ck,
        "--checkpoint-every",
        "1000",
    ]);
    assert_eq!(code(&truncated), 3, "{truncated:?}");
    assert!(
        stderr(&truncated).contains("inconclusive: state budget exhausted"),
        "{truncated:?}"
    );

    // Smaller and equal budgets: still inconclusive, same exit code.
    for budget in ["3000", "5000"] {
        let out = fx10(&["explore", WIDE, "--max-states", budget, "--resume", &ck]);
        assert_eq!(code(&out), 3, "budget {budget}: {out:?}");
        assert!(
            stderr(&out).contains("inconclusive: state budget exhausted"),
            "budget {budget}: {out:?}"
        );
        assert!(stderr(&out).contains("resuming from"), "{out:?}");
    }

    // A larger budget finishes the job and matches the reference.
    let resumed = fx10(&["explore", WIDE, "--resume", &ck]);
    assert_eq!(code(&resumed), 0, "{resumed:?}");
    let reference = fx10(&["explore", WIDE]);
    assert_eq!(code(&reference), 0);
    assert_eq!(answer(&resumed), answer(&reference));
    let _ = std::fs::remove_file(&ck);
}

/// A checkpoint corrupted by a bit flip or truncation after it was
/// written is refused with exit 2 (typed snapshot error), never a
/// panic — the process-level face of the decoder fuzz suite.
#[test]
fn corrupted_checkpoint_files_exit_2() {
    let valid = std::fs::read(repo_root().join("programs/snap_example22.fxsnap")).unwrap();

    let flipped_path = format!("{}.fxsnap", temp_dir_for("bitflip"));
    let mut flipped = valid.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&flipped_path, &flipped).unwrap();
    let out = fx10(&[
        "explore",
        "programs/example22.fx10",
        "--resume",
        &flipped_path,
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    let e = stderr(&out);
    assert!(
        !e.contains("panicked at"),
        "corruption must not panic the CLI: {e}"
    );
    let _ = std::fs::remove_file(&flipped_path);

    let cut_path = format!("{}.fxsnap", temp_dir_for("truncate"));
    std::fs::write(&cut_path, &valid[..valid.len() - 7]).unwrap();
    let out = fx10(&["explore", "programs/example22.fx10", "--resume", &cut_path]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("truncated"), "{}", stderr(&out));
    let _ = std::fs::remove_file(&cut_path);
}
