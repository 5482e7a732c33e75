//! End-to-end tests of the shard fleet's network layer:
//! `fx10 explore --shards N --listen HOST:PORT` with worker processes
//! dialing back over loopback TCP.
//!
//! The differential oracle is the same as in `shard.rs` — the final
//! answer must be byte-identical to the sequential reference —
//! but here it must hold under *network* faults too, injected by the
//! seeded chaos hooks:
//!
//! | variable                    | effect                                  |
//! |-----------------------------|-----------------------------------------|
//! | `FX10_NET_DROP=p[:seed]`    | drop p% of eligible data frames          |
//! | `FX10_NET_DUP=p[:seed]`     | deliver p% of eligible frames twice      |
//! | `FX10_NET_DELAY_MS=n`       | hold every eligible frame for n ms       |
//! | `FX10_NET_PARTITION=s:n`    | drop worker s's first n data frames      |
//!
//! The handshake tests drive raw TCP clients against a live supervisor
//! using the `fx10-robust` wire codecs, proving that unauthenticated
//! and version-skewed peers are rejected with typed, coded errors while
//! the legitimate fleet completes the run.

use fx10_robust::conn;
use fx10_robust::ipc::{self, kind, reject, Hello, WireMsg};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

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
/// sequential and socket-sharded runs compare byte for byte on the
/// answer: state count, terminals, verdict, MHP pairs, digest.
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
        .join(format!("fx10-net-{tag}-{}-{n}", std::process::id()))
        .display()
        .to_string()
}

const WIDE: &str = "programs/chaos_wide.fx10";

fn sequential_reference() -> Output {
    let out = fx10(&["explore", WIDE, "--digest-xor"]);
    assert_eq!(code(&out), 0, "{out:?}");
    out
}

// -- differential oracle over TCP --------------------------------------------

/// The socket transport reproduces the sequential digest, MHP set and
/// verdict byte for byte at every fleet width.
#[test]
fn tcp_sharded_answer_is_byte_identical_at_shards_1_2_4() {
    let reference = sequential_reference();
    for shards in ["1", "2", "4"] {
        let out = fx10(&[
            "explore",
            WIDE,
            "--digest-xor",
            "--shards",
            shards,
            "--listen",
            "127.0.0.1:0",
        ]);
        assert_eq!(code(&out), 0, "--shards {shards}: {out:?}");
        assert!(
            stderr(&out).contains("listening on 127.0.0.1:"),
            "{}",
            stderr(&out)
        );
        assert_eq!(
            answer(&out),
            answer(&reference),
            "TCP --shards {shards} diverged from the sequential reference"
        );
    }
}

/// Seeded drop, duplication and delay all at once: retransmission heals
/// the losses, the redelivery window swallows the duplicates, and the
/// answer does not move.
#[test]
fn tcp_chaos_drop_dup_delay_is_byte_identical() {
    let reference = sequential_reference();
    let out = fx10_env(
        &[
            "explore",
            WIDE,
            "--digest-xor",
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
        ],
        &[
            ("FX10_NET_DROP", "15:42"),
            ("FX10_NET_DUP", "10"),
            ("FX10_NET_DELAY_MS", "1"),
        ],
    );
    assert_eq!(code(&out), 0, "{out:?}");
    assert_eq!(
        answer(&out),
        answer(&reference),
        "drop+dup+delay chaos must not change the answer"
    );
}

/// A one-way partition big enough to outlast retransmission: the
/// supervisor's heartbeat expires, the connection is dropped, the
/// worker redials (the healed network), unacked frames are replayed,
/// and the answer is still byte-identical.
#[test]
fn tcp_partition_forces_reconnect_and_converges() {
    let reference = sequential_reference();
    let out = fx10_env(
        &[
            "explore",
            WIDE,
            "--digest-xor",
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
        ],
        &[("FX10_NET_PARTITION", "1:1000000")],
    );
    assert_eq!(code(&out), 0, "{out:?}");
    let e = stderr(&out);
    assert!(
        e.contains("connection lost"),
        "the partition must trip the heartbeat: {e}"
    );
    assert!(
        e.contains("reconnected"),
        "the worker must redial after the drop: {e}"
    );
    assert_eq!(
        answer(&out),
        answer(&reference),
        "a healed partition must not change the answer"
    );
}

/// A worker SIGKILLed mid-run over TCP restarts from its durable
/// checkpoint — process supervision and connection supervision compose.
#[test]
fn tcp_killed_worker_restarts_from_checkpoint() {
    let reference = sequential_reference();
    let ck = temp_dir_for("tcp-kill");
    let out = fx10_env(
        &[
            "explore",
            WIDE,
            "--digest-xor",
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "200",
        ],
        &[("FX10_SHARD_KILL", "1:1")],
    );
    assert_eq!(code(&out), 0, "{out:?}");
    let s = stdout(&out);
    assert!(s.contains("1 restart(s)"), "{s}\n{}", stderr(&out));
    assert_eq!(
        answer(&out),
        answer(&reference),
        "a killed socket worker must not change the answer"
    );
    let _ = std::fs::remove_dir_all(&ck);
}

// -- handshake vetting against a live supervisor -----------------------------

/// Spawns a supervisor on port 0, scrapes the bound port off its live
/// stderr line, and returns the child plus a reader thread collecting
/// the rest of stderr.
fn spawn_supervisor(
    extra_args: &[&str],
    envs: &[(&str, &str)],
) -> (std::process::Child, u16, std::thread::JoinHandle<String>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fx10"));
    cmd.current_dir(repo_root())
        .args([
            "explore",
            WIDE,
            "--digest-xor",
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
        ])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("binary runs");
    let err = child.stderr.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut all = String::new();
        for line in BufReader::new(err).lines() {
            let line = line.unwrap_or_default();
            if let Some(addr) = line.strip_prefix("shards: listening on ") {
                let port = addr.rsplit(':').next().unwrap().parse::<u16>().unwrap();
                let _ = tx.send(port);
            }
            all.push_str(&line);
            all.push('\n');
        }
        all
    });
    let port = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("supervisor prints its bound port");
    (child, port, reader)
}

/// While a secret-protected run is in flight, a client with the wrong
/// secret is rejected with the AUTH code, and a version-skewed HELLO is
/// rejected with the VERSION code — and the legitimate fleet still
/// completes with the sequential answer.
#[test]
fn foreign_and_skewed_clients_are_rejected_while_the_run_completes() {
    let reference = sequential_reference();
    let secret_path = format!("{}.secret", temp_dir_for("secret"));
    std::fs::write(&secret_path, b"wide-open-loopback\n").unwrap();

    let (mut child, port, reader) = spawn_supervisor(&["--secret-file", &secret_path], &[]);
    let addr = format!("127.0.0.1:{port}");

    // Wrong shared secret: the full client handshake runs, the MAC does
    // not verify, and the typed reject names the AUTH code.
    let mut stream = TcpStream::connect(&addr).expect("supervisor is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Hello {
        proto: ipc::PROTOCOL_VERSION,
        slot: 0,
        boot_id: 0xB0B,
        fingerprint: 0,
    };
    let err = conn::client_handshake(&mut stream, b"not-the-secret", &hello, ipc::MAX_FRAME_LEN)
        .expect_err("a foreign client must not authenticate");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("code {}", reject::AUTH)) && msg.contains("MAC"),
        "{msg}"
    );

    // Version skew: rejected straight off the HELLO, before any
    // challenge is issued.
    let mut stream = TcpStream::connect(&addr).expect("supervisor is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let skewed = Hello {
        proto: 999,
        ..hello
    };
    ipc::write_frame(
        &mut stream,
        &WireMsg::new(kind::HELLO, 0, ipc::hello_body(&skewed)),
    )
    .unwrap();
    let msg = ipc::read_frame(&mut stream, ipc::MAX_FRAME_LEN)
        .expect("reject frame decodes")
        .expect("supervisor answers before closing");
    assert_eq!(msg.kind, kind::REJECT);
    let (code_, why) = ipc::parse_reject_body(&msg.body).unwrap();
    assert_eq!(code_, reject::VERSION, "{why}");
    assert!(why.contains("version skew"), "{why}");

    // The run itself is untouched by the rejected intruders.
    let status = child.wait().expect("supervisor exits");
    assert_eq!(status.code(), Some(0));
    let mut out = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();
    let e = reader.join().unwrap();
    assert!(e.contains("rejected connection"), "{e}");
    let got = out
        .lines()
        .filter(|l| !l.starts_with("jobs:") && !l.starts_with("shards:"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(got, answer(&reference));
    let _ = std::fs::remove_file(&secret_path);
}

/// A fleet started without `--secret-file` still admits only its own
/// workers: it authenticates them with a fresh per-run secret, so a
/// dialer holding a guessed or empty secret is rejected with the AUTH
/// code, and the run's answer does not change.
#[test]
fn fleet_without_a_secret_file_rejects_outside_dialers() {
    let reference = sequential_reference();
    let (mut child, port, reader) = spawn_supervisor(&[], &[]);
    let addr = format!("127.0.0.1:{port}");
    let hello = Hello {
        proto: ipc::PROTOCOL_VERSION,
        slot: 0,
        boot_id: 0xD1A1,
        fingerprint: 0,
    };
    for secret in [&b"guessed-secret"[..], &b""[..]] {
        let mut stream = TcpStream::connect(&addr).expect("supervisor is listening");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let err = conn::client_handshake(&mut stream, secret, &hello, ipc::MAX_FRAME_LEN)
            .expect_err("an outside dialer must not authenticate");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("code {}", reject::AUTH)),
            "secret {secret:?}: {msg}"
        );
    }

    let status = child.wait().expect("supervisor exits");
    assert_eq!(status.code(), Some(0));
    let mut out = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();
    let e = reader.join().unwrap();
    assert_eq!(e.matches("rejected connection").count(), 2, "{e}");
    let got = out
        .lines()
        .filter(|l| !l.starts_with("jobs:") && !l.starts_with("shards:"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(got, answer(&reference));
}

// -- flag and hook audit -----------------------------------------------------

/// The socket-transport flags obey the usage contract on the supervisor
/// side: every misuse is exit 2 with a message naming the fix.
#[test]
fn listen_flag_misuse_exits_2() {
    // --listen without --shards.
    let out = fx10(&["explore", WIDE, "--listen", "127.0.0.1:0"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("requires --shards"),
        "{}",
        stderr(&out)
    );

    // A value that is not HOST:PORT.
    let out = fx10(&["explore", WIDE, "--shards", "2", "--listen", "nonsense"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("bad --listen address"),
        "{}",
        stderr(&out)
    );

    // A missing value.
    let out = fx10(&["explore", WIDE, "--shards", "2", "--listen"]);
    assert_eq!(code(&out), 2, "{out:?}");

    // --secret-file and --reconnects without --listen.
    let out = fx10(&[
        "explore",
        WIDE,
        "--shards",
        "2",
        "--secret-file",
        "/dev/null",
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("requires --listen"),
        "{}",
        stderr(&out)
    );
    let out = fx10(&["explore", WIDE, "--shards", "2", "--reconnects", "3"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("requires --listen"),
        "{}",
        stderr(&out)
    );

    // A reconnect budget that is not a number.
    let out = fx10(&[
        "explore",
        WIDE,
        "--shards",
        "2",
        "--listen",
        "127.0.0.1:0",
        "--reconnects",
        "many",
    ]);
    assert_eq!(code(&out), 2, "{out:?}");

    // --connect is the worker's flag, valid on no public command.
    let out = fx10(&["explore", WIDE, "--connect", "127.0.0.1:9"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("is not valid for"),
        "{}",
        stderr(&out)
    );

    // --listen on a non-exploring command: the cross-flag contract
    // (`--listen` needs `--shards`) fires first when --shards is absent,
    // and the per-command audit rejects the pair when it is present.
    let out = fx10(&["mhp", "programs/example22.fx10", "--listen", "127.0.0.1:0"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("requires --shards"),
        "{}",
        stderr(&out)
    );
    let out = fx10(&[
        "mhp",
        "programs/example22.fx10",
        "--shards",
        "2",
        "--listen",
        "127.0.0.1:0",
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("is not valid for"),
        "{}",
        stderr(&out)
    );
}

/// The network chaos hooks are rejected loudly wherever they cannot
/// take effect — a fault you planned must never be silently skipped.
#[test]
fn net_chaos_hooks_are_gated_on_the_socket_transport() {
    let hooks = [
        ("FX10_NET_DROP", "10"),
        ("FX10_NET_DUP", "10"),
        ("FX10_NET_DELAY_MS", "1"),
        ("FX10_NET_PARTITION", "1:5"),
    ];
    for (var, val) in hooks {
        // On non-exploring commands.
        for cmd in ["parse", "mhp", "lint"] {
            let out = fx10_env(&[cmd, "programs/example22.fx10"], &[(var, val)]);
            assert_eq!(code(&out), 2, "{var} on {cmd}: {out:?}");
            assert!(
                stderr(&out).contains(var),
                "{var} on {cmd}: {}",
                stderr(&out)
            );
        }
        // On an exploring command without the socket transport.
        let out = fx10_env(&["explore", WIDE, "--shards", "2"], &[(var, val)]);
        assert_eq!(code(&out), 2, "{var} without --listen: {out:?}");
        assert!(stderr(&out).contains("--listen"), "{var}: {}", stderr(&out));
    }
}

/// Malformed chaos-hook values are usage errors, not silently-disabled
/// faults.
#[test]
fn malformed_net_hooks_exit_2() {
    for (key, val) in [
        ("FX10_NET_DROP", "abc"),
        ("FX10_NET_DROP", "150"),
        ("FX10_NET_DROP", "10:zz"),
        ("FX10_NET_DUP", "-3"),
        ("FX10_NET_DELAY_MS", "soon"),
        ("FX10_NET_PARTITION", "1"),
        ("FX10_NET_PARTITION", "one:5"),
    ] {
        let out = fx10_env(
            &["explore", WIDE, "--shards", "2", "--listen", "127.0.0.1:0"],
            &[(key, val)],
        );
        assert_eq!(code(&out), 2, "{key}={val}: {out:?}");
        assert!(stderr(&out).contains(key), "{key}: {}", stderr(&out));
    }
}

/// The worker-side net mode parses its tail as strictly as the public
/// CLI, and fails fast (exit 1, no retry storm) on a dead supervisor
/// address when its reconnect budget is zero.
#[test]
fn shard_worker_net_mode_misuse_and_dead_port() {
    // Unknown option.
    let out = fx10(&[
        "shard-worker",
        "--connect",
        "127.0.0.1:9",
        "--slot",
        "0",
        "--bogus",
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("--bogus"), "{}", stderr(&out));

    // Missing --slot.
    let out = fx10(&["shard-worker", "--connect", "127.0.0.1:9"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("--slot"), "{}", stderr(&out));

    // A bad address.
    let out = fx10(&["shard-worker", "--connect", "nowhere", "--slot", "0"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("bad --connect address"),
        "{}",
        stderr(&out)
    );

    // Nobody listening on the port and no reconnect budget: exit 1.
    let out = fx10(&[
        "shard-worker",
        "--connect",
        "127.0.0.1:1",
        "--slot",
        "0",
        "--reconnects",
        "0",
    ]);
    assert_eq!(code(&out), 1, "{out:?}");
}
