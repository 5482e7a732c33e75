//! Connection robustness for the socket transport: authenticated
//! handshake, per-connection supervision, and deterministic network
//! chaos.
//!
//! ## Handshake
//!
//! A worker connecting to the supervisor runs a four-step exchange
//! before any protocol frame flows:
//!
//! ```text
//! worker                              supervisor
//!   HELLO {proto, slot, boot_id, fp} →
//!                                    ← CHALLENGE {proto, nonce, run_fp}
//!   AUTH {mac(secret; nonce‖identity)} →
//!                                    ← WELCOME            (or REJECT)
//! ```
//!
//! The supervisor refuses — with a typed [`Fx10Error::Handshake`] and a
//! coded `REJECT` frame — protocol-version skew, unknown slots, a
//! worker carrying a different program fingerprint (a stale worker from
//! an earlier run), and a MAC that does not verify (a foreign client
//! without the shared secret). The nonce is fresh per connection, so a
//! captured `AUTH` replayed against a new connection fails.
//!
//! The MAC is an HMAC-style construction over FNV-1a-64
//! ([`keyed_mac`]). FNV is *not* a cryptographic PRF — this gate keeps
//! honest processes from crossing runs and keeps casual port-scanners
//! out of the frontier; it is not a defense against an adversary on the
//! network. Runs are loopback by default.
//!
//! ## Connection supervision
//!
//! [`ConnSupervisor`] is the per-worker connection state machine the
//! fleet consults: connection generations (stale pump events are
//! dropped by generation), heartbeat expiry, a reconnect budget that
//! escalates to the process-level restart/migration machinery when
//! exhausted, and the idempotent-redelivery window — a set of already
//! admitted sequence numbers so a reconnecting worker can replay its
//! unacked `BATCH` frames without any terminal being counted twice.
//! The window survives a reconnect of the *same* process (matched by
//! `boot_id`) and resets when a *new* process attaches, whose sequence
//! numbers restart from zero.
//!
//! ## Chaos
//!
//! [`NetChaos`] + [`FaultySender`]/[`FaultyReceiver`] inject loss, duplication, latency
//! and one-way partitions *above* TCP, deterministically from a seed —
//! the socket stays healthy while the frame stream misbehaves, which is
//! exactly the failure model the retransmission and redelivery
//! machinery must absorb.

use crate::backoff::XorShift64;
use crate::ipc::{self, kind, FrameReceiver, FrameSender, Hello, WireMsg, PROTOCOL_VERSION};
use crate::snapshot::fnv1a64;
use crate::Fx10Error;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Keyed MAC over FNV-1a-64, HMAC-shaped: `H((k ⊕ opad) ‖ H((k ⊕ ipad)
/// ‖ msg))` with a 64-byte block. Deterministic and std-only. See the
/// module docs for what this construction is — and is not — good for.
pub fn keyed_mac(key: &[u8], msg: &[u8]) -> u64 {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..8].copy_from_slice(&fnv1a64(key).to_le_bytes());
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(64 + msg.len());
    inner.extend(k.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(msg);
    let ih = fnv1a64(&inner);
    let mut outer = Vec::with_capacity(72);
    outer.extend(k.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&ih.to_le_bytes());
    fnv1a64(&outer)
}

/// The bytes both sides MAC: the challenge nonce bound to the worker's
/// claimed identity, so an `AUTH` cannot be replayed for a different
/// slot, process, or run.
fn mac_message(nonce: u64, hello: &Hello) -> Vec<u8> {
    let mut m = Vec::with_capacity(32);
    m.extend_from_slice(&nonce.to_le_bytes());
    m.extend_from_slice(&hello.proto.to_le_bytes());
    m.extend_from_slice(&hello.slot.to_le_bytes());
    m.extend_from_slice(&hello.boot_id.to_le_bytes());
    m.extend_from_slice(&hello.fingerprint.to_le_bytes());
    m
}

/// A fresh unpredictable 64-bit value (per-process random state mixed
/// with a counter), used for challenge nonces and worker boot ids.
pub fn fresh_nonce() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    static CTR: AtomicU64 = AtomicU64::new(0);
    let mut h = RandomState::new().build_hasher();
    h.write_u64(CTR.fetch_add(1, Ordering::Relaxed));
    h.write_u32(std::process::id());
    h.finish()
}

fn handshake_err(message: impl Into<String>) -> Fx10Error {
    Fx10Error::Handshake {
        message: message.into(),
    }
}

/// Reads the next frame during a handshake; EOF and io errors are
/// handshake failures (the socket's read deadline turns a silent peer
/// into a timeout error here).
fn expect_frame(io: &mut impl Read, max_frame: usize, want: &str) -> Result<WireMsg, Fx10Error> {
    match ipc::read_frame(io, max_frame) {
        Ok(Some(m)) => Ok(m),
        Ok(None) => Err(handshake_err(format!("peer hung up before sending {want}"))),
        Err(e) => Err(handshake_err(format!("while awaiting {want}: {e}"))),
    }
}

/// What the supervisor must know to vet an incoming connection.
#[derive(Debug, Clone)]
pub struct HandshakeConfig {
    /// Shared secret (empty = authentication by structure only: version
    /// and fingerprint checks still apply).
    pub secret: Vec<u8>,
    /// The run's program fingerprint.
    pub fingerprint: u64,
    /// Number of shard slots in the fleet.
    pub shards: u32,
    /// Frame-length cap for handshake frames.
    pub max_frame: usize,
}

/// An authenticated peer, as established by [`server_handshake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    /// The worker's shard slot.
    pub slot: u32,
    /// The worker's per-process boot id.
    pub boot_id: u64,
    /// Did the worker already carry this run's fingerprint (a
    /// reconnect) rather than 0 (a first connection)?
    pub resumed: bool,
}

/// Runs the supervisor side of the handshake on a fresh connection.
/// On any vetting failure the peer gets a coded `REJECT` frame and the
/// caller gets a typed [`Fx10Error::Handshake`].
pub fn server_handshake(
    io: &mut (impl Read + Write),
    cfg: &HandshakeConfig,
    nonce: u64,
) -> Result<PeerInfo, Fx10Error> {
    let reject = |io: &mut dyn Write, code: u32, msg: &str| -> Fx10Error {
        let _ = ipc::write_frame(
            &mut { io },
            &WireMsg::new(kind::REJECT, 0, ipc::reject_body(code, msg)),
        );
        handshake_err(msg.to_string())
    };
    let first = expect_frame(io, cfg.max_frame, "HELLO")?;
    if first.kind != kind::HELLO {
        return Err(reject(
            io,
            ipc::reject::PROTOCOL,
            &format!("expected HELLO, got {}", first.kind_name()),
        ));
    }
    let hello = match ipc::parse_hello_body(&first.body) {
        Ok(h) => h,
        Err(e) => {
            return Err(reject(
                io,
                ipc::reject::PROTOCOL,
                &format!("malformed HELLO body: {e}"),
            ))
        }
    };
    if hello.proto != PROTOCOL_VERSION {
        return Err(reject(
            io,
            ipc::reject::VERSION,
            &format!(
                "protocol version skew: worker speaks v{}, supervisor speaks v{PROTOCOL_VERSION}",
                hello.proto
            ),
        ));
    }
    if hello.slot >= cfg.shards {
        return Err(reject(
            io,
            ipc::reject::SLOT,
            &format!(
                "slot {} does not exist in a {}-shard fleet",
                hello.slot, cfg.shards
            ),
        ));
    }
    if hello.fingerprint != 0 && hello.fingerprint != cfg.fingerprint {
        return Err(reject(
            io,
            ipc::reject::FINGERPRINT,
            "stale worker: program fingerprint belongs to a different run",
        ));
    }
    ipc::write_frame(
        io,
        &WireMsg::new(
            kind::CHALLENGE,
            0,
            ipc::challenge_body(PROTOCOL_VERSION, nonce, cfg.fingerprint),
        ),
    )?;
    let auth = expect_frame(io, cfg.max_frame, "AUTH")?;
    let mac = match (auth.kind, ipc::parse_auth_body(&auth.body)) {
        (kind::AUTH, Ok(mac)) => mac,
        _ => {
            return Err(reject(
                io,
                ipc::reject::PROTOCOL,
                "expected a well-formed AUTH",
            ))
        }
    };
    if mac != keyed_mac(&cfg.secret, &mac_message(nonce, &hello)) {
        return Err(reject(
            io,
            ipc::reject::AUTH,
            "authentication failed: keyed MAC does not verify",
        ));
    }
    ipc::write_frame(io, &WireMsg::new(kind::WELCOME, 0, Vec::new()))?;
    Ok(PeerInfo {
        slot: hello.slot,
        boot_id: hello.boot_id,
        resumed: hello.fingerprint != 0,
    })
}

/// Runs the worker side of the handshake. Returns the supervisor's
/// program fingerprint on success; a `REJECT` becomes a typed
/// [`Fx10Error::Handshake`] carrying the supervisor's reason.
pub fn client_handshake(
    io: &mut (impl Read + Write),
    secret: &[u8],
    hello: &Hello,
    max_frame: usize,
) -> Result<u64, Fx10Error> {
    ipc::write_frame(io, &WireMsg::new(kind::HELLO, 0, ipc::hello_body(hello)))?;
    let reply = expect_frame(io, max_frame, "CHALLENGE")?;
    let (proto, nonce, run_fp) = match reply.kind {
        kind::CHALLENGE => ipc::parse_challenge_body(&reply.body)
            .map_err(|e| handshake_err(format!("malformed CHALLENGE body: {e}")))?,
        kind::REJECT => {
            let (code, msg) = ipc::parse_reject_body(&reply.body)
                .unwrap_or((ipc::reject::PROTOCOL, "unreadable reject reason".into()));
            return Err(handshake_err(format!("rejected (code {code}): {msg}")));
        }
        _ => {
            return Err(handshake_err(format!(
                "expected CHALLENGE, got {}",
                reply.kind_name()
            )))
        }
    };
    if proto != PROTOCOL_VERSION {
        return Err(handshake_err(format!(
            "protocol version skew: supervisor speaks v{proto}, worker speaks v{PROTOCOL_VERSION}"
        )));
    }
    if hello.fingerprint != 0 && run_fp != hello.fingerprint {
        return Err(handshake_err(
            "supervisor is running a different program than this worker",
        ));
    }
    ipc::write_frame(
        io,
        &WireMsg::new(
            kind::AUTH,
            0,
            ipc::auth_body(keyed_mac(secret, &mac_message(nonce, hello))),
        ),
    )?;
    let fin = expect_frame(io, max_frame, "WELCOME")?;
    match fin.kind {
        kind::WELCOME => Ok(run_fp),
        kind::REJECT => {
            let (code, msg) = ipc::parse_reject_body(&fin.body)
                .unwrap_or((ipc::reject::PROTOCOL, "unreadable reject reason".into()));
            Err(handshake_err(format!("rejected (code {code}): {msg}")))
        }
        _ => Err(handshake_err(format!(
            "expected WELCOME, got {}",
            fin.kind_name()
        ))),
    }
}

/// Dials the supervisor and completes the handshake, retrying
/// connect-level failures with decorrelated backoff. A `REJECT` is
/// *not* retried — the supervisor's verdict is deterministic, so the
/// worker fails fast with the typed error. `attempts` counts dials
/// (so `0` means "try once, never retry").
pub fn connect_with_retry(
    addr: &SocketAddr,
    secret: &[u8],
    hello: &Hello,
    max_frame: usize,
    attempts: u32,
    rng: &mut XorShift64,
    prev_backoff: &mut Duration,
) -> Result<TcpStream, Fx10Error> {
    let mut last: Option<Fx10Error> = None;
    for attempt in 0..=attempts {
        if attempt > 0 {
            let prev = if prev_backoff.is_zero() {
                Duration::from_millis(50)
            } else {
                *prev_backoff
            };
            let pause = rng.backoff(Duration::from_millis(50), prev, Duration::from_secs(1));
            *prev_backoff = pause;
            std::thread::sleep(pause);
        }
        let stream = match TcpStream::connect_timeout(addr, Duration::from_secs(2)) {
            Ok(s) => s,
            Err(e) => {
                last = Some(Fx10Error::Io {
                    path: addr.to_string(),
                    message: e.to_string(),
                });
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut io = stream.try_clone().map_err(|e| Fx10Error::Io {
            path: addr.to_string(),
            message: e.to_string(),
        })?;
        match client_handshake(&mut io, secret, hello, max_frame) {
            Ok(_) => {
                let _ = stream.set_read_timeout(None);
                return Ok(stream);
            }
            Err(e @ Fx10Error::Handshake { .. }) => return Err(e),
            Err(e) => {
                last = Some(e);
                continue;
            }
        }
    }
    Err(last.unwrap_or_else(|| handshake_err("no connection attempt was made")))
}

/// What kind of attach [`ConnSupervisor::on_attach`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// A new worker process: its sequence numbers restart, so the
    /// redelivery window was reset.
    Fresh,
    /// The same process reconnecting: the window is preserved, replayed
    /// frames will be deduplicated.
    Resumed,
}

/// Per-worker connection state machine for the socket transport:
/// generations, heartbeat expiry, reconnect budget, and the
/// idempotent-redelivery window (see the module docs).
#[derive(Debug, Clone)]
pub struct ConnSupervisor {
    /// A connected worker silent past this window has its connection
    /// dropped (the worker will reconnect, or the process-level stall
    /// detector escalates).
    pub heartbeat_timeout: Duration,
    /// Unacked work frames older than this are retransmitted.
    pub retransmit_after: Duration,
    /// Connection drops tolerated per process incarnation before the
    /// fleet escalates to restart/migration.
    pub max_reconnects: u32,
    gen: u64,
    connected: bool,
    boot_id: Option<u64>,
    seen: HashSet<u64>,
    drops: u32,
    last_tx: Instant,
}

impl ConnSupervisor {
    /// A supervisor with no connection yet.
    pub fn new(
        heartbeat_timeout: Duration,
        retransmit_after: Duration,
        max_reconnects: u32,
    ) -> Self {
        ConnSupervisor {
            heartbeat_timeout,
            retransmit_after,
            max_reconnects,
            gen: 0,
            connected: false,
            boot_id: None,
            seen: HashSet::new(),
            drops: 0,
            last_tx: Instant::now(),
        }
    }

    /// The current connection generation; pump events tagged with an
    /// older generation are stale and must be dropped.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Is a connection currently attached?
    pub fn connected(&self) -> bool {
        self.connected
    }

    /// Connection drops since the last process (re)spawn.
    pub fn drops(&self) -> u32 {
        self.drops
    }

    /// The owning process was (re)spawned: invalidate any old
    /// connection, reset the redelivery window (a new process numbers
    /// its frames from zero) and the reconnect budget.
    pub fn on_spawn(&mut self) {
        self.gen += 1;
        self.connected = false;
        self.boot_id = None;
        self.seen.clear();
        self.drops = 0;
    }

    /// A handshaked connection attached. Returns whether it resumes the
    /// previous process (window kept) or belongs to a fresh one
    /// (window reset).
    pub fn on_attach(&mut self, boot_id: u64) -> Attach {
        self.gen += 1;
        self.connected = true;
        self.last_tx = Instant::now();
        let kind = if self.boot_id == Some(boot_id) {
            Attach::Resumed
        } else {
            self.seen.clear();
            Attach::Fresh
        };
        self.boot_id = Some(boot_id);
        kind
    }

    /// The connection dropped (EOF, error, or heartbeat expiry).
    /// Returns `true` while the reconnect budget lasts; `false` means
    /// the fleet should escalate to restart/migration.
    pub fn on_drop_conn(&mut self) -> bool {
        self.gen += 1;
        self.connected = false;
        self.drops += 1;
        self.drops <= self.max_reconnects
    }

    /// Admits a work-frame sequence number into the redelivery window.
    /// `false` means the frame is a redelivery the worker has already
    /// had routed — drop it (but still ack it, the original ack may
    /// have been lost).
    pub fn admit(&mut self, seq: u64) -> bool {
        self.seen.insert(seq)
    }

    /// Has the heartbeat window expired for a worker last heard at
    /// `last_heard`?
    pub fn heartbeat_expired(&self, last_heard: Instant) -> bool {
        self.connected && last_heard.elapsed() > self.heartbeat_timeout
    }

    /// Is a retransmission of unacked frames due?
    pub fn retransmit_due(&self) -> bool {
        self.connected && self.last_tx.elapsed() > self.retransmit_after
    }

    /// Records a transmission (fresh delivery or retransmission).
    pub fn mark_tx(&mut self) {
        self.last_tx = Instant::now();
    }
}

// -- deterministic network chaos ---------------------------------------------

/// Seeded fault plan for the socket transport, read from the
/// `FX10_NET_*` environment hooks. All-zero means "no chaos".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetChaos {
    /// Percent of data frames to drop (0–100).
    pub drop_pct: u8,
    /// Percent of data frames to duplicate (0–100).
    pub dup_pct: u8,
    /// Latency injected before each data frame, in milliseconds.
    pub delay_ms: u64,
    /// One-way partition: drop the first `count` worker→supervisor data
    /// frames of `slot`'s first connection (the supervisor still
    /// reaches the worker — exactly the half-open failure TCP cannot
    /// see). Heals by retransmission or by heartbeat-driven reconnect.
    pub partition: Option<(u32, u64)>,
    /// Seed for the per-connection fault streams.
    pub seed: u64,
}

impl NetChaos {
    /// Does this plan inject any fault at all?
    pub fn is_active(&self) -> bool {
        self.drop_pct > 0 || self.dup_pct > 0 || self.delay_ms > 0 || self.partition.is_some()
    }
}

/// What the chaos layer decided to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Pass it through.
    Deliver,
    /// Swallow it.
    Drop,
    /// Deliver it twice.
    Duplicate,
}

/// Handshake and `INIT`/`REJECT` frames are exempt from chaos: the
/// handshake runs before the chaos layer attaches, and losing `INIT`
/// would model a fault the *application* protocol never retransmits
/// (the fleet replays `INIT` on every attach instead).
pub fn chaos_exempt(kind_: u32) -> bool {
    matches!(
        kind_,
        kind::HELLO | kind::CHALLENGE | kind::AUTH | kind::REJECT | kind::WELCOME | kind::INIT
    )
}

/// One direction of one connection's fault stream, deterministic in
/// `(seed, slot, gen, direction)`.
#[derive(Debug)]
pub struct ChaosLink {
    rng: XorShift64,
    drop_pct: u8,
    dup_pct: u8,
    delay_ms: u64,
    partition_left: u64,
}

impl ChaosLink {
    /// The fault stream for one connection direction; `inbound` is the
    /// worker→supervisor direction (the only one a partition affects).
    pub fn for_conn(chaos: &NetChaos, slot: u32, gen: u64, inbound: bool) -> Self {
        let mix = chaos
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((slot as u64) << 32)
            .wrapping_add(gen << 1)
            .wrapping_add(inbound as u64);
        // The fleet numbers generations monotonically: the spawn bumps
        // once and the first attach bumps again, so the first live
        // connection of the first incarnation runs at gen <= 2. Later
        // reconnects (gen 3+) are the *healed* network and stay
        // partition-free.
        let partition_left = match chaos.partition {
            Some((pslot, count)) if inbound && pslot == slot && gen <= 2 => count,
            _ => 0,
        };
        ChaosLink {
            rng: XorShift64::new(mix),
            drop_pct: chaos.drop_pct,
            dup_pct: chaos.dup_pct,
            delay_ms: chaos.delay_ms,
            partition_left,
        }
    }

    /// Decides (and, for latency, performs) this frame's fate.
    pub fn on_frame(&mut self, kind_: u32) -> FrameFate {
        if chaos_exempt(kind_) {
            return FrameFate::Deliver;
        }
        if self.partition_left > 0 {
            self.partition_left -= 1;
            return FrameFate::Drop;
        }
        if self.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.delay_ms));
        }
        let roll = (self.rng.next_u64() % 100) as u8;
        if roll < self.drop_pct {
            FrameFate::Drop
        } else if roll < self.drop_pct.saturating_add(self.dup_pct) {
            FrameFate::Duplicate
        } else {
            FrameFate::Deliver
        }
    }
}

/// A [`FrameSender`] that drops, duplicates or delays frames per a
/// [`ChaosLink`] while the underlying stream stays healthy.
pub struct FaultySender {
    inner: Box<dyn FrameSender>,
    chaos: ChaosLink,
}

impl FaultySender {
    /// Wraps an already-split sender half.
    pub fn wrap(inner: Box<dyn FrameSender>, chaos: ChaosLink) -> Self {
        FaultySender { inner, chaos }
    }
}

impl FrameSender for FaultySender {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), Fx10Error> {
        // The kind lives inside the checksummed container; decoding it
        // costs one pass over bytes that were just encoded — chaos is a
        // test-only mode, determinism beats throughput here.
        let kind_ = WireMsg::decode(frame.get(4..).unwrap_or(&[]))
            .map(|m| m.kind)
            .unwrap_or(0);
        match self.chaos.on_frame(kind_) {
            FrameFate::Drop => Ok(()),
            FrameFate::Deliver => self.inner.send_frame(frame),
            FrameFate::Duplicate => {
                self.inner.send_frame(frame)?;
                self.inner.send_frame(frame)
            }
        }
    }
}

/// The [`FrameReceiver`] counterpart of [`FaultySender`].
pub struct FaultyReceiver {
    inner: Box<dyn FrameReceiver>,
    chaos: ChaosLink,
    pending: Option<WireMsg>,
}

impl FaultyReceiver {
    /// Wraps an already-split receiver half.
    pub fn wrap(inner: Box<dyn FrameReceiver>, chaos: ChaosLink) -> Self {
        FaultyReceiver {
            inner,
            chaos,
            pending: None,
        }
    }
}

impl FrameReceiver for FaultyReceiver {
    fn recv_frame(&mut self) -> Result<Option<WireMsg>, Fx10Error> {
        if let Some(m) = self.pending.take() {
            return Ok(Some(m));
        }
        loop {
            match self.inner.recv_frame()? {
                None => return Ok(None),
                Some(m) => match self.chaos.on_frame(m.kind) {
                    FrameFate::Drop => continue,
                    FrameFate::Deliver => return Ok(Some(m)),
                    FrameFate::Duplicate => {
                        self.pending = Some(m.clone());
                        return Ok(Some(m));
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn duplex() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let h = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = l.accept().unwrap();
        (server, h.join().unwrap())
    }

    fn cfg(secret: &[u8]) -> HandshakeConfig {
        HandshakeConfig {
            secret: secret.to_vec(),
            fingerprint: 0xF00D,
            shards: 4,
            max_frame: ipc::MAX_FRAME_LEN,
        }
    }

    fn hello(slot: u32, fp: u64) -> Hello {
        Hello {
            proto: PROTOCOL_VERSION,
            slot,
            boot_id: 7,
            fingerprint: fp,
        }
    }

    #[test]
    fn keyed_mac_is_deterministic_and_key_sensitive() {
        let a = keyed_mac(b"secret", b"message");
        assert_eq!(a, keyed_mac(b"secret", b"message"));
        assert_ne!(a, keyed_mac(b"secret!", b"message"));
        assert_ne!(a, keyed_mac(b"secret", b"messagf"));
        // Long keys are reduced, not truncated into a collision.
        assert_ne!(keyed_mac(&[7u8; 100], b"m"), keyed_mac(&[7u8; 64], b"m"));
    }

    #[test]
    fn handshake_succeeds_with_matching_secret() {
        let (mut server, mut client) = duplex();
        let c = cfg(b"hunter2");
        let t = thread::spawn(move || {
            client_handshake(&mut client, b"hunter2", &hello(2, 0), ipc::MAX_FRAME_LEN)
        });
        let peer = server_handshake(&mut server, &c, 42).unwrap();
        assert_eq!(peer.slot, 2);
        assert_eq!(peer.boot_id, 7);
        assert!(!peer.resumed);
        assert_eq!(t.join().unwrap().unwrap(), 0xF00D);
    }

    #[test]
    fn wrong_secret_is_rejected_on_both_sides() {
        let (mut server, mut client) = duplex();
        let c = cfg(b"hunter2");
        let t = thread::spawn(move || {
            client_handshake(&mut client, b"password", &hello(0, 0), ipc::MAX_FRAME_LEN)
        });
        let err = server_handshake(&mut server, &c, 42).unwrap_err();
        assert!(matches!(err, Fx10Error::Handshake { .. }), "{err}");
        assert!(err.to_string().contains("MAC"), "{err}");
        let cerr = t.join().unwrap().unwrap_err();
        assert!(cerr.to_string().contains("code 2"), "{cerr}");
    }

    #[test]
    fn version_skew_is_rejected_with_a_typed_error() {
        let (mut server, mut client) = duplex();
        let c = cfg(b"");
        let t = thread::spawn(move || {
            let mut h = hello(0, 0);
            h.proto = 999;
            client_handshake(&mut client, b"", &h, ipc::MAX_FRAME_LEN)
        });
        let err = server_handshake(&mut server, &c, 1).unwrap_err();
        assert!(err.to_string().contains("version skew"), "{err}");
        assert_eq!(err.exit_code(), 2);
        let cerr = t.join().unwrap().unwrap_err();
        assert!(cerr.to_string().contains("code 1"), "{cerr}");
    }

    #[test]
    fn stale_fingerprint_and_bad_slot_are_rejected() {
        for (h, needle) in [
            (hello(1, 0xDEAD), "different run"),
            (hello(9, 0), "does not exist"),
        ] {
            let (mut server, mut client) = duplex();
            let c = cfg(b"");
            let t =
                thread::spawn(move || client_handshake(&mut client, b"", &h, ipc::MAX_FRAME_LEN));
            let err = server_handshake(&mut server, &c, 1).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
            assert!(t.join().unwrap().is_err());
        }
    }

    #[test]
    fn replayed_auth_fails_against_a_fresh_nonce() {
        // Capture a valid AUTH mac for nonce 42, then replay it against
        // a handshake with nonce 43: the MAC binds the nonce, so the
        // replay must be rejected.
        let h = hello(0, 0);
        let replayed = keyed_mac(b"s3cr3t", &mac_message(42, &h));
        let (mut server, mut client) = duplex();
        let c = cfg(b"s3cr3t");
        let t = thread::spawn(move || {
            ipc::write_frame(
                &mut client,
                &WireMsg::new(kind::HELLO, 0, ipc::hello_body(&h)),
            )
            .unwrap();
            let ch = ipc::read_frame(&mut client, ipc::MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(ch.kind, kind::CHALLENGE);
            ipc::write_frame(
                &mut client,
                &WireMsg::new(kind::AUTH, 0, ipc::auth_body(replayed)),
            )
            .unwrap();
            let fin = ipc::read_frame(&mut client, ipc::MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            fin.kind
        });
        let err = server_handshake(&mut server, &c, 43).unwrap_err();
        assert!(err.to_string().contains("MAC"), "{err}");
        assert_eq!(t.join().unwrap(), kind::REJECT);
    }

    #[test]
    fn conn_supervisor_window_survives_reconnect_but_not_respawn() {
        let mut c = ConnSupervisor::new(Duration::from_millis(300), Duration::from_millis(100), 3);
        c.on_spawn();
        assert_eq!(c.on_attach(11), Attach::Fresh);
        assert!(c.admit(5));
        assert!(!c.admit(5), "redelivery is deduplicated");
        assert!(c.on_drop_conn(), "budget of 3 tolerates the first drop");
        // Same process reconnects: the window survives.
        assert_eq!(c.on_attach(11), Attach::Resumed);
        assert!(!c.admit(5));
        // A respawned process numbers frames from zero again.
        c.on_spawn();
        assert_eq!(c.on_attach(12), Attach::Fresh);
        assert!(c.admit(5));
        // Budget exhaustion.
        for _ in 0..3 {
            c.on_drop_conn();
        }
        assert!(!c.on_drop_conn(), "4th drop exceeds a budget of 3");
    }

    #[test]
    fn chaos_streams_are_deterministic_and_exempt_control_frames() {
        let chaos = NetChaos {
            drop_pct: 30,
            dup_pct: 20,
            delay_ms: 0,
            partition: None,
            seed: 0xC0FFEE,
        };
        let fates = |gen: u64| -> Vec<FrameFate> {
            let mut link = ChaosLink::for_conn(&chaos, 1, gen, true);
            (0..64).map(|_| link.on_frame(kind::BATCH)).collect()
        };
        assert_eq!(fates(1), fates(1), "same seed, same fate stream");
        assert_ne!(fates(1), fates(2), "generations decorrelate");
        let mut link = ChaosLink::for_conn(&chaos, 1, 1, true);
        for _ in 0..256 {
            assert_eq!(link.on_frame(kind::INIT), FrameFate::Deliver);
            assert_eq!(link.on_frame(kind::HELLO), FrameFate::Deliver);
        }
    }

    #[test]
    fn partition_drops_exactly_count_inbound_data_frames_on_first_conn() {
        let chaos = NetChaos {
            partition: Some((0, 3)),
            ..NetChaos::default()
        };
        // Gen 2 is the first live connection (spawn bump + attach bump).
        let mut link = ChaosLink::for_conn(&chaos, 0, 2, true);
        for _ in 0..3 {
            assert_eq!(link.on_frame(kind::BATCH), FrameFate::Drop);
        }
        assert_eq!(link.on_frame(kind::BATCH), FrameFate::Deliver);
        // Outbound, other slots, and reconnect generations are unaffected.
        assert_eq!(
            ChaosLink::for_conn(&chaos, 0, 2, false).on_frame(kind::BATCH),
            FrameFate::Deliver
        );
        assert_eq!(
            ChaosLink::for_conn(&chaos, 1, 2, true).on_frame(kind::BATCH),
            FrameFate::Deliver
        );
        assert_eq!(
            ChaosLink::for_conn(&chaos, 0, 3, true).on_frame(kind::BATCH),
            FrameFate::Deliver
        );
    }
}
