//! Digest-range sharding of the exploration state space across worker
//! *processes* (PR 6's tentpole).
//!
//! ## Why sharding is sound
//!
//! FX10 exploration is schedule-independent: the reachable set
//! `{(A,T) | (p,A₀,⟨s₀⟩) →* (p,A,T)}` does not depend on the order in
//! which frontier states are expanded. Partitioning states by a
//! structural digest therefore partitions the *work*, not the *answer*:
//! every shard explores exactly the states whose digest lands in its
//! range, forwards foreign successors to their owners, and the union of
//! the per-shard visited sets is the sequential reachable set. MHP is a
//! plain union over visited trees and the Theorem 1 verdict a
//! conjunction, so both merge losslessly.
//!
//! ## The pieces
//!
//! - [`StateDigests`]: a memoized structural digest per interned state,
//!   stable across processes (it hashes label sequences, cell values and
//!   tree shape — never interner ids).
//! - [`shard_of`]: maps a digest to a shard by range (multiply-shift,
//!   no modulo bias).
//! - [`ShardInit`] / [`ShardResult`]: the `INIT` / `RESULT` bodies,
//!   encoded as single-section FX10SNAP containers so a corrupted body
//!   is a typed [`SnapshotError`], never a panic.
//! - [`shard_worker`]: the child-process event loop behind
//!   `fx10 shard-worker --connect` — expand, route, batch, checkpoint,
//!   ack. It dials the supervisor over TCP with the
//!   [`fx10_robust::conn`] handshake, reconnects with decorrelated
//!   backoff, and retransmits unacked batches, so the link may lose,
//!   duplicate or delay frames without changing the answer.
//! - [`explore_sharded`]: the parent-side orchestration wrapping
//!   [`ShardSupervisor`] and merging the per-shard results into one
//!   [`Exploration`]. The fleet listens on loopback TCP (or on
//!   `ShardedOptions::listen`) and, unless a secret file is given,
//!   authenticates its workers with a fresh per-run secret.
//!
//! ## Crash-correctness invariants (shared with `fx10-robust::shard`)
//!
//! 1. A worker flushes *all* outboxes before writing a checkpoint, so
//!    the checkpoint never claims a state whose foreign successors are
//!    still buffered in this process.
//! 2. `BATCH`/`ADOPT` frames are acked only *after* a successful atomic
//!    checkpoint save; the supervisor redelivers unacked frames to the
//!    next incarnation, and insertion-side dedup makes replay idempotent.
//! 3. Terminal states are counted on *insertion into the visited set*
//!    (not on expansion), so replayed frames and re-imported checkpoints
//!    can never double-count; `deadlock_free` merges by `&=`, which is
//!    idempotent for the same reason.
//! 4. A worker re-derives the initial state and admits it whenever its
//!    ownership set could have changed (on `INIT` and after `ADOPT`),
//!    covering the window where the seed's owner dies before its first
//!    checkpoint.

use crate::explore::{Exploration, ExploreConfig};
use crate::intern::{state_key, state_parts, ArrayId, Interner, StmtId, TNode, TreeId, DONE};
use crate::snapshot::{fingerprint, ExplorerSnapshot};
use crate::state::ArrayState;
use crate::step::initial_tree;
use fx10_robust::backoff::{RestartPolicy, XorShift64};
use fx10_robust::conn::{self, NetChaos};
use fx10_robust::ipc::{self, kind, WireMsg};
use fx10_robust::shard::{ShardSupervisor, TcpLinkConfig};
use fx10_robust::snapshot::{fnv1a64, SectionBuf, Snapshot, SnapshotError, SnapshotWriter};
use fx10_robust::{CancelToken, Exhaustion, Fx10Error};
use fx10_syntax::{Label, Program};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Structural state digests
// ---------------------------------------------------------------------------

/// Memoized structural digests of interned statements, trees, arrays
/// and states.
///
/// The digest of a state depends only on its *rendered structure* — the
/// instruction-label sequences of its statements, the `√`/`⟨s⟩`/`▷`/`∥`
/// shape of its tree, and its cell values — never on interner ids. Two
/// processes that intern the same state in any order therefore compute
/// the same digest, which is what makes the digest usable as a
/// cross-process shard key. (Statements hash their label sequence
/// because that is exactly what [`crate::tree::Tree`]'s rendering
/// prints: two statements with equal label sequences are the same
/// statement of the same program.)
#[derive(Debug, Default)]
pub struct StateDigests {
    stmts: Vec<Option<u64>>,
    trees: Vec<Option<u64>>,
    arrays: Vec<Option<u64>>,
}

/// FNV-1a over a list of 64-bit parts (little-endian), with a leading
/// tag byte separating the constructors.
fn mix(tag: u8, parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(1 + parts.len() * 8);
    bytes.push(tag);
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a64(&bytes)
}

impl StateDigests {
    /// An empty memo table.
    pub fn new() -> StateDigests {
        StateDigests::default()
    }

    fn slot(v: &mut Vec<Option<u64>>, i: usize) -> &mut Option<u64> {
        if v.len() <= i {
            v.resize(i + 1, None);
        }
        &mut v[i]
    }

    fn stmt_digest(&mut self, it: &Interner, s: StmtId) -> u64 {
        if let Some(d) = Self::slot(&mut self.stmts, s.0 as usize) {
            return *d;
        }
        let mut bytes = Vec::new();
        for i in it.stmt(s).instrs() {
            bytes.extend_from_slice(&i.label.0.to_le_bytes());
        }
        let d = fnv1a64(&bytes);
        *Self::slot(&mut self.stmts, s.0 as usize) = Some(d);
        d
    }

    fn array_digest(&mut self, it: &Interner, a: ArrayId) -> u64 {
        if let Some(d) = Self::slot(&mut self.arrays, a.0 as usize) {
            return *d;
        }
        let mut bytes = Vec::new();
        for c in it.cells(a) {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        let d = fnv1a64(&bytes);
        *Self::slot(&mut self.arrays, a.0 as usize) = Some(d);
        d
    }

    /// Digest of an interned tree (explicit stack — trees can be deep).
    pub fn tree_digest(&mut self, it: &Interner, t: TreeId) -> u64 {
        if let Some(d) = *Self::slot(&mut self.trees, t.0 as usize) {
            return d;
        }
        let mut stack = vec![t];
        while let Some(&top) = stack.last() {
            if Self::slot(&mut self.trees, top.0 as usize).is_some() {
                stack.pop();
                continue;
            }
            let done = match it.node(top) {
                TNode::Done => Some(mix(0, &[])),
                TNode::Stm(s) => {
                    let sd = self.stmt_digest(it, s);
                    Some(mix(1, &[sd]))
                }
                TNode::Seq(a, b) | TNode::Par(a, b) => {
                    let tag = if matches!(it.node(top), TNode::Seq(..)) {
                        2
                    } else {
                        3
                    };
                    let da = *Self::slot(&mut self.trees, a.0 as usize);
                    let db = *Self::slot(&mut self.trees, b.0 as usize);
                    match (da, db) {
                        (Some(da), Some(db)) => Some(mix(tag, &[da, db])),
                        _ => {
                            if db.is_none() {
                                stack.push(b);
                            }
                            if da.is_none() {
                                stack.push(a);
                            }
                            None
                        }
                    }
                }
            };
            if let Some(d) = done {
                *Self::slot(&mut self.trees, top.0 as usize) = Some(d);
                stack.pop();
            }
        }
        Self::slot(&mut self.trees, t.0 as usize).expect("just computed")
    }

    /// Digest of a full state `(A, T)`.
    pub fn state_digest(&mut self, it: &Interner, a: ArrayId, t: TreeId) -> u64 {
        let ad = self.array_digest(it, a);
        let td = self.tree_digest(it, t);
        mix(4, &[ad, td])
    }
}

/// Maps a digest to one of `shards` shards by range: shard `k` owns the
/// digests in `[k·2⁶⁴/n, (k+1)·2⁶⁴/n)`. Multiply-shift — unbiased and
/// branch-free, unlike `digest % n`.
pub fn shard_of(digest: u64, shards: u32) -> u32 {
    (((digest as u128) * (shards as u128)) >> 64) as u32
}

// ---------------------------------------------------------------------------
// INIT / RESULT bodies
// ---------------------------------------------------------------------------

const SEC_INIT: u32 = 101;
const SEC_RESULT: u32 = 102;

/// Deterministic fault injection carried in `INIT` (only on a worker's
/// first attempt — restarts run clean so chaos runs terminate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardChaos {
    /// Exit abruptly (no `ACK`, no `RESULT`) right after writing the
    /// n-th checkpoint — the worst crash window: durable state written,
    /// acks not yet released.
    pub kill_after_ckpt: Option<u32>,
    /// Go silent (stop reading, writing and expanding) once this many
    /// states have been expanded; the supervisor's stall detector must
    /// kill and restart the worker.
    pub wedge_after_states: Option<u64>,
}

/// The decoded body of an `INIT` frame: everything a fresh worker
/// process needs to reconstruct its slice of the exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInit {
    /// Pretty-printed program source (re-parsed by the worker; the
    /// pretty-printer is deterministic, so the snapshot fingerprint
    /// agrees across the process boundary).
    pub program: String,
    /// Initial cell values.
    pub input: Vec<i64>,
    /// [`ExploreConfig::canonical_dedup`].
    pub canonical_dedup: bool,
    /// [`ExploreConfig::normalize_admin`].
    pub normalize_admin: bool,
    /// Total shard count (the digest-range denominator).
    pub shards: u32,
    /// This worker's slot index (for diagnostics).
    pub slot: u32,
    /// Restart attempt (0 = first spawn).
    pub attempt: u32,
    /// Shard ids this worker currently owns.
    pub owned: Vec<u32>,
    /// Durable checkpoint path for this slot.
    pub ckpt_path: String,
    /// Checkpoint after this many newly inserted states (0 = only the
    /// idle-time checkpoints that release acks).
    pub ckpt_every: u64,
    /// Collect canonical state renderings into the `RESULT` (the
    /// differential-oracle hook).
    pub collect: bool,
    /// Fault injection for this incarnation.
    pub chaos: ShardChaos,
}

/// Encodes an [`ShardInit`] as a single-section FX10SNAP container.
pub fn encode_init(init: &ShardInit) -> Vec<u8> {
    let mut b = SectionBuf::new();
    b.put_usize(init.program.len());
    b.put_bytes(init.program.as_bytes());
    b.put_usize(init.input.len());
    for &v in &init.input {
        b.put_i64(v);
    }
    b.put_u8(init.canonical_dedup as u8);
    b.put_u8(init.normalize_admin as u8);
    b.put_u32(init.shards);
    b.put_u32(init.slot);
    b.put_u32(init.attempt);
    b.put_usize(init.owned.len());
    for &s in &init.owned {
        b.put_u32(s);
    }
    b.put_usize(init.ckpt_path.len());
    b.put_bytes(init.ckpt_path.as_bytes());
    b.put_u64(init.ckpt_every);
    b.put_u8(init.collect as u8);
    match init.chaos.kill_after_ckpt {
        Some(n) => {
            b.put_u8(1);
            b.put_u32(n);
        }
        None => b.put_u8(0),
    }
    match init.chaos.wedge_after_states {
        Some(n) => {
            b.put_u8(1);
            b.put_u64(n);
        }
        None => b.put_u8(0),
    }
    let mut w = SnapshotWriter::new();
    w.add_section(SEC_INIT, b);
    w.finish()
}

/// Reads a length-prefixed UTF-8 string, bounds-checked before any
/// allocation (a corrupted length must become a typed error).
fn get_string(c: &mut fx10_robust::snapshot::Cursor<'_>) -> Result<String, SnapshotError> {
    let n = c.get_usize()?;
    if n > c.remaining() {
        return Err(SnapshotError::Truncated);
    }
    String::from_utf8(c.get_bytes(n)?.to_vec())
        .map_err(|_| SnapshotError::Malformed("non-UTF-8 string".into()))
}

/// Bounds-checks an element count against the bytes actually present.
fn check_count(
    n: usize,
    elem: usize,
    c: &fx10_robust::snapshot::Cursor<'_>,
) -> Result<(), SnapshotError> {
    if n.checked_mul(elem).is_none_or(|b| b > c.remaining()) {
        return Err(SnapshotError::Truncated);
    }
    Ok(())
}

/// Decodes an `INIT` body.
pub fn decode_init(body: &[u8]) -> Result<ShardInit, SnapshotError> {
    let snap = Snapshot::parse(body)?;
    let mut c = snap.section(SEC_INIT)?;
    let program = get_string(&mut c)?;
    let n = c.get_usize()?;
    check_count(n, 8, &c)?;
    let input = (0..n).map(|_| c.get_i64()).collect::<Result<_, _>>()?;
    let canonical_dedup = c.get_u8()? != 0;
    let normalize_admin = c.get_u8()? != 0;
    let shards = c.get_u32()?;
    let slot = c.get_u32()?;
    let attempt = c.get_u32()?;
    let n = c.get_usize()?;
    check_count(n, 4, &c)?;
    let owned = (0..n).map(|_| c.get_u32()).collect::<Result<_, _>>()?;
    let ckpt_path = get_string(&mut c)?;
    let ckpt_every = c.get_u64()?;
    let collect = c.get_u8()? != 0;
    let kill_after_ckpt = if c.get_u8()? != 0 {
        Some(c.get_u32()?)
    } else {
        None
    };
    let wedge_after_states = if c.get_u8()? != 0 {
        Some(c.get_u64()?)
    } else {
        None
    };
    c.done()?;
    if shards == 0 {
        return Err(SnapshotError::Malformed("zero shard count".into()));
    }
    Ok(ShardInit {
        program,
        input,
        canonical_dedup,
        normalize_admin,
        shards,
        slot,
        attempt,
        owned,
        ckpt_path,
        ckpt_every,
        collect,
        chaos: ShardChaos {
            kill_after_ckpt,
            wedge_after_states,
        },
    })
}

/// The decoded body of a `RESULT` frame: one shard's share of the
/// exploration answer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardResult {
    /// Distinct states this worker inserted.
    pub visited: u64,
    /// Terminal (`√`) states among them.
    pub terminals: u64,
    /// Theorem 1 verdict over this worker's states.
    pub deadlock_free: bool,
    /// `∪ parallel(T)` over this worker's visited trees, as raw label
    /// pairs.
    pub pairs: Vec<(u32, u32)>,
    /// Canonical state renderings (empty unless `INIT.collect`).
    pub renders: Vec<String>,
}

/// Encodes a [`ShardResult`] as a single-section FX10SNAP container.
pub fn encode_result(r: &ShardResult) -> Vec<u8> {
    let mut b = SectionBuf::new();
    b.put_u64(r.visited);
    b.put_u64(r.terminals);
    b.put_u8(r.deadlock_free as u8);
    b.put_usize(r.pairs.len());
    for &(x, y) in &r.pairs {
        b.put_u32(x);
        b.put_u32(y);
    }
    b.put_usize(r.renders.len());
    for s in &r.renders {
        b.put_usize(s.len());
        b.put_bytes(s.as_bytes());
    }
    let mut w = SnapshotWriter::new();
    w.add_section(SEC_RESULT, b);
    w.finish()
}

/// Decodes a `RESULT` body.
pub fn decode_result(body: &[u8]) -> Result<ShardResult, SnapshotError> {
    let snap = Snapshot::parse(body)?;
    let mut c = snap.section(SEC_RESULT)?;
    let visited = c.get_u64()?;
    let terminals = c.get_u64()?;
    let deadlock_free = c.get_u8()? != 0;
    let n = c.get_usize()?;
    check_count(n, 8, &c)?;
    let pairs = (0..n)
        .map(|_| Ok((c.get_u32()?, c.get_u32()?)))
        .collect::<Result<_, SnapshotError>>()?;
    let n = c.get_usize()?;
    check_count(n, 8, &c)?;
    let mut renders = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        renders.push(get_string(&mut c)?);
    }
    c.done()?;
    Ok(ShardResult {
        visited,
        terminals,
        deadlock_free,
        pairs,
        renders,
    })
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// States expanded per event-loop iteration before the inbox is polled
/// again.
const SLICE: usize = 256;
/// Flush an outbox to its owner once it holds this many states.
const BATCH_FLUSH: usize = 512;
/// Progress-heartbeat cadence.
const PROGRESS_EVERY: Duration = Duration::from_millis(100);
/// Retransmission cadence for unacked batches on a lossy link.
const RETRANSMIT_EVERY: Duration = Duration::from_millis(300);
/// States rendered per heartbeat check while collecting a `RESULT`
/// (rendering is microseconds per state, so this checks the clock
/// every few milliseconds).
const RENDER_CHUNK: usize = 2048;

enum In {
    Msg(WireMsg),
    Eof,
    Fail(Fx10Error),
}

/// Reads frames off one connection into `tx` until EOF or an error.
fn pump_frames(mut input: impl Read, tx: Sender<In>, max_len: usize) {
    loop {
        match ipc::read_frame(&mut input, max_len) {
            Ok(Some(m)) => {
                if tx.send(In::Msg(m)).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(In::Eof);
                return;
            }
            Err(e) => {
                let _ = tx.send(In::Fail(e));
                return;
            }
        }
    }
}

/// Options of a worker process (`fx10 shard-worker --connect`).
#[derive(Debug, Clone)]
pub struct ShardWorkerOptions {
    /// The supervisor's listen address.
    pub addr: SocketAddr,
    /// This worker's shard slot (must be below the fleet's shard count).
    pub slot: u32,
    /// Shared handshake secret (empty = structural checks only).
    pub secret: Vec<u8>,
    /// Dial attempts allowed per disconnection (0 = try once, fail fast).
    pub reconnects: u32,
}

/// A worker's link to its supervisor: dials, handshakes via
/// [`fx10_robust::conn`], and re-dials with decorrelated backoff when
/// the connection drops. Each connection gets a fresh reader thread and
/// channel; replacing the channel discards any stale events a dying
/// reader raced in. The worker's ARQ layer (dedup window + retained
/// unacked batches) sits above this link, so a broken connection may
/// drop frames.
struct Link {
    addr: SocketAddr,
    secret: Vec<u8>,
    slot: u32,
    /// Random per-process id: lets the supervisor tell a reconnecting
    /// process (keep the dedup window) from a respawn (reset it).
    boot_id: u64,
    fingerprint: u64,
    attempts: u32,
    rng: XorShift64,
    prev_backoff: Duration,
    stream: Option<TcpStream>,
    rx: Receiver<In>,
}

impl Link {
    fn connect(opts: &ShardWorkerOptions) -> Result<Link, Fx10Error> {
        // Placeholder channel; `reconnect` installs the real one.
        let (_tx, rx) = channel();
        let mut link = Link {
            addr: opts.addr,
            secret: opts.secret.clone(),
            slot: opts.slot,
            boot_id: conn::fresh_nonce(),
            fingerprint: 0,
            attempts: opts.reconnects,
            rng: XorShift64::new(conn::fresh_nonce()),
            prev_backoff: Duration::ZERO,
            stream: None,
            rx,
        };
        link.reconnect()?;
        Ok(link)
    }

    /// Writes one already-encoded frame. A write failure is *not* an
    /// error: the frame is dropped, the stream severed, and the receive
    /// path reports the disconnect — every frame the protocol cannot
    /// afford to lose is retained and retransmitted above this layer.
    fn send_frame(&mut self, frame: &[u8]) {
        if let Some(s) = &mut self.stream {
            if ipc::write_frame_bytes(s, frame).is_err() {
                let _ = s.shutdown(Shutdown::Both);
                self.stream = None;
            }
        }
    }

    /// Next inbound event; `timeout: None` polls without blocking.
    fn recv(&mut self, timeout: Option<Duration>) -> Option<In> {
        let ev = match timeout {
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(ev) => Some(ev),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => Some(In::Eof),
            },
            None => match self.rx.try_recv() {
                Ok(ev) => Some(ev),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some(In::Eof),
            },
        };
        match ev {
            // A send failure severed the stream; surface it as an EOF
            // even if the old reader thread is still winding down.
            None if self.stream.is_none() => Some(In::Eof),
            ev => ev,
        }
    }

    /// Re-establishes a broken connection.
    fn reconnect(&mut self) -> Result<(), Fx10Error> {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let hello = ipc::Hello {
            proto: ipc::PROTOCOL_VERSION,
            slot: self.slot,
            boot_id: self.boot_id,
            fingerprint: self.fingerprint,
        };
        let stream = conn::connect_with_retry(
            &self.addr,
            &self.secret,
            &hello,
            ipc::MAX_FRAME_LEN,
            self.attempts,
            &mut self.rng,
            &mut self.prev_backoff,
        )?;
        let reader = stream.try_clone().map_err(|e| Fx10Error::Io {
            path: self.addr.to_string(),
            message: e.to_string(),
        })?;
        let (tx, rx) = channel();
        thread::spawn(move || pump_frames(reader, tx, ipc::MAX_FRAME_LEN));
        self.rx = rx;
        self.stream = Some(stream);
        Ok(())
    }
}

struct Worker {
    p: Program,
    it: Interner,
    dig: StateDigests,
    normalize: bool,
    shards: u32,
    owned: Vec<bool>,
    visited: HashSet<u64>,
    frontier: VecDeque<u64>,
    terminals: u64,
    deadlock_free: bool,
    /// Digests already forwarded to a remote owner (resend suppression —
    /// receivers dedup anyway, this just saves frames).
    emitted: HashSet<u64>,
    /// Per-shard outgoing state keys, flushed as `BATCH` frames.
    outbox: Vec<Vec<u64>>,
    /// Frame seqs processed since the last checkpoint; acked only once
    /// a checkpoint has made their effects durable.
    pending_ack: Vec<u64>,
    processed: u64,
    since_ckpt: u64,
    ckpt_path: PathBuf,
    ckpt_every: u64,
    /// Checkpoint rounds run (the kill-chaos hook counts these).
    ckpt_count: u32,
    fingerprint: u64,
    collect: bool,
    chaos: ShardChaos,
    expanded: u64,
    out_seq: u64,
    finished: bool,
    seed: (ArrayId, TreeId),
    /// Supervisor work-frame seqs already applied — the redelivery
    /// dedup window (a retransmitted `BATCH`/`ADOPT` is re-acked but
    /// never re-processed, so `processed` stays in step with the
    /// supervisor's `sent`).
    seen_seqs: HashSet<u64>,
    /// Batch frames sent but not yet acked by the supervisor, retained
    /// verbatim for retransmission (a dropped connection loses them).
    sent_unacked: Vec<(u64, Vec<u8>)>,
    /// Encoded `RESULT` body, computed once per finish round. A large
    /// collected result (hundreds of thousands of renders) costs whole
    /// seconds to build; a retransmitted `FINISH` must re-send bytes,
    /// not redo that work, or the duplicates queue up faster than they
    /// can be answered. Invalidated by any frame that adds work.
    result_body: Option<Vec<u8>>,
}

impl Worker {
    fn new(init: ShardInit) -> Result<Worker, Fx10Error> {
        let p = Program::parse(&init.program).map_err(|e| Fx10Error::Snapshot {
            message: format!("INIT carried an unparsable program: {e}"),
        })?;
        let config = ExploreConfig {
            canonical_dedup: init.canonical_dedup,
            normalize_admin: init.normalize_admin,
            ..ExploreConfig::default()
        };
        let fp = fingerprint(&p, &init.input, &config);
        let it = Interner::new(init.canonical_dedup);
        let a0 = it.intern_array(ArrayState::with_input(&p, &init.input).cells().to_vec());
        let mut t0 = it.intern_tree(&initial_tree(&p));
        if init.normalize_admin {
            t0 = it.normalized(t0);
        }
        let mut owned = vec![false; init.shards as usize];
        for &s in &init.owned {
            if let Some(o) = owned.get_mut(s as usize) {
                *o = true;
            }
        }
        Ok(Worker {
            p,
            it,
            dig: StateDigests::new(),
            normalize: init.normalize_admin,
            shards: init.shards,
            owned,
            visited: HashSet::new(),
            frontier: VecDeque::new(),
            terminals: 0,
            deadlock_free: true,
            emitted: HashSet::new(),
            outbox: vec![Vec::new(); init.shards as usize],
            pending_ack: Vec::new(),
            processed: 0,
            since_ckpt: 0,
            ckpt_path: PathBuf::from(&init.ckpt_path),
            ckpt_every: init.ckpt_every,
            ckpt_count: 0,
            fingerprint: fp,
            collect: init.collect,
            chaos: init.chaos,
            expanded: 0,
            out_seq: 0,
            finished: false,
            seed: (a0, t0),
            seen_seqs: HashSet::new(),
            sent_unacked: Vec::new(),
            result_body: None,
        })
    }

    /// Inserts a state into the visited set; counts terminals at
    /// insertion (replay-idempotent — see the module docs) and queues
    /// non-terminal states for expansion.
    fn admit(&mut self, key: u64) {
        if self.visited.insert(key) {
            self.since_ckpt += 1;
            let (_, t) = state_parts(key);
            if t == DONE {
                self.terminals += 1;
            } else {
                self.frontier.push_back(key);
            }
        }
    }

    /// Routes a successor: admit locally if its digest lands in an
    /// owned shard, otherwise stage it for its owner.
    fn route(&mut self, a: ArrayId, t: TreeId) {
        let d = self.dig.state_digest(&self.it, a, t);
        let s = shard_of(d, self.shards);
        if self.owned[s as usize] {
            self.admit(state_key(a, t));
        } else if self.emitted.insert(d) {
            self.outbox[s as usize].push(state_key(a, t));
        }
    }

    /// Re-derives the initial state and admits it if this worker now
    /// owns its shard. Called on `INIT` and after every `ADOPT` — the
    /// seed's original owner may have died before its first checkpoint,
    /// and this is the only frame-free way the seed can re-enter the
    /// system.
    fn reseed(&mut self) {
        let (a0, t0) = self.seed;
        let d = self.dig.state_digest(&self.it, a0, t0);
        if self.owned[shard_of(d, self.shards) as usize] {
            self.admit(state_key(a0, t0));
        }
    }

    /// Re-interns a snapshot (checkpoint or batch) into this worker.
    /// `carry_verdict` is set for checkpoints (own resume or an adopted
    /// dead shard's), whose `deadlock_free` flag is part of the answer.
    fn import(&mut self, bytes: &[u8], carry_verdict: bool) -> Result<(), Fx10Error> {
        let snap = ExplorerSnapshot::from_bytes(bytes).map_err(Fx10Error::from)?;
        if snap.fingerprint != self.fingerprint {
            return Err(Fx10Error::Snapshot {
                message: format!(
                    "snapshot fingerprint {:016x} does not match this run ({:016x})",
                    snap.fingerprint, self.fingerprint
                ),
            });
        }
        let (_, tmap, amap) = snap.restore(&self.it);
        if carry_verdict {
            self.deadlock_free &= snap.deadlock_free;
        }
        let queued: HashSet<u64> = snap.frontier.iter().copied().collect();
        for &k in &snap.visited {
            let (a, t) = state_parts(k);
            let key = state_key(ArrayId(amap[a.0 as usize]), TreeId(tmap[t.0 as usize]));
            if queued.contains(&k) {
                self.admit(key);
            } else if self.visited.insert(key) {
                // Already-expanded state: record it (and its terminal
                // status) without queueing it for re-expansion.
                self.since_ckpt += 1;
                if TreeId(tmap[t.0 as usize]) == DONE {
                    self.terminals += 1;
                }
            }
        }
        Ok(())
    }

    /// Writes one frame through the link (the link flushes — frames are
    /// the heartbeat channel, and a buffered frame looks like a stall).
    /// `BATCH` frames are retained verbatim until the supervisor acks
    /// their sequence number.
    fn send(&mut self, link: &mut Link, kind_: u32, body: Vec<u8>) {
        self.out_seq += 1;
        let frame = WireMsg::new(kind_, self.out_seq, body).frame();
        link.send_frame(&frame);
        if kind_ == kind::BATCH {
            self.sent_unacked.push((self.out_seq, frame));
        }
    }

    /// Re-sends every unacked batch frame verbatim (same seqs — the
    /// supervisor's dedup window absorbs redundant deliveries).
    fn retransmit(&mut self, link: &mut Link) {
        for (_, frame) in &self.sent_unacked {
            link.send_frame(frame);
        }
    }

    /// Flushes outboxes as `BATCH` frames — all of them, or only those
    /// past the batching threshold.
    fn flush_outboxes(&mut self, link: &mut Link, only_full: bool) {
        for s in 0..self.outbox.len() {
            let n = self.outbox[s].len();
            if n == 0 || (only_full && n < BATCH_FLUSH) {
                continue;
            }
            let keys = std::mem::take(&mut self.outbox[s]);
            let snap = ExplorerSnapshot::capture_batch(&self.it, self.fingerprint, &keys);
            let body = ipc::batch_body(s as u32, &snap.to_bytes());
            self.send(link, kind::BATCH, body);
        }
    }

    fn outboxes_empty(&self) -> bool {
        self.outbox.iter().all(|o| o.is_empty())
    }

    /// Is this worker quiescent from the supervisor's point of view?
    /// An unacked batch may still be *lost* with a dropped connection,
    /// so idleness also requires the retransmission buffer to be empty.
    fn idle(&self) -> bool {
        self.frontier.is_empty() && self.outboxes_empty() && self.sent_unacked.is_empty()
    }

    /// Durably checkpoints and only then acks the frames the checkpoint
    /// covers. Ordering is the crash-safety story: outboxes drain first
    /// (invariant 1), the save is atomic, and acks release supervisor
    /// retention last (invariant 2). The kill-chaos hook fires *between*
    /// save and ack — the nastiest window a real crash can hit.
    fn checkpoint(&mut self, link: &mut Link) -> Result<(), Fx10Error> {
        self.flush_outboxes(link, false);
        // Ack-only fast path: when nothing has been inserted since the
        // last durable save, every state the pending acks cover is
        // already on disk, and re-saving an identical visited set per
        // deduped redelivery would turn a retransmission burst into a
        // disk-write storm. The first round always saves.
        if self.since_ckpt > 0 || self.ckpt_count == 0 {
            let visited: Vec<u64> = self.visited.iter().copied().collect();
            let frontier: Vec<u64> = self.frontier.iter().copied().collect();
            let snap = ExplorerSnapshot::capture(
                &self.it,
                self.fingerprint,
                self.terminals,
                self.deadlock_free,
                0,
                visited,
                frontier,
            );
            snap.save(&self.ckpt_path)?;
            self.since_ckpt = 0;
        }
        // The hook counts rounds, saved or not: a round that skips the
        // save is already covered by the last one, so the kill lands in
        // the same save-before-ack window either way.
        self.ckpt_count += 1;
        if self
            .chaos
            .kill_after_ckpt
            .is_some_and(|n| self.ckpt_count >= n)
        {
            // Simulated SIGKILL: checkpoint written, acks not sent.
            std::process::exit(9);
        }
        if !self.pending_ack.is_empty() {
            let acks = std::mem::take(&mut self.pending_ack);
            self.send(link, kind::ACK, ipc::ack_body(&acks));
        }
        Ok(())
    }

    /// Expands up to [`SLICE`] frontier states.
    fn expand_slice(&mut self) {
        let mut succ: Vec<(ArrayId, TreeId)> = Vec::new();
        for _ in 0..SLICE {
            let Some(key) = self.frontier.pop_front() else {
                break;
            };
            let (a, t) = state_parts(key);
            succ.clear();
            self.it.successors(&self.p, a, t, &mut succ);
            self.expanded += 1;
            if succ.is_empty() {
                // `√` is never queued, so an empty successor set is a
                // stuck non-terminal state: Theorem 1 fails here.
                self.deadlock_free = false;
                continue;
            }
            for &(na, nt) in &succ {
                let nt = if self.normalize {
                    self.it.normalized(nt)
                } else {
                    nt
                };
                self.route(na, nt);
            }
        }
    }

    /// Sends a `PROGRESS` frame — the heartbeat the supervisor's
    /// connection supervision and wedge detection listen for.
    fn heartbeat(&mut self, link: &mut Link) {
        let p = ipc::Progress {
            visited: self.visited.len() as u64,
            processed: self.processed,
            idle: self.idle(),
        };
        self.send(link, kind::PROGRESS, ipc::progress_body(&p));
    }

    /// One shard's share of the answer. Collecting renders for a large
    /// visited set takes whole seconds, so the render loop interleaves
    /// `PROGRESS` heartbeats — without them the supervisor reads the
    /// busy stretch as a dead connection (and then a wedged process)
    /// and kills a healthy worker mid-answer.
    fn collect_result(&mut self, link: &mut Link) -> ShardResult {
        let trees: HashSet<TreeId> = self.visited.iter().map(|&k| state_parts(k).1).collect();
        let pairs = self
            .it
            .parallel_of_trees(trees)
            .into_iter()
            .map(|(a, b)| (a.0, b.0))
            .collect();
        self.heartbeat(link);
        let renders = if self.collect {
            let keys: Vec<u64> = self.visited.iter().copied().collect();
            let mut out = Vec::with_capacity(keys.len());
            let mut last_beat = Instant::now();
            for chunk in keys.chunks(RENDER_CHUNK) {
                for &k in chunk {
                    let (a, t) = state_parts(k);
                    out.push(self.it.render_state(a, t));
                }
                if last_beat.elapsed() >= PROGRESS_EVERY {
                    last_beat = Instant::now();
                    self.heartbeat(link);
                }
            }
            out
        } else {
            Vec::new()
        };
        self.heartbeat(link);
        ShardResult {
            visited: self.visited.len() as u64,
            terminals: self.terminals,
            deadlock_free: self.deadlock_free,
            pairs,
            renders,
        }
    }

    /// Handles one supervisor frame.
    fn handle(&mut self, m: WireMsg, link: &mut Link) -> Result<(), Fx10Error> {
        if matches!(m.kind, kind::BATCH | kind::ADOPT) && !self.seen_seqs.insert(m.seq) {
            // A redelivery of a work frame already applied: its
            // original ack may have been lost, so re-stage the ack, but
            // skip the work (and the `processed` bump — the supervisor
            // counted this frame once).
            self.pending_ack.push(m.seq);
            return Ok(());
        }
        match m.kind {
            kind::BATCH => {
                let payload = ipc::batch_payload(&m.body)?;
                self.import(payload, false)?;
                self.pending_ack.push(m.seq);
                self.processed += 1;
                self.result_body = None;
            }
            kind::ADOPT => {
                let (shards, ckpt) = ipc::parse_adopt_body(&m.body)?;
                for s in shards {
                    if let Some(o) = self.owned.get_mut(s as usize) {
                        *o = true;
                    }
                }
                if let Some(bytes) = ckpt {
                    self.import(&bytes, true)?;
                }
                self.reseed();
                self.pending_ack.push(m.seq);
                self.processed += 1;
                // Adoption reopens the exploration: a `FINISH` may
                // already have collected our result, but the supervisor
                // re-runs the finish round after any migration.
                self.finished = false;
                self.result_body = None;
            }
            kind::PROBE => {
                let token = ipc::parse_probe_body(&m.body)?;
                // Quiescence protocol: everything staged must be on the
                // wire before we claim idleness (the connection is FIFO,
                // so the supervisor sees those batches before this reply).
                self.flush_outboxes(link, false);
                let idle = self.idle();
                self.send(
                    link,
                    kind::PROBE_REPLY,
                    ipc::probe_reply_body(token, self.processed, idle),
                );
            }
            kind::FINISH => {
                // A retransmitted FINISH (lost RESULT) re-sends the
                // cached bytes — the supervisor keeps the last copy.
                self.flush_outboxes(link, false);
                if self.result_body.is_none() {
                    let r = self.collect_result(link);
                    self.result_body = Some(encode_result(&r));
                }
                // Stream the result as bounded RESULT_PART frames: a
                // collected result can dwarf the frame cap, and one
                // monster frame reads as worker silence (and then a
                // heartbeat drop) for its entire transfer.
                let body = self.result_body.clone().expect("just cached");
                let total = body.chunks(ipc::RESULT_PART_LEN).count().max(1) as u32;
                if body.is_empty() {
                    self.send(link, kind::RESULT_PART, ipc::result_part_body(0, 1, &[]));
                } else {
                    for (i, chunk) in body.chunks(ipc::RESULT_PART_LEN).enumerate() {
                        self.send(
                            link,
                            kind::RESULT_PART,
                            ipc::result_part_body(i as u32, total, chunk),
                        );
                    }
                }
                self.finished = true;
            }
            kind::ACK => match ipc::parse_ack_body(&m.body) {
                Ok(seqs) => self.sent_unacked.retain(|(s, _)| !seqs.contains(s)),
                Err(e) => {
                    return Err(Fx10Error::Snapshot {
                        message: format!("malformed ack from supervisor: {e}"),
                    })
                }
            },
            kind::INIT | kind::HELLO | kind::PROGRESS | kind::PROBE_REPLY | kind::RESULT => {
                // Duplicate INIT or echoed traffic: ignore rather than
                // die — the supervisor is the arbiter of liveness.
            }
            _ => {
                return Err(Fx10Error::Snapshot {
                    message: format!("unexpected frame kind {} from supervisor", m.kind),
                })
            }
        }
        Ok(())
    }
}

/// Goes silent forever (the wedge-chaos mode). The supervisor's stall
/// detector is responsible for killing this process.
fn wedge() -> ! {
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

/// How long a fresh worker waits for its `INIT` (this subcommand is
/// spawned by `fx10 explore --shards`, not run by hand).
const INIT_GRACE: Duration = Duration::from_secs(15);

/// The `fx10 shard-worker --connect` event loop: dial the supervisor,
/// handshake, wait for `INIT`, then interleave frontier expansion with
/// frame handling under the supervisor's direction, reconnecting with
/// decorrelated backoff whenever the connection drops. A handshake
/// `REJECT` (bad secret, protocol skew, foreign fingerprint) is fatal
/// and never retried; any other protocol or I/O error propagates (the
/// supervisor treats worker death as a restartable fault). Exits `Ok`
/// once the supervisor is gone after collecting this worker's result.
pub fn shard_worker(opts: &ShardWorkerOptions) -> Result<(), Fx10Error> {
    let mut link = Link::connect(opts)?;
    let init_deadline = Instant::now() + INIT_GRACE;
    let init = loop {
        let left = init_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Fx10Error::Snapshot {
                message: "no INIT from the supervisor — `fx10 shard-worker` is spawned \
                          by `fx10 explore --shards`, not run by hand"
                    .into(),
            });
        }
        match link.recv(Some(left.min(Duration::from_millis(100)))) {
            Some(In::Msg(m)) if m.kind == kind::INIT => break decode_init(&m.body)?,
            Some(In::Msg(_)) | None => continue,
            Some(In::Eof) => link.reconnect()?,
            Some(In::Fail(e)) => {
                if !recoverable(&e) {
                    return Err(e);
                }
                link.reconnect()?;
            }
        }
    };

    let mut w = Worker::new(init)?;
    link.fingerprint = w.fingerprint;
    // Restart path: resume from our own durable checkpoint. The
    // supervisor replays every unacked frame after INIT, and dedup
    // absorbs the overlap.
    if w.ckpt_path.exists() {
        let snap = ExplorerSnapshot::load(&w.ckpt_path)?;
        w.import(&snap.to_bytes(), true)?;
    }
    w.reseed();

    let mut last_progress = Instant::now();
    let mut first_progress = true;
    let mut last_retx = Instant::now();
    loop {
        if w.chaos.wedge_after_states.is_some_and(|n| w.expanded >= n) {
            wedge();
        }
        let timeout = if w.frontier.is_empty() || !w.pending_ack.is_empty() {
            Some(Duration::from_millis(20))
        } else {
            None
        };
        let lost = match link.recv(timeout) {
            Some(In::Msg(m)) => {
                w.handle(m, &mut link)?;
                false
            }
            Some(In::Eof) => true,
            Some(In::Fail(e)) if recoverable(&e) => true,
            Some(In::Fail(e)) => return Err(e),
            None => false,
        };
        if lost {
            // The supervisor dropped us (heartbeat expiry, chaos, or its
            // own restart): dial back in and resume. If it is gone for
            // good the dial budget turns this into an exit — a quiet one
            // after FINISH, when a hangup is simply the supervisor
            // leaving with the results (a live supervisor that still
            // wants them keeps the redial path working).
            if let Err(e) = recover(&mut w, &mut link) {
                return if w.finished { Ok(()) } else { Err(e) };
            }
        }

        if !w.finished {
            w.expand_slice();
            w.flush_outboxes(&mut link, true);
            if w.ckpt_every > 0 && w.since_ckpt >= w.ckpt_every {
                w.checkpoint(&mut link)?;
            }
            if w.frontier.is_empty() {
                w.flush_outboxes(&mut link, false);
                if !w.pending_ack.is_empty() || w.since_ckpt > 0 {
                    w.checkpoint(&mut link)?;
                }
            }
        }

        // ARQ: periodically re-send batches the supervisor has not acked
        // (the original, or its ack, may have been lost) — but only once
        // the frontier is drained, as the supervisor does. A busy worker
        // reads its acks one frame per loop turn, so they lag its sends;
        // re-sending the whole window into that lag draws a re-ack per
        // copy and buries the inbox (and any FINISH behind it) faster
        // than the worker drains it. A reconnect re-sends at once.
        if w.frontier.is_empty()
            && !w.sent_unacked.is_empty()
            && last_retx.elapsed() >= RETRANSMIT_EVERY
        {
            last_retx = Instant::now();
            w.retransmit(&mut link);
        }

        if first_progress || last_progress.elapsed() >= PROGRESS_EVERY {
            first_progress = false;
            last_progress = Instant::now();
            w.heartbeat(&mut link);
        }
    }
}

/// Classifies a link failure: handshake verdicts are deterministic and
/// fatal; everything else is worth a re-dial.
fn recoverable(e: &Fx10Error) -> bool {
    !matches!(e, Fx10Error::Handshake { .. })
}

/// Re-establishes a dropped link and replays this worker's side of the
/// resume protocol: the supervisor re-sends `INIT` plus its unacked
/// frames on attach, and we re-send ours — sequence-number dedup on
/// both sides absorbs the overlap without double-counting.
fn recover(w: &mut Worker, link: &mut Link) -> Result<(), Fx10Error> {
    link.reconnect()?;
    w.retransmit(link);
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent-side orchestration
// ---------------------------------------------------------------------------

/// Configuration of a sharded exploration run.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Worker-process count (= shard count at launch).
    pub shards: usize,
    /// Executable to spawn for each worker (normally
    /// `std::env::current_exe()`).
    pub worker_exe: PathBuf,
    /// Arguments selecting the worker mode (normally
    /// `["shard-worker"]`); the supervisor appends `--connect ADDR
    /// --slot N --reconnects N --secret-file F`.
    pub worker_args: Vec<String>,
    /// Directory for the per-slot durable checkpoints (and the run's
    /// generated secret). Pre-existing `shard-*.fxsnap` files in it are
    /// removed before the run.
    pub ckpt_dir: PathBuf,
    /// Worker checkpoint cadence in newly inserted states.
    pub ckpt_every: u64,
    /// Restart budget and backoff.
    pub policy: RestartPolicy,
    /// Wedge detection threshold.
    pub stall_after: Duration,
    /// Supervisor poll interval.
    pub poll: Duration,
    /// Wall-clock budget for the whole fleet.
    pub deadline: Option<Duration>,
    /// Collect canonical state renderings (the differential hook).
    pub collect: bool,
    /// Kill worker `k` abruptly after its n-th checkpoint
    /// (`(k, n)`, first incarnation only).
    pub chaos_kill: Option<(u32, u32)>,
    /// Wedge worker `k` after it expands n states
    /// (`(k, n)`, first incarnation only).
    pub chaos_wedge: Option<(u32, u64)>,
    /// Address the supervisor listens on for its workers (`None` =
    /// `127.0.0.1:0`). Port 0 lets the OS pick; the actual address is
    /// printed to stderr as `shards: listening on ADDR`.
    pub listen: Option<SocketAddr>,
    /// File holding the shared handshake secret (trailing newlines are
    /// stripped). `None` = a fresh secret for this run only, written to
    /// an owner-only file in `ckpt_dir` and removed afterwards.
    pub secret_file: Option<PathBuf>,
    /// Reconnect budget per disconnection, on both sides of the link:
    /// worker dial attempts, and supervisor-tolerated connection drops
    /// per worker incarnation.
    pub reconnects: u32,
    /// Deterministic network-fault injection (tests/CI).
    pub net_chaos: NetChaos,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            shards: 2,
            worker_exe: PathBuf::new(),
            worker_args: vec!["shard-worker".into()],
            ckpt_dir: std::env::temp_dir(),
            ckpt_every: 1024,
            policy: RestartPolicy::default(),
            stall_after: Duration::from_secs(10),
            poll: Duration::from_millis(20),
            deadline: None,
            collect: false,
            chaos_kill: None,
            chaos_wedge: None,
            listen: None,
            secret_file: None,
            reconnects: 5,
            net_chaos: NetChaos::default(),
        }
    }
}

/// What the supervision layer did to produce an answer — the provenance
/// the ladder stamps into its `SupervisedAnswer`.
#[derive(Debug, Clone, Default)]
pub struct ShardProvenance {
    /// Supervision events in order (restarts, migrations, quiescence).
    pub events: Vec<String>,
    /// Worker restarts performed.
    pub restarts: u32,
    /// Shard migrations performed.
    pub migrations: u32,
}

/// Reads a shared-secret file, stripping trailing newlines (so a file
/// written by `echo` works).
pub fn read_secret(path: &Path) -> Result<Vec<u8>, Fx10Error> {
    let mut s = std::fs::read(path).map_err(|e| Fx10Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    while s.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
        s.pop();
    }
    Ok(s)
}

/// Writes a fresh 128-bit hex secret to a new owner-only file in `dir`
/// and returns the file's path and the secret. The file is created
/// exclusively, so a file or link planted under the same name makes the
/// run fail instead of leaking the secret.
fn write_run_secret(dir: &Path) -> Result<(PathBuf, Vec<u8>), Fx10Error> {
    let secret = format!("{:016x}{:016x}", conn::fresh_nonce(), conn::fresh_nonce());
    let path = dir.join(format!("shard-{:016x}.secret", conn::fresh_nonce()));
    let mut file = std::fs::OpenOptions::new();
    file.write(true).create_new(true);
    #[cfg(unix)]
    std::os::unix::fs::OpenOptionsExt::mode(&mut file, 0o600);
    file.open(&path)
        .and_then(|mut f| f.write_all(secret.as_bytes()))
        .map_err(|e| Fx10Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
    Ok((path, secret.into_bytes()))
}

/// Explores `p` across `opts.shards` worker processes and merges the
/// per-shard answers.
///
/// The merge is lossless because shard ownership partitions the visited
/// set: `visited`/`terminals` add, `deadlock_free` conjoins, MHP and
/// the rendered digest set union. Errors (`Cancelled`, deadline,
/// `WorkerPanicked` after the restart budget and migration are both
/// exhausted) propagate to the caller, which is expected to descend the
/// degradation ladder.
pub fn explore_sharded(
    p: &Program,
    input: &[i64],
    config: &ExploreConfig,
    opts: &ShardedOptions,
    cancel: &CancelToken,
) -> Result<(Exploration, ShardProvenance), Fx10Error> {
    std::fs::create_dir_all(&opts.ckpt_dir).map_err(|e| Fx10Error::Io {
        path: opts.ckpt_dir.display().to_string(),
        message: e.to_string(),
    })?;
    let slot_ckpt = |slot: usize| opts.ckpt_dir.join(format!("shard-{slot}.fxsnap"));
    for slot in 0..opts.shards {
        // Stale checkpoints from a previous run must not leak into this
        // one (a same-fingerprint leftover would silently pre-seed it).
        let _ = std::fs::remove_file(slot_ckpt(slot));
    }

    let sup = ShardSupervisor {
        shards: opts.shards,
        policy: opts.policy,
        stall_after: opts.stall_after,
        poll: opts.poll,
        deadline: opts.deadline,
        progress_cap: Some(config.max_states as u64),
        max_frame: ipc::MAX_FRAME_LEN,
    };
    let program_text = fx10_syntax::pretty::program(p);
    let bind = opts
        .listen
        .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
    let io_err = |path: String| {
        move |e: std::io::Error| Fx10Error::Io {
            path,
            message: e.to_string(),
        }
    };
    let listener = TcpListener::bind(bind).map_err(io_err(bind.to_string()))?;
    let addr = listener.local_addr().map_err(io_err(bind.to_string()))?;
    // Live, unbuffered: operators (and tests) binding port 0 read the
    // actual port back off this stderr line.
    eprintln!("shards: listening on {addr}");
    // Without a secret file, a fresh per-run secret makes the spawned
    // workers the only peers that can attach.
    let (secret_file, secret, generated) = match &opts.secret_file {
        Some(path) => (path.clone(), read_secret(path)?, false),
        None => {
            let (path, secret) = write_run_secret(&opts.ckpt_dir)?;
            (path, secret, true)
        }
    };
    let link = TcpLinkConfig {
        secret,
        // The worker re-derives this from the INIT it receives
        // (re-parsing the pretty-printed program), and the handshake
        // rejects any mismatch.
        fingerprint: fingerprint(p, input, config),
        // Strictly inside the stall window: a silent connection gets
        // dropped (and redialed) well before the process-level wedge
        // detector fires.
        heartbeat_timeout: (opts.stall_after / 3).max(Duration::from_millis(300)),
        retransmit_after: Duration::from_millis(250),
        max_reconnects: opts.reconnects,
        chaos: opts.net_chaos,
    };
    let report = sup.run(
        cancel,
        listener,
        link,
        |slot| {
            let mut c = Command::new(&opts.worker_exe);
            c.args(&opts.worker_args)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--slot")
                .arg(slot.to_string())
                .arg("--reconnects")
                .arg(opts.reconnects.to_string())
                .arg("--secret-file")
                .arg(&secret_file);
            c
        },
        |slot, attempt, owned| {
            let first = attempt == 0;
            encode_init(&ShardInit {
                program: program_text.clone(),
                input: input.to_vec(),
                canonical_dedup: config.canonical_dedup,
                normalize_admin: config.normalize_admin,
                shards: opts.shards as u32,
                slot: slot as u32,
                attempt,
                owned: owned.to_vec(),
                ckpt_path: slot_ckpt(slot).to_string_lossy().into_owned(),
                ckpt_every: opts.ckpt_every,
                collect: opts.collect,
                chaos: ShardChaos {
                    kill_after_ckpt: opts
                        .chaos_kill
                        .filter(|&(k, _)| first && k as usize == slot)
                        .map(|(_, n)| n),
                    wedge_after_states: opts
                        .chaos_wedge
                        .filter(|&(k, _)| first && k as usize == slot)
                        .map(|(_, n)| n),
                },
            })
        },
        |slot| Some(slot_ckpt(slot)),
    );
    if generated {
        let _ = std::fs::remove_file(&secret_file);
    }
    let report = report?;

    let mut visited = 0u64;
    let mut terminals = 0u64;
    let mut deadlock_free = true;
    let mut mhp: BTreeSet<(Label, Label)> = BTreeSet::new();
    let mut renders: BTreeSet<String> = BTreeSet::new();
    for body in report.results.iter().flatten() {
        let r = decode_result(body).map_err(Fx10Error::from)?;
        visited += r.visited;
        terminals += r.terminals;
        deadlock_free &= r.deadlock_free;
        mhp.extend(r.pairs.iter().map(|&(a, b)| (Label(a), Label(b))));
        renders.extend(r.renders);
    }
    let exploration = Exploration {
        visited: visited as usize,
        truncated: report.truncated,
        exhausted: report.truncated.then_some(Exhaustion::States),
        mhp,
        deadlock_free,
        terminals: terminals as usize,
        state_digests: opts.collect.then_some(renders),
    };
    Ok((
        exploration,
        ShardProvenance {
            events: report.events,
            restarts: report.restarts,
            migrations: report.migrations,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_syntax::examples;

    fn digest_all(p: &Program) -> BTreeSet<u64> {
        // Explore the whole space in one interner and digest every
        // state.
        let it = Interner::new(true);
        let a0 = it.intern_array(ArrayState::with_input(p, &[]).cells().to_vec());
        let t0 = it.intern_tree(&initial_tree(p));
        let mut dig = StateDigests::new();
        let mut seen = HashSet::new();
        let mut work = vec![(a0, t0)];
        let mut out = BTreeSet::new();
        let mut succ = Vec::new();
        while let Some((a, t)) = work.pop() {
            if !seen.insert(state_key(a, t)) {
                continue;
            }
            out.insert(dig.state_digest(&it, a, t));
            succ.clear();
            it.successors(p, a, t, &mut succ);
            work.extend(succ.iter().copied());
        }
        out
    }

    #[test]
    fn digests_are_interner_independent() {
        // Two interners visiting the same space in opposite orders
        // assign different ids but must agree on every digest.
        let p = examples::example_2_1();
        let a = digest_all(&p);
        let it = Interner::new(true);
        // Intern a few unrelated things first to shift all ids.
        it.intern_array(vec![9, 9, 9]);
        it.intern_tree(&initial_tree(&examples::example_2_2()));
        let a0 = it.intern_array(ArrayState::with_input(&p, &[]).cells().to_vec());
        let t0 = it.intern_tree(&initial_tree(&p));
        let mut dig = StateDigests::new();
        let mut seen = HashSet::new();
        let mut work = vec![(a0, t0)];
        let mut b = BTreeSet::new();
        let mut succ = Vec::new();
        while let Some((aid, tid)) = work.pop() {
            if !seen.insert(state_key(aid, tid)) {
                continue;
            }
            b.insert(dig.state_digest(&it, aid, tid));
            succ.clear();
            it.successors(&p, aid, tid, &mut succ);
            // Reverse order: different interning sequence.
            work.extend(succ.iter().rev().copied());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn shard_of_partitions_the_digest_space() {
        assert_eq!(shard_of(0, 1), 0);
        assert_eq!(shard_of(u64::MAX, 1), 0);
        for n in [2u32, 3, 4, 7] {
            assert_eq!(shard_of(0, n), 0);
            assert_eq!(shard_of(u64::MAX, n), n - 1);
            // Monotone in the digest: ranges, not residues.
            let mut last = 0;
            for i in 0..1000u64 {
                let s = shard_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), n);
                assert!(s < n);
                let _ = last;
                last = s;
            }
        }
        let p = examples::example_2_1();
        let digests = digest_all(&p);
        let n = 4;
        let mut buckets = vec![0usize; n as usize];
        for &d in &digests {
            buckets[shard_of(d, n) as usize] += 1;
        }
        assert_eq!(buckets.iter().sum::<usize>(), digests.len());
    }

    #[test]
    fn init_roundtrip() {
        let init = ShardInit {
            program: "x0 := 0;".into(),
            input: vec![1, -2, 3],
            canonical_dedup: true,
            normalize_admin: false,
            shards: 4,
            slot: 2,
            attempt: 1,
            owned: vec![2, 3],
            ckpt_path: "/tmp/shard-2.fxsnap".into(),
            ckpt_every: 512,
            collect: true,
            chaos: ShardChaos {
                kill_after_ckpt: Some(3),
                wedge_after_states: None,
            },
        };
        let bytes = encode_init(&init);
        assert_eq!(decode_init(&bytes).unwrap(), init);
        // Any corruption is a typed error, never a panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = decode_init(&bad);
            let _ = decode_init(&bytes[..i]);
        }
    }

    #[test]
    fn result_roundtrip() {
        let r = ShardResult {
            visited: 10,
            terminals: 2,
            deadlock_free: false,
            pairs: vec![(1, 2), (3, 3)],
            renders: vec!["[0] ⊢ √".into(), "[1] ⊢ ⟨2⟩".into()],
        };
        let bytes = encode_result(&r);
        assert_eq!(decode_result(&bytes).unwrap(), r);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let _ = decode_result(&bad);
        }
        // A lying count must not cause an OOM-sized allocation.
        let huge = {
            let mut b = SectionBuf::new();
            b.put_u64(0);
            b.put_u64(0);
            b.put_u8(1);
            b.put_usize(usize::MAX / 2);
            let mut w = SnapshotWriter::new();
            w.add_section(SEC_RESULT, b);
            w.finish()
        };
        assert!(decode_result(&huge).is_err());
    }

    #[test]
    fn batch_capture_restores_identical_renders() {
        // capture_batch → to_bytes → from_bytes → restore into a fresh
        // interner must preserve the rendered identity of every state.
        let p = examples::example_2_1();
        let it = Interner::new(true);
        let a0 = it.intern_array(ArrayState::with_input(&p, &[]).cells().to_vec());
        let t0 = it.intern_tree(&initial_tree(&p));
        let mut keys = vec![state_key(a0, t0)];
        let mut succ = Vec::new();
        it.successors(&p, a0, t0, &mut succ);
        keys.extend(succ.iter().map(|&(a, t)| state_key(a, t)));
        let snap = ExplorerSnapshot::capture_batch(&it, 42, &keys);
        let snap = ExplorerSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let other = Interner::new(true);
        let (_, tmap, amap) = snap.restore(&other);
        let want: BTreeSet<String> = keys
            .iter()
            .map(|&k| {
                let (a, t) = state_parts(k);
                it.render_state(a, t)
            })
            .collect();
        let got: BTreeSet<String> = snap
            .visited
            .iter()
            .map(|&k| {
                let (a, t) = state_parts(k);
                other.render_state(ArrayId(amap[a.0 as usize]), TreeId(tmap[t.0 as usize]))
            })
            .collect();
        assert_eq!(want, got);
    }
}
