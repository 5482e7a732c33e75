//! Process-level shard supervision: heartbeats, restarts, migration.
//!
//! The [`ShardSupervisor`] owns a fleet of worker *processes* that dial
//! back into its TCP listener, pass the [`crate::conn`] handshake, and
//! then speak the [`crate::ipc`] frame protocol. It is entirely
//! domain-agnostic: it routes dest-tagged `BATCH` frames between
//! workers, tracks liveness, restarts crashed or wedged workers with
//! decorrelated backoff, migrates a dead worker's shards (checkpoint +
//! unacked frames) to a survivor, and detects global quiescence with an
//! explicit probe round. What the frames *mean* — programs, frontier
//! batches, results — is owned by the domain layer, which supplies the
//! `INIT` bodies and interprets the `RESULT` bodies.
//!
//! ## Delivery and durability contract
//!
//! Every work-bearing frame (`BATCH`, `ADOPT`) the supervisor delivers
//! is retained until the receiving worker `ACK`s its sequence number.
//! Workers ack a frame only once a durable checkpoint covering its
//! effects exists, so on restart the supervisor can redeliver every
//! unacked frame and the worker's checkpoint-resume replays the rest —
//! no state is lost to a crash between delivery and durability.
//! Redelivered frames keep their original sequence numbers; worker-side
//! dedup (the visited set restored from the checkpoint) makes
//! redelivery idempotent.
//!
//! ## Quiescence
//!
//! Termination cannot be read off local idleness alone: a frame may be
//! in flight. The supervisor counts work-bearing frames delivered per
//! worker (`sent`) and each worker reports how many it has processed
//! this incarnation. When every live worker claims to be idle and the
//! counters match, the supervisor runs a probe round: `PROBE(token)` to
//! every worker, and the round succeeds only if every `PROBE_REPLY`
//! still reports idle with matching counters and *no* `BATCH`, death,
//! restart or dropped connection arrives during the round.
//!
//! One TCP connection is FIFO, so any batch a worker emitted on it
//! before its reply is received before the reply. Every pump event is
//! stamped with the connection generation it came from, and a drop or
//! reconnect bumps the generation and abandons the round, so a reply
//! and the batches it vouches for always travel on the same connection.
//! A worker claims idleness only once every batch it sent has been
//! acked, so a batch lost with a dead connection keeps the worker busy
//! until its retransmission lands. A successful round therefore proves
//! no work is in flight anywhere.

use crate::backoff::{RestartPolicy, XorShift64};
use crate::conn::{
    self, Attach, ChaosLink, ConnSupervisor, FaultyReceiver, FaultySender, NetChaos,
};
use crate::ipc::{self, kind, WireMsg};
use crate::{CancelToken, Exhaustion, Fx10Error};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A stuck quiescence round (a `PROBE` or its reply lost to the
/// network) is abandoned and re-run after this long.
const ROUND_TIMEOUT: Duration = Duration::from_secs(2);

/// A result-less worker is re-`FINISH`ed at this cadence (not the
/// fast unacked-work cadence): a collected `RESULT` can be tens of
/// megabytes and take seconds to build and transmit, and every
/// duplicate `FINISH` elicits a full re-send. Re-finishing on the
/// work-retransmission cadence floods a worker that is busy answering
/// with more copies than it can drain.
const FINISH_RETRANSMIT: Duration = Duration::from_secs(2);

/// Configuration of a shard fleet.
#[derive(Debug, Clone)]
pub struct ShardSupervisor {
    /// Number of shards (= worker processes at launch; migration can
    /// concentrate several shards on one survivor).
    pub shards: usize,
    /// Restart budget and backoff for crashed/wedged workers.
    pub policy: RestartPolicy,
    /// A worker silent for this long is declared wedged and killed.
    pub stall_after: Duration,
    /// Event-loop poll interval (also bounds shutdown latency).
    pub poll: Duration,
    /// Wall-clock budget for the whole supervised run.
    pub deadline: Option<Duration>,
    /// Stop (truncated) once the fleet's visited states reach this cap.
    pub progress_cap: Option<u64>,
    /// Frame-length cap passed to the connection readers.
    pub max_frame: usize,
}

impl Default for ShardSupervisor {
    fn default() -> Self {
        ShardSupervisor {
            shards: 2,
            policy: RestartPolicy::default(),
            stall_after: Duration::from_secs(10),
            poll: Duration::from_millis(20),
            deadline: None,
            progress_cap: None,
            max_frame: ipc::MAX_FRAME_LEN,
        }
    }
}

/// What a supervised run produced, with full provenance.
#[derive(Debug, Default)]
pub struct SupervisionReport {
    /// Per-slot `RESULT` bodies (`None` for slots that died and whose
    /// shards were migrated away).
    pub results: Vec<Option<Vec<u8>>>,
    /// Human-readable supervision events, in order: restarts,
    /// migrations, quiescence, truncation.
    pub events: Vec<String>,
    /// Worker restarts performed.
    pub restarts: u32,
    /// Shard migrations performed.
    pub migrations: u32,
    /// Did the run stop at the progress cap rather than quiescence?
    pub truncated: bool,
}

/// Connection parameters of the fleet's TCP links.
#[derive(Debug, Clone)]
pub struct TcpLinkConfig {
    /// Shared handshake secret (empty = structural checks only).
    pub secret: Vec<u8>,
    /// The run's program fingerprint, agreed during the handshake.
    pub fingerprint: u64,
    /// A connected worker silent past this window has its connection
    /// dropped (it reconnects, or the stall detector escalates).
    pub heartbeat_timeout: Duration,
    /// Unacked work frames idle past this window are retransmitted.
    pub retransmit_after: Duration,
    /// Connection drops tolerated per worker incarnation before the
    /// fleet escalates to restart/migration.
    pub max_reconnects: u32,
    /// Deterministic network-fault plan (inactive by default).
    pub chaos: NetChaos,
}

impl Default for TcpLinkConfig {
    fn default() -> Self {
        TcpLinkConfig {
            secret: Vec::new(),
            fingerprint: 0,
            heartbeat_timeout: Duration::from_millis(1500),
            retransmit_after: Duration::from_millis(250),
            max_reconnects: 5,
            chaos: NetChaos::default(),
        }
    }
}

enum PumpEvent {
    Frame {
        slot: usize,
        gen: u64,
        msg: WireMsg,
    },
    Closed {
        slot: usize,
        gen: u64,
        error: Option<Fx10Error>,
    },
    /// A handshaked socket for `slot`.
    Attach {
        slot: usize,
        boot_id: u64,
        stream: TcpStream,
        peer: String,
    },
    /// A connection that failed the handshake (already closed).
    Rejected {
        peer: String,
        why: String,
    },
}

struct Slot {
    child: Option<Child>,
    writer: Option<Sender<Vec<u8>>>,
    attempt: u32,
    prev_backoff: Duration,
    alive: bool,
    last_heard: Instant,
    idle: bool,
    visited: u64,
    processed: u64,
    /// Work-bearing frames delivered this incarnation.
    sent: u64,
    /// Monotonic across incarnations, so redelivered seqs stay unique.
    next_seq: u64,
    unacked: Vec<(u64, WireMsg)>,
    owned: Vec<u32>,
    result: Option<Vec<u8>>,
    /// When the last `FINISH` was sent down this slot's transport —
    /// the [`FINISH_RETRANSMIT`] cadence gate.
    finish_tx: Option<Instant>,
    /// Reassembly buffer for a streamed result (`RESULT_PART` frames,
    /// in order; part 0 restarts the stream).
    part_buf: Vec<u8>,
    /// `(total, next expected index)` of an in-progress reassembly.
    part_state: Option<(u32, u32)>,
    ckpt: Option<PathBuf>,
    /// Connection state machine: generations, heartbeat expiry,
    /// reconnect budget and the batch-dedup window.
    conn: ConnSupervisor,
    /// Control handle to the live socket: shutting it down unblocks the
    /// pump thread and tells the worker to reconnect.
    ctl: Option<TcpStream>,
}

struct Round {
    token: u64,
    awaiting: Vec<bool>,
    ok: bool,
    started: Instant,
}

/// Picks the migration target: the live slot owning the fewest shards
/// (ties to the lowest index). `None` when no slot is alive.
fn pick_survivor(slots: &[(bool, usize)]) -> Option<usize> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, (alive, _))| *alive)
        .min_by_key(|(i, (_, owned))| (*owned, *i))
        .map(|(i, _)| i)
}

struct Fleet<'a, S, I, C>
where
    S: FnMut(usize) -> Command,
    I: FnMut(usize, u32, &[u32]) -> Vec<u8>,
    C: Fn(usize) -> Option<PathBuf>,
{
    cfg: &'a ShardSupervisor,
    spawn: S,
    init_body: I,
    ckpt_path: C,
    slots: Vec<Slot>,
    /// shard id → owning slot.
    owner: Vec<usize>,
    tx: Sender<PumpEvent>,
    rng: XorShift64,
    events: Vec<String>,
    restarts: u32,
    migrations: u32,
    round: Option<Round>,
    probe_token: u64,
    finishing: bool,
    truncated: bool,
    chaos: NetChaos,
    stop_accept: Arc<AtomicBool>,
}

impl<S, I, C> Fleet<'_, S, I, C>
where
    S: FnMut(usize) -> Command,
    I: FnMut(usize, u32, &[u32]) -> Vec<u8>,
    C: Fn(usize) -> Option<PathBuf>,
{
    fn note(&mut self, ev: String) {
        self.events.push(ev);
    }

    /// Spawns (or respawns) the worker process for `slot`. The worker
    /// dials back in, and the handshake's `Attach` event sends its
    /// protocol preamble ([`Fleet::attach_slot`]).
    fn spawn_slot(&mut self, slot: usize) -> Result<(), Fx10Error> {
        let child = (self.spawn)(slot)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| Fx10Error::Io {
                path: "<shard spawn>".into(),
                message: e.to_string(),
            })?;
        let s = &mut self.slots[slot];
        s.child = Some(child);
        s.alive = true;
        s.last_heard = Instant::now();
        s.idle = false;
        s.processed = 0;
        s.sent = s.unacked.len() as u64;
        s.result = None;
        s.finish_tx = None;
        s.part_buf = Vec::new();
        s.part_state = None;
        s.writer = None;
        s.ctl = None;
        s.conn.on_spawn();
        Ok(())
    }

    /// Spawns the writer and pump threads for one authenticated socket,
    /// stamping every event with the connection generation `gen`.
    fn pump_stream(&mut self, slot: usize, gen: u64, stream: TcpStream) {
        let (mut tx_half, mut rx_half) = match ipc::split_tcp(stream, self.cfg.max_frame) {
            Ok(halves) => halves,
            Err(e) => {
                let _ = self.tx.send(PumpEvent::Closed {
                    slot,
                    gen,
                    error: Some(Fx10Error::Io {
                        path: "<shard socket>".into(),
                        message: e.to_string(),
                    }),
                });
                return;
            }
        };
        if self.chaos.is_active() {
            tx_half = Box::new(FaultySender::wrap(
                tx_half,
                ChaosLink::for_conn(&self.chaos, slot as u32, gen, false),
            ));
            rx_half = Box::new(FaultyReceiver::wrap(
                rx_half,
                ChaosLink::for_conn(&self.chaos, slot as u32, gen, true),
            ));
        }

        // Writer thread: owns the write half, drains a frame queue.
        // Exits on channel close (supervisor dropped it) or a dead peer.
        let (wtx, wrx) = channel::<Vec<u8>>();
        self.slots[slot].writer = Some(wtx);
        thread::spawn(move || {
            for frame in wrx {
                if tx_half.send_frame(&frame).is_err() {
                    break;
                }
            }
        });

        // Pump thread: owns the read half, forwards decoded frames.
        let tx = self.tx.clone();
        thread::spawn(move || loop {
            match rx_half.recv_frame() {
                Ok(Some(msg)) => {
                    if tx.send(PumpEvent::Frame { slot, gen, msg }).is_err() {
                        return;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(PumpEvent::Closed {
                        slot,
                        gen,
                        error: None,
                    });
                    return;
                }
                Err(e) => {
                    let _ = tx.send(PumpEvent::Closed {
                        slot,
                        gen,
                        error: Some(e),
                    });
                    return;
                }
            }
        });
    }

    /// (Re)sends the protocol preamble down a fresh connection: `INIT`,
    /// then every unacked work frame with its original sequence number.
    fn replay_preamble(&mut self, slot: usize) {
        let attempt = self.slots[slot].attempt;
        let owned = self.slots[slot].owned.clone();
        let body = (self.init_body)(slot, attempt, &owned);
        self.enqueue(slot, &WireMsg::new(kind::INIT, 0, body));
        let replay: Vec<WireMsg> = self.slots[slot]
            .unacked
            .iter()
            .map(|(_, m)| m.clone())
            .collect();
        for m in &replay {
            self.enqueue(slot, m);
        }
        self.slots[slot].conn.mark_tx();
    }

    /// A handshaked socket arrived for `slot`: wire it up, replay the
    /// preamble, and resume.
    fn attach_slot(&mut self, slot: usize, boot_id: u64, stream: TcpStream, peer: String) {
        if slot >= self.slots.len() || !self.slots[slot].alive {
            let _ = stream.shutdown(Shutdown::Both);
            self.note(format!(
                "dropping connection from {peer}: slot {slot} is not live"
            ));
            return;
        }
        if let Some(old) = self.slots[slot].ctl.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        let attach = self.slots[slot].conn.on_attach(boot_id);
        let gen = self.slots[slot].conn.gen();
        self.slots[slot].ctl = stream.try_clone().ok();
        self.slots[slot].last_heard = Instant::now();
        // A first connection is part of every spawn and is not an
        // event; the ladder prints the event list on stdout, so it
        // stays the same on every clean run.
        if attach == Attach::Resumed {
            let unacked = self.slots[slot].unacked.len();
            self.note(format!(
                "worker {slot} reconnected from {peer} (conn {gen}, replaying {unacked} unacked frame(s))"
            ));
        }
        self.pump_stream(slot, gen, stream);
        self.replay_preamble(slot);
        // A FINISH (or its RESULT) in flight when the old connection
        // died is gone: re-issue it on the fresh connection rather than
        // waiting out the retransmission cadence.
        if self.finishing && self.slots[slot].result.is_none() {
            self.slots[slot].finish_tx = Some(Instant::now());
            self.enqueue(slot, &WireMsg::new(kind::FINISH, 0, Vec::new()));
        }
    }

    /// Has the worker process of `slot` exited?
    fn exited(&mut self, slot: usize) -> bool {
        self.slots[slot]
            .child
            .as_mut()
            .is_some_and(|c| matches!(c.try_wait(), Ok(Some(_))))
    }

    /// The socket to `slot` died (EOF, error, or heartbeat expiry) but
    /// the process may well be alive: drop the connection and wait for
    /// the worker to dial back in, escalating to restart/migration when
    /// the reconnect budget is spent.
    fn conn_lost(&mut self, slot: usize, why: &str) -> Result<(), Fx10Error> {
        // The worker may have died with the connection.
        if self.exited(slot) {
            return self.fail_slot(slot, &format!("exited ({why})"));
        }
        self.round = None;
        let s = &mut self.slots[slot];
        if let Some(ctl) = s.ctl.take() {
            let _ = ctl.shutdown(Shutdown::Both);
        }
        s.writer = None;
        let within_budget = s.conn.on_drop_conn();
        let drops = s.conn.drops();
        let max = s.conn.max_reconnects;
        self.note(format!(
            "worker {slot}: connection lost ({why}); drop {drops}/{max}"
        ));
        if within_budget {
            Ok(())
        } else {
            self.fail_slot(slot, "reconnect budget exhausted")
        }
    }

    /// Queues a frame for the slot's writer thread. A closed queue means
    /// the worker died; the pump's `Closed` event handles that.
    fn enqueue(&mut self, slot: usize, msg: &WireMsg) {
        if let Some(w) = &self.slots[slot].writer {
            let _ = w.send(msg.frame());
        }
    }

    /// Delivers a work-bearing frame: assigns a sequence number,
    /// retains it for redelivery, counts it toward quiescence.
    fn deliver_work(&mut self, slot: usize, kind: u32, body: Vec<u8>) {
        let s = &mut self.slots[slot];
        let seq = s.next_seq;
        s.next_seq += 1;
        let msg = WireMsg::new(kind, seq, body);
        s.unacked.push((seq, msg.clone()));
        s.sent += 1;
        s.conn.mark_tx();
        self.enqueue(slot, &msg);
    }

    fn reap(&mut self, slot: usize) {
        self.slots[slot].writer = None;
        if let Some(ctl) = self.slots[slot].ctl.take() {
            let _ = ctl.shutdown(Shutdown::Both);
        }
        if let Some(mut child) = self.slots[slot].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// A worker failed (exited, wedged, or protocol violation): restart
    /// it while the budget lasts, then migrate its shards.
    fn fail_slot(&mut self, slot: usize, why: &str) -> Result<(), Fx10Error> {
        self.round = None;
        self.finishing = false;
        self.reap(slot);
        self.slots[slot].alive = false;
        let attempt = self.slots[slot].attempt;
        if attempt < self.cfg.policy.max_restarts {
            self.slots[slot].attempt += 1;
            self.restarts += 1;
            let prev = self.slots[slot].prev_backoff;
            let pause = self.rng.backoff(
                self.cfg.policy.base_backoff,
                if prev.is_zero() {
                    self.cfg.policy.base_backoff
                } else {
                    prev
                },
                self.cfg.policy.max_backoff,
            );
            self.slots[slot].prev_backoff = pause;
            self.note(format!(
                "shard worker {slot}: {why}; restart {}/{} after {}ms backoff",
                attempt + 1,
                self.cfg.policy.max_restarts,
                pause.as_millis()
            ));
            thread::sleep(pause);
            match self.spawn_slot(slot) {
                Ok(()) => Ok(()),
                Err(e) => self.fail_slot(slot, &format!("respawn failed ({e})")),
            }
        } else {
            self.note(format!(
                "shard worker {slot}: {why}; restart budget exhausted"
            ));
            self.migrate(slot)
        }
    }

    /// Moves a dead slot's shards — checkpoint plus unacked frames — to
    /// the live slot owning the fewest shards.
    fn migrate(&mut self, dead: usize) -> Result<(), Fx10Error> {
        let occupancy: Vec<(bool, usize)> = self
            .slots
            .iter()
            .map(|s| (s.alive, s.owned.len()))
            .collect();
        let Some(survivor) = pick_survivor(&occupancy) else {
            return Err(Fx10Error::WorkerPanicked {
                worker: dead,
                message: "no live shard worker left to migrate to".into(),
            });
        };
        let moved = std::mem::take(&mut self.slots[dead].owned);
        for &sh in &moved {
            self.owner[sh as usize] = survivor;
        }
        self.slots[survivor].owned.extend(moved.iter().copied());
        let ckpt = self.slots[dead]
            .ckpt
            .as_ref()
            .and_then(|p| std::fs::read(p).ok());
        let orphaned = std::mem::take(&mut self.slots[dead].unacked);
        self.note(format!(
            "migrating shards {moved:?} from worker {dead} to worker {survivor} \
             ({} checkpoint, {} unacked frame(s))",
            if ckpt.is_some() { "with" } else { "no" },
            orphaned.len()
        ));
        self.migrations += 1;
        // ADOPT first, then the orphaned frames: FIFO delivery means the
        // survivor installs the checkpoint before replaying them, so
        // nothing is double-counted.
        self.deliver_work(
            survivor,
            kind::ADOPT,
            ipc::adopt_body(&moved, ckpt.as_deref()),
        );
        for (_, m) in orphaned {
            self.deliver_work(survivor, m.kind, m.body);
        }
        Ok(())
    }

    fn handle_frame(&mut self, slot: usize, msg: WireMsg) -> Result<(), Fx10Error> {
        self.slots[slot].last_heard = Instant::now();
        match msg.kind {
            kind::BATCH => {
                // Ack receipt immediately (and re-ack redeliveries —
                // the worker retransmits until acked on lossy links).
                self.enqueue(slot, &WireMsg::new(kind::ACK, 0, ipc::ack_body(&[msg.seq])));
                if !self.slots[slot].conn.admit(msg.seq) {
                    // A redelivery of a batch already routed: dropping
                    // it here is what keeps terminals single-counted.
                    return Ok(());
                }
                // Any in-flight work invalidates a quiescence round.
                self.round = None;
                match ipc::batch_dest(&msg.body) {
                    Ok(dest) if (dest as usize) < self.owner.len() => {
                        let target = self.owner[dest as usize];
                        self.deliver_work(target, kind::BATCH, msg.body);
                    }
                    _ => {
                        return self.fail_slot(slot, "sent a batch for an unknown shard");
                    }
                }
            }
            kind::ACK => match ipc::parse_ack_body(&msg.body) {
                Ok(seqs) => {
                    self.slots[slot].unacked.retain(|(s, _)| !seqs.contains(s));
                }
                Err(_) => return self.fail_slot(slot, "sent a malformed ack"),
            },
            kind::PROGRESS => match ipc::parse_progress_body(&msg.body) {
                Ok(p) => {
                    let s = &mut self.slots[slot];
                    s.visited = p.visited;
                    s.processed = p.processed;
                    s.idle = p.idle;
                }
                Err(_) => return self.fail_slot(slot, "sent a malformed progress report"),
            },
            kind::PROBE_REPLY => {
                if let Ok((token, processed, idle)) = ipc::parse_probe_reply_body(&msg.body) {
                    let sent = self.slots[slot].sent;
                    if let Some(r) = &mut self.round {
                        if r.token == token && r.awaiting[slot] {
                            r.awaiting[slot] = false;
                            r.ok &= idle && processed == sent;
                            if r.awaiting.iter().all(|w| !w) {
                                let ok = r.ok;
                                self.round = None;
                                if ok {
                                    self.begin_finish(false);
                                }
                            }
                        }
                    }
                } else {
                    return self.fail_slot(slot, "sent a malformed probe reply");
                }
            }
            kind::RESULT => {
                self.slots[slot].result = Some(msg.body);
            }
            kind::RESULT_PART => match ipc::parse_result_part_body(&msg.body) {
                Ok((index, total, chunk)) => {
                    let s = &mut self.slots[slot];
                    if index == 0 {
                        // Part 0 (re)starts the stream — a re-FINISHed
                        // worker re-sends its result from the top.
                        s.part_buf = chunk.to_vec();
                        s.part_state = Some((total, 1));
                    } else if let Some((t, next)) = s.part_state {
                        if t == total && index == next {
                            s.part_buf.extend_from_slice(chunk);
                            s.part_state = Some((t, next + 1));
                        }
                        // Anything else is a duplicate or a tail whose
                        // head was lost: ignore it — the FINISH
                        // retransmission restarts the stream.
                    }
                    let s = &mut self.slots[slot];
                    if s.part_state.is_some_and(|(t, next)| next == t) {
                        s.result = Some(std::mem::take(&mut s.part_buf));
                        s.part_state = None;
                    }
                }
                Err(_) => return self.fail_slot(slot, "sent a malformed result part"),
            },
            _ => return self.fail_slot(slot, "sent an unexpected message kind"),
        }
        Ok(())
    }

    fn begin_probe(&mut self) {
        self.probe_token += 1;
        let token = self.probe_token;
        let awaiting: Vec<bool> = self.slots.iter().map(|s| s.alive).collect();
        for slot in (0..self.slots.len()).filter(|&s| awaiting[s]) {
            self.enqueue(slot, &WireMsg::new(kind::PROBE, 0, ipc::probe_body(token)));
        }
        self.round = Some(Round {
            token,
            awaiting,
            ok: true,
            started: Instant::now(),
        });
    }

    fn begin_finish(&mut self, truncated: bool) {
        if self.finishing {
            return;
        }
        self.finishing = true;
        self.truncated = truncated;
        self.round = None;
        self.note(if truncated {
            "progress cap reached; collecting truncated results".into()
        } else {
            "fleet quiesced; collecting results".into()
        });
        for slot in 0..self.slots.len() {
            if self.slots[slot].alive {
                self.slots[slot].finish_tx = Some(Instant::now());
                self.enqueue(slot, &WireMsg::new(kind::FINISH, 0, Vec::new()));
            }
        }
    }

    /// Graceful shutdown: stop accepting, close every connection
    /// (workers exit once they cannot redial), give them a moment, then
    /// kill stragglers.
    fn shutdown(&mut self) {
        self.stop_accept.store(true, Ordering::Relaxed);
        for s in &mut self.slots {
            s.writer = None;
            if let Some(ctl) = s.ctl.take() {
                let _ = ctl.shutdown(Shutdown::Both);
            }
        }
        let grace = Instant::now();
        for i in 0..self.slots.len() {
            if let Some(child) = &mut self.slots[i].child {
                while grace.elapsed() < Duration::from_millis(500) {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) => thread::sleep(Duration::from_millis(10)),
                        Err(_) => break,
                    }
                }
            }
            self.reap(i);
        }
    }
}

impl ShardSupervisor {
    /// Runs a shard fleet to completion.
    ///
    /// - `listener` is the already-bound socket the workers dial back
    ///   into (bind to port 0 to let the OS pick; read the address back
    ///   before spawning workers),
    /// - `link` sets the handshake secret and the connection
    ///   supervision windows,
    /// - `spawn(slot)` builds the worker command line (stdio is wired by
    ///   the supervisor; the command must make the worker dial
    ///   `listener` as `slot`),
    /// - `init_body(slot, attempt, owned_shards)` encodes the
    ///   domain-level `INIT` payload for a (re)spawn,
    /// - `ckpt_path(slot)` names the worker's durable checkpoint file,
    ///   read at migration time.
    ///
    /// Every connection passes the [`crate::conn`] handshake. The fleet
    /// supervises connections as well as processes: heartbeat expiry
    /// drops a silent socket, a reconnecting worker resumes with its
    /// redelivery window intact, and an exhausted reconnect budget
    /// escalates to restart and migration.
    ///
    /// Returns per-slot `RESULT` bodies plus full supervision
    /// provenance, or the error that ended the run (cancellation,
    /// deadline, or fleet exhaustion) — callers degrade to the next
    /// ladder rung on anything except `Cancelled`.
    pub fn run(
        &self,
        cancel: &CancelToken,
        listener: TcpListener,
        link: TcpLinkConfig,
        spawn: impl FnMut(usize) -> Command,
        init_body: impl FnMut(usize, u32, &[u32]) -> Vec<u8>,
        ckpt_path: impl Fn(usize) -> Option<PathBuf>,
    ) -> Result<SupervisionReport, Fx10Error> {
        assert!(self.shards > 0, "a fleet needs at least one shard");
        let (tx, rx) = channel::<PumpEvent>();
        let now = Instant::now();
        let deadline = self.deadline.map(|d| now + d);
        let stop_accept = Arc::new(AtomicBool::new(false));
        accept_loop(
            listener,
            conn::HandshakeConfig {
                secret: link.secret.clone(),
                fingerprint: link.fingerprint,
                shards: self.shards as u32,
                max_frame: self.max_frame,
            },
            tx.clone(),
            Arc::clone(&stop_accept),
        );
        let mut fleet = Fleet {
            cfg: self,
            spawn,
            init_body,
            ckpt_path,
            slots: (0..self.shards)
                .map(|i| Slot {
                    child: None,
                    writer: None,
                    attempt: 0,
                    prev_backoff: Duration::ZERO,
                    alive: false,
                    last_heard: now,
                    idle: false,
                    visited: 0,
                    processed: 0,
                    sent: 0,
                    next_seq: 0,
                    unacked: Vec::new(),
                    owned: vec![i as u32],
                    result: None,
                    finish_tx: None,
                    part_buf: Vec::new(),
                    part_state: None,
                    ckpt: None,
                    conn: ConnSupervisor::new(
                        link.heartbeat_timeout,
                        link.retransmit_after,
                        link.max_reconnects,
                    ),
                    ctl: None,
                })
                .collect(),
            owner: (0..self.shards).collect(),
            tx,
            rng: XorShift64::new(self.policy.seed),
            events: Vec::new(),
            restarts: 0,
            migrations: 0,
            round: None,
            probe_token: 0,
            finishing: false,
            truncated: false,
            chaos: link.chaos,
            stop_accept,
        };
        for i in 0..self.shards {
            fleet.slots[i].ckpt = (fleet.ckpt_path)(i);
        }

        let finish = |mut fleet: Fleet<'_, _, _, _>, r: Result<(), Fx10Error>| {
            fleet.shutdown();
            match r {
                Ok(()) => Ok(SupervisionReport {
                    results: fleet.slots.iter_mut().map(|s| s.result.take()).collect(),
                    events: std::mem::take(&mut fleet.events),
                    restarts: fleet.restarts,
                    migrations: fleet.migrations,
                    truncated: fleet.truncated,
                }),
                Err(e) => Err(e),
            }
        };

        for i in 0..self.shards {
            if let Err(e) = fleet.spawn_slot(i) {
                if let Err(e2) = fleet.fail_slot(i, &format!("initial spawn failed ({e})")) {
                    return finish(fleet, Err(e2));
                }
            }
        }

        loop {
            match rx.recv_timeout(self.poll) {
                Ok(PumpEvent::Frame { slot, gen, msg }) => {
                    if fleet.slots[slot].alive && fleet.slots[slot].conn.gen() == gen {
                        if let Err(e) = fleet.handle_frame(slot, msg) {
                            return finish(fleet, Err(e));
                        }
                    }
                }
                Ok(PumpEvent::Closed { slot, gen, error }) => {
                    if fleet.slots[slot].alive && fleet.slots[slot].conn.gen() == gen {
                        let why = match error {
                            Some(e) => format!("socket failed ({e})"),
                            None => "peer closed".into(),
                        };
                        if let Err(e) = fleet.conn_lost(slot, &why) {
                            return finish(fleet, Err(e));
                        }
                    }
                }
                Ok(PumpEvent::Attach {
                    slot,
                    boot_id,
                    stream,
                    peer,
                }) => {
                    fleet.attach_slot(slot, boot_id, stream, peer);
                }
                Ok(PumpEvent::Rejected { peer, why }) => {
                    fleet.note(format!("rejected connection from {peer}: {why}"));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("fleet holds a sender"),
            }

            if cancel.is_cancelled() {
                return finish(fleet, Err(Fx10Error::Cancelled));
            }
            if let Some(d) = deadline {
                if Instant::now() > d {
                    return finish(fleet, Err(Fx10Error::BudgetExhausted(Exhaustion::Deadline)));
                }
            }

            // Connection supervision: fail a disconnected worker whose
            // process has exited, drop silent connections, retransmit
            // unacked work, re-send FINISH to result-less workers — all
            // idempotent on the worker side.
            for slot in 0..fleet.slots.len() {
                if !fleet.slots[slot].alive {
                    continue;
                }
                if !fleet.slots[slot].conn.connected() {
                    // A worker that dies closes its socket a moment
                    // before it can be reaped, so the close alone may
                    // read as a dropped connection; catch the exit here.
                    if fleet.exited(slot) {
                        if let Err(e) = fleet.fail_slot(slot, "exited") {
                            return finish(fleet, Err(e));
                        }
                    }
                    continue;
                }
                let s = &fleet.slots[slot];
                if s.conn.heartbeat_expired(s.last_heard) {
                    let silent_ms = s.last_heard.elapsed().as_millis();
                    if let Err(e) =
                        fleet.conn_lost(slot, &format!("heartbeat silent for {silent_ms}ms"))
                    {
                        return finish(fleet, Err(e));
                    }
                    continue;
                }
                if s.conn.retransmit_due() {
                    if fleet.finishing && s.result.is_none() {
                        // Gentler cadence than work retransmission:
                        // every duplicate FINISH elicits a full
                        // (possibly huge) RESULT re-send.
                        let due = s.finish_tx.is_none_or(|t| t.elapsed() >= FINISH_RETRANSMIT);
                        if due {
                            fleet.slots[slot].conn.mark_tx();
                            fleet.slots[slot].finish_tx = Some(Instant::now());
                            fleet.enqueue(slot, &WireMsg::new(kind::FINISH, 0, Vec::new()));
                        }
                    } else if !fleet.finishing && s.idle && !s.unacked.is_empty() {
                        // Replay unacked work only to a worker that
                        // reports *idle*: a busy worker acks at its
                        // own checkpoint cadence, and replaying the
                        // whole window into it every retransmit
                        // period would bury it in duplicates faster
                        // than it can drain them. An idle worker
                        // with unacked frames, by contrast, is
                        // evidence of loss — it has nothing left to
                        // do, so the frames (or their acks) died on
                        // the wire.
                        fleet.slots[slot].conn.mark_tx();
                        let replay: Vec<WireMsg> = fleet.slots[slot]
                            .unacked
                            .iter()
                            .map(|(_, m)| m.clone())
                            .collect();
                        for m in &replay {
                            fleet.enqueue(slot, m);
                        }
                    }
                }
            }
            // A quiescence round whose PROBE or reply was lost must
            // not wedge the run: abandon it and re-probe.
            if fleet
                .round
                .as_ref()
                .is_some_and(|r| r.started.elapsed() > ROUND_TIMEOUT)
            {
                fleet.round = None;
            }

            // Wedge detection: a live worker silent past the stall
            // window is killed and handled like a crash.
            for slot in 0..fleet.slots.len() {
                if fleet.slots[slot].alive
                    && fleet.slots[slot].last_heard.elapsed() > self.stall_after
                {
                    let stalled_ms = fleet.slots[slot].last_heard.elapsed().as_millis();
                    if let Err(e) =
                        fleet.fail_slot(slot, &format!("wedged (silent for {stalled_ms}ms)"))
                    {
                        return finish(fleet, Err(e));
                    }
                }
            }

            if let Some(cap) = self.progress_cap {
                let total: u64 = fleet
                    .slots
                    .iter()
                    .filter(|s| s.alive)
                    .map(|s| s.visited)
                    .sum();
                if total >= cap && !fleet.finishing {
                    fleet.begin_finish(true);
                }
            }

            if fleet.finishing {
                let done = fleet.slots.iter().all(|s| !s.alive || s.result.is_some());
                if done {
                    return finish(fleet, Ok(()));
                }
            } else if fleet.round.is_none() {
                let quiet = fleet
                    .slots
                    .iter()
                    .all(|s| !s.alive || (s.conn.connected() && s.idle && s.processed == s.sent));
                let any_alive = fleet.slots.iter().any(|s| s.alive);
                if quiet && any_alive {
                    fleet.begin_probe();
                }
            }
        }
    }
}

/// Spawns the accept thread: handshake every incoming connection and
/// forward the verdict as an `Attach` or `Rejected` event. Handshakes
/// run serially under a read deadline — a half-open dialer cannot wedge
/// the fleet for longer than the deadline.
fn accept_loop(
    listener: TcpListener,
    cfg: conn::HandshakeConfig,
    tx: Sender<PumpEvent>,
    stop: Arc<AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking mode");
    thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            let (stream, peer) = match listener.accept() {
                Ok(ok) => ok,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                    continue;
                }
                Err(_) => {
                    thread::sleep(Duration::from_millis(20));
                    continue;
                }
            };
            let peer = peer.to_string();
            let _ = stream.set_nodelay(true);
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(3)));
            let mut io = match stream.try_clone() {
                Ok(io) => io,
                Err(_) => continue,
            };
            match conn::server_handshake(&mut io, &cfg, conn::fresh_nonce()) {
                Ok(info) => {
                    let _ = stream.set_read_timeout(None);
                    if tx
                        .send(PumpEvent::Attach {
                            slot: info.slot as usize,
                            boot_id: info.boot_id,
                            stream,
                            peer,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err(e) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    if tx
                        .send(PumpEvent::Rejected {
                            peer,
                            why: e.to_string(),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivor_is_the_least_loaded_live_slot() {
        assert_eq!(pick_survivor(&[(true, 3), (true, 1), (false, 0)]), Some(1));
        assert_eq!(pick_survivor(&[(false, 1), (false, 2)]), None);
        // Ties break to the lowest index.
        assert_eq!(pick_survivor(&[(true, 2), (true, 2)]), Some(0));
    }

    #[test]
    fn defaults_are_sane() {
        let s = ShardSupervisor::default();
        assert!(s.shards >= 1);
        assert!(s.stall_after > s.poll);
        assert_eq!(s.max_frame, ipc::MAX_FRAME_LEN);
    }
}
