//! Length-prefixed FX10SNAP wire framing for the shard transport.
//!
//! The shard supervisor and its worker processes exchange messages over
//! TCP (loopback by default, machines apart by design); [`split_tcp`]
//! turns an authenticated stream into a [`FrameSender`] and a
//! [`FrameReceiver`]. Every message is one *frame*:
//!
//! ```text
//! [ u32 LE frame length ][ FX10SNAP container, exactly that long ]
//! ```
//!
//! The container reuses the durable-snapshot layout from
//! [`crate::snapshot`] — magic, version, tagged sections, trailing
//! FNV-1a-64 checksum — so a torn or corrupted write decodes to a
//! typed [`SnapshotError`], never a panic. Two sections are used:
//!
//! - [`SEC_HEAD`]: `{ kind u32, seq u64 }` — the message kind (one of
//!   the [`kind`] constants) and a per-connection sequence number,
//! - [`SEC_BODY`]: opaque payload bytes owned by the protocol layer
//!   (absent for body-less messages such as `FINISH`).
//!
//! The length prefix is validated against a caller-supplied cap
//! *before* any allocation, so a corrupted length field can never
//! trigger an OOM-sized read.

use crate::snapshot::{fnv1a64, SectionBuf, Snapshot, SnapshotError, SnapshotWriter};
use crate::Fx10Error;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Section tag of the `{kind, seq}` header.
pub const SEC_HEAD: u32 = 1;
/// Section tag of the opaque body payload.
pub const SEC_BODY: u32 = 2;

/// Version of the shard wire protocol. Carried in every `HELLO` and
/// `CHALLENGE` so a supervisor and worker built from different trees
/// refuse each other with a typed error instead of mis-decoding frames.
/// Bump it whenever a frame layout or body codec changes — the
/// byte-golden tests in `tests/wire_golden.rs` make such a change a
/// deliberate diff.
pub const PROTOCOL_VERSION: u32 = 3;

/// Default frame-length cap (64 MiB): far above any real batch, far
/// below an allocation that could hurt.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Message kinds of the shard protocol.
pub mod kind {
    /// Worker → supervisor: handshake step 1 — the worker's protocol
    /// version, slot, boot id and program fingerprint.
    pub const HELLO: u32 = 1;
    /// Supervisor → worker: configuration (program, shard ownership,
    /// checkpoint path, chaos plan). Body is domain-encoded.
    pub const INIT: u32 = 2;
    /// Either direction: a frontier batch. Body is
    /// `[u32 LE dest shard][domain payload]` — see [`super::batch_body`].
    pub const BATCH: u32 = 3;
    /// Worker → supervisor: the listed batch seqs are now covered by a
    /// durable checkpoint and need no redelivery.
    pub const ACK: u32 = 4;
    /// Worker → supervisor: heartbeat with progress counters.
    pub const PROGRESS: u32 = 5;
    /// Supervisor → worker: quiescence probe (body carries the token).
    pub const PROBE: u32 = 6;
    /// Worker → supervisor: probe reply (token, processed, idle).
    pub const PROBE_REPLY: u32 = 7;
    /// Supervisor → worker: stop exploring, send `RESULT`, exit 0.
    pub const FINISH: u32 = 8;
    /// Worker → supervisor: final domain-encoded result.
    pub const RESULT: u32 = 9;
    /// Supervisor → worker: adopt a dead sibling's shards (body carries
    /// the shard ids and its last checkpoint, if any).
    pub const ADOPT: u32 = 10;
    /// Supervisor → worker: handshake step 2 — the supervisor's
    /// protocol version, a fresh nonce, and the run's program
    /// fingerprint.
    pub const CHALLENGE: u32 = 11;
    /// Worker → supervisor: handshake step 3 — the keyed MAC over the
    /// challenge nonce and the worker's identity.
    pub const AUTH: u32 = 12;
    /// Supervisor → worker: the handshake failed; body carries a reject
    /// code and a human-readable reason. The connection is closed right
    /// after.
    pub const REJECT: u32 = 13;
    /// Supervisor → worker: handshake step 4 — the connection is
    /// authenticated and attached; protocol frames may now flow.
    pub const WELCOME: u32 = 14;
    /// Worker → supervisor: one bounded slice of the final result —
    /// body is `[u32 index][u32 total][bytes]`, reassembled in order
    /// by the supervisor. A collected result can be far larger than
    /// any sane frame cap, and a single monster frame reads as peer
    /// silence for its whole transfer; parts keep every frame small
    /// and the heartbeat accounting live.
    pub const RESULT_PART: u32 = 15;
}

fn kind_name(k: u32) -> &'static str {
    match k {
        kind::HELLO => "HELLO",
        kind::INIT => "INIT",
        kind::BATCH => "BATCH",
        kind::ACK => "ACK",
        kind::PROGRESS => "PROGRESS",
        kind::PROBE => "PROBE",
        kind::PROBE_REPLY => "PROBE_REPLY",
        kind::FINISH => "FINISH",
        kind::RESULT => "RESULT",
        kind::ADOPT => "ADOPT",
        kind::CHALLENGE => "CHALLENGE",
        kind::AUTH => "AUTH",
        kind::REJECT => "REJECT",
        kind::WELCOME => "WELCOME",
        kind::RESULT_PART => "RESULT_PART",
        _ => "?",
    }
}

/// One decoded protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMsg {
    /// One of the [`kind`] constants.
    pub kind: u32,
    /// Per-connection sequence number (assigned by the sender).
    pub seq: u64,
    /// Opaque body bytes (empty for body-less kinds).
    pub body: Vec<u8>,
}

impl WireMsg {
    /// A message with the given kind, sequence number and body.
    pub fn new(kind: u32, seq: u64, body: Vec<u8>) -> Self {
        WireMsg { kind, seq, body }
    }

    /// Encodes the FX10SNAP container (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let mut head = SectionBuf::new();
        head.put_u32(self.kind);
        head.put_u64(self.seq);
        w.add_section(SEC_HEAD, head);
        if !self.body.is_empty() {
            let mut body = SectionBuf::new();
            body.put_bytes(&self.body);
            w.add_section(SEC_BODY, body);
        }
        w.finish()
    }

    /// Encodes the full frame: `[u32 LE length][container]`.
    pub fn frame(&self) -> Vec<u8> {
        let container = self.encode();
        let mut out = Vec::with_capacity(4 + container.len());
        out.extend_from_slice(&(container.len() as u32).to_le_bytes());
        out.extend_from_slice(&container);
        out
    }

    /// Decodes a container produced by [`WireMsg::encode`].
    pub fn decode(bytes: &[u8]) -> Result<WireMsg, SnapshotError> {
        let snap = Snapshot::parse(bytes)?;
        let mut head = snap.section(SEC_HEAD)?;
        let kind = head.get_u32()?;
        let seq = head.get_u64()?;
        head.done()?;
        let body = match snap.section(SEC_BODY) {
            Ok(mut c) => {
                let n = c.remaining();
                c.get_bytes(n)?.to_vec()
            }
            Err(SnapshotError::MissingSection(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(WireMsg { kind, seq, body })
    }

    /// Human-readable kind, for supervision-event traces.
    pub fn kind_name(&self) -> &'static str {
        kind_name(self.kind)
    }
}

fn io_err(e: io::Error) -> Fx10Error {
    Fx10Error::Io {
        path: "<shard link>".into(),
        message: e.to_string(),
    }
}

/// Writes one frame and flushes the stream.
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> Result<(), Fx10Error> {
    w.write_all(&msg.frame()).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Writes pre-encoded frame bytes (as returned by [`WireMsg::frame`])
/// and flushes — used when redelivering retained frames verbatim.
pub fn write_frame_bytes(w: &mut impl Write, frame: &[u8]) -> Result<(), Fx10Error> {
    w.write_all(frame).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; mid-frame EOF, an oversized length prefix and container
/// corruption are all errors. `max_len` caps the allocation a corrupted
/// length field can cause.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<WireMsg>, Fx10Error> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(SnapshotError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return Err(SnapshotError::Malformed(format!(
            "frame length {len} exceeds the {max_len}-byte cap"
        ))
        .into());
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Fx10Error::from(SnapshotError::Truncated)
        } else {
            io_err(e)
        }
    })?;
    Ok(Some(WireMsg::decode(&buf)?))
}

// -- body codecs -------------------------------------------------------------
//
// Bodies are flat little-endian records (they live inside an already
// checksummed container, so they carry no framing of their own).

fn body_cursor(body: &[u8]) -> BodyReader<'_> {
    BodyReader {
        bytes: body,
        pos: 0,
    }
}

struct BodyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n: usize = self
            .get_u64()?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("count overflows usize".into()))?;
        let need = n
            .checked_mul(elem_size)
            .ok_or_else(|| SnapshotError::Malformed("count overflows usize".into()))?;
        if need > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(
                "trailing bytes in message body".into(),
            ))
        }
    }
}

/// Encodes an `ACK` body: the checkpoint-covered batch seqs.
pub fn ack_body(seqs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + seqs.len() * 8);
    out.extend_from_slice(&(seqs.len() as u64).to_le_bytes());
    for s in seqs {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Decodes an `ACK` body.
pub fn parse_ack_body(body: &[u8]) -> Result<Vec<u64>, SnapshotError> {
    let mut c = body_cursor(body);
    let n = c.get_count(8)?;
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        seqs.push(c.get_u64()?);
    }
    c.done()?;
    Ok(seqs)
}

/// A `PROGRESS` heartbeat: the worker's counters since its last spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// States in the worker's visited set.
    pub visited: u64,
    /// Work-bearing frames (`BATCH`/`ADOPT`) processed this incarnation.
    pub processed: u64,
    /// Is the worker's local frontier empty?
    pub idle: bool,
}

/// Encodes a `PROGRESS` body.
pub fn progress_body(p: &Progress) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.extend_from_slice(&p.visited.to_le_bytes());
    out.extend_from_slice(&p.processed.to_le_bytes());
    out.push(p.idle as u8);
    out
}

/// Decodes a `PROGRESS` body.
pub fn parse_progress_body(body: &[u8]) -> Result<Progress, SnapshotError> {
    let mut c = body_cursor(body);
    let visited = c.get_u64()?;
    let processed = c.get_u64()?;
    let idle = c.get_u8()? != 0;
    c.done()?;
    Ok(Progress {
        visited,
        processed,
        idle,
    })
}

/// Encodes a `PROBE` body (just the round token).
pub fn probe_body(token: u64) -> Vec<u8> {
    token.to_le_bytes().to_vec()
}

/// Decodes a `PROBE` body.
pub fn parse_probe_body(body: &[u8]) -> Result<u64, SnapshotError> {
    let mut c = body_cursor(body);
    let token = c.get_u64()?;
    c.done()?;
    Ok(token)
}

/// Encodes a `PROBE_REPLY` body.
pub fn probe_reply_body(token: u64, processed: u64, idle: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.extend_from_slice(&token.to_le_bytes());
    out.extend_from_slice(&processed.to_le_bytes());
    out.push(idle as u8);
    out
}

/// Decodes a `PROBE_REPLY` body into `(token, processed, idle)`.
pub fn parse_probe_reply_body(body: &[u8]) -> Result<(u64, u64, bool), SnapshotError> {
    let mut c = body_cursor(body);
    let token = c.get_u64()?;
    let processed = c.get_u64()?;
    let idle = c.get_u8()? != 0;
    c.done()?;
    Ok((token, processed, idle))
}

/// Encodes an `ADOPT` body: the shard ids being transferred plus the
/// dead owner's last durable checkpoint (`None` if it never wrote one).
pub fn adopt_body(shards: &[u32], ckpt: Option<&[u8]>) -> Vec<u8> {
    let ck = ckpt.unwrap_or(&[]);
    let mut out = Vec::with_capacity(16 + shards.len() * 4 + ck.len());
    out.extend_from_slice(&(shards.len() as u64).to_le_bytes());
    for s in shards {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(ck.len() as u64).to_le_bytes());
    out.extend_from_slice(ck);
    out
}

/// Decodes an `ADOPT` body into `(shard ids, checkpoint bytes)`.
pub fn parse_adopt_body(body: &[u8]) -> Result<(Vec<u32>, Option<Vec<u8>>), SnapshotError> {
    let mut c = body_cursor(body);
    let n = c.get_count(4)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(c.get_u32()?);
    }
    let len = c.get_count(1)?;
    let ckpt = if len == 0 {
        None
    } else {
        Some(c.take(len)?.to_vec())
    };
    c.done()?;
    Ok((shards, ckpt))
}

/// Encodes a `BATCH` body: the destination shard, then the domain
/// payload (a pruned frontier snapshot).
pub fn batch_body(dest: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&dest.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Peeks the destination shard of a `BATCH` body without copying the
/// payload — all the supervisor needs to route it.
pub fn batch_dest(body: &[u8]) -> Result<u32, SnapshotError> {
    if body.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    Ok(u32::from_le_bytes(body[..4].try_into().unwrap()))
}

/// The domain payload of a `BATCH` body (everything after the dest tag).
pub fn batch_payload(body: &[u8]) -> Result<&[u8], SnapshotError> {
    if body.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    Ok(&body[4..])
}

/// Maximum payload bytes per `RESULT_PART` frame. Small enough that a
/// part transfers well inside any heartbeat window; large enough that
/// a typical collected result fits in a handful of parts.
pub const RESULT_PART_LEN: usize = 4 << 20;

/// Cap on the `total` field of a `RESULT_PART` — bounds the memory an
/// authenticated-but-buggy worker can make the supervisor reserve.
pub const MAX_RESULT_PARTS: u32 = 4096;

/// Encodes a `RESULT_PART` body: this part's index, the part count of
/// the whole result, then the payload slice.
pub fn result_part_body(index: u32, total: u32, chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + chunk.len());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(chunk);
    out
}

/// Decodes a `RESULT_PART` body into `(index, total, payload)`.
pub fn parse_result_part_body(body: &[u8]) -> Result<(u32, u32, &[u8]), SnapshotError> {
    if body.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let index = u32::from_le_bytes(body[..4].try_into().unwrap());
    let total = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if total == 0 || index >= total || total > MAX_RESULT_PARTS {
        return Err(SnapshotError::Malformed(format!(
            "result part {index}/{total} out of range"
        )));
    }
    Ok((index, total, &body[8..]))
}

/// A worker's opening handshake message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The worker binary's [`PROTOCOL_VERSION`].
    pub proto: u32,
    /// The shard slot this worker was spawned for.
    pub slot: u32,
    /// A random per-process id: lets the supervisor distinguish the
    /// same process reconnecting (keep the dedup window) from a
    /// respawned process (reset it).
    pub boot_id: u64,
    /// The program fingerprint the worker is exploring, or 0 on the
    /// first connection (before it has received `INIT`).
    pub fingerprint: u64,
}

/// Encodes a `HELLO` body for the socket handshake.
pub fn hello_body(h: &Hello) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&h.proto.to_le_bytes());
    out.extend_from_slice(&h.slot.to_le_bytes());
    out.extend_from_slice(&h.boot_id.to_le_bytes());
    out.extend_from_slice(&h.fingerprint.to_le_bytes());
    out
}

/// Decodes a socket-handshake `HELLO` body.
pub fn parse_hello_body(body: &[u8]) -> Result<Hello, SnapshotError> {
    let mut c = body_cursor(body);
    let proto = c.get_u32()?;
    let slot = c.get_u32()?;
    let boot_id = c.get_u64()?;
    let fingerprint = c.get_u64()?;
    c.done()?;
    Ok(Hello {
        proto,
        slot,
        boot_id,
        fingerprint,
    })
}

/// Encodes a `CHALLENGE` body: the supervisor's protocol version, a
/// fresh nonce, and the run's program fingerprint.
pub fn challenge_body(proto: u32, nonce: u64, fingerprint: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(&proto.to_le_bytes());
    out.extend_from_slice(&nonce.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out
}

/// Decodes a `CHALLENGE` body into `(proto, nonce, fingerprint)`.
pub fn parse_challenge_body(body: &[u8]) -> Result<(u32, u64, u64), SnapshotError> {
    let mut c = body_cursor(body);
    let proto = c.get_u32()?;
    let nonce = c.get_u64()?;
    let fingerprint = c.get_u64()?;
    c.done()?;
    Ok((proto, nonce, fingerprint))
}

/// Encodes an `AUTH` body (the keyed MAC answering a challenge).
pub fn auth_body(mac: u64) -> Vec<u8> {
    mac.to_le_bytes().to_vec()
}

/// Decodes an `AUTH` body.
pub fn parse_auth_body(body: &[u8]) -> Result<u64, SnapshotError> {
    let mut c = body_cursor(body);
    let mac = c.get_u64()?;
    c.done()?;
    Ok(mac)
}

/// Why a handshake was rejected (the code inside a `REJECT` body).
pub mod reject {
    /// Protocol-version skew between supervisor and worker.
    pub const VERSION: u32 = 1;
    /// The keyed MAC did not verify (wrong or missing shared secret).
    pub const AUTH: u32 = 2;
    /// The worker's program fingerprint belongs to a different run.
    pub const FINGERPRINT: u32 = 3;
    /// The claimed slot does not exist in this fleet.
    pub const SLOT: u32 = 4;
    /// The handshake itself was malformed (wrong kind, bad body).
    pub const PROTOCOL: u32 = 5;
}

/// Encodes a `REJECT` body: a [`reject`] code plus a human-readable
/// reason.
pub fn reject_body(code: u32, message: &str) -> Vec<u8> {
    let msg = message.as_bytes();
    let mut out = Vec::with_capacity(12 + msg.len());
    out.extend_from_slice(&code.to_le_bytes());
    out.extend_from_slice(&(msg.len() as u64).to_le_bytes());
    out.extend_from_slice(msg);
    out
}

/// Decodes a `REJECT` body into `(code, message)`.
pub fn parse_reject_body(body: &[u8]) -> Result<(u32, String), SnapshotError> {
    let mut c = body_cursor(body);
    let code = c.get_u32()?;
    let len = c.get_count(1)?;
    let msg = String::from_utf8_lossy(c.take(len)?).into_owned();
    c.done()?;
    Ok((code, msg))
}

// -- transports --------------------------------------------------------------

/// The write half of a shard connection: accepts pre-encoded frames (as
/// returned by [`WireMsg::frame`]) and flushes them to the peer.
pub trait FrameSender: Send {
    /// Writes one pre-encoded frame and flushes.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), Fx10Error>;
}

/// The read half of a shard connection: yields decoded frames until the peer
/// hangs up. `Ok(None)` is a clean EOF at a frame boundary; mid-frame
/// EOF and corruption are typed errors.
pub trait FrameReceiver: Send {
    /// Blocks for the next frame.
    fn recv_frame(&mut self) -> Result<Option<WireMsg>, Fx10Error>;
}

struct TcpSender(TcpStream);

impl FrameSender for TcpSender {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), Fx10Error> {
        write_frame_bytes(&mut self.0, frame)
    }
}

/// A [`Read`] over a `TcpStream` that retries reads interrupted by a
/// socket read-timeout, so [`read_frame`] blocks until a whole frame,
/// a clean EOF, or a real error. A peer (or the supervisor's control
/// handle) shutting the socket down unblocks it with EOF.
struct TcpReceiver {
    stream: TcpStream,
    max_frame: usize,
}

impl Read for TcpReceiver {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                other => return other,
            }
        }
    }
}

impl FrameReceiver for TcpReceiver {
    fn recv_frame(&mut self) -> Result<Option<WireMsg>, Fx10Error> {
        let max_frame = self.max_frame;
        read_frame(self, max_frame)
    }
}

/// Splits a TCP stream that is already past the [`crate::conn`]
/// handshake into independent `Send` halves, so a writer thread and a
/// reader thread can pump the same connection concurrently.
pub fn split_tcp(
    stream: TcpStream,
    max_frame: usize,
) -> io::Result<(Box<dyn FrameSender>, Box<dyn FrameReceiver>)> {
    let reader = stream.try_clone()?;
    Ok((
        Box::new(TcpSender(stream)),
        Box::new(TcpReceiver {
            stream: reader,
            max_frame,
        }),
    ))
}

/// A short fingerprint of raw bytes, for event traces.
pub fn digest8(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor as IoCursor;

    #[test]
    fn frame_roundtrips_through_a_pipe_buffer() {
        let msgs = [
            WireMsg::new(kind::HELLO, 0, Vec::new()),
            WireMsg::new(kind::BATCH, 7, batch_body(3, b"payload")),
            WireMsg::new(kind::FINISH, 99, Vec::new()),
        ];
        let mut pipe = Vec::new();
        for m in &msgs {
            write_frame(&mut pipe, m).unwrap();
        }
        let mut r = IoCursor::new(pipe);
        for m in &msgs {
            let got = read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap();
            assert_eq!(&got, m);
        }
        assert!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn mid_frame_eof_is_truncated_not_none() {
        let frame = WireMsg::new(kind::PROGRESS, 1, vec![1, 2, 3]).frame();
        for cut in [1, 3, frame.len() - 1] {
            let mut r = IoCursor::new(frame[..cut].to_vec());
            let err = read_frame(&mut r, MAX_FRAME_LEN).unwrap_err();
            assert_eq!(err.exit_code(), 2, "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let mut r = IoCursor::new(bytes);
        let err = read_frame(&mut r, 1 << 20).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn corrupted_container_is_a_typed_error() {
        let mut frame = WireMsg::new(kind::ACK, 5, ack_body(&[1, 2, 3])).frame();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        let mut r = IoCursor::new(frame);
        let err = read_frame(&mut r, MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn ack_body_roundtrips_and_rejects_lying_counts() {
        let seqs = vec![0, 1, u64::MAX];
        assert_eq!(parse_ack_body(&ack_body(&seqs)).unwrap(), seqs);
        // A count claiming more seqs than the body holds must fail
        // before allocating.
        let mut lie = Vec::new();
        lie.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_ack_body(&lie).is_err());
    }

    #[test]
    fn progress_and_probe_bodies_roundtrip() {
        let p = Progress {
            visited: 42,
            processed: 7,
            idle: true,
        };
        assert_eq!(parse_progress_body(&progress_body(&p)).unwrap(), p);
        assert_eq!(parse_probe_body(&probe_body(12)).unwrap(), 12);
        assert_eq!(
            parse_probe_reply_body(&probe_reply_body(12, 3, false)).unwrap(),
            (12, 3, false)
        );
    }

    #[test]
    fn adopt_body_roundtrips_with_and_without_checkpoint() {
        let (shards, ckpt) = parse_adopt_body(&adopt_body(&[2, 5], Some(b"SNAP"))).unwrap();
        assert_eq!(shards, vec![2, 5]);
        assert_eq!(ckpt.as_deref(), Some(&b"SNAP"[..]));
        let (shards, ckpt) = parse_adopt_body(&adopt_body(&[9], None)).unwrap();
        assert_eq!(shards, vec![9]);
        assert!(ckpt.is_none());
    }

    #[test]
    fn batch_dest_peeks_without_parsing_the_payload() {
        let body = batch_body(11, &[0xFF; 64]);
        assert_eq!(batch_dest(&body).unwrap(), 11);
        assert_eq!(batch_payload(&body).unwrap().len(), 64);
        assert!(batch_dest(&[1, 2]).is_err());
    }
}
