//! The length-prefixed, CRC-framed wire format (`MARD` frames).
//!
//! Reuses the MARC checkpoint file's framing discipline — little-endian
//! magic/version header, CRC-32 over the variable-length body — for the
//! actor–learner stream:
//!
//! ```text
//! magic   u32 LE = 0x4D41_5244 ("MARD")
//! version u16 LE = 2
//! kind    u16 LE                 (message discriminant)
//! len     u32 LE                 (payload byte length)
//! crc32   u32 LE                 (over kind | len | payload)
//! payload bytes                  (per kind, see below)
//! ```
//!
//! The CRC covers the routing header fields as well as the payload, so a
//! bit flip anywhere past the magic is detected; a flipped magic or
//! version is its own typed error, and an unknown `kind` is rejected at
//! header time, before a receiver sizes a body buffer. Frames are
//! self-delimiting (`len`), which lets the in-process loopback transport
//! quarantine a corrupt frame and keep the stream alive; byte-stream
//! transports cannot trust a corrupt `len` to resynchronize, so they
//! surface the same typed errors but treat them as connection-fatal.
//!
//! Payloads by kind. The hot per-step and per-update messages are
//! fixed-layout little-endian binary (integers LE, floats as raw `f32`
//! bits, so NaN payloads, ±inf and −0.0 survive); the cold or tiny
//! control messages are `serde_json` of the message struct, whose type
//! the header `kind` names:
//!
//! | kind | message        | payload |
//! |------|----------------|---------|
//! | 1    | `Hello`        | JSON |
//! | 2    | `Welcome`      | JSON (config + full agent states; once per admission) |
//! | 3    | `Steps`        | binary, below |
//! | 4    | `Params`       | binary, below (actor weights only) |
//! | 5    | `Heartbeat`    | JSON |
//! | 6    | `EpisodeEnd`   | JSON |
//! | 7    | `Bye`          | JSON |
//! | 8–11 | serve frames   | binary, `marl_serve::proto` |
//! | 12   | `HeartbeatAck` | JSON |
//!
//! ```text
//! Steps   worker_id u32 | epoch u64 | seq u64 | flags u8
//!         | [rng u64 × 4]        if flags & RNG
//!         | [ctx 24 B]           if flags & CTX
//!         | agents u32 | steps u32
//!         | (obs_w u32 | act_w u32) × agents
//!         | steps × agents × (obs f32 × obs_w | action f32 × act_w
//!                             | reward f32 | next_obs f32 × obs_w | done f32)
//! Params  epoch u64 | flags u8
//!         | [master_rng u64 × 4] if flags & RNG
//!         | [ctx 24 B]           if flags & CTX
//!         | agents u32 | count u32 × agents
//!         | actor weights f32 × Σ count   (per agent, `Mlp::visit_params` order)
//! flags   SYNC = 1 (Steps only) | RNG = 2 | CTX = 4; other bits are rejected
//! ```
//!
//! `Steps` declares the per-agent widths once per frame, so heterogeneous
//! heads (world-comm's 9/5/5 actions) need no per-row framing. Both
//! binary decoders check the declared counts × widths against the
//! payload length before they allocate anything.

use crate::error::DistError;
use marl_algo::checkpoint::AgentState;
use marl_algo::TrainConfig;
use marl_core::crc32::Crc32;
use marl_core::transition::Transition;
use marl_obs::context::{TraceCtx, TRACE_CTX_WIRE_LEN};
use serde::{Deserialize, Serialize};

/// Frame magic: `MARD` (MARC's framing, Dist flavor).
pub const MAGIC: u32 = 0x4D41_5244;
/// Wire-format version. Version 2 made `Steps` and `Params` binary and
/// cut `Params` to actor weights; version-1 peers are rejected with
/// [`DistError::UnsupportedVersion`].
pub const VERSION: u16 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a frame payload; a (possibly corrupt) length field can
/// never make a receiver allocate more than this.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Frame kind of a [`Hello`] message (JSON payload).
pub const KIND_HELLO: u16 = 1;
/// Frame kind of a [`Welcome`] message (JSON payload).
pub const KIND_WELCOME: u16 = 2;
/// Frame kind of a [`Steps`] message (binary payload).
pub const KIND_STEPS: u16 = 3;
/// Frame kind of a [`Params`] message (binary payload).
pub const KIND_PARAMS: u16 = 4;
/// Frame kind of a [`Heartbeat`] message (JSON payload).
pub const KIND_HEARTBEAT: u16 = 5;
/// Frame kind of an [`EpisodeEnd`] message (JSON payload).
pub const KIND_EPISODE_END: u16 = 6;
/// Frame kind of a [`Bye`] message (JSON payload).
pub const KIND_BYE: u16 = 7;
/// Raw-frame kind: an inference request (binary payload, `marl-serve`).
pub const KIND_INFER_REQ: u16 = 8;
/// Raw-frame kind: an inference response (binary payload, `marl-serve`).
pub const KIND_INFER_RESP: u16 = 9;
/// Raw-frame kind: an inference error response (binary payload).
pub const KIND_INFER_ERR: u16 = 10;
/// Raw-frame kind: a serve control frame (shutdown/ping, binary payload).
pub const KIND_SERVE_CTL: u16 = 11;
/// Frame kind of a [`HeartbeatAck`] message (JSON payload).
pub const KIND_HEARTBEAT_ACK: u16 = 12;
/// Highest frame kind this version knows; [`decode_header`] rejects
/// kinds outside `1..=MAX_KIND`.
const MAX_KIND: u16 = 12;

/// A worker introducing itself (first frame of every connection).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Stable worker identity (survives reconnects).
    pub worker_id: u32,
    /// Whether this worker is reconnecting after a failure and expects
    /// to be re-admitted from its last recorded episode boundary.
    pub resume: bool,
}

/// The learner admitting a worker: full configuration plus the exact
/// state to roll out from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Welcome {
    /// Worker being addressed.
    pub worker_id: u32,
    /// Current parameter epoch.
    pub epoch: u64,
    /// Training configuration (the worker builds env + nets from this).
    pub config: TrainConfig,
    /// Network parameters to start from.
    pub agents: Vec<AgentState>,
    /// Exploration-noise RNG state to install.
    pub master_rng: [u64; 4],
    /// Environment RNG state to install; `None` keeps the worker's
    /// self-seeded stream (the lockstep worker-0 case, where the worker's
    /// own construction already matches the single-process env stream).
    pub env_rng: Option<[u64; 4]>,
    /// Environment steps already taken (drives the exploration schedule).
    pub env_steps: u64,
    /// Samples pushed since the last update (mirrors the learner).
    pub samples_since_update: usize,
    /// Learner replay fill (the worker mirrors this to predict updates).
    pub replay_len: usize,
    /// Episodes this worker should run before saying goodbye.
    pub episodes: usize,
    /// Whether the worker must synchronize (block for parameters and the
    /// RNG handoff) at every update boundary — the deterministic mode.
    pub lockstep: bool,
    /// Free-running mode: flush accumulated steps every this many steps.
    pub steps_per_frame: usize,
}

/// A batch of joint environment steps, in rollout order.
///
/// Every joint step must carry the same per-agent observation and
/// action widths (the binary layout declares them once per frame).
#[derive(Debug, Clone, PartialEq)]
pub struct Steps {
    /// Sending worker.
    pub worker_id: u32,
    /// Parameter epoch the actions were drawn under.
    pub epoch: u64,
    /// Per-connection frame sequence number (diagnostics).
    pub seq: u64,
    /// Joint steps; each inner vector is one transition per agent.
    pub steps: Vec<Vec<Transition>>,
    /// Exploration RNG state after the last step, handed to the learner
    /// for the sampling-plan draws. Present iff `sync`.
    pub rng: Option<[u64; 4]>,
    /// Whether the worker blocks for a [`Params`] reply (update due).
    pub sync: bool,
    /// Distributed-tracing context stamped by the sender (absent on
    /// untraced runs).
    pub ctx: Option<TraceCtx>,
}

/// A parameter broadcast after one or more update iterations.
///
/// Workers only run actors, so only actor weights travel; critics,
/// targets and optimizer moments stay on the learner.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// New parameter epoch.
    pub epoch: u64,
    /// Each agent's actor weights, flat in `Mlp::visit_params` order.
    pub actors: Vec<Vec<f32>>,
    /// Post-update master RNG state, handed back to the worker so its
    /// next action draws continue the single interleaved stream.
    /// Present only in lockstep mode.
    pub master_rng: Option<[u64; 4]>,
    /// Distributed-tracing context stamped by the learner.
    pub ctx: Option<TraceCtx>,
}

/// A liveness beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Sending worker.
    pub worker_id: u32,
    /// Monotonic beacon counter.
    pub seq: u64,
    /// Worker's environment-step counter (progress signal).
    pub env_steps: u64,
    /// Send timestamp on the worker's tracer clock (ns); echoed by the
    /// learner's [`HeartbeatAck`] so the worker can measure RTT and
    /// estimate the learner-clock offset. 0 from untraced workers.
    #[serde(default)]
    pub send_ns: u64,
}

/// The learner's reply to a [`Heartbeat`]: echoes the worker's send
/// timestamp and adds the learner-clock receive time, giving the worker
/// one NTP-style round trip per beacon for its clock-offset estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatAck {
    /// Worker being answered.
    pub worker_id: u32,
    /// Echoed beacon counter.
    pub seq: u64,
    /// Echoed worker-clock send timestamp (ns).
    pub send_ns: u64,
    /// Learner-clock time the heartbeat was observed (ns).
    pub recv_ns: u64,
}

/// End of one worker episode: the reward plus the episode-boundary state
/// the learner records as the worker's restart checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeEnd {
    /// Sending worker.
    pub worker_id: u32,
    /// Mean-over-agents cumulative episode reward.
    pub mean_reward: f32,
    /// Exploration RNG state at the boundary.
    pub master_rng: [u64; 4],
    /// Environment RNG state at the boundary.
    pub env_rng: [u64; 4],
    /// Environment steps taken so far.
    pub env_steps: u64,
    /// Samples pushed since the last update.
    pub samples_since_update: usize,
    /// Distributed-tracing context stamped by the sender.
    #[serde(default)]
    pub ctx: Option<TraceCtx>,
}

/// A clean goodbye.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bye {
    /// Sending worker.
    pub worker_id: u32,
    /// Why the worker is leaving (diagnostics).
    pub reason: String,
}

/// Every message of the actor–learner protocol.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Worker → learner: introduction.
    Hello(Hello),
    /// Learner → worker: admission + state.
    Welcome(Box<Welcome>),
    /// Worker → learner: transition batch.
    Steps(Steps),
    /// Learner → worker: parameter broadcast.
    Params(Box<Params>),
    /// Worker → learner: liveness beacon.
    Heartbeat(Heartbeat),
    /// Worker → learner: episode boundary.
    EpisodeEnd(EpisodeEnd),
    /// Worker → learner: clean shutdown.
    Bye(Bye),
    /// Learner → worker: heartbeat echo (RTT / clock-offset probe).
    HeartbeatAck(HeartbeatAck),
}

impl Msg {
    /// Wire discriminant (the header `kind` field). Kinds 8–11 are the
    /// raw binary serve frames; new kinds continue from 12.
    pub fn kind(&self) -> u16 {
        match self {
            Msg::Hello(_) => KIND_HELLO,
            Msg::Welcome(_) => KIND_WELCOME,
            Msg::Steps(_) => KIND_STEPS,
            Msg::Params(_) => KIND_PARAMS,
            Msg::Heartbeat(_) => KIND_HEARTBEAT,
            Msg::EpisodeEnd(_) => KIND_EPISODE_END,
            Msg::Bye(_) => KIND_BYE,
            Msg::HeartbeatAck(_) => KIND_HEARTBEAT_ACK,
        }
    }

    /// Short label for logs and supervision counters.
    pub fn label(&self) -> &'static str {
        match self {
            Msg::Hello(_) => "hello",
            Msg::Welcome(_) => "welcome",
            Msg::Steps(_) => "steps",
            Msg::Params(_) => "params",
            Msg::Heartbeat(_) => "heartbeat",
            Msg::EpisodeEnd(_) => "episode-end",
            Msg::Bye(_) => "bye",
            Msg::HeartbeatAck(_) => "heartbeat-ack",
        }
    }
}

// ---------------------------------------------------------------------
// Little-endian helpers (shared with the serve protocol)
// ---------------------------------------------------------------------

/// Appends `v` as 4 little-endian bytes.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `x`'s raw bits as 4 little-endian bytes.
fn put_f32(buf: &mut Vec<u8>, x: f32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Appends every float's raw bits, 4 little-endian bytes each.
pub fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    buf.reserve(xs.len() * 4);
    for &x in xs {
        put_f32(buf, x);
    }
}

/// Reads the little-endian `u32` at `bytes[at..at + 4]`.
///
/// # Panics
///
/// If the range is out of bounds; callers validate lengths first.
pub fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Reads the little-endian `u64` at `bytes[at..at + 8]`.
///
/// # Panics
///
/// If the range is out of bounds; callers validate lengths first.
pub fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Appends the floats packed in `bytes` (4 little-endian bytes each, a
/// trailing partial float is ignored) to `out`, bit for bit.
pub fn get_f32s_into(bytes: &[u8], out: &mut Vec<f32>) {
    out.extend(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))));
}

/// `Steps`: the worker blocks for a `Params` reply.
const FLAG_SYNC: u8 = 1;
/// An RNG state follows the flags.
const FLAG_RNG: u8 = 2;
/// A trace context follows the flags (and RNG state).
const FLAG_CTX: u8 = 4;

fn put_rng_ctx(buf: &mut Vec<u8>, rng: Option<[u64; 4]>, ctx: Option<TraceCtx>) {
    if let Some(state) = rng {
        state.iter().for_each(|&w| put_u64(buf, w));
    }
    if let Some(c) = ctx {
        c.write_to(buf);
    }
}

fn option_flags(rng: Option<[u64; 4]>, ctx: Option<TraceCtx>) -> u8 {
    (if rng.is_some() { FLAG_RNG } else { 0 }) | (if ctx.is_some() { FLAG_CTX } else { 0 })
}

/// Appends a binary `Steps` payload.
///
/// # Panics
///
/// If the joint steps disagree on agent count or per-agent widths.
fn put_steps(buf: &mut Vec<u8>, s: &Steps) {
    put_u32(buf, s.worker_id);
    put_u64(buf, s.epoch);
    put_u64(buf, s.seq);
    let sync = if s.sync { FLAG_SYNC } else { 0 };
    buf.push(sync | option_flags(s.rng, s.ctx));
    put_rng_ctx(buf, s.rng, s.ctx);
    let first: &[Transition] = s.steps.first().map_or(&[], Vec::as_slice);
    put_u32(buf, first.len() as u32);
    put_u32(buf, s.steps.len() as u32);
    for t in first {
        put_u32(buf, t.obs.len() as u32);
        put_u32(buf, t.action.len() as u32);
    }
    for step in &s.steps {
        assert_eq!(step.len(), first.len(), "steps frame: joint steps differ in agent count");
        for (t, w) in step.iter().zip(first) {
            assert!(
                t.obs.len() == w.obs.len()
                    && t.next_obs.len() == w.obs.len()
                    && t.action.len() == w.action.len(),
                "steps frame: transition widths differ from the frame's declared widths"
            );
            put_f32s(buf, &t.obs);
            put_f32s(buf, &t.action);
            put_f32(buf, t.reward);
            put_f32s(buf, &t.next_obs);
            put_f32(buf, t.done);
        }
    }
}

/// Appends a binary `Params` payload.
fn put_params(buf: &mut Vec<u8>, p: &Params) {
    put_u64(buf, p.epoch);
    buf.push(option_flags(p.master_rng, p.ctx));
    put_rng_ctx(buf, p.master_rng, p.ctx);
    put_u32(buf, p.actors.len() as u32);
    for a in &p.actors {
        put_u32(buf, a.len() as u32);
    }
    for a in &p.actors {
        put_f32s(buf, a);
    }
}

/// Bounds-checked cursor over a binary payload.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DistError> {
        if self.0.len() < n {
            return Err(DistError::Protocol(format!(
                "binary payload ends early: needs {n} more bytes, has {}",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DistError> {
        Ok(get_u32(self.take(4)?, 0))
    }

    fn u64(&mut self) -> Result<u64, DistError> {
        Ok(get_u64(self.take(8)?, 0))
    }

    fn f32(&mut self) -> Result<f32, DistError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DistError> {
        let bytes = self.take(n * 4)?;
        let mut out = Vec::with_capacity(n);
        get_f32s_into(bytes, &mut out);
        Ok(out)
    }

    /// Reads the flags byte, rejecting bits outside `allowed`.
    fn flags(&mut self, allowed: u8) -> Result<u8, DistError> {
        let flags = self.u8()?;
        if flags & !allowed != 0 {
            return Err(DistError::Protocol(format!("unknown payload flags 0x{flags:02X}")));
        }
        Ok(flags)
    }

    /// Reads the RNG state `flags` announces.
    fn rng(&mut self, flags: u8) -> Result<Option<[u64; 4]>, DistError> {
        if flags & FLAG_RNG == 0 {
            return Ok(None);
        }
        Ok(Some([self.u64()?, self.u64()?, self.u64()?, self.u64()?]))
    }

    /// Reads the trace context `flags` announces.
    fn ctx(&mut self, flags: u8) -> Result<Option<TraceCtx>, DistError> {
        if flags & FLAG_CTX == 0 {
            return Ok(None);
        }
        Ok(TraceCtx::read_from(self.take(TRACE_CTX_WIRE_LEN)?))
    }

    /// Fails unless exactly `floats` f32s remain — the count × width
    /// check every binary decoder runs before allocating.
    fn expect_floats(&self, floats: Option<u64>, what: &str) -> Result<(), DistError> {
        if floats.and_then(|f| f.checked_mul(4)) != Some(self.0.len() as u64) {
            return Err(DistError::Protocol(format!(
                "{what}: declared counts do not match the {} payload bytes left",
                self.0.len()
            )));
        }
        Ok(())
    }
}

fn get_steps(payload: &[u8]) -> Result<Steps, DistError> {
    let mut r = Reader(payload);
    let worker_id = r.u32()?;
    let epoch = r.u64()?;
    let seq = r.u64()?;
    let flags = r.flags(FLAG_SYNC | FLAG_RNG | FLAG_CTX)?;
    let (rng, ctx) = (r.rng(flags)?, r.ctx(flags)?);
    let agents = r.u32()? as usize;
    let count = r.u32()? as usize;
    if agents == 0 && count > 0 {
        return Err(DistError::Protocol("steps frame declares joint steps of no agents".into()));
    }
    let widths = r.take(agents.saturating_mul(8))?;
    let width = |a: usize| (get_u32(widths, 8 * a) as usize, get_u32(widths, 8 * a + 4) as usize);
    let floats_per_step: u64 = (0..agents)
        .map(|a| {
            let (obs_w, act_w) = width(a);
            2 * obs_w as u64 + act_w as u64 + 2
        })
        .sum();
    r.expect_floats((count as u64).checked_mul(floats_per_step), "steps frame")?;
    let mut steps = Vec::with_capacity(count);
    for _ in 0..count {
        let mut joint = Vec::with_capacity(agents);
        for (obs_w, act_w) in (0..agents).map(width) {
            joint.push(Transition {
                obs: r.f32s(obs_w)?,
                action: r.f32s(act_w)?,
                reward: r.f32()?,
                next_obs: r.f32s(obs_w)?,
                done: r.f32()?,
            });
        }
        steps.push(joint);
    }
    Ok(Steps { worker_id, epoch, seq, steps, rng, sync: flags & FLAG_SYNC != 0, ctx })
}

fn get_params(payload: &[u8]) -> Result<Params, DistError> {
    let mut r = Reader(payload);
    let epoch = r.u64()?;
    let flags = r.flags(FLAG_RNG | FLAG_CTX)?;
    let (master_rng, ctx) = (r.rng(flags)?, r.ctx(flags)?);
    let agents = r.u32()? as usize;
    let counts = r.take(agents.saturating_mul(4))?;
    let counts = || (0..agents).map(|a| get_u32(counts, 4 * a) as usize);
    if counts().any(|c| c == 0) {
        return Err(DistError::Protocol("params frame declares an empty actor".into()));
    }
    r.expect_floats(Some(counts().map(|c| c as u64).sum()), "params frame")?;
    let actors = counts().map(|c| r.f32s(c)).collect::<Result<_, _>>()?;
    Ok(Params { epoch, actors, master_rng, ctx })
}

/// Encodes a message into one self-delimiting `MARD` frame.
///
/// # Panics
///
/// As [`encode_frame_into`].
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(msg, &mut frame);
    frame
}

/// Encodes a message into `frame` (cleared and refilled; its capacity is
/// reused, so a per-connection buffer stops allocating once warm).
///
/// # Panics
///
/// If a `Steps` message mixes per-agent widths across its joint steps,
/// or the payload exceeds [`MAX_PAYLOAD`] — caller bugs, not wire
/// conditions.
pub fn encode_frame_into(msg: &Msg, frame: &mut Vec<u8>) {
    begin_raw_frame(frame);
    match msg {
        Msg::Hello(m) => put_json(frame, m),
        Msg::Welcome(m) => put_json(frame, &**m),
        Msg::Steps(s) => put_steps(frame, s),
        Msg::Params(p) => put_params(frame, p),
        Msg::Heartbeat(m) => put_json(frame, m),
        Msg::EpisodeEnd(m) => put_json(frame, m),
        Msg::Bye(m) => put_json(frame, m),
        Msg::HeartbeatAck(m) => put_json(frame, m),
    }
    finish_raw_frame(msg.kind(), frame);
}

fn put_json<T: Serialize>(buf: &mut Vec<u8>, value: &T) {
    let text = serde_json::to_string(value).expect("JSON wire messages serialize");
    buf.extend_from_slice(text.as_bytes());
}

fn get_json<T: Deserialize>(payload: &[u8]) -> Result<T, DistError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| DistError::Protocol(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| DistError::Protocol(format!("payload does not parse: {e}")))
}

/// CRC-32 over the routing fields and payload (everything a receiver
/// acts on past the magic/version). Incremental, so the raw-frame path
/// can validate without staging the covered bytes in a fresh buffer.
fn frame_crc(kind: u16, payload: &[u8]) -> u32 {
    Crc32::new()
        .update(&kind.to_le_bytes())
        .update(&(payload.len() as u32).to_le_bytes())
        .update(payload)
        .finish()
}

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Message discriminant.
    pub kind: u16,
    /// Payload byte length.
    pub len: usize,
    /// Declared CRC-32.
    pub crc: u32,
}

/// Decodes and validates a frame header.
///
/// # Errors
///
/// Typed [`DistError`]s for truncation, bad magic, bad version, unknown
/// kinds, and oversized payloads — all before any body is read.
pub fn decode_header(bytes: &[u8]) -> Result<Header, DistError> {
    if bytes.len() < HEADER_LEN {
        return Err(DistError::Truncated { needed: HEADER_LEN, got: bytes.len() });
    }
    let magic = get_u32(bytes, 0);
    if magic != MAGIC {
        return Err(DistError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(DistError::UnsupportedVersion { found: version });
    }
    let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if !(1..=MAX_KIND).contains(&kind) {
        return Err(DistError::Protocol(format!("unknown frame kind {kind}")));
    }
    let len = get_u32(bytes, 8) as usize;
    if len > MAX_PAYLOAD {
        return Err(DistError::Protocol(format!("payload of {len} bytes exceeds {MAX_PAYLOAD}")));
    }
    Ok(Header { kind, len, crc: get_u32(bytes, 12) })
}

/// Decodes one complete frame (header + payload) from a byte buffer.
///
/// # Errors
///
/// Typed [`DistError`]s for every corruption mode: truncation, bad
/// magic/version/kind, CRC mismatch, and undecodable payloads.
pub fn decode_frame(bytes: &[u8]) -> Result<Msg, DistError> {
    let (kind, payload) = decode_raw_frame(bytes)?;
    match kind {
        KIND_HELLO => get_json(payload).map(Msg::Hello),
        KIND_WELCOME => get_json(payload).map(|w| Msg::Welcome(Box::new(w))),
        KIND_STEPS => get_steps(payload).map(Msg::Steps),
        KIND_PARAMS => get_params(payload).map(|p| Msg::Params(Box::new(p))),
        KIND_HEARTBEAT => get_json(payload).map(Msg::Heartbeat),
        KIND_EPISODE_END => get_json(payload).map(Msg::EpisodeEnd),
        KIND_BYE => get_json(payload).map(Msg::Bye),
        KIND_HEARTBEAT_ACK => get_json(payload).map(Msg::HeartbeatAck),
        other => {
            Err(DistError::Protocol(format!("frame kind {other} is not an actor-learner message")))
        }
    }
}

/// Resets `frame` to a header-sized placeholder so a raw (binary)
/// payload can be appended directly after it.
///
/// The serve path builds frames into per-connection reusable buffers:
/// `begin_raw_frame` + `extend_from_slice` the payload +
/// [`finish_raw_frame`]. `clear` + `resize` reuse the buffer's existing
/// capacity, so steady-state encoding allocates nothing once the buffer
/// has grown to its working size.
pub fn begin_raw_frame(frame: &mut Vec<u8>) {
    frame.clear();
    frame.resize(HEADER_LEN, 0);
}

/// Patches a complete `MARD` header (magic, version, `kind`, length,
/// CRC) over the placeholder bytes at the front of `frame`.
///
/// `frame` must hold [`HEADER_LEN`] placeholder bytes followed by the
/// payload (the [`begin_raw_frame`] layout). Works in place — no
/// intermediate buffer — so the encode path stays allocation-free.
///
/// # Panics
///
/// If `frame` is shorter than a header or the payload exceeds
/// [`MAX_PAYLOAD`]; both are caller bugs, not wire conditions.
pub fn finish_raw_frame(kind: u16, frame: &mut [u8]) {
    assert!(frame.len() >= HEADER_LEN, "finish_raw_frame: no header placeholder");
    let payload_len = frame.len() - HEADER_LEN;
    assert!(payload_len <= MAX_PAYLOAD, "finish_raw_frame: payload exceeds MAX_PAYLOAD");
    let crc = frame_crc(kind, &frame[HEADER_LEN..]);
    frame[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    frame[4..6].copy_from_slice(&VERSION.to_le_bytes());
    frame[6..8].copy_from_slice(&kind.to_le_bytes());
    frame[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    frame[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// Validates a raw frame and returns its kind plus a borrowed payload.
///
/// The counterpart of [`finish_raw_frame`]: same header and CRC checks
/// as [`decode_frame`], but the payload stays opaque bytes (no decode,
/// no copy), which is what the binary serve protocol wants.
///
/// # Errors
///
/// Typed [`DistError`]s for truncation, bad magic/version/kind,
/// oversized lengths, and CRC mismatches.
pub fn decode_raw_frame(frame: &[u8]) -> Result<(u16, &[u8]), DistError> {
    let header = decode_header(frame)?;
    let body = &frame[HEADER_LEN..];
    if body.len() < header.len {
        return Err(DistError::Truncated { needed: header.len, got: body.len() });
    }
    let payload = &body[..header.len];
    let found = frame_crc(header.kind, payload);
    if found != header.crc {
        return Err(DistError::CrcMismatch { expected: header.crc, found });
    }
    Ok((header.kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat() -> Msg {
        Msg::Heartbeat(Heartbeat { worker_id: 3, seq: 9, env_steps: 125, send_ns: 7_000 })
    }

    #[test]
    fn roundtrip_preserves_message() {
        let bytes = encode_frame(&heartbeat());
        let back = decode_frame(&bytes).unwrap();
        match back {
            Msg::Heartbeat(h) => {
                assert_eq!(h, Heartbeat { worker_id: 3, seq: 9, env_steps: 125, send_ns: 7_000 })
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn heartbeat_ack_roundtrips_at_kind_12() {
        let ack = Msg::HeartbeatAck(HeartbeatAck {
            worker_id: 3,
            seq: 9,
            send_ns: 7_000,
            recv_ns: 1_000_000,
        });
        assert_eq!(ack.kind(), 12);
        let bytes = encode_frame(&ack);
        match decode_frame(&bytes).unwrap() {
            Msg::HeartbeatAck(a) => {
                assert_eq!(a.send_ns, 7_000);
                assert_eq!(a.recv_ns, 1_000_000);
                assert_eq!((a.worker_id, a.seq), (3, 9));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn trace_context_rides_steps_and_survives_roundtrip() {
        use marl_obs::context::span_id;
        let msg = Msg::Steps(Steps {
            worker_id: 1,
            epoch: 2,
            seq: 4,
            steps: Vec::new(),
            rng: None,
            sync: false,
            ctx: Some(TraceCtx { trace_id: 0xAB, span_id: span_id(1, 4), send_ns: 123 }),
        });
        let bytes = encode_frame(&msg);
        match decode_frame(&bytes).unwrap() {
            Msg::Steps(s) => {
                let ctx = s.ctx.expect("ctx survives");
                assert_eq!(ctx.span_id, span_id(1, 4));
                assert_eq!(ctx.send_ns, 123);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_frame(&heartbeat());
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bytes), Err(DistError::BadMagic { .. })));
        let mut bytes = encode_frame(&heartbeat());
        bytes[4] = 0x7F;
        assert!(matches!(decode_frame(&bytes), Err(DistError::UnsupportedVersion { found: 0x7F })));
    }

    #[test]
    fn every_body_bit_flip_is_detected() {
        let clean = encode_frame(&heartbeat());
        // Flip every bit past the magic/version, one at a time; each must
        // surface as a typed error, never as a silently different message.
        for bit in (6 * 8)..(clean.len() * 8) {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match decode_frame(&bytes) {
                Err(
                    DistError::CrcMismatch { .. }
                    | DistError::Truncated { .. }
                    | DistError::Protocol(_),
                ) => {}
                Ok(_) => panic!("bit {bit}: corrupt frame decoded"),
                Err(e) => panic!("bit {bit}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let clean = encode_frame(&heartbeat());
        for cut in 0..clean.len() {
            let err = decode_frame(&clean[..cut]).unwrap_err();
            assert!(
                matches!(err, DistError::Truncated { .. } | DistError::BadMagic { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&heartbeat());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(DistError::Protocol(_))));
    }

    #[test]
    fn raw_frame_roundtrip_preserves_kind_and_payload() {
        let payload = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x00, 0x42];
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(&payload);
        finish_raw_frame(KIND_INFER_REQ, &mut frame);
        let (kind, body) = decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_REQ);
        assert_eq!(body, payload);
    }

    #[test]
    fn raw_frame_empty_payload_roundtrips() {
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        finish_raw_frame(KIND_SERVE_CTL, &mut frame);
        let (kind, body) = decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_SERVE_CTL);
        assert!(body.is_empty());
    }

    #[test]
    fn raw_frame_buffer_reuse_does_not_leak_previous_payload() {
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        finish_raw_frame(KIND_INFER_RESP, &mut frame);
        // Re-encode a shorter payload into the same buffer.
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(&[9, 9]);
        finish_raw_frame(KIND_INFER_ERR, &mut frame);
        let (kind, body) = decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_ERR);
        assert_eq!(body, [9, 9]);
        assert_eq!(frame.len(), HEADER_LEN + 2);
    }

    #[test]
    fn raw_frame_every_bit_flip_is_detected() {
        let mut clean = Vec::new();
        begin_raw_frame(&mut clean);
        clean.extend_from_slice(&[0x11, 0x22, 0x33]);
        finish_raw_frame(KIND_INFER_REQ, &mut clean);
        for bit in (6 * 8)..(clean.len() * 8) {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match decode_raw_frame(&bytes) {
                Err(
                    DistError::CrcMismatch { .. }
                    | DistError::Truncated { .. }
                    | DistError::Protocol(_),
                ) => {}
                Ok((kind, body)) => {
                    panic!("bit {bit}: corrupt raw frame decoded as kind {kind} ({body:?})")
                }
                Err(e) => panic!("bit {bit}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn raw_frame_truncation_is_detected_at_every_length() {
        let mut clean = Vec::new();
        begin_raw_frame(&mut clean);
        clean.extend_from_slice(&[7; 13]);
        finish_raw_frame(KIND_INFER_RESP, &mut clean);
        for cut in 0..clean.len() {
            let err = decode_raw_frame(&clean[..cut]).unwrap_err();
            assert!(
                matches!(err, DistError::Truncated { .. } | DistError::BadMagic { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn raw_and_json_framing_share_one_header_discipline() {
        // A JSON frame decodes through the raw path too: the framing is
        // one format, the payload interpretation is the only difference.
        let bytes = encode_frame(&heartbeat());
        let (kind, payload) = decode_raw_frame(&bytes).unwrap();
        assert_eq!(kind, KIND_HEARTBEAT);
        assert!(std::str::from_utf8(payload).unwrap().contains("\"env_steps\":125"));
    }

    /// A NaN with a payload, both infinities and negative zero: the
    /// values JSON cannot carry (it writes them as `null`).
    const ODD_BITS: [u32; 5] = [0x7FC0_1234, 0xFFA0_0001, 0x7F80_0000, 0xFF80_0000, 0x8000_0000];

    fn transition(obs_w: usize, act_w: usize, salt: u32) -> Transition {
        let f = |i: usize| f32::from_bits(ODD_BITS[(i + salt as usize) % ODD_BITS.len()]);
        Transition {
            obs: (0..obs_w).map(|i| i as f32 * 0.5 - salt as f32).collect(),
            action: (0..act_w).map(f).collect(),
            reward: f(1),
            next_obs: (0..obs_w).map(|i| if i == 0 { f(2) } else { i as f32 }).collect(),
            done: f(3),
        }
    }

    /// World-comm-shaped heads: per-agent obs and action widths differ.
    fn steps_msg() -> Msg {
        let widths = [(34, 9), (28, 5), (28, 5)];
        let steps =
            (0..3).map(|k| widths.iter().map(|&(o, a)| transition(o, a, k)).collect()).collect();
        Msg::Steps(Steps {
            worker_id: 2,
            epoch: 7,
            seq: 11,
            steps,
            rng: Some([1, u64::MAX, 3, 0x8000_0000_0000_0000]),
            sync: true,
            ctx: Some(TraceCtx { trace_id: 5, span_id: 6, send_ns: 7 }),
        })
    }

    fn params_msg() -> Msg {
        Msg::Params(Box::new(Params {
            epoch: 9,
            actors: vec![
                ODD_BITS.iter().map(|&b| f32::from_bits(b)).collect(),
                vec![1.5, -0.0, f32::MIN_POSITIVE],
            ],
            master_rng: Some([4, 3, 2, 1]),
            ctx: None,
        }))
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn transition_bits(t: &Transition) -> Vec<u32> {
        let mut out = bits(&t.obs);
        out.extend(bits(&t.action));
        out.push(t.reward.to_bits());
        out.extend(bits(&t.next_obs));
        out.push(t.done.to_bits());
        out
    }

    #[test]
    fn steps_roundtrip_non_finite_floats_and_mixed_widths_bit_for_bit() {
        let Msg::Steps(sent) = steps_msg() else { unreachable!() };
        let Msg::Steps(back) = decode_frame(&encode_frame(&steps_msg())).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!((back.worker_id, back.epoch, back.seq), (2, 7, 11));
        assert_eq!((back.rng, back.sync, back.ctx), (sent.rng, sent.sync, sent.ctx));
        assert_eq!(back.steps.len(), sent.steps.len());
        for (b, s) in back.steps.iter().zip(&sent.steps) {
            assert_eq!(b.len(), s.len());
            for (bt, st) in b.iter().zip(s) {
                assert_eq!(transition_bits(bt), transition_bits(st));
            }
        }
        let reward = back.steps[0][0].reward;
        assert!(reward.is_nan() && reward.to_bits() == ODD_BITS[1], "NaN payload lost");
    }

    #[test]
    fn params_roundtrip_non_finite_floats_bit_for_bit() {
        let Msg::Params(sent) = params_msg() else { unreachable!() };
        let Msg::Params(back) = decode_frame(&encode_frame(&params_msg())).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!((back.epoch, back.master_rng, back.ctx), (9, Some([4, 3, 2, 1]), None));
        let sent_bits: Vec<Vec<u32>> = sent.actors.iter().map(|a| bits(a)).collect();
        let back_bits: Vec<Vec<u32>> = back.actors.iter().map(|a| bits(a)).collect();
        assert_eq!(sent_bits, back_bits);
    }

    #[test]
    fn params_frame_is_the_actor_floats_plus_a_small_fixed_part() {
        let frame = encode_frame(&params_msg());
        // epoch 8 + flags 1 + rng 32 + agents 4 + counts 2 × 4 + 8 floats.
        assert_eq!(frame.len(), HEADER_LEN + 8 + 1 + 32 + 4 + 8 + 8 * 4);
    }

    #[test]
    fn encode_frame_into_reuses_the_buffer() {
        let mut frame = Vec::new();
        encode_frame_into(&params_msg(), &mut frame);
        let cap = frame.capacity();
        encode_frame_into(&heartbeat(), &mut frame);
        assert_eq!(frame.capacity(), cap);
        assert_eq!(frame, encode_frame(&heartbeat()));
        assert!(matches!(decode_frame(&frame).unwrap(), Msg::Heartbeat(_)));
    }

    #[test]
    fn binary_frames_detect_every_bit_flip() {
        for clean in [encode_frame(&steps_msg()), encode_frame(&params_msg())] {
            for bit in (6 * 8)..(clean.len() * 8) {
                let mut bytes = clean.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                match decode_frame(&bytes) {
                    Err(
                        DistError::CrcMismatch { .. }
                        | DistError::Truncated { .. }
                        | DistError::Protocol(_),
                    ) => {}
                    Ok(msg) => panic!("bit {bit}: corrupt frame decoded as {}", msg.label()),
                    Err(e) => panic!("bit {bit}: unexpected error {e}"),
                }
            }
        }
    }

    #[test]
    fn binary_frames_detect_truncation_at_every_length() {
        for clean in [encode_frame(&steps_msg()), encode_frame(&params_msg())] {
            for cut in 0..clean.len() {
                let err = decode_frame(&clean[..cut]).unwrap_err();
                assert!(
                    matches!(err, DistError::Truncated { .. } | DistError::BadMagic { .. }),
                    "cut {cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn unknown_kind_is_rejected_at_header_time() {
        for kind in [0u16, MAX_KIND + 1, 0xFFFF] {
            // A forged header promising a huge body that is never sent:
            // the kind alone rejects it, before any body is looked at.
            let mut header = encode_frame(&heartbeat())[..HEADER_LEN].to_vec();
            header[6..8].copy_from_slice(&kind.to_le_bytes());
            header[8..12].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
            let err = decode_header(&header).unwrap_err();
            assert!(matches!(&err, DistError::Protocol(m) if m.contains("kind")), "{err}");
            assert!(matches!(decode_frame(&header), Err(DistError::Protocol(_))));
        }
    }

    /// Builds a frame around a hand-written payload (valid header and
    /// CRC), as a hostile peer could.
    fn forged(kind: u16, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(payload);
        finish_raw_frame(kind, &mut frame);
        frame
    }

    #[test]
    fn binary_decoders_check_declared_counts_before_allocating() {
        let mut steps = Vec::new();
        put_u32(&mut steps, 1);
        put_u64(&mut steps, 0);
        put_u64(&mut steps, 0);
        steps.push(0);
        let head = steps.clone();
        // One agent of u32::MAX-wide observations, u32::MAX joint steps.
        put_u32(&mut steps, 1);
        put_u32(&mut steps, u32::MAX);
        put_u32(&mut steps, u32::MAX);
        put_u32(&mut steps, u32::MAX);
        assert!(matches!(decode_frame(&forged(KIND_STEPS, &steps)), Err(DistError::Protocol(_))));
        // u32::MAX agents whose widths are not there.
        let mut many = head.clone();
        put_u32(&mut many, u32::MAX);
        put_u32(&mut many, 1);
        assert!(matches!(decode_frame(&forged(KIND_STEPS, &many)), Err(DistError::Protocol(_))));
        // Joint steps of no agents.
        let mut empty = head;
        put_u32(&mut empty, 0);
        put_u32(&mut empty, u32::MAX);
        assert!(matches!(decode_frame(&forged(KIND_STEPS, &empty)), Err(DistError::Protocol(_))));

        let mut params = Vec::new();
        put_u64(&mut params, 1);
        params.push(0);
        put_u32(&mut params, 2);
        put_u32(&mut params, u32::MAX);
        put_u32(&mut params, 1);
        put_f32(&mut params, 1.0);
        assert!(matches!(decode_frame(&forged(KIND_PARAMS, &params)), Err(DistError::Protocol(_))));
        // Unknown flag bits are rejected too.
        let mut flagged = Vec::new();
        put_u64(&mut flagged, 1);
        flagged.push(0x80);
        put_u32(&mut flagged, 0);
        assert!(matches!(
            decode_frame(&forged(KIND_PARAMS, &flagged)),
            Err(DistError::Protocol(_))
        ));
    }

    #[test]
    fn empty_steps_and_params_roundtrip() {
        let msg = Msg::Params(Box::new(Params {
            epoch: 1,
            actors: Vec::new(),
            master_rng: None,
            ctx: None,
        }));
        let Msg::Params(p) = decode_frame(&encode_frame(&msg)).unwrap() else { panic!() };
        assert!(p.actors.is_empty() && p.master_rng.is_none());
    }

    #[test]
    fn previous_wire_version_is_typed() {
        let mut bytes = encode_frame(&steps_msg());
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode_frame(&bytes).unwrap_err(), DistError::UnsupportedVersion { found: 1 });
    }

    #[test]
    fn le_helpers_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32s(&mut buf, &[-0.0, f32::INFINITY]);
        assert_eq!(get_u32(&buf, 0), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, 4), u64::MAX - 1);
        let mut xs = vec![9.0];
        get_f32s_into(&buf[12..], &mut xs);
        assert_eq!(bits(&xs), bits(&[9.0, -0.0, f32::INFINITY]));
    }
}
