//! `serve-pp3`: the release `marl-serve` binary serving a PP-3
//! checkpoint written from a seeded trainer, driven by an open-loop
//! Poisson generator.
//!
//! The generator uses one connection and two threads (a sender and a
//! receiver), never more than the host's cores. It draws its whole
//! schedule from the seed before sending, sends each request at its due
//! time whatever is outstanding, and times every request from that due
//! time, so a stall is charged to every request it delays. A request
//! refused, failed or never answered counts as an SLO miss.
//!
//! Phases, each against a freshly spawned server: the end-to-end run
//! sends a light rate and a heavy rate below the knee. The traced run
//! sends both with the server's `--metrics-out` histograms attached,
//! then an untraced heavy phase as the overhead reference, then a fixed
//! rate ladder whose top step overloads the host. It also times the
//! serve crate's codec and `InferenceEngine::infer` in-process.

use crate::metrics::Report;
use crate::stats::{median, SplitMix64, Timing};
use crate::sys::{self, RunDir};
use crate::{err, RunArgs};
use marl_algo::checkpoint::write_checkpoint_file;
use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::wire::{self, KIND_INFER_ERR, KIND_INFER_RESP};
use marl_dist::{DistError, StreamTransport};
use marl_nn::matrix::Matrix;
use marl_nn::scratch::Scratch;
use marl_obs::context::TraceCtx;
use marl_obs::metrics::MetricsSnapshot;
use marl_serve::{proto, InferenceEngine, PolicyModel, RequestSlot};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Light offered rate, requests/s: exposes the lone-request hold.
pub const LIGHT_RPS: f64 = 2_000.0;
/// Heavy offered rate, requests/s: below the knee, batches fill.
pub const HEAVY_RPS: f64 = 20_000.0;
/// Ladder rates, requests/s; the top step overloads the host.
pub const LADDER_RPS: [f64; 7] =
    [30_000.0, 40_000.0, 50_000.0, 60_000.0, 70_000.0, 80_000.0, 100_000.0];
/// p99 latency limit of a sustained ladder step, µs.
pub const SLO_P99_US: f64 = 5_000.0;
/// Server micro-batching settings.
const MAX_BATCH: &str = "32";
const MAX_DELAY_US: &str = "200";
/// Every this many requests the logits are checked bitwise.
const SAMPLE_EVERY: usize = 16;
/// Distinct observations per agent the schedule draws from.
const OBS_POOL: usize = 256;
/// Set-up repetitions (checkpoint write, server spawn, first answer).
const SETUP_REPS: usize = 9;
/// Window over which the end-to-end latency floor is taken.
const WINDOW: Duration = Duration::from_millis(250);
/// Untimed warm-up burst before each phase.
const WARM_UP: Duration = Duration::from_millis(200);
/// Stream bit that separates warm-up schedules from measured ones.
const WARM_STREAM: u64 = 1 << 32;

/// A seeded open-loop request schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Due time of each request, ns after the phase start.
    pub due_ns: Vec<u64>,
    /// Target agent of each request.
    pub agent: Vec<u32>,
    /// Index into the observation pool of each request.
    pub obs: Vec<u32>,
}

/// Poisson arrivals at `rate` per second over `duration`, drawn from
/// stream `stream` of `seed`.
pub fn poisson(seed: u64, stream: u64, rate: f64, duration: Duration, agents: u32) -> Schedule {
    let mut g = SplitMix64::new(seed, stream);
    let end = duration.as_nanos() as f64;
    let mut s = Schedule { due_ns: Vec::new(), agent: Vec::new(), obs: Vec::new() };
    let mut t = 0.0f64;
    loop {
        t += -g.unit_open().ln() / rate * 1e9;
        if t >= end {
            return s;
        }
        s.due_ns.push(t as u64);
        s.agent.push((g.next_u64() % u64::from(agents)) as u32);
        s.obs.push((g.next_u64() % OBS_POOL as u64) as u32);
    }
}

/// Observation pool: `OBS_POOL` vectors per agent, uniform in [-1, 1).
fn obs_pool(seed: u64, dims: &[usize]) -> Vec<Vec<Vec<f32>>> {
    let mut g = SplitMix64::new(seed, 0x0B5);
    dims.iter()
        .map(|&d| (0..OBS_POOL).map(|_| (0..d).map(|_| g.range_f32(-1.0, 1.0)).collect()).collect())
        .collect()
}

/// A spawned `marl-serve` process, killed and reaped on drop.
struct ServerProc {
    child: Child,
    socket: PathBuf,
    metrics: Option<PathBuf>,
}

impl ServerProc {
    /// Spawns the server and waits until one request round-trips.
    fn spawn(
        bin: &Path,
        dir: &Path,
        ckpt: &Path,
        tag: &str,
        traced: bool,
        probe_obs: &[f32],
    ) -> Result<Self, String> {
        let socket = dir.join(format!("{tag}.sock"));
        let metrics = traced.then(|| dir.join(format!("{tag}.metrics.jsonl")));
        let log = std::fs::File::create(dir.join(format!("{tag}.log"))).map_err(err)?;
        let mut cmd = Command::new(bin);
        cmd.arg("--checkpoint")
            .arg(ckpt)
            .arg("--socket")
            .arg(&socket)
            .args(["--max-batch", MAX_BATCH, "--max-delay-us", MAX_DELAY_US])
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(err)?)
            .stderr(log);
        if let Some(m) = &metrics {
            cmd.arg("--metrics-out").arg(m);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc { child, socket, metrics };
        let mut conn = server.connect(Duration::from_secs(20))?;
        let mut frame = Vec::new();
        proto::encode_request(u64::MAX, 0, probe_obs, TraceCtx::NONE, &mut frame);
        conn.send_raw(&frame).map_err(err)?;
        let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(10)).map_err(err)?;
        if kind != KIND_INFER_RESP {
            return Err(format!("server answered the probe with frame kind {kind}"));
        }
        Ok(server)
    }

    fn connect(&mut self, within: Duration) -> Result<StreamTransport, String> {
        let deadline = Instant::now() + within;
        loop {
            if let Ok(s) = UnixStream::connect(&self.socket) {
                return Ok(StreamTransport::unix(s).with_frame_deadline(Duration::from_secs(5)));
            }
            if let Some(status) = self.child.try_wait().map_err(err)? {
                return Err(format!("server exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server never accepted a connection".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak RSS of the server process, MiB.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        sys::peak_rss_mib(Some(self.child.id()))
    }

    /// Sends the shutdown control frame, waits for the drain, and reads
    /// the final metrics snapshot when `--metrics-out` was attached.
    fn shutdown(mut self) -> Result<Option<MetricsSnapshot>, String> {
        let mut conn = self.connect(Duration::from_secs(5))?;
        let mut frame = Vec::new();
        proto::encode_ctl(proto::CTL_SHUTDOWN, &mut frame);
        conn.send_raw(&frame).map_err(err)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(err)? {
                break status;
            }
            if Instant::now() > deadline {
                return Err("server did not drain and exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let Some(path) = &self.metrics else { return Ok(None) };
        let text = std::fs::read_to_string(path).map_err(err)?;
        let line = text.lines().last().ok_or("server wrote no metrics")?;
        serde_json::from_str(line).map(Some).map_err(|e| format!("metrics snapshot: {e:?}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sleeps coarsely, then spins the last stretch to `t`. Spinning keeps
/// the sender's core awake: a virtual CPU woken from idle for every
/// request adds wake-up latency that would be charged to the server.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let gap = t - now;
        if gap > Duration::from_micros(400) {
            std::thread::sleep(gap - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
struct Phase {
    sent: u64,
    answered: u64,
    errors: u64,
    refused: u64,
    /// Latency from due time of each answered request, µs.
    latency_us: Vec<f64>,
    /// Due time (ns after the phase start) of each `latency_us` entry.
    latency_due_ns: Vec<u64>,
    /// How late each request was sent, µs.
    lag_us: Vec<f64>,
    /// Answers received within the phase plus the latency limit.
    answered_in_time: u64,
    /// From the phase start to the last answer.
    served_for: Duration,
    /// Sampled (request index, logits).
    sampled: Vec<(usize, Vec<f32>)>,
    /// Every answer's id was sent, unanswered so far, and echoed its agent.
    routing_ok: bool,
}

impl Phase {
    /// Latency percentile with every unanswered request counted as
    /// missing the limit (infinitely late).
    fn p_with_misses(&self, q: f64) -> f64 {
        let total = self.sent + self.refused;
        let missing = total.saturating_sub(self.answered);
        let mut v = self.latency_us.clone();
        v.extend(std::iter::repeat_n(f64::INFINITY, missing as usize));
        Timing::new(v).at(q)
    }

    /// The lowest per-window median latency over [`WINDOW`]-long windows
    /// of due times (windows with at least 20 answers). The host's other
    /// tenants take virtual-CPU time in bursts that lengthen every wake-up
    /// in the server; the quietest window measures the server itself.
    fn p50_floor(&self) -> f64 {
        let width = WINDOW.as_nanos() as u64;
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (&lat, &due) in self.latency_us.iter().zip(&self.latency_due_ns) {
            let w = (due / width) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(lat);
        }
        windows
            .iter()
            .filter(|w| w.len() >= 20)
            .map(|w| median(w))
            .min_by(f64::total_cmp)
            .unwrap_or_else(|| self.p_with_misses(50.0))
    }

    fn sustained(&self) -> bool {
        let total = (self.sent + self.refused) as f64;
        self.p_with_misses(99.0) <= SLO_P99_US && self.answered_in_time as f64 >= 0.99 * total
    }
}

/// Drives `schedule` open-loop over `conn`.
fn drive(
    conn: &StreamTransport,
    schedule: &Schedule,
    pool: &[Vec<Vec<f32>>],
    duration: Duration,
) -> Result<Phase, String> {
    let n = schedule.due_ns.len();
    let mut send_half = conn.try_clone().map_err(err)?;
    let mut recv_half = conn.try_clone().map_err(err)?;
    let start = Instant::now() + Duration::from_millis(5);
    let in_time = start + duration + Duration::from_micros(SLO_P99_US as u64);
    let give_up = start + duration + Duration::from_secs(10);
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut frame = Vec::new();
            let mut lag_us = Vec::with_capacity(n);
            let mut sent = 0u64;
            for k in 0..n {
                let due = start + Duration::from_nanos(schedule.due_ns[k]);
                wait_until(due);
                let agent = schedule.agent[k];
                let obs = &pool[agent as usize][schedule.obs[k] as usize];
                proto::encode_request(k as u64, agent, obs, TraceCtx::NONE, &mut frame);
                lag_us.push(due.elapsed().as_secs_f64() * 1e6);
                if send_half.send_raw(&frame).is_err() {
                    break;
                }
                sent += 1;
            }
            (sent, lag_us)
        });
        let mut p = Phase { routing_ok: true, ..Phase::default() };
        let mut seen = vec![false; n];
        let mut frame = Vec::new();
        let mut logits = Vec::new();
        while ((p.answered + p.errors) as usize) < n && Instant::now() < give_up {
            let kind = match recv_half.recv_raw_into(&mut frame, Duration::from_millis(50)) {
                Ok(kind) => kind,
                Err(DistError::Timeout { .. }) => {
                    if sender.is_finished() {
                        // Stop waiting once every sent request is settled.
                        let settled = p.answered + p.errors;
                        if settled as usize >= n
                            || Instant::now() > in_time + Duration::from_secs(2)
                        {
                            break;
                        }
                    }
                    continue;
                }
                Err(e) => return Err(format!("receive: {e}")),
            };
            let now = Instant::now();
            let payload = &frame[wire::HEADER_LEN..];
            if kind == KIND_INFER_ERR {
                p.errors += 1;
                continue;
            }
            if kind != KIND_INFER_RESP {
                p.routing_ok = false;
                continue;
            }
            let resp = proto::decode_response_into(payload, &mut logits).map_err(err)?;
            let k = resp.req_id as usize;
            if k >= n || seen[k] || resp.agent != schedule.agent[k] {
                p.routing_ok = false;
                continue;
            }
            seen[k] = true;
            p.answered += 1;
            p.served_for = now.saturating_duration_since(start);
            let due = start + Duration::from_nanos(schedule.due_ns[k]);
            p.latency_us.push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
            p.latency_due_ns.push(schedule.due_ns[k]);
            if now <= in_time {
                p.answered_in_time += 1;
            }
            if k.is_multiple_of(SAMPLE_EVERY) {
                p.sampled.push((k, logits.clone()));
            }
        }
        let (sent, lag_us) = sender.join().map_err(|_| "generator sender panicked".to_string())?;
        p.sent = sent;
        p.refused = n as u64 - sent;
        p.lag_us = lag_us;
        Ok(p)
    })
}

/// Bitwise check of sampled logits against a serial batch-of-one forward.
fn logits_match(
    model: &PolicyModel,
    schedule: &Schedule,
    pool: &[Vec<Vec<f32>>],
    p: &Phase,
) -> bool {
    let mut scratch = Scratch::new();
    let mut out = Matrix::zeros(1, 1);
    p.sampled.iter().all(|(k, got)| {
        let agent = schedule.agent[*k] as usize;
        let obs = &pool[agent][schedule.obs[*k] as usize];
        let input = Matrix::from_vec(1, obs.len(), obs.clone());
        model.actors[agent].forward_inference_into(&input, &mut out, &mut scratch);
        let want = out.row(0);
        want.len() == got.len() && want.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// Everything one phase needs besides its rate.
struct Bench<'a> {
    args: &'a RunArgs,
    bin: PathBuf,
    dir: RunDir,
    ckpt: PathBuf,
    model: PolicyModel,
    pool: Vec<Vec<Vec<f32>>>,
    peak_rss: f64,
    stream: u64,
}

impl Bench<'_> {
    /// One phase against a fresh server; counts its requests and checks.
    fn phase(
        &mut self,
        name: &str,
        rate: f64,
        duration: Duration,
        traced: bool,
        report: &mut Report,
    ) -> Result<(Phase, Option<MetricsSnapshot>), String> {
        self.stream += 1;
        let agents = self.model.num_agents() as u32;
        let schedule = poisson(self.args.seed, self.stream, rate, duration, agents);
        let mut server = ServerProc::spawn(
            &self.bin,
            self.dir.path(),
            &self.ckpt,
            &format!("{name}-{}", self.stream),
            traced,
            &self.pool[0][0],
        )?;
        let conn = server.connect(Duration::from_secs(5))?;
        // A discarded warm-up burst at the phase's rate faults in the
        // server's pools and buffers before anything is timed.
        let warm = poisson(self.args.seed, self.stream | WARM_STREAM, rate, WARM_UP, agents);
        let w = drive(&conn, &warm, &self.pool, WARM_UP)?;
        report.ops(warm.due_ns.len() as u64, warm.due_ns.len() as u64 - w.answered);
        let p = drive(&conn, &schedule, &self.pool, duration)?;
        self.peak_rss = self.peak_rss.max(server.peak_rss_mib()?);
        let snapshot = server.shutdown()?;
        let n = schedule.due_ns.len() as u64;
        report.ops(n, n - p.answered);
        report.check(
            &format!("{name} @ {rate} req/s: req_id routing exact, every answer once"),
            p.routing_ok && w.routing_ok,
        );
        report.check(
            &format!("{name} @ {rate} req/s: sampled logits bitwise-equal to batch-of-one"),
            !p.sampled.is_empty() && logits_match(&self.model, &schedule, &self.pool, &p),
        );
        let lat = Timing::new(p.latency_us.clone());
        println!(
            "{name} @ {rate} req/s: sent {} answered {} errors {} refused {} | {} | \
             quietest-window median {:.3} us | lag {}",
            p.sent,
            p.answered,
            p.errors,
            p.refused,
            lat.describe("latency from due", "us"),
            p.p50_floor(),
            Timing::new(p.lag_us.clone()).describe("", "us"),
        );
        Ok((p, snapshot))
    }
}

/// Writes the seeded PP-3 trainer's checkpoint.
fn checkpoint(seed: u64, path: &Path) -> Result<(), String> {
    let cfg = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3).with_seed(seed);
    let trainer = Trainer::new(cfg).map_err(err)?;
    let (ckpt, replay) = trainer.checkpoint_full().map_err(err)?;
    write_checkpoint_file(path, &ckpt, &replay).map_err(err)
}

/// Mean requests per flush.
fn fill(s: &MetricsSnapshot) -> f64 {
    s.serve_batch_fill.mean
}

/// Runs `serve-pp3`.
///
/// # Errors
///
/// Missing server binary, spawn or transport failures.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let bin = args.serve_bin.clone().ok_or("serve-pp3 needs --serve-bin")?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err("the generator's sender and receiver threads need two cores".into());
    }
    let dir = RunDir::create()?;
    let ckpt = dir.path().join("pp3.ckpt");
    checkpoint(args.seed, &ckpt)?;
    let (model, _) = PolicyModel::load(&ckpt, 0).map_err(err)?;
    let dims: Vec<usize> = (0..model.num_agents()).map(|a| model.obs_dim(a)).collect();
    let pool = obs_pool(args.seed, &dims);
    // Set-up: write the checkpoint, spawn the server on it, and wait
    // for its first answer; repeated, each server shut down again.
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        checkpoint(args.seed, &ckpt)?;
        let tag = format!("setup-{rep}");
        let server = ServerProc::spawn(&bin, dir.path(), &ckpt, &tag, false, &pool[0][0])?;
        setup_s.push(t0.elapsed().as_secs_f64());
        server.shutdown()?;
    }
    let mut b = Bench { args, bin, dir, ckpt, model, pool, peak_rss: 0.0, stream: 0 };
    // Untraced: light and heavy phases of half the budget each. Traced:
    // a quarter each with the server's histograms attached, an untraced
    // heavy reference of an eighth, and the rate ladder over the other half.
    let traced = report.traced();
    let phase_len = if traced { args.seconds / 4 } else { args.seconds / 2 };
    let (light, light_snap) = b.phase("light", LIGHT_RPS, phase_len, traced, report)?;
    let (heavy, heavy_snap) = b.phase("heavy", HEAVY_RPS, phase_len, traced, report)?;
    for (p, name) in [(&light, "light"), (&heavy, "heavy")] {
        report.check(&format!("{name} phase: no request failed or was refused"), {
            p.errors == 0 && p.refused == 0 && p.answered == p.sent
        });
    }
    report.set("p50_us.light", light.p50_floor());
    report.set("p50_us.heavy", heavy.p50_floor());
    report.set("p99_us.light", light.p_with_misses(99.0));
    report.set("p99_us.heavy", heavy.p_with_misses(99.0));
    report.set("env_steps_per_s", heavy.answered as f64 / heavy.served_for.as_secs_f64());

    if traced {
        let (reference, _) =
            b.phase("heavy-untraced", HEAVY_RPS, args.seconds / 8, false, report)?;
        report.set(
            "obs.trace_overhead_pct",
            (heavy.p50_floor() / reference.p50_floor() - 1.0) * 100.0,
        );
        report.set("obs.traced_seconds", 2.0 * phase_len.as_secs_f64());
        let (ls, hs) =
            (light_snap.ok_or("no light snapshot")?, heavy_snap.ok_or("no heavy snapshot")?);
        report.set("serve.batch_fill.light", fill(&ls));
        report.set("serve.batch_fill.heavy", fill(&hs));
        report.set("serve.queue_wait_us.p50", hs.serve_latency_ns.p50 as f64 / 1e3);
        report.set("serve.queue_wait_us.p99", hs.serve_latency_ns.p99 as f64 / 1e3);
        report.set("serve.errors", (ls.serve_errors + hs.serve_errors) as f64);
        report.set("serve.refused", (light.refused + heavy.refused) as f64);
        report.set("gen.lag_us.p99", Timing::new(heavy.lag_us.clone()).at(99.0));
        report.set("gen.requests", (light.sent + heavy.sent + reference.sent) as f64);
        let rows = fill(&hs).round().max(1.0) as usize;
        report.set("serve.infer_us", infer_us(&b.model, &b.pool, rows));
        report.set("serve.infer_us.batch1", infer_us(&b.model, &b.pool, 1));
        report.set("serve.codec_ns", codec_ns(&b.pool));
        report.set("nn.actor_batch_us", crate::training::actor_batch_us(&b.model.actors[0], rows));
        report.set("nn.actor_batch_rows", rows as f64);

        let ladder_step = args.seconds / 2 / LADDER_RPS.len() as u32;
        let mut p99 = Vec::with_capacity(LADDER_RPS.len());
        for rate in LADDER_RPS {
            let (p, _) = b.phase("ladder", rate, ladder_step, false, report)?;
            let ok = p.sustained();
            println!(
                "ladder {rate} req/s: p99 with misses {:.1} us, answered in time {}/{} -> {}",
                p.p_with_misses(99.0),
                p.answered_in_time,
                p.sent + p.refused,
                if ok { "sustained" } else { "missed" }
            );
            // A step lost to backlog reads as just over the limit.
            let p99_us = p.p_with_misses(99.0);
            p99.push(if ok { p99_us } else { p99_us.max(SLO_P99_US.next_up()) });
        }
        if p99[p99.len() - 1] <= SLO_P99_US {
            // A faster host: the knee lies above the ladder.
            println!("warning: the ladder's top step was sustained; max_rps_slo is a lower bound");
        }
        let best = slo_crossing(&LADDER_RPS, &p99).ok_or("no ladder step met the latency limit")?;
        report.set("max_rps_slo", best);
    }
    report.set("peak_rss_mib", b.peak_rss);
    report.set("setup_s", median(&setup_s));
    Ok(())
}

/// The highest rate meeting the p99 limit: the highest sustained ladder
/// step, moved toward the next (failed) step by where the limit falls
/// between their p99s on a log scale, the failed step's p99 capped at
/// twice the limit. `None` when no step is sustained.
pub fn slo_crossing(rates: &[f64], p99_us: &[f64]) -> Option<f64> {
    let i = p99_us.iter().rposition(|&p| p <= SLO_P99_US)?;
    let Some(&next) = rates.get(i + 1) else { return Some(rates[i]) };
    let (lo, hi) = (p99_us[i].max(1.0).ln(), p99_us[i + 1].min(2.0 * SLO_P99_US).ln());
    let frac = if hi > lo { ((SLO_P99_US.ln() - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.0 };
    Some(rates[i] + (next - rates[i]) * frac)
}

/// Median µs of one `InferenceEngine::infer` flush of `rows` requests
/// spread over the agents.
fn infer_us(model: &PolicyModel, pool: &[Vec<Vec<f32>>], rows: usize) -> f64 {
    let mut engine = InferenceEngine::new();
    let mut batch: Vec<Box<RequestSlot>> = (0..rows)
        .map(|i| {
            let agent = i % model.num_agents();
            Box::new(RequestSlot {
                req_id: i as u64,
                agent: agent as u32,
                obs: pool[agent][i % OBS_POOL].clone(),
                ..RequestSlot::default()
            })
        })
        .collect();
    let reps = 100;
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                engine.infer(model, black_box(&mut batch));
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        })
        .collect();
    median(&times)
}

/// Median ns of the four codec calls one request costs: request encode
/// and decode, response encode and decode.
fn codec_ns(pool: &[Vec<Vec<f32>>]) -> f64 {
    let (mut req, mut resp, mut obs, mut logits) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let out = vec![0.25f32; 5];
    let reps = 2_000;
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..reps {
                proto::encode_request(
                    i,
                    0,
                    &pool[0][i as usize % OBS_POOL],
                    TraceCtx::NONE,
                    &mut req,
                );
                let (id, agent, ctx) =
                    proto::decode_request_into(&req[wire::HEADER_LEN..], &mut obs)
                        .expect("request");
                proto::encode_response(id, 0, agent, 1, &out, ctx, &mut resp);
                black_box(
                    proto::decode_response_into(&resp[wire::HEADER_LEN..], &mut logits)
                        .expect("response"),
                );
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_reproducible_from_the_seed() {
        let a = poisson(42, 1, 2_000.0, Duration::from_secs(2), 3);
        let b = poisson(42, 1, 2_000.0, Duration::from_secs(2), 3);
        assert_eq!(a, b);
        assert_ne!(a, poisson(43, 1, 2_000.0, Duration::from_secs(2), 3));
        assert_ne!(a, poisson(42, 2, 2_000.0, Duration::from_secs(2), 3));
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate_and_exponential_gaps() {
        let s = poisson(7, 3, 10_000.0, Duration::from_secs(4), 3);
        let n = s.due_ns.len() as f64;
        // 40 000 expected; a Poisson count's sd is 200.
        assert!((n - 40_000.0).abs() < 1_000.0, "{n} arrivals");
        assert!(s.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.due_ns.last().expect("arrivals") < 4_000_000_000);
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let mean = 1e9 / 10_000.0;
        let long = s.due_ns.windows(2).filter(|w| (w[1] - w[0]) as f64 > mean).count() as f64;
        assert!((long / n - (-1.0f64).exp()).abs() < 0.02, "{}", long / n);
        assert!(s.agent.iter().all(|&a| a < 3));
        assert!(s.obs.iter().all(|&o| (o as usize) < OBS_POOL));
    }

    #[test]
    fn slo_crossing_interpolates_between_the_last_sustained_step_and_the_next() {
        let rates = [10.0, 20.0, 30.0];
        assert_eq!(slo_crossing(&rates, &[f64::INFINITY; 3]), None);
        assert_eq!(slo_crossing(&rates, &[100.0, 200.0, 300.0]), Some(30.0));
        // Limit exactly halfway (log scale) between 2 500 and 10 000 µs.
        let x = slo_crossing(&rates, &[100.0, 2_500.0, f64::INFINITY]).expect("crossing");
        assert!((x - 25.0).abs() < 1e-9, "{x}");
        // The highest sustained step counts even after a failed lower one.
        assert_eq!(slo_crossing(&rates, &[f64::INFINITY, 5_000.0, f64::INFINITY]), Some(20.0));
    }

    #[test]
    fn misses_count_as_infinitely_late() {
        let p = Phase {
            sent: 100,
            answered: 98,
            latency_us: vec![10.0; 98],
            answered_in_time: 98,
            ..Phase::default()
        };
        assert_eq!(p.p_with_misses(50.0), 10.0);
        assert!(p.p_with_misses(99.0).is_infinite());
        assert!(!p.sustained());
    }
}
