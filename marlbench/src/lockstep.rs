//! `lockstep-pp3`: `Learner::serve_lockstep` and one `run_worker`
//! thread joined by a connected Unix-domain socket pair, checked
//! bitwise against the in-process `Trainer` on the identical config.
//!
//! Both ends run behind [`Probe`], a benchmark-side `Transport` wrapper.
//! Untraced, the worker's probe only timestamps admission and episode
//! ends (the public boundary an episode's latency is read at). Traced,
//! both probes also time every `send`/`recv_timeout` per message kind
//! and keep copies of the first `Params` and `Steps` frames, whose
//! encode/decode cost is timed after the run.

use crate::metrics::Report;
use crate::stats::{median, Timing};
use crate::training::{self, param_bits, phase_delta, report_phases};
use crate::{err, sys, RunArgs};
use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::wire::{self, Msg};
use marl_dist::{
    run_worker, Backoff, DistError, Learner, LearnerOptions, StreamTransport, Transport,
};
use marl_perf::phase::PhaseProfile;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Episodes per lockstep session: 82 warm-up episodes fill the paper's
/// 2048-row warmup, the rest run one update per 100 steps.
pub const SESSION_EPISODES: usize = 100;

/// `Steps` frames kept for the codec probe.
const CAPTURED_STEPS: usize = 32;

/// Number of distinct wire kinds (`Msg::kind` is at most 12).
const KINDS: usize = 13;

/// `Msg::kind` of `Steps` and `Params` frames.
const KIND_STEPS: usize = 3;
const KIND_PARAMS: usize = 4;

#[derive(Debug, Default, Clone, Copy)]
struct KindTotals {
    count: u64,
    nanos: u128,
}

/// What one end of the wire observed.
#[derive(Debug, Default)]
struct WireLog {
    /// Worker: when `Welcome` arrived (end of admission).
    admitted: Option<Instant>,
    /// Worker: `EpisodeEnd` send times, with whether a `Params` arrived
    /// during that episode.
    episode_ends: Vec<(Instant, bool)>,
    params_seen: bool,
    /// Traced only from here on.
    send: [KindTotals; KINDS],
    recv: [KindTotals; KINDS],
    /// All time spent inside `recv_timeout`, timeouts included.
    recv_total: Duration,
    /// Learner: when the last sync `Steps` frame was received.
    sync_at: Option<Instant>,
    /// Learner: sync `Steps` received → `Params` send, ms.
    update_ms: Vec<f64>,
    params: Option<Msg>,
    steps: Vec<Msg>,
}

/// Benchmark-side `Transport` wrapper recording into a shared log.
struct Probe<T> {
    inner: T,
    log: Arc<Mutex<WireLog>>,
    traced: bool,
}

impl<T> Probe<T> {
    fn log(&self) -> std::sync::MutexGuard<'_, WireLog> {
        self.log.lock().expect("wire log lock: a probe thread panicked")
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn send(&mut self, msg: &Msg) -> Result<(), DistError> {
        if !self.traced {
            if let Msg::EpisodeEnd(_) = msg {
                let mut log = self.log();
                let seen = std::mem::take(&mut log.params_seen);
                log.episode_ends.push((Instant::now(), seen));
            }
            return self.inner.send(msg);
        }
        let t0 = Instant::now();
        {
            let mut log = self.log();
            match msg {
                Msg::Params(_) => {
                    if let Some(at) = log.sync_at.take() {
                        log.update_ms.push((t0 - at).as_secs_f64() * 1e3);
                    }
                    if log.params.is_none() {
                        log.params = Some(msg.clone());
                    }
                }
                Msg::Steps(_) if log.steps.len() < CAPTURED_STEPS => log.steps.push(msg.clone()),
                Msg::EpisodeEnd(_) => {
                    let seen = std::mem::take(&mut log.params_seen);
                    log.episode_ends.push((t0, seen));
                }
                _ => {}
            }
        }
        let t0 = Instant::now();
        let r = self.inner.send(msg);
        let spent = t0.elapsed();
        let totals = &mut self.log().send[usize::from(msg.kind()) % KINDS];
        totals.count += 1;
        totals.nanos += spent.as_nanos();
        r
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError> {
        let t0 = Instant::now();
        let r = self.inner.recv_timeout(timeout);
        let now = Instant::now();
        let mut log = self.log();
        if let Ok(msg) = &r {
            match msg {
                Msg::Welcome(_) => log.admitted = Some(now),
                Msg::Params(_) => log.params_seen = true,
                Msg::Steps(s) if s.sync && self.traced => log.sync_at = Some(now),
                _ => {}
            }
        }
        if self.traced {
            log.recv_total += now - t0;
            if let Ok(msg) = &r {
                let totals = &mut log.recv[usize::from(msg.kind()) % KINDS];
                totals.count += 1;
                totals.nanos += (now - t0).as_nanos();
            }
        }
        r
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// The workload's training configuration for session `index`.
fn config(seed: u64, index: u64) -> TrainConfig {
    TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_episodes(SESSION_EPISODES)
        .with_seed(seed.wrapping_add(index))
}

/// One lockstep session's observations.
struct Session {
    traced: bool,
    setup: Duration,
    run: Duration,
    env_steps: u64,
    updates: u64,
    params: Vec<u32>,
    phases: PhaseProfile,
    learner_log: WireLog,
    worker_log: WireLog,
    /// Probes run on the learner's replay and nets (traced sessions).
    layer: Option<LayerProbe>,
    /// The in-process rerun: wall time of its episode loop and profile.
    inproc: Duration,
    inproc_phases: PhaseProfile,
}

struct LayerProbe {
    push_ns: f64,
    gather: (f64, f64),
    gflop: f64,
    actor_us: f64,
}

fn session(cfg: TrainConfig, traced: bool) -> Result<Session, String> {
    let start = Instant::now();
    let (a, b) = UnixStream::pair().map_err(err)?;
    let learner_log = Arc::new(Mutex::new(WireLog::default()));
    let worker_log = Arc::new(Mutex::new(WireLog::default()));
    let mut learner_end =
        Probe { inner: StreamTransport::unix(a), log: Arc::clone(&learner_log), traced };
    let worker_end =
        Probe { inner: StreamTransport::unix(b), log: Arc::clone(&worker_log), traced };
    let mut learner = Learner::new(cfg, LearnerOptions::default()).map_err(err)?;
    let worker = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 0);
        run_worker(
            0,
            move || {
                slot.take()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .ok_or(DistError::Disconnected)
            },
            &mut backoff,
            1,
        )
    });
    let profile0 = learner.trainer().profile().clone();
    let served = learner.serve_lockstep(&mut learner_end);
    drop(learner_end);
    let joined = worker.join().map_err(|_| "lockstep worker thread panicked".to_string())?;
    let end = Instant::now();
    served.map_err(|e| format!("learner: {e}"))?;
    joined.map_err(|e| format!("worker: {e}"))?;

    let trainer = learner.trainer();
    let layer = if traced {
        let replay = trainer.replay().ok_or("learner has no replay")?;
        let states = trainer.agent_states();
        Some(LayerProbe {
            push_ns: training::push_ns(replay)?,
            gather: training::gather(replay, &cfg, cfg.seed)?,
            gflop: training::update_gflop(&cfg, &states),
            actor_us: training::actor_batch_us(&states[0].actor, 1),
        })
    } else {
        None
    };
    let take = |log: Arc<Mutex<WireLog>>| -> Result<WireLog, String> {
        let m = Arc::try_unwrap(log).map_err(|_| "wire log still shared".to_string())?;
        m.into_inner().map_err(|_| "wire log poisoned".to_string())
    };
    let worker_log = take(worker_log)?;
    let admitted = worker_log.admitted.ok_or("worker was never admitted")?;
    Ok(Session {
        traced,
        setup: admitted - start,
        run: end - admitted,
        env_steps: trainer.env_steps(),
        updates: trainer.update_iterations(),
        params: param_bits(&trainer.agent_states()),
        phases: phase_delta(&profile0, trainer.profile()),
        learner_log: take(learner_log)?,
        worker_log,
        layer,
        inproc: Duration::ZERO,
        inproc_phases: PhaseProfile::new(),
    })
}

/// The same config run in-process: (wall of the episode loop, final
/// parameter bits, env steps, updates, profile).
fn in_process(cfg: TrainConfig) -> Result<(Duration, Vec<u32>, u64, u64, PhaseProfile), String> {
    let mut t = Trainer::new(cfg).map_err(err)?;
    let t0 = Instant::now();
    for _ in 0..cfg.episodes {
        t.run_episode().map_err(err)?;
    }
    let wall = t0.elapsed();
    Ok((
        wall,
        param_bits(&t.agent_states()),
        t.env_steps(),
        t.update_iterations(),
        t.profile().clone(),
    ))
}

/// Sessions until `budget` is spent, each checked against the
/// in-process trainer. In a traced run every other session is traced,
/// so traced and untraced sessions see the same host.
fn sessions(
    args: &RunArgs,
    budget: Duration,
    trace: bool,
    report: &mut Report,
) -> Result<Vec<Session>, String> {
    let mut out = Vec::new();
    let mut spent = Duration::ZERO;
    for index in 0.. {
        if spent >= budget && out.len() >= 2 {
            break;
        }
        let cfg = config(args.seed, index);
        let mut s = session(cfg, trace && index % 2 == 1)?;
        spent += s.setup + s.run;
        let (wall, params, steps, updates, profile) = in_process(cfg)?;
        report.ops(s.worker_log.episode_ends.len() as u64, 0);
        report.check(
            &format!("session {index}: learner parameters bitwise-equal to the in-process trainer"),
            s.params == params,
        );
        report.check(
            &format!("session {index}: env_steps and update_iterations equal the in-process run"),
            s.env_steps == steps
                && s.updates == updates
                && s.env_steps == (cfg.episodes * cfg.max_episode_len) as u64
                && s.updates == training::expected_updates(&cfg, s.env_steps),
        );
        s.inproc = wall;
        s.inproc_phases = profile;
        out.push(s);
    }
    Ok(out)
}

fn rate(sessions: &[&Session]) -> f64 {
    let steps: u64 = sessions.iter().map(|s| s.env_steps).sum();
    let run: f64 = sessions.iter().map(|s| s.run.as_secs_f64()).sum();
    steps as f64 / run
}

/// Episode latencies (µs) read from the worker's `EpisodeEnd` times:
/// (all, episodes that received no `Params`).
fn episode_latencies(sessions: &[&Session]) -> (Vec<f64>, Vec<f64>) {
    let (mut all, mut light) = (Vec::new(), Vec::new());
    for s in sessions {
        let mut prev = s.worker_log.admitted.expect("admitted");
        for &(at, updated) in &s.worker_log.episode_ends {
            let us = (at - prev).as_secs_f64() * 1e6;
            all.push(us);
            if !updated {
                light.push(us);
            }
            prev = at;
        }
    }
    (all, light)
}

/// Median ms of `f` over `reps` calls.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Runs `lockstep-pp3`.
///
/// # Errors
///
/// Transport, protocol or training failures.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let trace = report.traced();
    let budget = if trace { 2 * args.seconds } else { args.seconds };
    let all_sessions = sessions(args, budget, trace, report)?;
    report.set("peak_rss_mib", sys::peak_rss_mib(None)?);
    let setups: Vec<f64> = all_sessions.iter().map(|s| s.setup.as_secs_f64()).collect();
    report.set("setup_s", median(&setups));
    let (runs, plain): (Vec<&Session>, Vec<&Session>) = all_sessions.iter().partition(|s| s.traced);
    let lockstep_rate = rate(&plain);
    report.set("env_steps_per_s", lockstep_rate);
    let (all, light) = episode_latencies(&plain);
    let (all, light) = (Timing::new(all), Timing::new(light));
    println!("{}", light.describe("episode latency, no params received", "us"));
    println!("{}", all.describe("episode latency, all episodes", "us"));
    report.set("p50_us.light", light.at(50.0));
    report.set("p99_us.light", light.at(99.0));
    report.set("p50_us.heavy", all.at(50.0));
    report.set("p99_us.heavy", all.at(99.0));
    let steps: u64 = plain.iter().map(|s| s.env_steps).sum();
    let inproc_secs: f64 = plain.iter().map(|s| s.inproc.as_secs_f64()).sum();
    println!(
        "{} sessions x {SESSION_EPISODES} episodes: lockstep {lockstep_rate:.0} env-steps/s, \
         in-process {:.0} env-steps/s",
        plain.len(),
        steps as f64 / inproc_secs
    );
    if !trace {
        return Ok(());
    }

    // Per-layer numbers, from the traced sessions.
    let run_secs: f64 = runs.iter().map(|s| s.run.as_secs_f64()).sum();
    let inproc_secs: f64 = runs.iter().map(|s| s.inproc.as_secs_f64()).sum();
    let steps: u64 = runs.iter().map(|s| s.env_steps).sum();
    report.set("obs.trace_overhead_pct", (lockstep_rate / rate(&runs) - 1.0) * 100.0);
    report.set("obs.traced_seconds", run_secs);
    report.set("dist.inproc_env_steps_per_s", steps as f64 / inproc_secs);
    report.set("dist.wire_tax_x", run_secs / inproc_secs);
    report.set("algo.env_steps", steps as f64);
    report.set("algo.episodes", (runs.len() * SESSION_EPISODES) as f64);
    report.set("algo.updates", runs.iter().map(|s| s.updates).sum::<u64>() as f64);

    let mut phases = PhaseProfile::new();
    let mut rollout = PhaseProfile::new();
    for s in &runs {
        phases.merge(&s.phases);
        rollout.merge(&s.inproc_phases);
    }
    report_phases(report, &phases, steps, Duration::from_secs_f64(run_secs));
    report.set(
        "env.step_ns",
        rollout.get(marl_perf::phase::Phase::EnvironmentStep).as_nanos() as f64 / steps as f64,
    );
    let update = Timing::new(runs.iter().flat_map(|s| s.learner_log.update_ms.clone()).collect());
    println!("{}", update.describe("sync steps received -> params sent (learner)", "ms"));
    report.set("algo.update_ms.p50", update.at(50.0));
    report.set("algo.update_ms.p90", update.at(90.0));
    let layer = runs[0].layer.as_ref().expect("traced sessions probe their layers");
    report.set("core.push_ns", layer.push_ns);
    report.set("core.gather_us", layer.gather.0);
    report.set("core.gather_mib", layer.gather.1);
    report.set("nn.update_gflop", layer.gflop);
    report.set("nn.actor_batch_us", layer.actor_us);
    report.set("nn.actor_batch_rows", 1.0);

    // Codec cost of the captured frames, timed outside the run.
    let first = &runs[0];
    let params = first.learner_log.params.as_ref().ok_or("no params frame captured")?;
    let frame = wire::encode_frame(params);
    let encode_ms = time_ms(5, || drop(std::hint::black_box(wire::encode_frame(params))));
    let decode_ms = time_ms(5, || drop(std::hint::black_box(wire::decode_frame(&frame))));
    report.check("captured params frame decodes", wire::decode_frame(&frame).is_ok());
    report.set("dist.params_bytes", frame.len() as f64);
    report.set("dist.params_encode_ms", encode_ms);
    report.set("dist.params_decode_ms", decode_ms);
    let (mut bytes, mut rows, mut codec_ms, mut decode_sum_ms) = (0usize, 0usize, 0.0, 0.0);
    let captured = &first.worker_log.steps;
    for m in captured {
        let Msg::Steps(s) = m else { continue };
        let f = wire::encode_frame(m);
        bytes += f.len();
        rows += s.steps.len();
        let dec = time_ms(5, || drop(std::hint::black_box(wire::decode_frame(&f))));
        codec_ms += time_ms(5, || drop(std::hint::black_box(wire::encode_frame(m)))) + dec;
        decode_sum_ms += dec;
    }
    let rows = rows.max(1);
    report.set("dist.steps_bytes_per_step", bytes as f64 / rows as f64);
    report.set("dist.steps_codec_us_per_step", codec_ms * 1e3 / rows as f64);
    let steps_decode_ms = decode_sum_ms / captured.len().max(1) as f64;

    // Share of wall time blocked in recv, net of the decode work done
    // inside recv_timeout.
    let (mut learner_wait, mut worker_wait) = (0.0, 0.0);
    for s in &runs {
        let steps_in = s.learner_log.recv[KIND_STEPS].count as f64;
        learner_wait += s.learner_log.recv_total.as_secs_f64() * 1e3 - steps_in * steps_decode_ms;
        let params_in = s.worker_log.recv[KIND_PARAMS].count as f64;
        worker_wait += s.worker_log.recv_total.as_secs_f64() * 1e3 - params_in * decode_ms;
    }
    let run_ms = run_secs * 1e3;
    report.set("dist.learner_wait_share", (learner_wait / run_ms).max(0.0));
    report.set("dist.worker_wait_share", (worker_wait / run_ms).max(0.0));
    let ends = [&first.worker_log, &first.learner_log];
    for (label, side) in [("send", ends.map(|l| l.send)), ("recv", ends.map(|l| l.recv))] {
        let spans: Vec<String> = (0..KINDS)
            .filter_map(|k| {
                let (w, l) = (side[0][k], side[1][k]);
                let n = w.count + l.count;
                (n > 0).then(|| {
                    let us = (w.nanos + l.nanos) as f64 / n as f64 / 1e3;
                    format!("kind {k}: {n} x {us:.1} us")
                })
            })
            .collect();
        println!("wire {label} spans, both ends, first traced session: {}", spans.join(" | "));
    }
    Ok(())
}
