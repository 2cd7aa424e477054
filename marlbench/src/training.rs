//! In-process workloads over `Trainer::run_episode`: update-bound
//! training (`train-pp12`) and rollout-only collection
//! (`collect-cn6-k8`), plus the layer probes the lockstep workload
//! shares.

use crate::metrics::Report;
use crate::stats::{median, Timing};
use crate::{err, sys, RunArgs};
use marl_algo::checkpoint::AgentState;
use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_core::multi::MultiAgentReplay;
use marl_core::transition::Transition;
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use marl_nn::scratch::Scratch;
use marl_perf::phase::{Phase, PhaseProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, more while they take under
/// `SETUP_BUDGET` in total (cheap set-ups need many for a steady
/// median); `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Timed-loop episode after which the parameter digest is taken, so
/// two same-seed runs compare equal work however long they ran.
const DIGEST_EPISODE: usize = 40;

/// The two in-process workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MADDPG, predator-prey, N=12, paper defaults: the update path.
    TrainPp12,
    /// Cooperative navigation, N=6, K=8 worlds, no updates: the rollout.
    CollectCn6K8,
}

/// The workload's training configuration.
pub fn config(workload: Workload, seed: u64) -> TrainConfig {
    match workload {
        Workload::TrainPp12 => {
            TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 12).with_seed(seed)
        }
        Workload::CollectCn6K8 => {
            let mut c =
                TrainConfig::paper_defaults(Algorithm::Maddpg, Task::CooperativeNavigation, 6)
                    .with_num_envs(8)
                    .with_seed(seed);
            // Above any step count a run reaches: no update ever fires.
            c.warmup = u32::MAX as usize;
            c
        }
    }
}

/// Updates the trainer's schedule implies after `env_steps` steps: the
/// first once the replay holds `warmup` rows, then one per
/// `update_every` samples.
pub fn expected_updates(cfg: &TrainConfig, env_steps: u64) -> u64 {
    let (warmup, every) = (cfg.warmup as u64, cfg.update_every as u64);
    if env_steps < warmup {
        0
    } else {
        1 + (env_steps - warmup) / every
    }
}

/// Builds the trainer and warms it up: for training, until the first
/// update has run (replay at warmup, update scratch sized); for
/// collection, one episode.
fn set_up(workload: Workload, cfg: TrainConfig) -> Result<Trainer, String> {
    let mut t = Trainer::new(cfg).map_err(err)?;
    match workload {
        Workload::TrainPp12 => {
            while t.update_iterations() == 0 {
                t.run_episode().map_err(err)?;
            }
        }
        Workload::CollectCn6K8 => {
            t.run_episode().map_err(err)?;
        }
    }
    Ok(t)
}

/// Episodes per timed chunk: one 100-sample update cycle of the paper
/// schedule, so every chunk of `train-pp12` runs exactly one update.
const CHUNK_EPISODES: usize = 4;

/// What timed chunks of `run_episode` calls observed.
#[derive(Debug, Default)]
struct LoopStats {
    wall: Duration,
    env_steps: u64,
    /// (latency µs, whether the episode ran an update) per episode.
    episodes: Vec<(f64, bool)>,
    returns: Vec<f32>,
    /// Update time per update iteration, ms (traced chunks only).
    update_ms: Vec<f64>,
    /// Phase totals accumulated over the chunks.
    phases: PhaseProfile,
}

impl LoopStats {
    fn absorb(&mut self, other: LoopStats) {
        self.wall += other.wall;
        self.env_steps += other.env_steps;
        self.episodes.extend(other.episodes);
        self.returns.extend(other.returns);
        self.update_ms.extend(other.update_ms);
        self.phases.merge(&other.phases);
    }

    fn rate(&self) -> f64 {
        self.env_steps as f64 / self.wall.as_secs_f64()
    }
}

/// One chunk of [`CHUNK_EPISODES`] episodes. A traced chunk reads the
/// trainer's phase profile around every episode.
fn run_chunk(t: &mut Trainer, traced: bool) -> Result<LoopStats, String> {
    let mut s = LoopStats::default();
    let steps0 = t.env_steps();
    let profile0 = t.profile().clone();
    let start = Instant::now();
    for _ in 0..CHUNK_EPISODES {
        let updates0 = t.update_iterations();
        let update0 = traced.then(|| t.profile().update_all_trainers());
        let e0 = Instant::now();
        let r = t.run_episode().map_err(err)?;
        let latency = e0.elapsed();
        let ran = t.update_iterations() - updates0;
        if let (Some(u0), true) = (update0, ran > 0) {
            let spent = t.profile().update_all_trainers() - u0;
            s.update_ms.push(spent.as_secs_f64() * 1e3 / ran as f64);
        }
        s.episodes.push((latency.as_secs_f64() * 1e6, ran > 0));
        s.returns.push(r);
    }
    s.wall = start.elapsed();
    s.env_steps = t.env_steps() - steps0;
    if traced {
        s.phases = phase_delta(&profile0, t.profile());
    }
    Ok(s)
}

/// Chunks until `budget` is spent: all untraced, or (traced run)
/// alternating untraced and traced so both see the same host. Returns
/// the untraced and traced totals and the parameter digest taken after
/// [`DIGEST_EPISODE`] episodes.
fn timed_loop(
    t: &mut Trainer,
    budget: Duration,
    trace: bool,
) -> Result<(LoopStats, LoopStats, (usize, u64)), String> {
    let (mut plain, mut traced) = (LoopStats::default(), LoopStats::default());
    let mut digest_at = None;
    let start = Instant::now();
    let mut episodes = 0;
    for i in 0.. {
        if start.elapsed() >= budget {
            break;
        }
        let chunk = run_chunk(t, trace && i % 2 == 1)?;
        episodes += chunk.episodes.len();
        if trace && i % 2 == 1 {
            traced.absorb(chunk);
        } else {
            plain.absorb(chunk);
        }
        if digest_at.is_none() && episodes >= DIGEST_EPISODE {
            digest_at = Some((episodes, digest(&t.agent_states())));
        }
    }
    let digest_at = digest_at.unwrap_or_else(|| (episodes, digest(&t.agent_states())));
    Ok((plain, traced, digest_at))
}

/// `after − before`, phase by phase.
pub fn phase_delta(before: &PhaseProfile, after: &PhaseProfile) -> PhaseProfile {
    let mut d = PhaseProfile::new();
    for p in Phase::ALL {
        d.add(p, after.get(p).saturating_sub(before.get(p)));
    }
    d
}

/// Runs `train-pp12` or `collect-cn6-k8`.
///
/// # Errors
///
/// Training failures.
pub fn run(workload: Workload, args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let cfg = config(workload, args.seed);
    let mut setups = Vec::new();
    let mut trainer = None;
    let started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (started.elapsed() < SETUP_BUDGET && setups.len() < MAX_SETUPS)
    {
        drop(trainer.take());
        let t0 = Instant::now();
        trainer = Some(set_up(workload, cfg)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut t = trainer.expect("at least one set-up");
    report.set("setup_s", median(&setups));

    // The traced run alternates untraced and traced chunks over twice
    // the budget; the difference in their rates is the tracing overhead.
    let budget = if report.traced() { 2 * args.seconds } else { args.seconds };
    let (s, traced, (digest_at, digest_value)) = timed_loop(&mut t, budget, report.traced())?;
    report.set("peak_rss_mib", sys::peak_rss_mib(None)?);

    // Correctness: the schedule, finite returns and parameters.
    let steps_per_episode = (cfg.max_episode_len * cfg.num_envs()) as u64;
    let episodes = (s.episodes.len() + traced.episodes.len()) as u64;
    report.ops(episodes, 0);
    report.check(
        "env_steps advance by max_episode_len x num_envs per episode",
        s.env_steps + traced.env_steps == episodes * steps_per_episode,
    );
    report.check(
        "update_iterations follow the warmup/update_every schedule",
        t.update_iterations() == expected_updates(&cfg, t.env_steps()),
    );
    let returns = s.returns.iter().chain(&traced.returns);
    report.check("episode returns are finite", returns.clone().all(|r| r.is_finite()));
    let states = t.agent_states();
    report.check("parameters are finite after training", params_finite(&states));
    let returns: Vec<f32> = returns.copied().collect();
    let tail = &returns[returns.len().saturating_sub(10)..];
    println!(
        "final return (mean of the last {} episodes): {:.4} | parameter digest after \
         {digest_at} timed episodes: {digest_value:016x} | {} updates, {} env steps",
        tail.len(),
        tail.iter().sum::<f32>() / tail.len().max(1) as f32,
        t.update_iterations(),
        t.env_steps(),
    );

    // End-to-end metrics, from the untraced chunks. The request unit of
    // a training workload is an episode: light = episodes that ran no
    // update, heavy = all of them.
    report.set("env_steps_per_s", s.rate());
    let light = Timing::new(s.episodes.iter().filter(|e| !e.1).map(|e| e.0).collect());
    let heavy = Timing::new(s.episodes.iter().map(|e| e.0).collect());
    println!("{}", light.describe("episode latency, no update", "us"));
    println!("{}", heavy.describe("episode latency, all episodes", "us"));
    report.set("p50_us.light", light.at(50.0));
    report.set("p99_us.light", light.at(99.0));
    report.set("p50_us.heavy", heavy.at(50.0));
    report.set("p99_us.heavy", heavy.at(99.0));

    if report.traced() {
        report.set("obs.trace_overhead_pct", (s.rate() / traced.rate() - 1.0) * 100.0);
        report.set("obs.traced_seconds", traced.wall.as_secs_f64());
        report_phases(report, &traced.phases, traced.env_steps, traced.wall);
        report.set("algo.updates", traced.update_ms.len() as f64);
        report.set("algo.env_steps", traced.env_steps as f64);
        report.set("algo.episodes", traced.episodes.len() as f64);
        let update = Timing::new(traced.update_ms.clone());
        println!("{}", update.describe("update_all_trainers iteration", "ms"));
        if update.n() > 0 {
            report.set("algo.update_ms.p50", update.at(50.0));
            report.set("algo.update_ms.p90", update.at(90.0));
            report.set("nn.update_gflop", update_gflop(&cfg, &states));
        }
        report.set(
            "env.step_ns",
            traced.phases.get(Phase::EnvironmentStep).as_nanos() as f64 / traced.env_steps as f64,
        );
        let replay = t.replay().ok_or("trainer has no replay")?;
        report.set("core.push_ns", push_ns(replay)?);
        if update.n() > 0 {
            let (us, mib) = gather(replay, &cfg, args.seed)?;
            report.set("core.gather_us", us);
            report.set("core.gather_mib", mib);
        }
        let rows = cfg.num_envs();
        report.set("nn.actor_batch_us", actor_batch_us(&states[0].actor, rows));
        report.set("nn.actor_batch_rows", rows as f64);
    }
    Ok(())
}

/// Per-phase time per 1000 env steps plus the update and rollout shares
/// of wall time.
pub fn report_phases(report: &mut Report, phases: &PhaseProfile, env_steps: u64, wall: Duration) {
    const NAMES: [&str; 8] = [
        "algo.phase_ms.action-selection",
        "algo.phase_ms.environment-step",
        "algo.phase_ms.bookkeeping",
        "algo.phase_ms.mini-batch-sampling",
        "algo.phase_ms.target-q",
        "algo.phase_ms.q-loss-p-loss",
        "algo.phase_ms.soft-update",
        "algo.phase_ms.checkpoint",
    ];
    let per_k = 1000.0 / env_steps.max(1) as f64;
    for (name, phase) in NAMES.into_iter().zip(Phase::ALL) {
        debug_assert!(name.ends_with(phase.label()));
        report.set(name, phases.get(phase).as_secs_f64() * 1e3 * per_k);
    }
    let wall = wall.as_secs_f64();
    let rollout = [Phase::ActionSelection, Phase::EnvironmentStep, Phase::Bookkeeping]
        .iter()
        .map(|&p| phases.get(p).as_secs_f64())
        .sum::<f64>();
    report.set("algo.update_share_pct", phases.update_all_trainers().as_secs_f64() / wall * 100.0);
    report.set("algo.rollout_share_pct", rollout / wall * 100.0);
    let table: Vec<String> = Phase::ALL
        .iter()
        .map(|&p| format!("{} {:.1}%", p.label(), phases.get(p).as_secs_f64() / wall * 100.0))
        .collect();
    println!("phase share of wall time: {}", table.join(" | "));
}

/// Bit patterns of every network parameter of every agent, in a fixed
/// order: the exact state two runs are compared on.
pub fn param_bits(states: &[AgentState]) -> Vec<u32> {
    let mut bits = Vec::new();
    for s in states {
        for net in [&s.actor, &s.target_actor, &s.critic, &s.target_critic] {
            net.visit_params_ref(|p| bits.extend(p.iter().map(|x| x.to_bits())));
        }
        if let Some((c, tc)) = &s.critic2 {
            c.visit_params_ref(|p| bits.extend(p.iter().map(|x| x.to_bits())));
            tc.visit_params_ref(|p| bits.extend(p.iter().map(|x| x.to_bits())));
        }
    }
    bits
}

/// FNV-1a over [`param_bits`].
pub fn digest(states: &[AgentState]) -> u64 {
    param_bits(states)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn params_finite(states: &[AgentState]) -> bool {
    states.iter().all(|s| {
        [&s.actor, &s.target_actor, &s.critic, &s.target_critic]
            .iter()
            .all(|n| n.max_abs_param().is_finite())
    })
}

/// Multiply-accumulate weights of a network (biases excluded).
fn weights(net: &Mlp) -> f64 {
    let mut total = 0usize;
    let mut is_weight = true;
    net.visit_params_ref(|p| {
        if is_weight {
            total += p.len();
        }
        is_weight = !is_weight;
    });
    total as f64
}

/// Floating-point operations of one `update_all_trainers` iteration,
/// counted from layer shapes: a forward pass is 2·W flops per row, a
/// backward pass 4·W. Per agent i over a batch of B rows: target
/// actions of all agents plus agent i's target critic, the critic
/// forward and backward, and the policy loss (actor forward, critic
/// forward, critic backward to its input, actor backward).
pub fn update_gflop(cfg: &TrainConfig, states: &[AgentState]) -> f64 {
    let b = cfg.batch_size as f64;
    let actors: f64 = states.iter().map(|s| weights(&s.actor)).sum();
    let mut flops = 0.0;
    for s in states {
        let (a, c) = (weights(&s.actor), weights(&s.critic));
        let target = 2.0 * actors + 2.0 * c;
        let critic = 2.0 * c + 4.0 * c;
        let policy = 2.0 * a + 2.0 * c + 4.0 * c + 4.0 * a;
        flops += b * (target + critic + policy);
    }
    flops / 1e9
}

/// Median ns of one joint-step replay insert, pushing rows copied out of
/// `replay` into a fresh buffer of the same layout.
pub fn push_ns(replay: &MultiAgentReplay) -> Result<f64, String> {
    let layouts = replay.layouts();
    let rows = replay.len().min(1024);
    if rows == 0 {
        return Ok(0.0);
    }
    let steps: Vec<Vec<Transition>> = (0..rows)
        .map(|i| {
            layouts
                .iter()
                .enumerate()
                .map(|(a, l)| Transition::from_row(l, replay.buffer(a).row(i)))
                .collect()
        })
        .collect();
    let mut target = MultiAgentReplay::new(&layouts, 8 * rows);
    let mut per_push = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        for step in &steps {
            black_box(target.push_step(step).map_err(err)?);
        }
        per_push.push(t0.elapsed().as_nanos() as f64 / rows as f64);
    }
    Ok(median(&per_push))
}

/// Median µs of one mini-batch (sampling plan plus the gather of every
/// agent's rows) on `replay`, and the computed MiB that gather moves.
pub fn gather(
    replay: &MultiAgentReplay,
    cfg: &TrainConfig,
    seed: u64,
) -> Result<(f64, f64), String> {
    let mut sampler = cfg.sampler.build(cfg.buffer_capacity);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = sampler.plan(replay.len(), cfg.batch_size, &mut rng).map_err(err)?;
    let mut batch = replay.sample(&plan).map_err(err)?;
    let mut times = Vec::new();
    for _ in 0..31 {
        let t0 = Instant::now();
        sampler.plan_into(replay.len(), cfg.batch_size, &mut rng, &mut plan).map_err(err)?;
        replay.sample_into(&plan, &mut batch).map_err(err)?;
        black_box(&batch);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let row_bytes: usize = replay.layouts().iter().map(|l| l.row_bytes()).sum();
    Ok((median(&times), (cfg.batch_size * row_bytes) as f64 / (1024.0 * 1024.0)))
}

/// Median µs of one inference forward of `actor` over `rows` rows.
pub fn actor_batch_us(actor: &Mlp, rows: usize) -> f64 {
    let mut obs = Matrix::zeros(rows, actor.input_dim());
    for r in 0..rows {
        for (c, x) in obs.row_mut(r).iter_mut().enumerate() {
            *x = ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.5;
        }
    }
    let mut out = Matrix::zeros(rows, actor.output_dim());
    let mut scratch = Scratch::new();
    let reps = 200;
    let mut times = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        for _ in 0..reps {
            actor.forward_inference_into(black_box(&obs), &mut out, &mut scratch);
            black_box(&out);
        }
        times.push(t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps));
    }
    median(&times)
}
