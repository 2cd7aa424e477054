//! `marl-train` — command-line entry point for training runs.
//!
//! ```text
//! marl-train [--algo maddpg|matd3] [--scenario NAME] [--agents N]
//!            [--sampler baseline|n16r64|n64r16|per|ip|per-reuse:W]
//!            [--layout per-agent|interleaved] [--episodes E] [--batch B]
//!            [--capacity C] [--threads T] [--update-threads U] [--seed S]
//!            [--kernel auto|scalar|simd] [--num-envs K] [--eval-episodes K]
//!            [--checkpoint-out FILE] [--checkpoint-every N] [--resume FILE]
//!            [--trace-out FILE] [--metrics-out FILE] [--metrics-every N]
//!            [--prometheus-out FILE] [--hw-counters]
//! ```
//!
//! Prints the phase breakdown and reward summary. `--checkpoint-out`
//! writes crash-safe full checkpoints (atomic rename + CRC + `.prev`
//! rotation); with `--checkpoint-every N` the run autosaves every N
//! episodes, and `--resume` continues a run bitwise-identically from such
//! a file (falling back to `.prev` when the live file is corrupt).
//!
//! Telemetry: `--trace-out` records a Chrome trace-event JSON (load it in
//! Perfetto or `chrome://tracing`), `--metrics-out` streams JSONL metric
//! snapshots every `--metrics-every` episodes plus a final one, and
//! `--hw-counters` brackets the mini-batch sampling phase with live
//! `perf_event_open` hardware counters when the kernel permits.

use marl_repro::algo::checkpoint::{load_checkpoint_with_fallback, write_checkpoint_file};
use marl_repro::algo::{Algorithm, LayoutMode, Task, TrainConfig, Trainer};
use marl_repro::core::SamplerConfig;
use marl_repro::obs::{KernelTally, SnapshotContext, Telemetry, TelemetryConfig};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn parse_sampler(v: &str) -> Result<SamplerConfig, CliError> {
    Ok(match v {
        "baseline" | "uniform" => SamplerConfig::Uniform,
        "n16r64" => SamplerConfig::LocalityN16R64,
        "n64r16" => SamplerConfig::LocalityN64R16,
        "per" => SamplerConfig::Per,
        "ip" => SamplerConfig::IpLocality,
        other => {
            if let Some(w) = other.strip_prefix("per-reuse:") {
                let window: usize = w
                    .parse()
                    .map_err(|_| CliError(format!("bad reuse window in --sampler {other}")))?;
                SamplerConfig::PerReuse { window }
            } else if let Some(n) = other.strip_prefix("n") {
                let neighbors: usize =
                    n.parse().map_err(|_| CliError(format!("unknown sampler {other}")))?;
                SamplerConfig::Locality { neighbors }
            } else {
                return Err(CliError(format!("unknown sampler {other}")));
            }
        }
    })
}

/// Everything `main` needs from the command line.
#[derive(Debug)]
struct Cli {
    config: TrainConfig,
    eval_episodes: usize,
    checkpoint_out: Option<String>,
    resume: Option<String>,
    telemetry: TelemetryConfig,
}

fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let mut algorithm = Algorithm::Maddpg;
    let mut task = Task::PredatorPrey;
    let mut agents = 3usize;
    let mut sampler = SamplerConfig::Uniform;
    let mut layout = LayoutMode::PerAgent;
    let mut episodes = 300usize;
    let mut batch = 256usize;
    let mut capacity = 50_000usize;
    let mut threads = 1usize;
    let mut update_threads = 1usize;
    let mut seed = 0u64;
    let mut kernel = marl_repro::nn::kernels::KernelChoice::Auto;
    let mut num_envs = 1usize;
    let mut eval_episodes = 10usize;
    let mut checkpoint_out = None;
    let mut checkpoint_every = 0usize;
    let mut resume = None;
    let mut telemetry = TelemetryConfig::default();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, CliError> {
            it.next().ok_or_else(|| CliError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--algo" => {
                algorithm = match value("--algo")?.as_str() {
                    "maddpg" => Algorithm::Maddpg,
                    "matd3" => Algorithm::Matd3,
                    v => return Err(CliError(format!("unknown algorithm {v}"))),
                }
            }
            "--task" | "--scenario" => {
                let v = value("--scenario")?;
                task = match Task::from_name(v) {
                    Some(id) => id,
                    None => {
                        let known: Vec<&str> = Task::all().iter().map(|s| s.label()).collect();
                        return Err(CliError(format!(
                            "unknown scenario {v} (registered: {})",
                            known.join(", ")
                        )));
                    }
                }
            }
            "--agents" => agents = parse_num(value("--agents")?)?,
            "--sampler" => sampler = parse_sampler(value("--sampler")?)?,
            "--layout" => {
                layout = match value("--layout")?.as_str() {
                    "per-agent" => LayoutMode::PerAgent,
                    "interleaved" => LayoutMode::Interleaved,
                    v => return Err(CliError(format!("unknown layout {v}"))),
                }
            }
            "--episodes" => episodes = parse_num(value("--episodes")?)?,
            "--batch" => batch = parse_num(value("--batch")?)?,
            "--capacity" => capacity = parse_num(value("--capacity")?)?,
            "--threads" => threads = parse_num(value("--threads")?)?,
            "--update-threads" => update_threads = parse_num(value("--update-threads")?)?,
            "--seed" => seed = parse_num(value("--seed")?)? as u64,
            "--kernel" => {
                let v = value("--kernel")?;
                kernel = marl_repro::nn::kernels::KernelChoice::parse(v)
                    .ok_or_else(|| CliError(format!("unknown kernel {v}")))?;
            }
            "--num-envs" => {
                num_envs = parse_num(value("--num-envs")?)?;
                if num_envs == 0 {
                    return Err(CliError("--num-envs must be at least 1".into()));
                }
            }
            "--eval-episodes" => eval_episodes = parse_num(value("--eval-episodes")?)?,
            "--checkpoint-out" => checkpoint_out = Some(value("--checkpoint-out")?.clone()),
            "--checkpoint-every" => checkpoint_every = parse_num(value("--checkpoint-every")?)?,
            "--resume" => resume = Some(value("--resume")?.clone()),
            "--trace-out" => telemetry.trace_out = Some(value("--trace-out")?.into()),
            "--metrics-out" => telemetry.metrics_out = Some(value("--metrics-out")?.into()),
            "--metrics-every" => {
                telemetry.metrics_every = parse_num(value("--metrics-every")?)? as u64;
            }
            "--prometheus-out" => {
                telemetry.prometheus_out = Some(value("--prometheus-out")?.into());
            }
            "--span-capacity" => telemetry.span_capacity = parse_num(value("--span-capacity")?)?,
            "--hw-counters" => telemetry.hw_counters = true,
            "--help" | "-h" => {
                return Err(CliError("help".into()));
            }
            v => return Err(CliError(format!("unknown flag {v}"))),
        }
    }
    let mut config = TrainConfig::paper_defaults(algorithm, task, agents)
        .with_sampler(sampler)
        .with_layout(layout)
        .with_episodes(episodes)
        .with_batch_size(batch)
        .with_buffer_capacity(capacity)
        .with_sampling_threads(threads)
        .with_update_threads(update_threads)
        .with_seed(seed)
        .with_kernel(kernel)
        .with_num_envs(num_envs)
        .with_checkpoint_every(checkpoint_every);
    // Keep the warmup proportionate to the run so short CLI runs still
    // perform updates.
    config.warmup = (2 * batch).clamp(batch, capacity / 2).max(batch);
    if checkpoint_every > 0 && checkpoint_out.is_none() {
        return Err(CliError("--checkpoint-every requires --checkpoint-out".into()));
    }
    // A snapshot cadence without a sink would silently record nothing.
    if telemetry.metrics_every > 0 && telemetry.metrics_out.is_none() {
        return Err(CliError("--metrics-every requires --metrics-out".into()));
    }
    // Default cadence: with a metrics sink but no explicit cadence,
    // snapshot every 10 episodes (plus the final snapshot).
    if telemetry.metrics_out.is_some() && telemetry.metrics_every == 0 {
        telemetry.metrics_every = 10;
    }
    Ok(Cli { config, eval_episodes, checkpoint_out, resume, telemetry })
}

fn parse_num(v: &str) -> Result<usize, CliError> {
    v.parse().map_err(|_| CliError(format!("not a number: {v}")))
}

fn usage() {
    eprintln!(
        "usage: marl-train [--algo maddpg|matd3] [--scenario NAME] [--agents N]\n\
         \x20                 [--sampler baseline|n16r64|n64r16|nK|per|ip|per-reuse:W]\n\
         \x20                 [--layout per-agent|interleaved] [--episodes E] [--batch B]\n\
         \x20                 [--capacity C] [--threads T] [--update-threads U] [--seed S]\n\
         \x20                 [--kernel auto|scalar|simd] [--num-envs K] [--eval-episodes K]\n\
         \x20                 [--checkpoint-out FILE] [--checkpoint-every N] [--resume FILE]\n\
         \x20                 [--trace-out FILE] [--metrics-out FILE] [--metrics-every N]\n\
         \x20                 [--prometheus-out FILE] [--span-capacity N] [--hw-counters]\n\
         \n\
         \x20 --scenario NAME      MPE scenario from the registry: predator-prey (pp),\n\
         \x20                      cooperative-navigation (cn), physical-deception (pd),\n\
         \x20                      keep-away (ka), cooperative-reference (cr),\n\
         \x20                      world-comm (wc), or any registered plugin scenario;\n\
         \x20                      --task is accepted as an alias flag\n\
         \x20 --threads T          worker threads for each mini-batch gather (default 1)\n\
         \x20 --update-threads U   worker threads for the per-agent critic/actor updates\n\
         \x20                      (default 1; results are identical for any value)\n\
         \x20 --kernel K           NN compute kernels: auto (default; SIMD when the CPU\n\
         \x20                      has AVX2+FMA), scalar, or simd. The MARL_KERNEL env\n\
         \x20                      var sets the default when the flag is absent\n\
         \x20 --num-envs K         step K environment worlds per rollout iteration over\n\
         \x20                      SoA physics with batched inference (default 1; K=1\n\
         \x20                      explores from the master RNG, K>1 adds per-world streams)\n\
         \x20 --checkpoint-out F   write a crash-safe full checkpoint to F (atomic rename\n\
         \x20                      + CRC-32 + .prev rotation) when the run finishes\n\
         \x20 --checkpoint-every N additionally autosave to F every N episodes (0 = off;\n\
         \x20                      requires --checkpoint-out)\n\
         \x20 --resume F           resume bitwise-identically from a checkpoint file,\n\
         \x20                      falling back to F.prev when F is corrupt\n\
         \x20 --trace-out F        record spans to F as Chrome trace-event JSON\n\
         \x20                      (open in Perfetto or chrome://tracing)\n\
         \x20 --metrics-out F      stream metric snapshots to F as JSONL\n\
         \x20 --metrics-every N    episodes between snapshots (default 10 when\n\
         \x20                      --metrics-out is set; a final snapshot always writes)\n\
         \x20 --prometheus-out F   rewrite F in Prometheus text format at each snapshot\n\
         \x20 --span-capacity N    span ring size in events (default 65536)\n\
         \x20 --hw-counters        read live perf_event hardware counters around the\n\
         \x20                      sampling phase (falls back gracefully when denied)"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { config, eval_episodes, checkpoint_out, resume, telemetry } = match parse_args(&args) {
        Ok(v) => v,
        Err(CliError(msg)) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            usage();
            return if msg == "help" { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };

    println!(
        "training {} / {} / {} agents / sampler {} / {} episodes",
        config.algorithm.label(),
        config.task.label(),
        config.agents,
        config.sampler.label(),
        config.episodes
    );
    let mut trainer = match Trainer::new(config) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Attach telemetry when any sink or the hardware counters were
    // requested; a fully-default config records nothing anyone can read.
    let telemetry_requested = telemetry.trace_out.is_some()
        || telemetry.metrics_out.is_some()
        || telemetry.prometheus_out.is_some()
        || telemetry.hw_counters;
    let tel: Option<Arc<Telemetry>> = if telemetry_requested {
        match Telemetry::new(&telemetry) {
            Ok(t) => {
                let t = Arc::new(t);
                if telemetry.hw_counters && !t.hw_live() {
                    eprintln!(
                        "warning: perf_event_open unavailable (permissions/kernel); \
                         hardware counters disabled"
                    );
                }
                trainer.attach_telemetry(Arc::clone(&t));
                Some(t)
            }
            Err(e) => {
                eprintln!("error: opening telemetry sinks failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if let Some(path) = &resume {
        let loaded =
            load_checkpoint_with_fallback(Path::new(path)).and_then(|(ckpt, replay, from_prev)| {
                trainer.restore_full(ckpt, &replay).map(|()| from_prev)
            });
        match loaded {
            Ok(from_prev) => {
                if from_prev {
                    eprintln!("warning: {path} was unreadable; resumed from {path}.prev");
                }
                println!("resumed from {path} at episode {}", trainer.episodes_done());
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = match trainer.train_with_autosave(checkpoint_out.as_deref().map(Path::new)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "\nwall time: {:?} | env steps: {} | update iterations: {}",
        report.wall_time, report.env_steps, report.update_iterations
    );
    if report.update_iterations == 0 {
        eprintln!(
            "warning: no network updates ran — increase --episodes or lower --batch \
             (warmup is 2x the batch size)"
        );
    }
    // The Figure-2 phase decomposition: accumulated time and
    // percent-of-total per phase, always printed.
    println!("{}", report.profile.breakdown_table());
    let window = (report.curve.len() / 5).max(1);
    println!("final score (smoothed): {:.2}", report.curve.final_score(window));
    if let Some(t) = &tel {
        // Final snapshot (fin: true) to every configured sink, then close
        // the trace file so the JSON array is well-formed.
        let (scalar, simd) = marl_repro::nn::kernels::dispatch_tally();
        let snap = t.finish(&SnapshotContext {
            episode: report.curve.len() as u64,
            profile: &report.profile,
            kernels: KernelTally { scalar, simd },
        });
        println!(
            "telemetry: {} updates | replay occupancy {:.1}% | run-length p50 {} | \
             {} spans dropped",
            snap.updates,
            snap.replay_occupancy * 100.0,
            snap.run_length.p50,
            snap.spans_dropped
        );
        if snap.hw_live {
            println!(
                "hw sampling counters over {} windows: {} instr | {} LLC miss | {} dTLB miss",
                snap.hw_windows,
                snap.hw_sampling.instructions,
                snap.hw_sampling.cache_misses,
                snap.hw_sampling.dtlb_misses
            );
        }
    }
    if eval_episodes > 0 {
        match trainer.evaluate(eval_episodes) {
            Ok(score) => println!("greedy evaluation over {eval_episodes} episodes: {score:.2}"),
            Err(e) => eprintln!("evaluation failed: {e}"),
        }
    }
    if let Some(path) = checkpoint_out {
        // A checkpoint the user asked for must actually be durable: any
        // serialization or I/O failure is fatal, not a warning.
        let written = trainer
            .checkpoint_full()
            .and_then(|(ckpt, replay)| write_checkpoint_file(Path::new(&path), &ckpt, &replay));
        match written {
            Ok(()) => println!("checkpoint written to {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
