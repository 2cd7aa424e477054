//! `bench_rollout` — multi-world rollout throughput, written as
//! machine-readable JSON (`BENCH_pr6.json`).
//!
//! Measures env-steps/sec of the rollout engine at K ∈ {1, 4, 8} worlds
//! under the scalar and SIMD kernels. Every leg drives the one rollout
//! engine — SoA physics across worlds, one batched
//! `forward_inference_into` per agent, batched replay pushes; K = 1 is
//! that engine at one world. Updates
//! are suppressed (warmup = capacity) so the numbers isolate rollout
//! throughput; the headline figure is the K = 8 SIMD speedup over the
//! K = 1 scalar baseline.
//!
//! Without AVX2+FMA the SIMD legs reuse the scalar measurement and
//! `simd_available` records the downgrade.
//!
//! Environment knobs: `MARL_BENCH_EPISODES` (episodes per timed leg,
//! default 40), `MARL_BENCH_OUT` (output path, default
//! `BENCH_pr6.json`). `--append` also appends the summary to
//! `BENCH_history.jsonl` (override with `MARL_BENCH_HISTORY`).

use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_bench::env_usize;
use marl_nn::kernels::{self, KernelChoice, KernelKind};
use serde::Serialize;
use std::time::Instant;

/// Throughput of one (K, kernel) rollout leg.
#[derive(Debug, Serialize)]
struct Leg {
    num_envs: usize,
    kernel: String,
    env_steps_per_sec: f64,
    ns_per_env_step: u64,
}

#[derive(Debug, Serialize)]
struct Summary {
    /// Whether this host supports the AVX2+FMA kernels.
    simd_available: bool,
    /// Headline throughput — the K = 8 leg under the best available
    /// kernel. Gated by `bench_summary --check-history` (higher is
    /// better), so the distinct top-level key keeps the history scan
    /// unambiguous against the per-leg `env_steps_per_sec` fields.
    rollout_env_steps_per_sec: f64,
    /// Every measured (K, kernel) combination.
    legs: Vec<Leg>,
    /// env-steps/sec at K = 8 SIMD over K = 1 scalar — the end-to-end
    /// win of batching + SIMD over the legacy rollout path.
    speedup_k8_simd_vs_k1_scalar: f64,
    /// env-steps/sec at K = 8 scalar over K = 1 scalar — the batching
    /// win alone, with identical arithmetic.
    speedup_k8_scalar_vs_k1_scalar: f64,
}

/// Rollout-only trainer: warmup equals capacity, so the update path
/// never triggers and the measurement isolates the rollout loop.
fn rollout_trainer(k: usize, choice: KernelChoice) -> Trainer {
    let mut cfg = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_buffer_capacity(65_536)
        .with_num_envs(k)
        .with_seed(5)
        .with_kernel(choice);
    cfg.warmup = cfg.buffer_capacity;
    Trainer::new(cfg).expect("valid bench config")
}

/// Times `episodes` rollout episodes at K worlds; returns steps/sec.
fn measure(k: usize, choice: KernelChoice, episodes: usize) -> f64 {
    let mut t = rollout_trainer(k, choice);
    // Warm-up: size the rollout scratch and fault in the replay ring.
    t.run_episode().expect("episode");
    let steps_before = t.env_steps();
    let t0 = Instant::now();
    for _ in 0..episodes {
        t.run_episode().expect("episode");
    }
    let secs = t0.elapsed().as_secs_f64();
    let steps = (t.env_steps() - steps_before) as f64;
    steps / secs.max(1e-9)
}

fn main() {
    let episodes = env_usize("MARL_BENCH_EPISODES", 40);
    let out_path = std::env::var("MARL_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr6.json".to_string());
    let append = std::env::args().skip(1).any(|a| a == "--append");

    println!("== bench_rollout: multi-world rollout throughput ({episodes} episodes/leg) ==\n");
    let simd_available = kernels::simd_available();
    let mut legs = Vec::new();
    for k in [1usize, 4, 8] {
        for (choice, tag) in [(KernelChoice::Scalar, "scalar"), (KernelChoice::Simd, "simd")] {
            let rate = if choice == KernelChoice::Simd && !simd_available {
                legs.last().map(|l: &Leg| l.env_steps_per_sec).unwrap_or(0.0)
            } else {
                measure(k, choice, episodes)
            };
            println!("K={k} {tag:>6}: {rate:>12.0} env-steps/sec");
            legs.push(Leg {
                num_envs: k,
                kernel: tag.to_string(),
                env_steps_per_sec: rate,
                ns_per_env_step: (1e9 / rate.max(1e-9)) as u64,
            });
        }
    }
    let rate_of = |k: usize, tag: &str| {
        legs.iter()
            .find(|l| l.num_envs == k && l.kernel == tag)
            .map(|l| l.env_steps_per_sec)
            .unwrap_or(0.0)
    };
    let summary = Summary {
        simd_available,
        rollout_env_steps_per_sec: rate_of(8, "simd"),
        speedup_k8_simd_vs_k1_scalar: rate_of(8, "simd") / rate_of(1, "scalar").max(1e-9),
        speedup_k8_scalar_vs_k1_scalar: rate_of(8, "scalar") / rate_of(1, "scalar").max(1e-9),
        legs,
    };
    // Leave the process-global kernel back on auto-detection.
    kernels::set_active(if simd_available { KernelKind::Simd } else { KernelKind::Scalar });
    println!(
        "\nK=8 simd vs K=1 scalar: {:.2}x | K=8 scalar vs K=1 scalar: {:.2}x",
        summary.speedup_k8_simd_vs_k1_scalar, summary.speedup_k8_scalar_vs_k1_scalar
    );

    let json = serde_json::to_string(&summary).expect("summary serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench rollout");
    println!("wrote {out_path}");
    if append {
        let history: std::path::PathBuf = std::env::var("MARL_BENCH_HISTORY")
            .unwrap_or_else(|_| "BENCH_history.jsonl".to_string())
            .into();
        marl_bench::append_history(&history, &marl_bench::history_id(&out_path), &json)
            .expect("append history");
        println!("appended to {}", history.display());
    }
}
