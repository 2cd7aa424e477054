//! Rollout engine integration tests: K = 1 forks no per-world streams,
//! K > 1 runs must be seeded-deterministic and resumable through the
//! on-disk checkpoint format, and checkpoints written before the
//! per-world fields existed must still restore and resume bitwise.

use marl_repro::algo::checkpoint::{load_checkpoint_with_fallback, write_checkpoint_file};
use marl_repro::algo::explore::ExplorationSchedule;
use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_repro::core::SamplerConfig;
use marl_repro::nn::kernels::KernelChoice;
use std::path::PathBuf;

mod common;

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marl_vec_rollout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn base_config(task: Task, seed: u64) -> TrainConfig {
    let mut c = common::seeded_config(
        Algorithm::Maddpg,
        task,
        3,
        SamplerConfig::Uniform,
        6,
        32,
        1024,
        seed,
    )
    .with_kernel(KernelChoice::Scalar);
    c.update_every = 10;
    c
}

fn weights_json(t: &Trainer) -> String {
    serde_json::to_string(&t.checkpoint().agents).unwrap()
}

fn reward_bits(rewards: &[f32]) -> Vec<u32> {
    rewards.iter().map(|r| r.to_bits()).collect()
}

/// At K = 1 the engine explores from the master RNG and steps world 0
/// on the `env_rng` stream alone: a checkpoint forks no noise or
/// extra-world env streams, so its per-world fields stay empty. Runs
/// each task and, separately, an annealed schedule so the ε-greedy
/// branch is exercised too; two same-seed runs agree bit for bit.
#[test]
fn k1_forks_no_noise_or_env_streams() {
    let mut configs = vec![
        ("pp", base_config(Task::PredatorPrey, 99)),
        ("cn", base_config(Task::CooperativeNavigation, 99)),
        ("pd", base_config(Task::PhysicalDeception, 99)),
    ];
    let mut eps = base_config(Task::PredatorPrey, 1234);
    eps.exploration = ExplorationSchedule::annealed(500);
    configs.push(("pp-annealed", eps));

    for (tag, cfg) in configs {
        let run = || {
            let mut t = Trainer::new(cfg).unwrap();
            let rewards: Vec<f32> = (0..4).map(|_| t.run_episode().unwrap()).collect();
            let (ckpt, replay) = t.checkpoint_full().unwrap();
            (reward_bits(&rewards), ckpt.run.unwrap(), replay, weights_json(&t))
        };
        let (rewards, run_a, replay, weights) = run();
        assert!(run_a.rollout_rngs.is_empty(), "{tag}: K=1 must not fork noise streams");
        assert!(run_a.vec_env_rngs.is_empty(), "{tag}: K=1 must not fork env streams");
        assert!(run_a.env_steps == 4 * cfg.max_episode_len as u64, "{tag}: env steps");
        let (rewards_b, run_b, replay_b, weights_b) = run();
        assert_eq!(rewards, rewards_b, "{tag}: rewards");
        assert_eq!(
            (run_a.master_rng, run_a.env_rng, run_a.telemetry),
            (run_b.master_rng, run_b.env_rng, run_b.telemetry),
            "{tag}: RNG streams"
        );
        assert_eq!(replay, replay_b, "{tag}: replay bytes");
        assert_eq!(weights, weights_b, "{tag}: weights");
    }
}

/// K = 8 training is a pure function of the seed: two runs agree bitwise
/// on the whole curve, counters, and weights; a different seed diverges.
#[test]
fn k8_training_is_seeded_deterministic() {
    let cfg = base_config(Task::PredatorPrey, 4242).with_num_envs(8).with_episodes(32);
    let mut a = Trainer::new(cfg).unwrap();
    let mut b = Trainer::new(cfg).unwrap();
    let ra = a.train().unwrap();
    let rb = b.train().unwrap();
    assert_eq!(reward_bits(ra.curve.values()), reward_bits(rb.curve.values()));
    assert_eq!(ra.env_steps, rb.env_steps);
    assert_eq!(ra.update_iterations, rb.update_iterations);
    assert!(ra.update_iterations > 0, "the run must exercise the update path");
    assert_eq!(weights_json(&a), weights_json(&b));

    let mut c = Trainer::new(cfg.with_seed(4243)).unwrap();
    let rc = c.train().unwrap();
    assert_ne!(
        reward_bits(ra.curve.values()),
        reward_bits(rc.curve.values()),
        "different seeds must produce different rollouts"
    );
}

/// The resume-equivalence property at K = 8 through the on-disk format:
/// train straight vs. halfway → checkpoint file → fresh trainer →
/// restore → rest. All per-world RNG streams (noise + env) must survive
/// the round trip for the curves and weights to match bitwise.
#[test]
fn k8_resume_from_file_is_bitwise_identical() {
    let cfg = base_config(Task::PredatorPrey, 77).with_num_envs(8).with_episodes(32);
    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    let mut first = Trainer::new(cfg.with_episodes(16)).unwrap();
    first.train().unwrap();
    let (ckpt, replay) = first.checkpoint_full().unwrap();
    let run = ckpt.run.as_ref().unwrap();
    assert_eq!(run.vec_env_rngs.len(), 7, "worlds 1..8 persist beside env_rng");
    assert_eq!(run.rollout_rngs.len(), 8, "one noise stream per world");
    let path = tmp_path("resume_k8.bin");
    write_checkpoint_file(&path, &ckpt, &replay).unwrap();

    let (ckpt, replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(!from_prev);
    let mut resumed = Trainer::new(cfg).unwrap();
    resumed.restore_full(ckpt, &replay).unwrap();
    assert_eq!(resumed.episodes_done(), 16);
    let rest = resumed.train().unwrap();

    assert_eq!(reward_bits(rest.curve.values()), reward_bits(full.curve.values()), "rewards");
    assert_eq!(rest.env_steps, full.env_steps);
    assert_eq!(rest.update_iterations, full.update_iterations);
    assert_eq!(weights_json(&resumed), weights_json(&straight), "weights");
}

/// Forward compatibility: a checkpoint written before the per-world
/// fields existed (no `rollout_rngs`/`vec_env_rngs` keys in the JSON)
/// still deserializes, restores, and resumes bitwise at K = 1.
#[test]
fn pre_vectorization_checkpoints_still_restore_and_resume() {
    let cfg = base_config(Task::PredatorPrey, 55);
    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    let mut first = Trainer::new(cfg.with_episodes(3)).unwrap();
    first.train().unwrap();
    let (ckpt, replay) = first.checkpoint_full().unwrap();

    // Re-encode the checkpoint JSON with the per-world fields stripped,
    // exactly as an older binary would have written it. Both are empty
    // at K = 1, so the compact encoding is fixed.
    let json = serde_json::to_string(&ckpt).unwrap();
    let stripped = json.replace(",\"rollout_rngs\":[],\"vec_env_rngs\":[]", "");
    assert_ne!(stripped, json, "the vectorized fields must have been present");
    let aged: marl_repro::algo::checkpoint::Checkpoint = serde_json::from_str(&stripped).unwrap();

    let mut resumed = Trainer::new(cfg).unwrap();
    resumed.restore_full(aged, &replay).unwrap();
    let rest = resumed.train().unwrap();
    assert_eq!(reward_bits(rest.curve.values()), reward_bits(full.curve.values()));
    assert_eq!(weights_json(&resumed), weights_json(&straight));
}

/// The curve counts completed environment episodes: one entry per world
/// per vectorized episode, and env-steps scale with K.
#[test]
fn k4_curve_records_one_entry_per_world() {
    let cfg = base_config(Task::PredatorPrey, 11).with_num_envs(4).with_episodes(8);
    let mut t = Trainer::new(cfg).unwrap();
    let report = t.train().unwrap();
    assert_eq!(report.curve.len(), 8, "2 vectorized episodes x 4 worlds");
    assert_eq!(
        report.env_steps,
        2 * 4 * cfg.max_episode_len as u64,
        "env steps count every world's transition"
    );
}
