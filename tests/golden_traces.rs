//! Golden-trace regression suite (conformance pillar 1).
//!
//! Replays one fixed small configuration per algorithm × sampler ×
//! layout combination with an attached `UpdateTraceRecorder` and diffs
//! the recorded digest chain against the committed
//! `results/golden/*.trace` file. A mismatch names the first divergent
//! update step and digest field.
//!
//! Regenerate after an *intended* numeric change with
//! `MARL_BLESS=1 cargo test -q golden` (and record it in CHANGELOG.md —
//! CI enforces that pairing).

use marl_conform::golden;
use marl_repro::algo::{Algorithm, LayoutMode};
use marl_repro::core::SamplerConfig;

mod common;

const ALGORITHMS: [(Algorithm, &str); 2] =
    [(Algorithm::Maddpg, "maddpg"), (Algorithm::Matd3, "matd3")];
const SAMPLERS: [(SamplerConfig, &str); 4] = [
    (SamplerConfig::Uniform, "uniform"),
    (SamplerConfig::Per, "per"),
    (SamplerConfig::LocalityN16R64, "locality"),
    (SamplerConfig::IpLocality, "ip"),
];
const LAYOUTS: [(LayoutMode, &str); 2] =
    [(LayoutMode::PerAgent, "per_agent"), (LayoutMode::Interleaved, "interleaved")];

/// All 16 committed combinations, replayed and diffed (or re-blessed
/// under `MARL_BLESS=1`). One test so a bless run regenerates the whole
/// set atomically; failures accumulate so one report lists every
/// diverged combination.
#[test]
fn golden_traces_match_committed_digests() {
    let mut failures = Vec::new();
    for (algorithm, algo_tag) in ALGORITHMS {
        for (sampler, sampler_tag) in SAMPLERS {
            for (layout, layout_tag) in LAYOUTS {
                let name = format!("{algo_tag}_{sampler_tag}_{layout_tag}");
                let cfg = common::golden_config(algorithm, sampler, layout);
                let digests = golden::record_run(cfg).expect("training failed");
                assert!(!digests.is_empty(), "{name}: run recorded no updates");
                if let Err(report) =
                    golden::check_or_bless(&name, &golden::describe_config(&cfg), &digests)
                {
                    failures.push(report);
                }
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The vectorized-rollout golden: the 17th committed trace pins the
/// K = 8 engine (SoA physics, batched inference, per-world RNG streams)
/// on the scalar kernel, so any numeric drift in the multi-world path is
/// caught even though the 16 scalar-rollout goldens never exercise it.
/// Episodes = 8 with K = 8 means exactly one vectorized episode: 25
/// steps x 8 worlds x 3 agents = 600 samples past warmup 64 with
/// update_every 10 ⇒ a healthy digest chain.
#[test]
fn vectorized_k8_golden_trace_matches_committed_digest() {
    let cfg =
        common::golden_config(Algorithm::Maddpg, SamplerConfig::Uniform, LayoutMode::PerAgent)
            .with_num_envs(8)
            .with_episodes(8);
    let digests = golden::record_run(cfg).expect("training failed");
    assert!(!digests.is_empty(), "k8 run recorded no updates");
    if let Err(report) = golden::check_or_bless(
        "maddpg_uniform_per_agent_k8",
        &golden::describe_config(&cfg),
        &digests,
    ) {
        panic!("{report}");
    }
}

/// One golden per scenario × algorithm for the rest of the registered
/// MPE suite (the 16-combo matrix above already covers predator-prey and
/// the sampler/layout axes on it; cooperative-navigation is pinned by
/// the end-to-end suites). Communication scenarios exercise segmented
/// Gumbel heads and — for world-comm — heterogeneous per-agent action
/// widths through the whole update pipeline, so these traces pin exactly
/// the numerics the scalar matrix cannot reach.
#[test]
fn per_scenario_golden_traces_match_committed_digests() {
    use marl_repro::algo::Task;
    const SCENARIOS: [(Task, &str); 4] = [
        (Task::PhysicalDeception, "physical_deception"),
        (Task::KeepAway, "keep_away"),
        (Task::CooperativeReference, "cooperative_reference"),
        (Task::WorldComm, "world_comm"),
    ];
    let mut failures = Vec::new();
    for (task, tag) in SCENARIOS {
        for (algorithm, algo_tag) in ALGORITHMS {
            let name = format!("{algo_tag}_{tag}");
            let cfg = common::scenario_golden_config(algorithm, task);
            let digests = golden::record_run(cfg).expect("training failed");
            assert!(!digests.is_empty(), "{name}: run recorded no updates");
            if let Err(report) =
                golden::check_or_bless(&name, &golden::describe_config(&cfg), &digests)
            {
                failures.push(report);
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The vectorized comm golden: K = 8 worlds of cooperative-reference,
/// whose actions are movement ⊕ a 10-way utterance. This pins the SoA
/// comm gather/scatter lanes, the batched segmented exploration path,
/// and the per-world RNG streams together in one committed digest chain.
#[test]
fn vectorized_k8_comm_golden_trace_matches_committed_digest() {
    use marl_repro::algo::Task;
    let cfg = common::scenario_golden_config(Algorithm::Maddpg, Task::CooperativeReference)
        .with_num_envs(8)
        .with_episodes(8);
    let digests = golden::record_run(cfg).expect("training failed");
    assert!(!digests.is_empty(), "comm k8 run recorded no updates");
    if let Err(report) = golden::check_or_bless(
        "maddpg_cooperative_reference_k8",
        &golden::describe_config(&cfg),
        &digests,
    ) {
        panic!("{report}");
    }
}

/// The ε-greedy golden: the K = 1 predator-prey shape under an annealed
/// exploration schedule (ε starts at 0.1, temperature at 1.0), so the
/// random-action branch of the rollout — its extra master-RNG draws and
/// the multi-hot overwrite — is pinned by a committed digest chain. No
/// other golden runs with a nonzero ε.
#[test]
fn annealed_exploration_golden_trace_matches_committed_digest() {
    let mut cfg =
        common::golden_config(Algorithm::Maddpg, SamplerConfig::Uniform, LayoutMode::PerAgent);
    cfg.exploration = marl_repro::algo::ExplorationSchedule::annealed(500);
    let digests = golden::record_run(cfg).expect("training failed");
    assert!(!digests.is_empty(), "annealed run recorded no updates");
    if let Err(report) = golden::check_or_bless(
        "maddpg_uniform_per_agent_annealed",
        &golden::describe_config(&cfg),
        &digests,
    ) {
        panic!("{report}");
    }
}

/// Recording twice under one configuration yields identical digest
/// chains — the trace is a pure function of the config, so the committed
/// goldens can only fail when behaviour actually changes.
#[test]
fn recording_is_deterministic() {
    let cfg =
        common::golden_config(Algorithm::Matd3, SamplerConfig::IpLocality, LayoutMode::Interleaved);
    let a = golden::record_run(cfg).unwrap();
    let b = golden::record_run(cfg).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// Perturbing a hyper-parameter is *pinpointed*: γ enters through the
/// target-Q computation, so the first divergence is at update step 0 in
/// the `losses` field — while the drawn indices, run lengths, and IS
/// weights of that update still match (sampling state cannot depend on
/// γ before the first priority feedback).
#[test]
fn perturbed_gamma_is_named_step_and_field() {
    let cfg = common::golden_config(Algorithm::Maddpg, SamplerConfig::Per, LayoutMode::PerAgent);
    let base = golden::record_run(cfg).unwrap();
    let mut bumped = cfg;
    bumped.gamma = 0.9;
    let alt = golden::record_run(bumped).unwrap();
    let d = golden::first_divergence(&base, &alt).expect("gamma must change the trace");
    let golden::Divergence::Field { step, field, expected, actual } = d else {
        panic!("expected a field divergence, got {d:?}");
    };
    assert_eq!(step, 0, "gamma bites at the very first update");
    assert_eq!(field, "losses", "the critic loss is the first digest field gamma touches");
    assert_ne!(expected, actual);
    // The report a failing golden run prints carries both coordinates.
    let msg = d.to_string();
    assert!(msg.contains("update step 0") && msg.contains("`losses`"), "{msg}");
}

/// Perturbing the seed diverges immediately too — at the drawn indices,
/// the first field of the digest, since the sampling RNG stream itself
/// changed.
#[test]
fn perturbed_seed_diverges_at_the_first_update() {
    let cfg =
        common::golden_config(Algorithm::Maddpg, SamplerConfig::Uniform, LayoutMode::PerAgent);
    let base = golden::record_run(cfg).unwrap();
    let alt = golden::record_run(cfg.with_seed(4243)).unwrap();
    let d = golden::first_divergence(&base, &alt).expect("seed must change the trace");
    let golden::Divergence::Field { step, field, .. } = d else {
        panic!("expected a field divergence, got {d:?}");
    };
    assert_eq!(step, 0);
    assert_eq!(field, "indices");
}
