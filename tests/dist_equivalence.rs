//! Distributed lockstep ⇔ single-process bitwise equivalence.
//!
//! The acceptance anchor of the distributed runtime: one rollout worker
//! over the deterministic in-process loopback, serving a learner in
//! lockstep mode, must reproduce the single-process trainer's update
//! digest chain **bitwise** — same drawn indices, same losses, same
//! parameter hashes, same chain checksum, for both algorithms.
//!
//! The worker replicates `run_episode`'s draw order against its own
//! copy of the nets and hands its master-RNG state to the learner at
//! every update boundary; any drift in that replication (an extra RNG
//! draw, a misordered exploration branch, a replay-mirror off-by-one)
//! shows up here as the first divergent digest field.

use marl_repro::algo::trace::UpdateTraceRecorder;
use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_repro::core::SamplerConfig;
use marl_repro::dist::{
    loopback_pair, run_worker, Backoff, DistError, Learner, LearnerOptions, StreamTransport,
    Transport, Worker,
};
use marl_repro::nn::kernels::KernelChoice;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::Duration;

mod common;

/// The golden-seed configuration both sides run: scalar kernel (machine
/// independent), warmup 64, updates every 10 samples.
fn dist_config(algorithm: Algorithm) -> TrainConfig {
    let mut c = common::seeded_config(
        algorithm,
        Task::PredatorPrey,
        3,
        SamplerConfig::Uniform,
        4,
        32,
        1024,
        4242,
    )
    .with_kernel(KernelChoice::Scalar);
    c.update_every = 10;
    c
}

/// Runs the single-process trainer and returns its digest chain.
fn single_process_digests(cfg: TrainConfig) -> Vec<marl_repro::algo::trace::UpdateDigest> {
    let mut trainer = Trainer::new(cfg).expect("trainer builds");
    trainer.attach_trace_recorder(UpdateTraceRecorder::new());
    trainer.train().expect("single-process run trains");
    trainer.detach_trace_recorder().expect("recorder attached").into_digests()
}

/// Runs the same configuration as a lockstep dist pair (learner thread =
/// this thread, worker on a spawned thread, loopback transport) and
/// returns the learner's digest chain.
fn dist_lockstep_digests(cfg: TrainConfig) -> Vec<marl_repro::algo::trace::UpdateDigest> {
    let mut learner = Learner::new(cfg, LearnerOptions::default()).expect("learner builds");
    learner.trainer_mut().attach_trace_recorder(UpdateTraceRecorder::new());
    let (mut learner_end, worker_end) = loopback_pair(1024, Duration::from_secs(10));
    let worker = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(10), 0);
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
    learner.serve_lockstep(&mut learner_end).expect("lockstep serve completes");
    worker.join().expect("worker thread").expect("worker run completes");
    learner.into_trainer().detach_trace_recorder().expect("recorder attached").into_digests()
}

/// MADDPG: the dist lockstep digest chain equals the single-process one
/// bitwise.
#[test]
fn maddpg_lockstep_loopback_is_bitwise_identical() {
    let cfg = dist_config(Algorithm::Maddpg);
    let single = single_process_digests(cfg);
    let dist = dist_lockstep_digests(cfg);
    assert!(!single.is_empty(), "run must record updates");
    assert_eq!(single.len(), dist.len(), "update counts differ");
    for (i, (s, d)) in single.iter().zip(&dist).enumerate() {
        assert_eq!(s, d, "first divergence at update {i}");
    }
}

/// MATD3 (twin critics, delayed policy): same bitwise equivalence.
#[test]
fn matd3_lockstep_loopback_is_bitwise_identical() {
    let cfg = dist_config(Algorithm::Matd3);
    let single = single_process_digests(cfg);
    let dist = dist_lockstep_digests(cfg);
    assert!(!single.is_empty(), "run must record updates");
    assert_eq!(single, dist);
}

/// The equivalence also holds at a different seed and episode budget —
/// it is structural, not a coincidence of the golden seed.
#[test]
fn lockstep_equivalence_holds_off_the_golden_seed() {
    let mut cfg = dist_config(Algorithm::Maddpg).with_seed(99).with_episodes(6);
    cfg.update_every = 25;
    let single = single_process_digests(cfg);
    let dist = dist_lockstep_digests(cfg);
    assert!(!single.is_empty());
    assert_eq!(single, dist);
}

/// Running the dist pair twice yields identical chains: the loopback
/// path itself is deterministic.
#[test]
fn dist_lockstep_is_deterministic() {
    let cfg = dist_config(Algorithm::Maddpg);
    let a = dist_lockstep_digests(cfg);
    let b = dist_lockstep_digests(cfg);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// The learner's curve records the same episode count the single-process
/// trainer would, and the final parameters equal the single-process ones
/// (the digest chain already pins them via parameter hashes; this checks
/// the exported agent states as a user would consume them).
#[test]
fn lockstep_final_parameters_match_single_process() {
    let cfg = dist_config(Algorithm::Maddpg);
    let mut trainer = Trainer::new(cfg).expect("trainer builds");
    trainer.train().expect("trains");
    let single_states = serde_json::to_string(&trainer.agent_states()).unwrap();

    let mut learner = Learner::new(cfg, LearnerOptions::default()).expect("learner builds");
    let (mut learner_end, worker_end) = loopback_pair(1024, Duration::from_secs(10));
    let worker = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(10), 0);
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
    learner.serve_lockstep(&mut learner_end).expect("serves");
    worker.join().unwrap().expect("worker completes");
    assert_eq!(learner.episodes_recorded(), cfg.episodes);
    let dist_states = serde_json::to_string(&learner.trainer().agent_states()).unwrap();
    assert_eq!(single_states, dist_states, "final parameters diverged");
}

/// Lockstep over a real Unix socket pair, with a heartbeat every env
/// step and a long warmup (no update, hence no blocking `Params` wait,
/// for 1500 steps): the learner's acks would overflow the socket buffer
/// unless the worker drains them with its zero-timeout poll at every
/// episode end, and both ends would then block in `send` forever. The
/// run must complete and stay bitwise-equal to the in-process trainer.
#[test]
fn socket_lockstep_drains_heartbeat_acks_and_stays_bitwise_identical() {
    let mut cfg = dist_config(Algorithm::Maddpg).with_episodes(72).with_buffer_capacity(2048);
    cfg.warmup = 1500;
    cfg.update_every = 50;
    let single = single_process_digests(cfg);

    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let worker = std::thread::spawn(move || {
            let mut t = StreamTransport::unix(b);
            let mut w = Worker::handshake(&mut t, 0, false)?.with_heartbeat_every(1);
            w.run(&mut t)
        });
        let mut learner = Learner::new(cfg, LearnerOptions::default()).expect("learner builds");
        learner.trainer_mut().attach_trace_recorder(UpdateTraceRecorder::new());
        let served = learner.serve_lockstep(&mut StreamTransport::unix(a));
        let worked = worker.join().expect("worker thread");
        let _ = done_tx.send(());
        (served, worked, learner.into_trainer().detach_trace_recorder())
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(120)) {
        panic!("socket lockstep deadlocked");
    }
    let (served, worked, recorder) = runner.join().expect("runner thread");
    served.expect("lockstep serve completes");
    worked.expect("worker run completes");
    let dist = recorder.expect("recorder attached").into_digests();
    assert!(!single.is_empty(), "the run must reach its updates");
    assert_eq!(single, dist);
}
