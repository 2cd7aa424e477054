//! Proves the zero-allocation claim of the update pipeline: once the
//! persistent scratch arena is warmed up, `update_all_trainers` performs
//! no heap allocations on the serial path.
//!
//! A counting wrapper around the system allocator is armed only around
//! the measured updates, so test-harness and warm-up allocations are not
//! counted. The parallel paths (`update_threads > 1`,
//! `sampling_threads > 1`) spawn scoped threads and are exempt by
//! design; this test pins both to 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counters are process-wide, so a test that arms them while another
/// test thread is still warming up would count that thread's heap
/// traffic. Each measurement holds this lock from set-up to assertion.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs warmed-up steady-state updates with the allocator armed and
/// asserts no heap traffic. `telemetry` optionally attaches a live
/// [`marl_repro::obs::Telemetry`] first — span recording, metric
/// atomics, and hardware-counter windows must all stay off the heap.
fn assert_zero_alloc_updates(telemetry: bool, seed: u64) {
    use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
    use marl_repro::core::SamplerConfig;

    let _serial = serial();
    let mut cfg = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_batch_size(32)
        .with_buffer_capacity(4096)
        .with_sampler(SamplerConfig::Uniform)
        .with_update_threads(1)
        .with_seed(seed);
    cfg.sampling_threads = 1;
    let mut t = Trainer::new(cfg).unwrap();
    if telemetry {
        // No sinks: sinks flush only at episode boundaries, which this
        // test never crosses, but the recording hot path is identical.
        let cfg = marl_repro::obs::TelemetryConfig {
            hw_counters: true, // null fallback when perf_event is denied
            ..marl_repro::obs::TelemetryConfig::default()
        };
        let tel = std::sync::Arc::new(marl_repro::obs::Telemetry::new(&cfg).unwrap());
        t.attach_telemetry(tel);
    }
    t.prefill(256).unwrap();

    // Warm-up updates size every scratch buffer and resolve one-time lazy
    // state (Adam moment matrices, the MARL_KERNEL env read, MLP
    // activation caches).
    for _ in 0..3 {
        t.update_all_trainers().unwrap();
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        t.update_all_trainers().unwrap();
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        (ALLOCS.load(Ordering::SeqCst), REALLOCS.load(Ordering::SeqCst)),
        (0, 0),
        "steady-state update_all_trainers must not touch the heap (telemetry: {telemetry})"
    );
    assert_eq!(t.update_iterations(), 8);
}

/// The rollout counterpart: once the first episodes have sized the
/// engine's buffers (obs/one-hot matrices, per-world buffers) and the
/// replay ring has wrapped once, whole episodes — batched inference,
/// SoA physics steps, replay pushes, and the scheduled updates they
/// trigger — run without heap traffic, at one world as at K.
fn assert_zero_alloc_vec_rollout(telemetry: bool, seed: u64, num_envs: usize) {
    use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
    use marl_repro::core::SamplerConfig;

    let _serial = serial();
    let mut cfg = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_batch_size(32)
        .with_buffer_capacity(4096)
        .with_sampler(SamplerConfig::Uniform)
        .with_update_threads(1)
        .with_num_envs(num_envs)
        .with_seed(seed);
    cfg.sampling_threads = 1;
    cfg.warmup = 64;
    let mut t = Trainer::new(cfg).unwrap();
    if telemetry {
        let cfg = marl_repro::obs::TelemetryConfig {
            hw_counters: true, // null fallback when perf_event is denied
            ..marl_repro::obs::TelemetryConfig::default()
        };
        let tel = std::sync::Arc::new(marl_repro::obs::Telemetry::new(&cfg).unwrap());
        t.attach_telemetry(tel);
    }

    // Warm-up episodes: size the engine's buffers, pass warmup so the
    // update path runs, and wrap the replay ring (num_envs x 25 joint
    // rows per episode; enough episodes to push past 4096 rows).
    let rows_per_episode = num_envs * cfg.max_episode_len;
    for _ in 0..cfg.buffer_capacity / rows_per_episode + 2 {
        t.run_episode().unwrap();
    }
    assert!(t.update_iterations() > 0, "warm-up must reach the update path");

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..2 {
        t.run_episode().unwrap();
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        (ALLOCS.load(Ordering::SeqCst), REALLOCS.load(Ordering::SeqCst)),
        (0, 0),
        "steady-state rollout must not touch the heap (K={num_envs}, telemetry: {telemetry})"
    );
}

#[test]
fn steady_state_update_allocates_nothing() {
    assert_zero_alloc_updates(false, 7);
}

#[test]
fn steady_state_update_allocates_nothing_with_telemetry() {
    assert_zero_alloc_updates(true, 7);
}

#[test]
fn steady_state_vec_rollout_allocates_nothing() {
    for num_envs in [1, 4] {
        assert_zero_alloc_vec_rollout(false, 9, num_envs);
    }
}

#[test]
fn steady_state_vec_rollout_allocates_nothing_with_telemetry() {
    for num_envs in [1, 4] {
        assert_zero_alloc_vec_rollout(true, 9, num_envs);
    }
}
