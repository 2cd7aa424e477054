//! # marl-env
//!
//! A Rust port of the OpenAI multi-agent particle environments used by the
//! MARL systems paper: the 2-D soft-contact physics core plus the MPE
//! scenario suite —
//!
//! * **predator-prey** (`simple_tag`, competitive): N cooperating predators
//!   chase M faster, environment-controlled prey;
//! * **cooperative navigation** (`simple_spread`, cooperative): N agents
//!   cover N landmarks while avoiding collisions;
//! * **physical deception** (`simple_adversary`): good agents hide the
//!   goal landmark from an adversary;
//! * **keep-away** (`simple_push`): adversaries shove good agents off the
//!   goal;
//! * **cooperative reference** (`simple_reference`): each agent's goal is
//!   known only to its partner, so agents must *speak* — actions are
//!   movement ⊕ a discrete utterance broadcast into teammates' next
//!   observations;
//! * **world-comm** (`simple_world_comm`): predator-prey with a
//!   broadcasting leader (heterogeneous per-agent action spaces).
//!
//! Observation dimensions match the paper's tables (e.g. `Box(16,)` per
//! predator at N = 3, `Box(98,)` at N = 24, `6N` for cooperative
//! navigation). Scenarios register factories in [`registry`]; consumers
//! resolve them by name ([`ScenarioId::from_name`]) instead of matching a
//! hard-coded enum.
//!
//! ## Quickstart
//!
//! ```
//! use marl_env::env::ParticleEnv;
//! use marl_env::scenarios::simple_tag::{PredatorPrey, PredatorPreyConfig};
//!
//! let scenario = PredatorPrey::new(PredatorPreyConfig::scaled(3));
//! let mut env = ParticleEnv::new(Box::new(scenario), 25, 0);
//! let mut obs = env.reset();
//! while let Ok(step) = env.step(&vec![0; env.trained_agents()]) {
//!     obs = step.observations;
//!     if step.done { break; }
//! }
//! assert_eq!(obs.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod entity;
pub mod env;
pub mod error;
pub mod registry;
pub mod render;
pub mod scenario;
pub mod scenarios;
pub mod soa;
pub mod spaces;
pub mod vec2;
pub mod vecenv;
pub mod world;

pub use entity::DiscreteAction;
pub use env::{ParticleEnv, StepResult};
pub use error::EnvError;
pub use registry::{register_scenario, ScenarioId};
pub use scenario::Scenario;
pub use soa::SoaBatch;
pub use spaces::ActionSpace;
pub use vecenv::VecParticleEnv;
pub use world::World;

/// Convenience constructor for the paper's predator-prey configuration at
/// `n` trained agents.
pub fn predator_prey(n: usize, max_episode_len: usize, seed: u64) -> ParticleEnv {
    use scenarios::simple_tag::{PredatorPrey, PredatorPreyConfig};
    ParticleEnv::new(
        Box::new(PredatorPrey::new(PredatorPreyConfig::scaled(n))),
        max_episode_len,
        seed,
    )
}

/// Convenience constructor for the paper's cooperative-navigation
/// configuration at `n` trained agents.
pub fn cooperative_navigation(n: usize, max_episode_len: usize, seed: u64) -> ParticleEnv {
    use scenarios::simple_spread::{CooperativeNavigation, CooperativeNavigationConfig};
    ParticleEnv::new(
        Box::new(CooperativeNavigation::new(CooperativeNavigationConfig::scaled(n))),
        max_episode_len,
        seed,
    )
}

/// Convenience constructor for the physical-deception extension scenario
/// (`simple_adversary`) at `n` trained agents.
pub fn physical_deception(n: usize, max_episode_len: usize, seed: u64) -> ParticleEnv {
    use scenarios::simple_adversary::{PhysicalDeception, PhysicalDeceptionConfig};
    ParticleEnv::new(
        Box::new(PhysicalDeception::new(PhysicalDeceptionConfig::scaled(n))),
        max_episode_len,
        seed,
    )
}

/// Convenience constructor for the keep-away scenario (`simple_push`) at
/// `n` trained agents.
pub fn keep_away(n: usize, max_episode_len: usize, seed: u64) -> ParticleEnv {
    ScenarioId::KeepAway.make_env(n, max_episode_len, seed)
}

/// Convenience constructor for the cooperative-reference scenario
/// (`simple_reference`) at `n` trained agents.
pub fn cooperative_reference(n: usize, max_episode_len: usize, seed: u64) -> ParticleEnv {
    ScenarioId::CooperativeReference.make_env(n, max_episode_len, seed)
}

/// Convenience constructor for the world-comm scenario
/// (`simple_world_comm`) at `n` trained agents.
pub fn world_comm(n: usize, max_episode_len: usize, seed: u64) -> ParticleEnv {
    ScenarioId::WorldComm.make_env(n, max_episode_len, seed)
}
