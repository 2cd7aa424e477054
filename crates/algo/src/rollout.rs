//! The rollout engine: the one step loop that every rollout caller drives.
//!
//! A [`Rollout`] owns a K-world [`VecParticleEnv`], the per-world
//! exploration-noise streams and every per-step buffer. It exposes the
//! stages of one step — action selection, the batched environment step,
//! the transition rows, the end-of-step bookkeeping — as separate calls,
//! so each caller times and consumes them in its own way:
//!
//! * [`Trainer::run_episode`] explores, steps, pushes K joint rows into
//!   replay and runs the scheduled updates;
//! * [`Trainer::evaluate`] steps greedy actions and sums the rewards;
//! * [`Trainer::prefill`] steps uniform random actions into replay;
//! * the `marl-dist` rollout worker explores one world with the actors
//!   from its admission message and ships the rows over the wire.
//!
//! Action selection takes the actors as `&Mlp`, so a caller that holds
//! only actors (no critics, targets or optimizer state) drives the same
//! engine as the trainer.
//!
//! ## Random streams
//!
//! World 0's environment stream is seeded from the config seed (the
//! checkpoint's `env_rng` slot); world `w > 0` uses stream 4, sub-stream
//! `w` (see [`marl_env::vecenv`]). At K = 1 no noise stream is forked:
//! exploration draws come from the caller's master RNG, agent by agent —
//! the Gumbel draws of the agent's head, then its ε draws. At K > 1,
//! world `w` explores from stream 3 of the config seed, sub-stream `w`,
//! disjoint from the master (1), update (2) and extra-world env (4)
//! streams.
//!
//! Once the buffers are warm, a whole step allocates nothing
//! (test-enforced at K = 1 and K = 4).
//!
//! [`Trainer::run_episode`]: crate::trainer::Trainer::run_episode
//! [`Trainer::evaluate`]: crate::trainer::Trainer::evaluate
//! [`Trainer::prefill`]: crate::trainer::Trainer::prefill

use crate::config::TrainConfig;
use marl_core::transition::TransitionRef;
use marl_env::error::EnvError;
use marl_env::spaces::ActionSpace;
use marl_env::vecenv::VecParticleEnv;
use marl_nn::gumbel::{argmax_slice, softmax_segments_inplace};
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use marl_nn::rng::{derive_seed, standard_gumbel};
use marl_nn::scratch::Scratch;
use marl_obs::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// K environment worlds stepped in lockstep, with batched per-agent
/// action selection and reusable per-step buffers.
#[derive(Debug)]
pub struct Rollout {
    env: VecParticleEnv,
    /// Per-world exploration-noise streams; empty at K = 1, where the
    /// caller's master RNG supplies the noise.
    noise: Vec<StdRng>,
    /// Per-agent current observations: matrix `a` is K×obs_dim(a), row w =
    /// agent `a`'s observation in world `w` (the inference batch).
    obs_cur: Vec<Matrix>,
    /// Per-agent next observations (swapped with `obs_cur` every step).
    obs_next: Vec<Matrix>,
    /// Per-agent multi-hot actions, K×flat_dim(a) (widths differ under
    /// heterogeneous action spaces).
    onehot: Vec<Matrix>,
    /// Actor logits of the current agent's inference batch.
    logits: Matrix,
    /// MLP forward temporaries.
    nn: Scratch,
    /// Current agent's per-world action indices (length K).
    agent_idx: Vec<usize>,
    /// Joint action indices, world-major `[w * n + a]` (length K·n).
    action_idx: Vec<usize>,
    /// Per-step rewards, world-major (length K·n).
    rewards: Vec<f32>,
    /// Per-world cumulative episode rewards, world-major (length K·n).
    episode_reward: Vec<f32>,
    /// Per-world mean-over-agents returns of the last finished episode.
    world_returns: Vec<f32>,
}

impl Rollout {
    /// Builds `worlds` worlds of `config`'s scenario, and at `worlds > 1`
    /// one noise stream per world.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is zero.
    pub fn new(config: &TrainConfig, worlds: usize) -> Self {
        let env =
            config.task.make_vec_env(config.agents, config.max_episode_len, config.seed, worlds);
        let noise = if worlds > 1 {
            let stream = derive_seed(config.seed, 3);
            (0..worlds).map(|w| StdRng::seed_from_u64(derive_seed(stream, w as u64))).collect()
        } else {
            Vec::new()
        };
        let n = env.trained_agents();
        let obs: Vec<Matrix> =
            env.observation_spaces().iter().map(|s| Matrix::zeros(worlds, s.dim)).collect();
        let onehot =
            env.action_spaces().iter().map(|s| Matrix::zeros(worlds, s.flat_dim())).collect();
        Rollout {
            env,
            noise,
            obs_next: obs.clone(),
            obs_cur: obs,
            onehot,
            logits: Matrix::default(),
            nn: Scratch::new(),
            agent_idx: vec![0; worlds],
            action_idx: vec![0; worlds * n],
            rewards: vec![0.0; worlds * n],
            episode_reward: vec![0.0; worlds * n],
            world_returns: vec![0.0; worlds],
        }
    }

    /// Number of worlds stepped per call (K).
    pub fn worlds(&self) -> usize {
        self.env.world_count()
    }

    /// The batched environment (spaces, per-world state).
    pub fn env(&self) -> &VecParticleEnv {
        &self.env
    }

    /// Noise-stream states in world order (empty at K = 1).
    pub fn noise_states(&self) -> Vec<[u64; 4]> {
        self.noise.iter().map(StdRng::state).collect()
    }

    /// Installs checkpointed streams: world 0's environment stream from
    /// `world0`; worlds 1..K from `others` when it holds exactly K − 1
    /// states (a checkpoint written at another K leaves them fresh); and
    /// as many noise streams as `noise` carries, in world order.
    pub fn restore_streams(&mut self, world0: [u64; 4], others: &[[u64; 4]], noise: &[[u64; 4]]) {
        let mut states = self.env.rng_states();
        states[0] = world0;
        if others.len() + 1 == states.len() {
            states[1..].copy_from_slice(others);
        }
        self.env.set_rng_states(&states);
        for (r, &s) in self.noise.iter_mut().zip(noise) {
            *r = StdRng::from_state(s);
        }
    }

    /// Starts a new episode in every world and observes it.
    pub fn reset(&mut self) {
        self.env.reset();
        observe(&self.env, &mut self.obs_cur);
        self.episode_reward.fill(0.0);
    }

    /// Exploration actions for every agent in every world: one inference
    /// batch per agent over its K observations, Gumbel noise on every
    /// logit, per-factor softmax and arg-max, then with probability
    /// `epsilon` a uniformly random joint action. `actors` yields one
    /// actor per agent, in agent order. At K = 1 the noise comes from
    /// `master`; at K > 1 from the engine's per-world streams.
    pub fn explore<'a>(
        &mut self,
        actors: impl IntoIterator<Item = &'a Mlp>,
        temperature: f32,
        epsilon: f32,
        master: &mut StdRng,
    ) {
        let rngs: &mut [StdRng] =
            if self.noise.is_empty() { std::slice::from_mut(master) } else { &mut self.noise };
        let n = self.env.trained_agents();
        for (a, actor) in actors.into_iter().enumerate() {
            explore_rows(
                actor,
                &self.obs_cur[a],
                &self.env.action_spaces()[a],
                temperature,
                epsilon,
                rngs,
                &mut self.logits,
                &mut self.nn,
                &mut self.agent_idx,
                &mut self.onehot[a],
            );
            for (w, &idx) in self.agent_idx.iter().enumerate() {
                self.action_idx[w * n + a] = idx;
            }
        }
    }

    /// Greedy actions for every agent in every world: per-factor arg-max
    /// of the raw logits. The one-hot rows are left as they were.
    pub fn greedy<'a>(&mut self, actors: impl IntoIterator<Item = &'a Mlp>) {
        let n = self.env.trained_agents();
        for (a, actor) in actors.into_iter().enumerate() {
            greedy_rows(
                actor,
                &self.obs_cur[a],
                self.env.action_spaces()[a].segments(),
                &mut self.logits,
                &mut self.nn,
                &mut self.agent_idx,
            );
            for (w, &idx) in self.agent_idx.iter().enumerate() {
                self.action_idx[w * n + a] = idx;
            }
        }
    }

    /// Uniformly random joint actions drawn from `master`, world-major
    /// and agent by agent within a world.
    pub fn uniform(&mut self, master: &mut StdRng) {
        let n = self.env.trained_agents();
        for w in 0..self.worlds() {
            for (a, space) in self.env.action_spaces().iter().enumerate() {
                let idx = master.gen_range(0..space.joint_count());
                self.action_idx[w * n + a] = idx;
                space.multi_hot(idx, self.onehot[a].row_mut(w));
            }
        }
    }

    /// Applies the selected actions in every world (one batched physics
    /// step) and observes the next state. Returns whether the shared
    /// episode horizon was reached. With `tel` attached, the step is
    /// recorded as a `vec-env-step` span plus the `vecenv_*` histograms.
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn step(&mut self, tel: Option<&Telemetry>) -> Result<bool, EnvError> {
        let span_start = tel.map(|t| t.tracer.now_ns());
        let done = self.env.step(&self.action_idx, &mut self.rewards)?;
        if let (Some(t), Some(start)) = (tel, span_start) {
            let k = self.worlds() as u64;
            let end = t.tracer.now_ns();
            t.tracer.record("vec-env-step", 0, start, end);
            let dt = end.saturating_sub(start);
            t.metrics.vecenv_step_ns.record(dt);
            t.metrics.vecenv_batch_fill.record(k);
            if dt > 0 {
                t.metrics.vecenv_steps_per_sec.record_scaled(k as f64 / dt as f64, 1e9);
            }
        }
        observe(&self.env, &mut self.obs_next);
        Ok(done)
    }

    /// The last step's rewards, world-major (`[w * n + a]`).
    pub fn rewards(&self) -> &[f32] {
        &self.rewards
    }

    /// Agent `a`'s transition in world `w` for the last step, borrowed
    /// from the engine's buffers.
    pub fn transition(&self, w: usize, a: usize, done: bool) -> TransitionRef<'_> {
        TransitionRef {
            obs: self.obs_cur[a].row(w),
            action: self.onehot[a].row(w),
            reward: self.rewards[w * self.env.trained_agents() + a],
            next_obs: self.obs_next[a].row(w),
            done: if done { 1.0 } else { 0.0 },
        }
    }

    /// End-of-step bookkeeping, once the step's rows are consumed: adds
    /// the rewards to the episode returns and makes the next
    /// observations current.
    pub fn advance(&mut self) {
        for (er, r) in self.episode_reward.iter_mut().zip(&self.rewards) {
            *er += r;
        }
        std::mem::swap(&mut self.obs_cur, &mut self.obs_next);
    }

    /// Closes the episode: records every world's mean-over-agents return
    /// (see [`Rollout::world_returns`]) and returns their mean.
    pub fn finish_episode(&mut self) -> f32 {
        let n = self.env.trained_agents();
        for (ret, rewards) in self.world_returns.iter_mut().zip(self.episode_reward.chunks(n)) {
            *ret = rewards.iter().sum::<f32>() / n as f32;
        }
        self.world_returns.iter().sum::<f32>() / self.worlds() as f32
    }

    /// Per-world mean-over-agents returns of the last finished episode,
    /// in world order.
    pub fn world_returns(&self) -> &[f32] {
        &self.world_returns
    }
}

/// Writes every agent's observation in every world into `out` (matrix
/// `a`, row `w`).
fn observe(env: &VecParticleEnv, out: &mut [Matrix]) {
    for (a, m) in out.iter_mut().enumerate() {
        for w in 0..env.world_count() {
            env.observe_into(a, w, m.row_mut(w));
        }
    }
}

/// Per-factor first-max arg-max of one row, mixed-radix encoded (first
/// factor least significant, matching `ActionSpace::encode`).
fn argmax_factors(row: &[f32], segments: &[usize]) -> usize {
    let (mut idx, mut stride, mut off) = (0, 1, 0);
    for &s in segments {
        idx += argmax_slice(&row[off..off + s]) * stride;
        stride *= s;
        off += s;
    }
    idx
}

/// Batched exploration for one agent: one inference pass over `obs` (row
/// `w` = world `w`), Gumbel noise from `rngs[w]` on every logit, the
/// per-factor softmax and arg-max, then — with probability `epsilon`, on
/// the same stream — a uniformly random joint action. Writes world `w`'s
/// joint index into `indices[w]` and its multi-hot row into row `w` of
/// `onehot`; `logits` and `nn` are reusable working storage.
///
/// A stream's draws depend only on its own row, so row `w` of a K-row
/// batch is bitwise-identical to a 1-row batch of the same observation
/// and stream (test-enforced).
#[allow(clippy::too_many_arguments)]
fn explore_rows(
    actor: &Mlp,
    obs: &Matrix,
    space: &ActionSpace,
    temperature: f32,
    epsilon: f32,
    rngs: &mut [StdRng],
    logits: &mut Matrix,
    nn: &mut Scratch,
    indices: &mut [usize],
    onehot: &mut Matrix,
) {
    assert!(temperature > 0.0, "temperature must be positive");
    assert_eq!(rngs.len(), obs.rows(), "one RNG stream per world");
    actor.forward_inference_into(obs, logits, nn);
    for (w, rng) in rngs.iter_mut().enumerate() {
        for x in logits.row_mut(w) {
            *x = (*x + standard_gumbel(rng)) / temperature;
        }
    }
    softmax_segments_inplace(logits, space.segments());
    for (w, rng) in rngs.iter_mut().enumerate() {
        let mut idx = argmax_factors(logits.row(w), space.segments());
        if epsilon > 0.0 && rng.gen::<f32>() < epsilon {
            idx = rng.gen_range(0..space.joint_count());
        }
        indices[w] = idx;
        space.multi_hot(idx, onehot.row_mut(w));
    }
}

/// Batched greedy joint actions for one agent: one inference pass over
/// `obs`, then the per-factor arg-max of each row's raw logits into
/// `indices`. Row `r` of the logits is bitwise-identical to a 1-row
/// pass (test-enforced).
fn greedy_rows(
    actor: &Mlp,
    obs: &Matrix,
    segments: &[usize],
    logits: &mut Matrix,
    nn: &mut Scratch,
    indices: &mut [usize],
) {
    actor.forward_inference_into(obs, logits, nn);
    assert_eq!(segments.iter().sum::<usize>(), logits.cols(), "segments must tile the actor head");
    for (r, slot) in indices.iter_mut().enumerate() {
        *slot = argmax_factors(logits.row(r), segments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_nn::activation::softmax_inplace;
    use marl_nn::rng::seeded;

    fn actor(obs_dim: usize, act_dim: usize) -> Mlp {
        Mlp::two_layer_relu(obs_dim, act_dim, &mut seeded(0))
    }

    fn obs_rows(rows: usize, cols: usize, salt: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for (c, x) in m.row_mut(r).iter_mut().enumerate() {
                *x = ((r * 31 + c * 7) % 13) as f32 * 0.11 - salt;
            }
        }
        m
    }

    /// One agent's batched exploration at temperature 0.8: the joint
    /// indices and the multi-hot rows.
    fn explore(
        actor: &Mlp,
        obs: &Matrix,
        space: &ActionSpace,
        epsilon: f32,
        rngs: &mut [StdRng],
    ) -> (Vec<usize>, Matrix) {
        let mut idx = vec![0; obs.rows()];
        let mut hot = Matrix::zeros(obs.rows(), space.flat_dim());
        let (mut logits, mut nn) = (Matrix::default(), Scratch::new());
        explore_rows(
            actor,
            obs,
            space,
            0.8,
            epsilon,
            rngs,
            &mut logits,
            &mut nn,
            &mut idx,
            &mut hot,
        );
        (idx, hot)
    }

    #[test]
    fn explore_yields_joint_indices_and_multi_hots() {
        // A comm-augmented head: [5, 4] → flat width 9, joint count 20.
        let space = ActionSpace::from_segments(vec![5, 4]);
        let a = actor(16, 9);
        let obs = obs_rows(50, 16, 0.4);
        let mut rngs: Vec<StdRng> = (0..50).map(|w| seeded(4 + w)).collect();
        let (idx, hot) = explore(&a, &obs, &space, 0.0, &mut rngs);
        for (w, &i) in idx.iter().enumerate() {
            assert!(i < 20, "joint index within mixed-radix range");
            let row = hot.row(w);
            assert_eq!(row.iter().filter(|&&x| x == 1.0).count(), 2, "one hot per factor");
            assert_eq!(row[i % 5], 1.0, "movement is least significant");
            assert_eq!(row[5 + i / 5], 1.0, "comm factor");
        }
    }

    #[test]
    fn explore_is_stochastic_greedy_is_not() {
        let space = ActionSpace::from_segments(vec![5]);
        let a = actor(16, 5);
        let obs = obs_rows(1, 16, 0.3);
        let mut rng = [seeded(2)];
        let seen: std::collections::HashSet<usize> =
            (0..100).map(|_| explore(&a, &obs, &space, 0.0, &mut rng).0[0]).collect();
        assert!(seen.len() > 1, "exploration should visit several actions");
        let greedy = || {
            let mut idx = [0];
            greedy_rows(&a, &obs, &[5], &mut Matrix::default(), &mut Scratch::new(), &mut idx);
            idx[0]
        };
        assert_eq!(greedy(), greedy());
    }

    /// The single-segment head against its unsegmented reference: noise
    /// `(x + g) / T`, a whole-row [`softmax_inplace`], first-max arg-max
    /// — the same index and the same RNG consumption, bit for bit.
    #[test]
    fn single_segment_explore_matches_the_whole_row_softmax_reference() {
        let space = ActionSpace::from_segments(vec![5]);
        let a = actor(16, 5);
        let obs = obs_rows(3, 16, 0.8);
        let mut rngs: Vec<StdRng> = (0..3).map(|w| seeded(50 + w)).collect();
        let mut reference = rngs.clone();
        let (idx, hot) = explore(&a, &obs, &space, 0.0, &mut rngs);
        let mut noisy = a.forward_inference(&obs);
        for (w, rng) in reference.iter_mut().enumerate() {
            for x in noisy.row_mut(w) {
                *x = (*x + standard_gumbel(rng)) / 0.8;
            }
        }
        softmax_inplace(&mut noisy);
        for w in 0..3 {
            let best = argmax_slice(noisy.row(w));
            assert_eq!(idx[w], best, "w={w}");
            let mut want = [0.0; 5];
            want[best] = 1.0;
            assert_eq!(hot.row(w), want, "w={w}");
            assert_eq!(rngs[w].state(), reference[w].state(), "identical RNG consumption");
        }
    }

    /// Row `w` of a K-row exploration batch equals a 1-row batch of the
    /// same observation and stream: index, one-hot row, and RNG state —
    /// for plain and comm heads, with and without the ε branch.
    #[test]
    fn batched_explore_rows_match_one_row_batches_bitwise() {
        for segments in [vec![5], vec![5, 4]] {
            let space = ActionSpace::from_segments(segments.clone());
            let a = actor(16, space.flat_dim());
            for epsilon in [0.0, 0.5] {
                for worlds in [1usize, 3, 8] {
                    let obs = obs_rows(worlds, 16, 0.6);
                    let mut rngs: Vec<StdRng> =
                        (0..worlds).map(|w| seeded(100 + w as u64)).collect();
                    let mut solo_rngs = rngs.clone();
                    let (idx, hot) = explore(&a, &obs, &space, epsilon, &mut rngs);
                    for w in 0..worlds {
                        let row = Matrix::row_vector(obs.row(w));
                        let rng = std::slice::from_mut(&mut solo_rngs[w]);
                        let (solo_idx, solo_hot) = explore(&a, &row, &space, epsilon, rng);
                        let tag = format!("{segments:?} eps={epsilon} worlds={worlds} w={w}");
                        assert_eq!(idx[w], solo_idx[0], "{tag}");
                        assert_eq!(hot.row(w), solo_hot.row(0), "{tag}");
                        assert_eq!(rngs[w].state(), solo_rngs[w].state(), "{tag}");
                    }
                }
            }
        }
    }

    /// Row `r` of a batched greedy pass equals a 1-row batch: the index
    /// and the full logit row (the serve-path batched==serial gate
    /// compares whole logit vectors).
    #[test]
    fn batched_greedy_rows_match_one_row_batches_bitwise() {
        for segments in [vec![5], vec![5, 4]] {
            let a = actor(16, segments.iter().sum());
            for batch in [1usize, 4, 32] {
                let obs = obs_rows(batch, 16, 0.6);
                let (mut logits, mut nn) = (Matrix::default(), Scratch::new());
                let mut idx = vec![0; batch];
                greedy_rows(&a, &obs, &segments, &mut logits, &mut nn, &mut idx);
                for (r, &i) in idx.iter().enumerate() {
                    let (mut solo_logits, mut solo) = (Matrix::default(), [0]);
                    let row = Matrix::row_vector(obs.row(r));
                    greedy_rows(&a, &row, &segments, &mut solo_logits, &mut nn, &mut solo);
                    assert_eq!(i, solo[0], "{segments:?} batch={batch} r={r}");
                    assert_eq!(logits.row(r), solo_logits.row(0), "batch={batch} r={r}");
                }
            }
        }
    }
}
