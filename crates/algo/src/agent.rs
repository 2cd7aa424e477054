//! Per-agent networks: decentralized actor + centralized critic, each with
//! a target copy (plus twin critics for MATD3).

use marl_nn::adam::Adam;
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use rand::rngs::StdRng;

/// The four (or six, for MATD3) networks of one agent plus optimizers.
#[derive(Debug)]
pub struct AgentNets {
    /// Decentralized actor π_i: obs → action logits.
    pub actor: Mlp,
    /// Target actor.
    pub target_actor: Mlp,
    /// Centralized critic Q_i: joint obs+actions → scalar.
    pub critic: Mlp,
    /// Target critic.
    pub target_critic: Mlp,
    /// Second critic (MATD3 twin), with its target.
    pub critic2: Option<(Mlp, Mlp)>,
    /// Actor optimizer.
    pub actor_opt: Adam,
    /// Critic optimizer (shared by both twins; gradients are applied per
    /// network via separate state below).
    pub critic_opt: Adam,
    /// Optimizer for the twin critic.
    pub critic2_opt: Option<Adam>,
}

impl AgentNets {
    /// Builds the networks for an agent with `obs_dim` observations,
    /// `act_dim` discrete actions, and a centralized critic over
    /// `joint_dim` inputs.
    pub fn new(
        obs_dim: usize,
        act_dim: usize,
        joint_dim: usize,
        twin_critics: bool,
        learning_rate: f32,
        rng: &mut StdRng,
    ) -> Self {
        let actor = Mlp::two_layer_relu(obs_dim, act_dim, rng);
        let mut target_actor = Mlp::two_layer_relu(obs_dim, act_dim, rng);
        target_actor.hard_update_from(&actor);
        let critic = Mlp::two_layer_relu(joint_dim, 1, rng);
        let mut target_critic = Mlp::two_layer_relu(joint_dim, 1, rng);
        target_critic.hard_update_from(&critic);
        let critic2 = twin_critics.then(|| {
            let c2 = Mlp::two_layer_relu(joint_dim, 1, rng);
            let mut t2 = Mlp::two_layer_relu(joint_dim, 1, rng);
            t2.hard_update_from(&c2);
            (c2, t2)
        });
        AgentNets {
            actor,
            target_actor,
            critic,
            target_critic,
            critic2,
            actor_opt: Adam::with_learning_rate(learning_rate),
            critic_opt: Adam::with_learning_rate(learning_rate),
            critic2_opt: twin_critics.then(|| Adam::with_learning_rate(learning_rate)),
        }
    }

    /// Target-policy relaxed actions for a batch of next observations,
    /// written into `value`, with `logits` and `scratch` as reusable
    /// working storage (allocation-free once warmed).
    ///
    /// For MATD3, clipped Gaussian noise (`target_noise`, `noise_clip`) is
    /// added to every logit first — target-policy smoothing — drawing
    /// from `rng` in logit order. The relaxation then normalizes each
    /// factor of the multi-discrete head on its own.
    #[allow(clippy::too_many_arguments)]
    pub fn target_actions_seg_into(
        &self,
        next_obs: &Matrix,
        segments: &[usize],
        temperature: f32,
        target_noise: f32,
        noise_clip: f32,
        rng: &mut StdRng,
        logits: &mut Matrix,
        value: &mut Matrix,
        scratch: &mut marl_nn::scratch::Scratch,
    ) {
        self.target_actor.forward_inference_into(next_obs, logits, scratch);
        if target_noise > 0.0 {
            for x in logits.as_mut_slice() {
                let n = (marl_nn::rng::standard_normal(rng) * target_noise)
                    .clamp(-noise_clip, noise_clip);
                *x += n;
            }
        }
        marl_nn::gumbel::softmax_relaxation_segments_into(logits, segments, temperature, value);
    }

    /// Polyak-averages all target networks toward the live networks.
    pub fn soft_update_targets(&mut self, tau: f32) {
        self.target_actor.soft_update_from(&self.actor, tau);
        self.target_critic.soft_update_from(&self.critic, tau);
        if let Some((c2, t2)) = &mut self.critic2 {
            t2.soft_update_from(c2, tau);
        }
    }

    /// Total trainable parameters across all live networks.
    pub fn parameter_count(&self) -> usize {
        self.actor.parameter_count()
            + self.critic.parameter_count()
            + self.critic2.as_ref().map_or(0, |(c, _)| c.parameter_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_nn::rng::seeded;

    fn nets(twin: bool) -> AgentNets {
        let mut rng = seeded(0);
        AgentNets::new(16, 5, 3 * 16 + 3 * 5, twin, 0.01, &mut rng)
    }

    #[test]
    fn construction_wires_dimensions() {
        let a = nets(false);
        assert_eq!(a.actor.input_dim(), 16);
        assert_eq!(a.actor.output_dim(), 5);
        assert_eq!(a.critic.input_dim(), 63);
        assert_eq!(a.critic.output_dim(), 1);
        assert!(a.critic2.is_none());
        let b = nets(true);
        assert!(b.critic2.is_some());
        assert!(b.critic2_opt.is_some());
        assert!(b.parameter_count() > a.parameter_count());
    }

    #[test]
    fn targets_start_identical() {
        let a = nets(true);
        let x = Matrix::full(1, 16, 0.2);
        assert_eq!(
            a.actor.forward_inference(&x).as_slice(),
            a.target_actor.forward_inference(&x).as_slice()
        );
        let j = Matrix::full(1, 63, 0.1);
        assert_eq!(
            a.critic.forward_inference(&j).as_slice(),
            a.target_critic.forward_inference(&j).as_slice()
        );
        let (c2, t2) = a.critic2.as_ref().unwrap();
        assert_eq!(c2.forward_inference(&j).as_slice(), t2.forward_inference(&j).as_slice());
    }

    /// Target actions over one full-width segment against the
    /// unsegmented reference — noise in logit order, `1/T` scale, a
    /// whole-row [`softmax_inplace`] — bit for bit, with identical RNG
    /// consumption.
    #[test]
    fn single_segment_target_actions_match_the_whole_row_softmax_reference() {
        use marl_nn::activation::softmax_inplace;
        let a = nets(false);
        let mut m = Matrix::zeros(3, 16);
        for w in 0..3 {
            for (c, x) in m.row_mut(w).iter_mut().enumerate() {
                *x = (w as f32 * 0.21) - (c as f32 * 0.05);
            }
        }
        let mut rng = seeded(77);
        let mut reference_rng = seeded(77);
        let (mut logits, mut value) = (Matrix::default(), Matrix::default());
        let mut scratch = marl_nn::scratch::Scratch::new();
        a.target_actions_seg_into(
            &m,
            &[5],
            0.7,
            0.2,
            0.5,
            &mut rng,
            &mut logits,
            &mut value,
            &mut scratch,
        );
        let mut reference = a.target_actor.forward_inference(&m);
        for x in reference.as_mut_slice() {
            *x += (marl_nn::rng::standard_normal(&mut reference_rng) * 0.2).clamp(-0.5, 0.5);
        }
        reference.scale(1.0 / 0.7);
        softmax_inplace(&mut reference);
        assert_eq!(value.as_slice(), reference.as_slice());
        assert_eq!(rng.state(), reference_rng.state());
    }

    #[test]
    fn target_actions_normalize_each_factor() {
        // A comm-augmented head: [5, 4] → flat width 9.
        let mut rng = seeded(0);
        let a = AgentNets::new(16, 9, 2 * 16 + 2 * 9, true, 0.01, &mut rng);
        let mut r = seeded(5);
        let (mut logits, mut value) = (Matrix::default(), Matrix::default());
        let mut scratch = marl_nn::scratch::Scratch::new();
        for (segments, next_obs) in
            [(&[9][..], Matrix::zeros(4, 16)), (&[5, 4][..], Matrix::full(4, 16, 0.3))]
        {
            a.target_actions_seg_into(
                &next_obs,
                segments,
                1.0,
                0.2,
                0.5,
                &mut r,
                &mut logits,
                &mut value,
                &mut scratch,
            );
            for row in 0..4 {
                let mut off = 0;
                for &s in segments {
                    let sum: f32 = value.row(row)[off..off + s].iter().sum();
                    assert!((sum - 1.0).abs() < 1e-5, "{segments:?} row {row}");
                    off += s;
                }
            }
        }
    }

    #[test]
    fn soft_update_converges_to_live() {
        let mut a = nets(false);
        // Perturb the actor, then repeatedly soft-update.
        let x = Matrix::full(1, 16, 0.5);
        a.actor.zero_grad();
        a.actor.forward(&x);
        a.actor.backward(&Matrix::full(1, 5, 1.0));
        a.actor_opt.step(&mut a.actor);
        let live = a.actor.forward_inference(&x);
        for _ in 0..600 {
            a.soft_update_targets(0.05);
        }
        let tgt = a.target_actor.forward_inference(&x);
        for (l, t) in live.as_slice().iter().zip(tgt.as_slice()) {
            assert!((l - t).abs() < 1e-3);
        }
    }
}
