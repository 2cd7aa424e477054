//! Gumbel-softmax relaxation for discrete MARL actions.
//!
//! MADDPG handles discrete actions by relaxing the actor's logits with a
//! softmax, keeping the action differentiable for the deterministic
//! policy-gradient update. Action heads may be composite (movement ⊕
//! communication), so every helper here works per segment: each factor
//! normalizes on its own. Exploration adds Gumbel noise
//! ([`crate::rng::standard_gumbel`]) to the logits first and then takes
//! [`softmax_segments_inplace`] and a per-factor [`argmax_slice`].

use crate::activation::{softmax_backward_slice, softmax_slice_inplace};
use crate::matrix::Matrix;

/// Applies softmax independently to each segment of each row: the
/// relaxation of a composite (movement ⊕ communication) action space,
/// where every factor normalizes on its own. A single segment spanning
/// the whole row is bitwise identical to
/// [`softmax_inplace`](crate::activation::softmax_inplace).
///
/// # Panics
///
/// Panics if the segment widths do not sum to the column count.
pub fn softmax_segments_inplace(m: &mut Matrix, segments: &[usize]) {
    assert_eq!(segments.iter().sum::<usize>(), m.cols(), "segments must tile the row");
    for r in 0..m.rows() {
        let mut row = m.row_mut(r);
        for &s in segments {
            let (head, rest) = row.split_at_mut(s);
            softmax_slice_inplace(head);
            row = rest;
        }
    }
}

/// The deterministic relaxation of a composite action head: writes
/// `softmax(logits / temperature)` applied independently to each action
/// factor. A single segment spanning the row reproduces the whole-row
/// softmax of `logits / temperature` bit for bit.
///
/// # Panics
///
/// Panics if `temperature <= 0` or the segments do not tile the row.
pub fn softmax_relaxation_segments_into(
    logits: &Matrix,
    segments: &[usize],
    temperature: f32,
    value: &mut Matrix,
) {
    assert!(temperature > 0.0, "temperature must be positive");
    value.copy_from(logits);
    value.scale(1.0 / temperature);
    softmax_segments_inplace(value, segments);
}

/// Backward of [`softmax_relaxation_segments_into`]: given the relaxed
/// sample `value` and `dL/dvalue`, writes `dL/dlogits` into
/// `grad_logits` (allocation-free). Each action factor backpropagates
/// through its own softmax Jacobian. The trailing `1/temperature` scale
/// is elementwise, so segmenting commutes with it and a single segment
/// matches [`softmax_backward_into`](crate::activation::softmax_backward_into)
/// followed by that scale bitwise.
///
/// # Panics
///
/// Panics if the segments do not tile the row.
pub fn relaxation_backward_segments_into(
    grad_out: &Matrix,
    value: &Matrix,
    segments: &[usize],
    temperature: f32,
    grad_logits: &mut Matrix,
) {
    assert_eq!(grad_out.shape(), value.shape(), "relaxation backward shape mismatch");
    assert_eq!(segments.iter().sum::<usize>(), value.cols(), "segments must tile the row");
    grad_logits.resize(grad_out.rows(), grad_out.cols());
    for r in 0..grad_out.rows() {
        let mut g = grad_out.row(r);
        let mut y = value.row(r);
        let mut out = grad_logits.row_mut(r);
        for &s in segments {
            let (gh, gr) = g.split_at(s);
            let (yh, yr) = y.split_at(s);
            let (oh, or) = out.split_at_mut(s);
            softmax_backward_slice(gh, yh, oh);
            g = gr;
            y = yr;
            out = or;
        }
    }
    grad_logits.scale(1.0 / temperature);
}

/// First-maximum index of one raw slice (ties break low).
pub fn argmax_slice(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{softmax_backward_into, softmax_inplace};
    use crate::rng::{seeded, standard_gumbel};

    #[test]
    fn low_temperature_approaches_one_hot() {
        let logits = Matrix::row_vector(&[5.0, 0.0, 0.0]);
        let mut value = Matrix::default();
        softmax_relaxation_segments_into(&logits, &[3], 0.1, &mut value);
        assert!(value.at(0, 0) > 0.99);
    }

    #[test]
    fn gumbel_max_marginals_follow_logits() {
        // Arg-max of Gumbel-perturbed logits samples the softmax
        // distribution, so the arg-max frequencies respect its ordering.
        let mut rng = seeded(22);
        let logits = [2.0f32, 0.0, -2.0];
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            let mut row = logits.map(|x| x + standard_gumbel(&mut rng));
            softmax_slice_inplace(&mut row);
            counts[argmax_slice(&row)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_rejected() {
        softmax_relaxation_segments_into(
            &Matrix::row_vector(&[0.0]),
            &[1],
            0.0,
            &mut Matrix::default(),
        );
    }

    /// A single segment spanning the row against the unsegmented
    /// reference: `logits / T` through a whole-row [`softmax_inplace`],
    /// and [`softmax_backward_into`] scaled by `1/T` — bit for bit.
    #[test]
    fn single_segment_relaxation_is_bitwise_identical_to_full_row() {
        let logits =
            Matrix::from_rows(&[&[0.4, -0.3, 0.1, 2.0, -1.5], &[1.0, 1.0, 0.0, -2.0, 3.0]]);
        let mut full = logits.clone();
        full.scale(1.0 / 0.7);
        softmax_inplace(&mut full);
        let mut seg = Matrix::default();
        softmax_relaxation_segments_into(&logits, &[5], 0.7, &mut seg);
        assert_eq!(full.as_slice(), seg.as_slice(), "values diverge");

        let grad = Matrix::from_rows(&[&[1.0, -2.0, 0.5, 0.0, 0.3], &[0.1, 0.2, 0.3, 0.4, 0.5]]);
        let mut g_full = Matrix::default();
        softmax_backward_into(&grad, &full, &mut g_full);
        g_full.scale(1.0 / 0.7);
        let mut g_seg = Matrix::default();
        relaxation_backward_segments_into(&grad, &seg, &[5], 0.7, &mut g_seg);
        assert_eq!(g_full.as_slice(), g_seg.as_slice(), "gradients diverge");
    }

    #[test]
    fn segmented_relaxation_normalizes_each_factor() {
        let logits = Matrix::row_vector(&[0.4, -0.3, 0.1, 2.0, -1.5, 0.7, 0.0, -0.2]);
        let mut value = Matrix::default();
        softmax_relaxation_segments_into(&logits, &[5, 3], 1.0, &mut value);
        let row = value.row(0);
        let head: f32 = row[..5].iter().sum();
        let tail: f32 = row[5..].iter().sum();
        assert!((head - 1.0).abs() < 1e-5, "movement factor sums to {head}");
        assert!((tail - 1.0).abs() < 1e-5, "comm factor sums to {tail}");
    }

    #[test]
    fn segmented_backward_matches_finite_difference() {
        let logits = Matrix::row_vector(&[0.4, -0.3, 0.1, 1.2, -0.8]);
        let temp = 0.7;
        let w = [1.0f32, -2.0, 0.5, 0.3, -0.7];
        for segments in [&[5usize][..], &[3, 2]] {
            let mut value = Matrix::default();
            softmax_relaxation_segments_into(&logits, segments, temp, &mut value);
            let mut g = Matrix::default();
            let grad = Matrix::row_vector(&w);
            relaxation_backward_segments_into(&grad, &value, segments, temp, &mut g);
            let eps = 1e-3f32;
            for i in 0..5 {
                let mut lp = logits.clone();
                lp.as_mut_slice()[i] += eps;
                let mut lm = logits.clone();
                lm.as_mut_slice()[i] -= eps;
                let f = |l: &Matrix| -> f32 {
                    let mut v = Matrix::default();
                    softmax_relaxation_segments_into(l, segments, temp, &mut v);
                    v.as_slice().iter().zip(&w).map(|(a, b)| a * b).sum()
                };
                let fd = (f(&lp) - f(&lm)) / (2.0 * eps);
                assert!((fd - g.as_slice()[i]).abs() < 1e-2, "{segments:?} i={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "segments must tile the row")]
    fn mismatched_segments_rejected() {
        let mut m = Matrix::row_vector(&[0.0, 1.0, 2.0]);
        softmax_segments_inplace(&mut m, &[2, 2]);
    }

    #[test]
    fn argmax_slice_breaks_ties_low() {
        assert_eq!(argmax_slice(&[0.2, 0.5, 0.5, 0.3]), 1);
        assert_eq!(argmax_slice(&[1.0]), 0);
    }
}
