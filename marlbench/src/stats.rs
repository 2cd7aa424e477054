//! Percentiles under the sample-count rule, and the seeded generator
//! every workload draws its inputs from.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it, with the sample
//! count printed next to it: a p99 from 300 samples rests on three
//! values and is not reported as a p99.

/// Samples a reported percentile must have beyond it.
pub const MIN_TAIL: f64 = 10.0;

/// Percentiles considered for the tail, highest last.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile in [`TAIL_LADDER`] that `n` samples support,
/// or `None` when even the median has fewer than [`MIN_TAIL`] beyond it.
pub fn supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|q| n as f64 * (1.0 - q / 100.0) >= MIN_TAIL - 1e-9)
}

/// Percentile `q` (0–100) of ascending `sorted`, interpolating linearly
/// between closest ranks; 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (q / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let (a, b) = (sorted[lo], sorted[(lo + 1).min(n - 1)]);
            let frac = rank - lo as f64;
            // Unanswered requests enter as +inf: never interpolate toward one.
            if frac == 0.0 {
                a
            } else if a == b || b.is_infinite() {
                b
            } else {
                a + (b - a) * frac
            }
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A summarized timing sample.
#[derive(Debug, Clone)]
pub struct Timing {
    sorted: Vec<f64>,
}

impl Timing {
    /// Summarizes `values` (any order).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Timing { sorted: values }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `q` of the sample, whether or not the rule supports it
    /// (callers print [`Timing::describe`] next to it).
    pub fn at(&self, q: f64) -> f64 {
        percentile(&self.sorted, q)
    }

    /// `label: median …, p<q> … (n=…)` under the sample-count rule.
    pub fn describe(&self, label: &str, unit: &str) -> String {
        let mut line = format!("{label}: median {:.3} {unit}", self.at(50.0));
        match supported_percentile(self.n()) {
            Some(q) if q > 50.0 => line += &format!(", p{q} {:.3} {unit}", self.at(q)),
            Some(_) => {}
            None => line += " (too few samples for any tail)",
        }
        line + &format!(" (n={})", self.n())
    }
}

/// SplitMix64: a tiny, fixed generator so that a seed names the same
/// inputs however the program's own RNGs change.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let inf = f64::INFINITY;
        assert!(percentile(&[1.0, inf, inf], 99.0).is_infinite());
        assert_eq!(percentile(&[1.0, 2.0, inf], 25.0), 1.5);
    }

    #[test]
    fn describe_prints_the_supported_tail_and_count() {
        let t = Timing::new((1..=1000).map(f64::from).collect());
        let s = t.describe("lat", "us");
        assert!(s.contains("p99 "), "{s}");
        assert!(s.ends_with("(n=1000)"), "{s}");
        let short = Timing::new((1..=150).map(f64::from).collect()).describe("lat", "us");
        assert!(short.contains("p90 ") && !short.contains("p99 "), "{short}");
    }

    #[test]
    fn generator_is_seeded_and_stream_separated() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let c = SplitMix64::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let mut g = SplitMix64::new(1, 0);
        for _ in 0..1000 {
            let u = g.unit_open();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
