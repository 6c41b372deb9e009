//! The benchmark's own arithmetic: percentiles under the "ten samples
//! beyond" rule, medians, and failure accounting.

/// Percentiles a timing may be reported at, in per-mille, highest first.
const CANDIDATE_PERMILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a percentile must leave above it before it may be reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`-th percentile among `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).max(1)
}

/// Samples strictly beyond the nearest-rank `permille`-th percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The highest reportable percentile (per-mille) for `n` samples: the
/// largest candidate that leaves at least [`MIN_BEYOND`] samples above it.
pub fn highest_percentile(n: usize) -> Option<u32> {
    CANDIDATE_PERMILLE.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice; `None` when the slice
/// is too small for the rule.
pub fn percentile(sorted: &[f64], permille: u32) -> Option<f64> {
    if sorted.is_empty() || (permille > 500 && beyond(sorted.len(), permille) < MIN_BEYOND) {
        return None;
    }
    Some(sorted[rank(sorted.len(), permille) - 1])
}

/// Each window's percentile, over consecutive windows of `window` samples
/// (in arrival order; a short remainder joins the last window). `None`
/// when a window is too small for the rule.
pub fn window_percentiles(samples: &[f64], window: usize, permille: u32) -> Option<Vec<f64>> {
    let windows = (samples.len() / window.max(1)).max(1);
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { samples.len() } else { (w + 1) * window };
            percentile(&sorted(&samples[w * window..end]), permille)
        })
        .collect()
}

/// Median of [`window_percentiles`]: one stall moves one window, not the
/// result.
pub fn windowed_percentile(samples: &[f64], window: usize, permille: u32) -> Option<f64> {
    window_percentiles(samples, window, permille).map(|p| median(&p))
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `values` (`+∞` for none): the fastest of repeated
/// timings, the one the host slowed down least.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Outcome counts of one phase: every operation attempted, and the ways
/// one can fail. Sheds and wrong answers are failures like errors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Transport errors, timeouts and non-2xx answers other than sheds.
    pub errors: u64,
    /// `503 overloaded` answers.
    pub shed: u64,
    /// Answers that disagree with the reference.
    pub wrong: u64,
}

impl Tally {
    /// Folds another phase's counts into this one.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.shed += other.shed;
        self.wrong += other.wrong;
    }

    /// Errors + sheds + wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.wrong
    }

    /// Failed ÷ attempted (0 for an empty tally).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// The latency an operation is charged: as measured if it succeeded,
/// `+∞` if it failed or was refused (it misses every limit).
pub fn charged_latency(ok: bool, latency_ms: f64) -> f64 {
    if ok {
        latency_ms
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(highest_percentile(1000), Some(990));
        assert_eq!(highest_percentile(999), Some(950));
        assert_eq!(highest_percentile(10_000), Some(999));
        assert_eq!(highest_percentile(200), Some(950));
        assert_eq!(highest_percentile(100), Some(900));
        assert_eq!(highest_percentile(20), Some(500));
        assert_eq!(highest_percentile(19), None);
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&v, 500), Some(500.0));
        assert_eq!(percentile(&v[..999], 990), None);
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&[7.0], 500), Some(7.0));
    }

    #[test]
    fn windowed_percentile_shrugs_off_one_stalled_window() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        // A stall inflates the tail of the second window only.
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(windowed_percentile(&v, 1000, 990), Some(989.0));
        // A remainder joins the last window; too few samples fail the rule.
        let w: Vec<f64> = (0..2500).map(|i| f64::from(i % 500)).collect();
        assert_eq!(windowed_percentile(&w, 1000, 990), Some(494.0));
        assert_eq!(windowed_percentile(&v[..999], 1000, 990), None);
    }

    #[test]
    fn the_fastest_window_ignores_a_slow_stretch() {
        // Two windows of a slowed-down host, one undisturbed.
        let v: Vec<f64> =
            [3.0, 1.0, 2.0].iter().flat_map(|&s| (0..100).map(move |i| s * f64::from(i))).collect();
        let p50 = window_percentiles(&v, 100, 500).unwrap();
        assert_eq!(p50, vec![147.0, 49.0, 98.0]);
        assert_eq!(fastest(&p50), 49.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(fastest(&[0.054, 0.036, 0.052]), 0.036);
        assert_eq!(fastest(&[]), f64::INFINITY);
    }

    #[test]
    fn failures_count_against_attempts_and_latency() {
        let mut t = Tally { attempted: 100, errors: 1, shed: 2, wrong: 0 };
        t.add(&Tally { attempted: 100, errors: 0, shed: 0, wrong: 1 });
        assert_eq!(t.failed(), 4);
        assert_eq!(t.fail_frac(), 0.02);
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let lat: Vec<f64> = (0..1000).map(|i| charged_latency(i != 500, 1.0)).collect();
        assert_eq!(percentile(&sorted(&lat), 990), Some(1.0));
        let lat: Vec<f64> = (0..1000).map(|i| charged_latency(i % 50 != 0, 1.0)).collect();
        assert_eq!(percentile(&sorted(&lat), 990), Some(f64::INFINITY));
    }
}
