//! Order statistics over latency samples.
//!
//! Tails follow one rule: report the highest percentile that still has at
//! least [`TAIL_BEYOND`] samples above it (capped at p99), and always state
//! the sample count next to it.

/// Samples a reported tail percentile must leave above itself.
pub const TAIL_BEYOND: usize = 10;

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank quantile `q` (in `(0, 1]`): the smallest sample with at
/// least `q × n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let sorted = sorted(values);
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n` samples. The small
/// slack keeps `0.9 × 100` at rank 90 despite binary rounding.
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// The highest quantile, at 0.1% granularity and at most 0.99, that leaves
/// at least [`TAIL_BEYOND`] of `n` samples above it; `None` when even the
/// median would not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let permille = (1000 * (n - TAIL_BEYOND)) / n;
    Some((permille.min(990)) as f64 / 1000.0)
}

/// A latency summary: count, median and the supported tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(quantile, value)` of the tail, when the count supports one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes a non-empty sample set.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            p50: median(values),
            tail: tail_quantile(values.len()).map(|q| (q, quantile(values, q))),
        }
    }

    /// `p50 12.3 p90 15.1 n=120` style text (no tail when unsupported).
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((q, v)) => format!(
                "p50 {:.3} {unit}, p{} {:.3} {unit}, n={}",
                self.p50,
                percent_label(q),
                v,
                self.n
            ),
            None => format!(
                "p50 {:.3} {unit}, n={} (too few samples for a tail)",
                self.p50, self.n
            ),
        }
    }
}

/// `0.99` → `99`, `0.975` → `97.5`.
pub fn percent_label(q: f64) -> String {
    let permille = (q * 1000.0).round() as u64;
    if permille.is_multiple_of(10) {
        format!("{}", permille / 10)
    } else {
        format!("{}.{}", permille / 10, permille % 10)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        // Input order does not matter.
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(quantile(&reversed, 0.9), 90.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(400), Some(0.975));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(100_000), Some(0.99));
        for n in 20..3000 {
            let q = tail_quantile(n).expect("supported");
            let at = rank(q, n);
            assert!(n - at >= TAIL_BEYOND, "n={n} q={q} leaves {}", n - at);
            // At 0.1% granularity, the next step up would break the rule
            // (or pass p99).
            let next = q + 0.001;
            if next <= 0.99 + 1e-12 {
                assert!(n - rank(next, n) < TAIL_BEYOND, "n={n}: p{next} also fits");
            }
        }
    }

    #[test]
    fn summary_reports_tail_only_when_supported() {
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        let s = Summary::of(&few);
        assert_eq!((s.n, s.p50), (5, 3.0));
        assert!(s.tail.is_none());
        assert!(s.describe("ms").contains("too few"));
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&many);
        assert_eq!(s.tail, Some((0.95, 190.0)));
        assert!(s.describe("ms").contains("p95 190.000 ms"));
        assert_eq!(percent_label(0.975), "97.5");
    }
}
