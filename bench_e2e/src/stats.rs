//! Nearest-rank percentiles over latency samples.

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// sorted samples: the smallest rank whose share of samples reaches `p`.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // Round away float noise before the ceiling (p = 95 of n = 20 is
    // exactly rank 19, not 20).
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile's position.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median of an unsorted list (nearest rank), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 50.0))
}

/// A sorted latency sample.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts the samples.
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile, `None` when empty.
    pub fn pct(&self, p: f64) -> Option<f64> {
        (!self.is_empty()).then(|| percentile(&self.sorted, p))
    }

    /// Whether percentile `p` has at least ten samples beyond it.
    pub fn tail_ok(&self, p: f64) -> bool {
        !self.is_empty() && beyond(self.len(), p) >= 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[15.0, 20.0, 35.0, 40.0, 50.0], 30.0), 20.0);
        assert_eq!(percentile(&[15.0, 20.0, 35.0, 40.0, 50.0], 40.0), 20.0);
        assert_eq!(percentile(&[15.0, 20.0, 35.0, 40.0, 50.0], 50.0), 35.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(rank(20, 95.0), 19);
        assert_eq!(percentile(&twenty, 95.0), 19.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(Dist::new((0..1000).map(f64::from).collect()).tail_ok(99.0));
        assert!(!Dist::new((0..999).map(f64::from).collect()).tail_ok(99.0));
        assert!(Dist::new((0..200).map(f64::from).collect()).tail_ok(95.0));
        assert!(!Dist::new(Vec::new()).tail_ok(50.0));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
