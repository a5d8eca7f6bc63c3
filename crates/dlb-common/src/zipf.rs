//! Zipf distribution used to model data skew.
//!
//! The paper (§5.2.2) introduces *redistribution skew* in the production of
//! trigger activations and of pipelined tuples using a Zipf function
//! (Zipf '49) parameterized by a factor between 0 (no skew, uniform) and 1
//! (high skew). The same generator is reused for attribute-value and tuple
//! placement skew when populating relation partitions.

/// A discrete Zipf-like distribution over `n` items with skew factor
/// `theta ∈ [0, 1]`.
///
/// The weight of item `i` (1-based) is `1 / i^theta`, normalized. With
/// `theta = 0` every item has weight `1/n` (uniform); with `theta = 1` the
/// weights follow the classical Zipf law where the first item receives a
/// share proportional to `1 / H_n`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfDistribution {
    theta: f64,
    weights: Vec<f64>,
}

impl ZipfDistribution {
    /// Builds the distribution over `n` items with skew factor `theta`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not in `[0, 1]` (values slightly above
    /// 1 are accepted up to 2 for sensitivity studies, but negative or
    /// non-finite values are rejected).
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf distribution needs at least one item");
        assert!(
            theta.is_finite() && (0.0..=2.0).contains(&theta),
            "skew factor must be in [0, 2], got {theta}"
        );
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        Self { theta, weights }
    }

    /// The skew factor this distribution was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the distribution has a single item.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Normalized weight of item `i` (0-based).
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// All normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Splits `total` discrete units (e.g. tuples) across the items according
    /// to the distribution. The result always sums to `total` exactly: the
    /// largest item absorbs the rounding remainder, mirroring how real skewed
    /// partitioning concentrates the excess on the heaviest value.
    pub fn split(&self, total: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .weights
            .iter()
            .map(|w| (w * total as f64).floor() as u64)
            .collect();
        let assigned: u64 = out.iter().sum();
        let remainder = total - assigned;
        if !out.is_empty() {
            out[0] += remainder;
        }
        out
    }

    /// Largest share of any single item (the "hot" fraction).
    pub fn max_weight(&self) -> f64 {
        self.weights.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_theta_zero() {
        let z = ZipfDistribution::new(10, 0.0);
        for i in 0..10 {
            assert!((z.weight(i) - 0.1).abs() < 1e-12);
        }
        assert_eq!(z.len(), 10);
        assert!(!z.is_empty());
    }

    #[test]
    fn skewed_when_theta_one() {
        let z = ZipfDistribution::new(10, 1.0);
        // Weights must be strictly decreasing.
        for i in 1..10 {
            assert!(z.weight(i) < z.weight(i - 1));
        }
        // First item share equals 1 / H_10.
        let h10: f64 = (1..=10).map(|i| 1.0 / i as f64).sum();
        assert!((z.weight(0) - 1.0 / h10).abs() < 1e-12);
        assert!(z.max_weight() > 0.3);
    }

    #[test]
    fn weights_sum_to_one() {
        for theta in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let z = ZipfDistribution::new(37, theta);
            let sum: f64 = z.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "theta={theta} sum={sum}");
        }
    }

    #[test]
    fn split_conserves_total() {
        for theta in [0.0, 0.4, 0.8, 1.0] {
            let z = ZipfDistribution::new(64, theta);
            for total in [0u64, 1, 63, 64, 1000, 123_457] {
                let parts = z.split(total);
                assert_eq!(parts.iter().sum::<u64>(), total, "theta={theta}");
                assert_eq!(parts.len(), 64);
            }
        }
    }

    #[test]
    fn higher_theta_concentrates_more() {
        let low = ZipfDistribution::new(100, 0.2);
        let high = ZipfDistribution::new(100, 0.9);
        assert!(high.max_weight() > low.max_weight());
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        let _ = ZipfDistribution::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "skew factor")]
    fn negative_theta_rejected() {
        let _ = ZipfDistribution::new(4, -0.1);
    }
}
