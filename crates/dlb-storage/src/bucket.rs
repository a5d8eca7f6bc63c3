//! Bucket-level fragmentation for parallel hash joins.
//!
//! Both relations of a hash join are fragmented into the same number of
//! buckets by the same hash function applied to the join attribute (§2.1).
//! The *degree of fragmentation* is chosen much higher than the degree of
//! parallelism to reduce the effect of skew (§3.1, "Fragmentation"), and the
//! execution model mixes activations of different buckets in the same queue.
//!
//! A [`BucketMap`] describes how many tuples of a relation (or of an operator
//! output) fall into each bucket, optionally skewed with a Zipf distribution —
//! this is the redistribution skew of §5.2.2.

use dlb_common::{BucketId, ZipfDistribution};

/// Default ratio between the degree of fragmentation and the degree of
/// parallelism. The paper only states the degree of fragmentation should be
/// "much higher" than the number of processors; 8× is used throughout the
/// harness and can be overridden.
pub const DEFAULT_FRAGMENTATION_FACTOR: u32 = 8;

/// Tuple counts per hash bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketMap {
    tuples: Vec<u64>,
}

impl BucketMap {
    /// Splits `total` tuples across `buckets` buckets with redistribution skew
    /// `theta` (0 = uniform, 1 = strongly skewed Zipf).
    pub fn skewed(buckets: u32, total: u64, theta: f64) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let zipf = ZipfDistribution::new(buckets as usize, theta);
        Self {
            tuples: zipf.split(total),
        }
    }

    /// Splits `total` tuples uniformly across `buckets` buckets.
    pub fn uniform(buckets: u32, total: u64) -> Self {
        Self::skewed(buckets, total, 0.0)
    }

    /// Creates a bucket map from explicit counts.
    pub fn from_counts(tuples: Vec<u64>) -> Self {
        assert!(!tuples.is_empty(), "need at least one bucket");
        Self { tuples }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> u32 {
        self.tuples.len() as u32
    }

    /// Tuples in bucket `b`.
    pub fn tuples_in(&self, b: BucketId) -> u64 {
        self.tuples.get(b.index()).copied().unwrap_or(0)
    }

    /// Total tuples across all buckets.
    pub fn total(&self) -> u64 {
        self.tuples.iter().sum()
    }

    /// Iterates over `(bucket, tuples)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (BucketId, u64)> + '_ {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > 0)
            .map(|(i, &t)| (BucketId::from(i), t))
    }

    /// Largest bucket size.
    pub fn max_bucket(&self) -> u64 {
        self.tuples.iter().copied().max().unwrap_or(0)
    }

    /// Ratio of the largest bucket to the average bucket (1.0 = uniform).
    pub fn imbalance(&self) -> f64 {
        let total = self.total() as f64;
        if total == 0.0 || self.tuples.is_empty() {
            return 1.0;
        }
        self.max_bucket() as f64 / (total / self.tuples.len() as f64)
    }

    /// Scales every bucket by `factor` (used to derive the bucket map of an
    /// operator output from its input, e.g. after applying a selectivity).
    /// Conserves `round(total * factor)` tuples up to per-bucket rounding.
    pub fn scaled(&self, factor: f64) -> BucketMap {
        BucketMap {
            tuples: self
                .tuples
                .iter()
                .map(|&t| ((t as f64) * factor).round().max(0.0) as u64)
                .collect(),
        }
    }
}

/// Recommended degree of fragmentation for a given degree of parallelism.
pub fn fragmentation_degree(parallelism: u32, factor: u32) -> u32 {
    (parallelism * factor).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_buckets_are_even() {
        let m = BucketMap::uniform(8, 800);
        assert_eq!(m.buckets(), 8);
        assert_eq!(m.total(), 800);
        for b in 0..8u32 {
            assert_eq!(m.tuples_in(BucketId::new(b)), 100);
        }
        assert!((m.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_buckets_conserve_total_and_are_unbalanced() {
        let m = BucketMap::skewed(64, 100_000, 0.8);
        assert_eq!(m.total(), 100_000);
        assert!(m.imbalance() > 3.0, "imbalance {}", m.imbalance());
        assert!(m.max_bucket() > 100_000 / 64);
    }

    #[test]
    fn iter_skips_empty_buckets() {
        let m = BucketMap::from_counts(vec![5, 0, 3, 0]);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(BucketId::new(0), 5), (BucketId::new(2), 3)]);
        assert_eq!(m.tuples_in(BucketId::new(7)), 0, "out of range is zero");
    }

    #[test]
    fn scaling_applies_selectivity() {
        let m = BucketMap::from_counts(vec![100, 200, 300]);
        let half = m.scaled(0.5);
        assert_eq!(half.total(), 300);
        assert_eq!(half.tuples_in(BucketId::new(2)), 150);
        let none = m.scaled(0.0);
        assert_eq!(none.total(), 0);
        assert_eq!(none.imbalance(), 1.0);
    }

    #[test]
    fn fragmentation_degree_scales_with_parallelism() {
        assert_eq!(fragmentation_degree(8, DEFAULT_FRAGMENTATION_FACTOR), 64);
        assert_eq!(fragmentation_degree(0, 8), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = BucketMap::uniform(0, 10);
    }
}
