//! Deterministic skewed routing of operator output to consumer queues.
//!
//! When an operator produces pipelined tuples, the batches are redistributed
//! to the queues of the consumer operator — one queue per (home node, thread)
//! slot. With no skew this redistribution is uniform. The paper's skew
//! experiment (§5.2.2) introduces *redistribution skew*: the distribution of
//! data activations over the consumer's queues follows a Zipf law with a
//! factor between 0 and 1.
//!
//! To keep the simulation deterministic, the router uses largest-remainder
//! (deficit) routing instead of random sampling: each slot has a target share
//! (its Zipf weight) and every batch is sent to the slot whose assigned count
//! is furthest below its target. Over time the realized distribution
//! converges to the Zipf weights exactly.

use dlb_common::ZipfDistribution;

/// Routes successive batches across a fixed set of slots so that the realized
/// distribution follows a Zipf law of the given skew factor.
#[derive(Debug, Clone)]
pub struct OutputRouter {
    weights: Vec<f64>,
    assigned: Vec<u64>,
    total: u64,
    /// Winner tree over `assigned`, kept only when every weight is the same
    /// bit pattern and the slot count is a power of two (empty otherwise).
    /// Then `w` is exactly representable (1/2^k), all the deficits
    /// `w*total - assigned` are exact in f64, and the float argmax reduces
    /// bit-for-bit to an integer argmin over `assigned`, lowest slot first.
    /// Node `k` holds the lowest-index minimum of its subtree (children
    /// `2k` and `2k+1`, leaves at `slots + i`), so the root `winners[1]` is
    /// that argmin and one route re-plays log2(slots) matches.
    winners: Vec<u32>,
}

impl OutputRouter {
    /// A router over no slots, for operator slots that never emit output
    /// (routing through it panics). Allocates nothing.
    pub(crate) fn empty() -> Self {
        Self {
            weights: Vec::new(),
            assigned: Vec::new(),
            total: 0,
            winners: Vec::new(),
        }
    }

    /// Creates a router over `slots` destination slots with skew `theta`.
    ///
    /// To avoid a systematic bias where slot 0 of every operator is the hot
    /// slot, the hot slot is rotated by `rotation` positions (typically the
    /// operator id), which mirrors the fact that different operators hash on
    /// different attributes.
    pub fn new(slots: usize, theta: f64, rotation: usize) -> Self {
        assert!(slots > 0, "router needs at least one slot");
        let zipf = ZipfDistribution::new(slots, theta);
        let mut weights = vec![0.0; slots];
        for (i, w) in zipf.weights().iter().enumerate() {
            weights[(i + rotation) % slots] = *w;
        }
        let uniform_pow2 =
            slots.is_power_of_two() && weights.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
        let winners = if uniform_pow2 {
            // All assignments start equal, so every subtree's winner is its
            // leftmost leaf.
            let mut winners = vec![0u32; 2 * slots];
            for k in (1..2 * slots).rev() {
                winners[k] = if k >= slots {
                    (k - slots) as u32
                } else {
                    winners[2 * k]
                };
            }
            winners
        } else {
            Vec::new()
        };
        Self {
            weights,
            assigned: vec![0; slots],
            total: 0,
            winners,
        }
    }

    /// Number of destination slots.
    pub fn slots(&self) -> usize {
        self.weights.len()
    }

    /// Picks the slot for the next batch of `tuples` tuples and records the
    /// assignment.
    pub fn route(&mut self, tuples: u64) -> usize {
        let new_total = self.total + tuples;
        let best = if self.winners.is_empty() {
            // Choose the slot with the largest deficit (target - assigned).
            let mut best = 0usize;
            let mut best_deficit = f64::MIN;
            for (i, (&w, &a)) in self.weights.iter().zip(self.assigned.iter()).enumerate() {
                let deficit = w * new_total as f64 - a as f64;
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = i;
                }
            }
            best
        } else {
            // Equal weights: the largest deficit is the smallest assignment
            // (first slot on ties) — the winner tree's root.
            self.winners[1] as usize
        };
        self.assigned[best] += tuples;
        if !self.winners.is_empty() {
            // Re-play the matches on the path from the grown leaf to the
            // root; a tie keeps the left (lower-index) winner.
            let mut k = (self.assigned.len() + best) / 2;
            while k > 0 {
                let (l, r) = (self.winners[2 * k], self.winners[2 * k + 1]);
                self.winners[k] = if self.assigned[r as usize] < self.assigned[l as usize] {
                    r
                } else {
                    l
                };
                k /= 2;
            }
        }
        self.total = new_total;
        best
    }

    /// Tuples routed to `slot` so far.
    pub fn assigned(&self, slot: usize) -> u64 {
        self.assigned[slot]
    }

    /// Total tuples routed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The target weight of a slot.
    pub fn weight(&self, slot: usize) -> f64 {
        self.weights[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_routing_balances_slots() {
        let mut r = OutputRouter::new(8, 0.0, 0);
        for _ in 0..800 {
            r.route(10);
        }
        for s in 0..8 {
            assert_eq!(r.assigned(s), 1_000, "slot {s}");
        }
        assert_eq!(r.total(), 8_000);
    }

    #[test]
    fn skewed_routing_matches_zipf_weights() {
        let mut r = OutputRouter::new(4, 1.0, 0);
        for _ in 0..10_000 {
            r.route(1);
        }
        for s in 0..4 {
            let realized = r.assigned(s) as f64 / r.total() as f64;
            assert!(
                (realized - r.weight(s)).abs() < 0.01,
                "slot {s}: realized {realized} target {}",
                r.weight(s)
            );
        }
        // Slot 0 is the hot slot without rotation.
        assert!(r.assigned(0) > r.assigned(3));
    }

    #[test]
    fn rotation_moves_the_hot_slot() {
        let mut a = OutputRouter::new(4, 1.0, 0);
        let mut b = OutputRouter::new(4, 1.0, 2);
        for _ in 0..1_000 {
            a.route(1);
            b.route(1);
        }
        let hot_a = (0..4).max_by_key(|&s| a.assigned(s)).unwrap();
        let hot_b = (0..4).max_by_key(|&s| b.assigned(s)).unwrap();
        assert_eq!(hot_a, 0);
        assert_eq!(hot_b, 2);
    }

    #[test]
    fn variable_batch_sizes_still_track_weights() {
        let mut r = OutputRouter::new(3, 0.5, 1);
        let sizes = [1u64, 7, 128, 13, 64, 3, 250, 9];
        for i in 0..2_000 {
            r.route(sizes[i % sizes.len()]);
        }
        for s in 0..3 {
            let realized = r.assigned(s) as f64 / r.total() as f64;
            assert!((realized - r.weight(s)).abs() < 0.05);
        }
    }

    /// The linear argmin the winner tree replaces: the lowest slot with the
    /// smallest assignment.
    fn linear_argmin(r: &OutputRouter) -> usize {
        let mut best = 0;
        for s in 1..r.slots() {
            if r.assigned(s) < r.assigned(best) {
                best = s;
            }
        }
        best
    }

    #[test]
    fn winner_tree_matches_the_linear_argmin() {
        let sizes = [1u64, 7, 128, 13, 64, 3, 250, 9, 128, 128];
        for slots in [1usize, 2, 4, 8, 32, 64] {
            let mut r = OutputRouter::new(slots, 0.0, slots / 3);
            for i in 0..5_000 {
                let expected = linear_argmin(&r);
                assert_eq!(
                    r.route(sizes[i % sizes.len()]),
                    expected,
                    "slots {slots}, step {i}"
                );
            }
        }
    }

    #[test]
    fn skewed_and_non_power_of_two_routers_keep_the_float_path() {
        assert!(OutputRouter::new(8, 0.5, 0).winners.is_empty());
        assert!(OutputRouter::new(6, 0.0, 0).winners.is_empty());
        assert!(!OutputRouter::new(8, 0.0, 3).winners.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = OutputRouter::new(0, 0.0, 0);
    }

    #[test]
    fn single_slot_gets_everything() {
        let mut r = OutputRouter::new(1, 0.9, 5);
        for _ in 0..10 {
            assert_eq!(r.route(100), 0);
        }
        assert_eq!(r.assigned(0), 1_000);
    }
}
