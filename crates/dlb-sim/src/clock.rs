//! A memoized instruction clock: instruction counts to virtual time.
//!
//! Every activation converts its instruction count into a [`Duration`]: a
//! float divide by the processor speed, a rounding, a second scaling by the
//! shared-memory contention factor and a second rounding. Batches are
//! mostly full, so the engine sees few distinct counts, and a small
//! direct-mapped table of finished durations answers most of them: on the
//! benchmark workloads 97.9% (`wide-node`) to 99.9% (`paper-scale`) of the
//! conversions hit (EXPERIMENTS.md). A cached value is the pure function's
//! own earlier result, so the clock changes no duration, bit for bit.

use dlb_common::config::CpuParams;
use dlb_common::Duration;

/// Entries of the table, a power of two.
pub const CLOCK_SLOTS: usize = 256;

/// Converts instruction counts to durations at a fixed processor speed and
/// slowdown factor, remembering the latest count of each table slot.
///
/// ```
/// use dlb_common::config::CpuParams;
/// use dlb_common::Duration;
/// use dlb_sim::InstructionClock;
///
/// let cpu = CpuParams::default();
/// let mut clock = InstructionClock::new(cpu, 1.5);
/// assert_eq!(clock.duration(40_000), cpu.instructions(40_000) * 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct InstructionClock {
    cpu: CpuParams,
    factor: f64,
    /// The count each slot holds the duration of.
    keys: [u64; CLOCK_SLOTS],
    durations: [Duration; CLOCK_SLOTS],
}

impl InstructionClock {
    /// A clock for `cpu`'s speed with every duration scaled by `factor`
    /// (`1.0` for none: scaling by one is exact below 2^52 ns, about 52
    /// days).
    pub fn new(cpu: CpuParams, factor: f64) -> Self {
        // Every slot starts filled with count 0, so there is no empty state.
        let zero = cpu.instructions(0) * factor;
        Self {
            cpu,
            factor,
            keys: [0; CLOCK_SLOTS],
            durations: [zero; CLOCK_SLOTS],
        }
    }

    /// The time `instructions` take: `cpu.instructions(instructions) *
    /// factor`.
    #[inline]
    pub fn duration(&mut self, instructions: u64) -> Duration {
        let slot = slot(instructions);
        if self.keys[slot] != instructions {
            self.keys[slot] = instructions;
            self.durations[slot] = self.cpu.instructions(instructions) * self.factor;
        }
        self.durations[slot]
    }
}

/// The table slot of an instruction count: the top bits of a Fibonacci
/// hash, so counts that differ only in their high bits still spread.
fn slot(instructions: u64) -> usize {
    (instructions.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CLOCK_SLOTS.trailing_zeros()))
        as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The contended factors the engine uses: none, and a slowdown.
    const FACTORS: [f64; 2] = [1.0, 1.137];

    /// `n` more counts that share a slot with `key`.
    fn colliding(key: u64, n: usize) -> Vec<u64> {
        (key + 1..)
            .filter(|&k| slot(k) == slot(key))
            .take(n)
            .collect()
    }

    proptest! {
        #[test]
        fn the_memo_equals_the_conversion(
            counts in proptest::collection::vec(0u64..5_000_000, 1..200),
            mips in 1u32..200,
        ) {
            let cpu = CpuParams { mips: f64::from(mips) };
            for factor in FACTORS {
                let mut clock = InstructionClock::new(cpu, factor);
                // Each count twice: a miss, then (unless a later count
                // evicted it) a hit.
                for &n in counts.iter().chain(&counts) {
                    prop_assert_eq!(clock.duration(n), cpu.instructions(n) * factor);
                }
            }
        }

        #[test]
        fn colliding_counts_evict_each_other(key in 0u64..1_000_000, rounds in 1usize..4) {
            let cpu = CpuParams::default();
            let mut keys = vec![key];
            keys.extend(colliding(key, 2));
            for factor in FACTORS {
                let mut clock = InstructionClock::new(cpu, factor);
                for _ in 0..rounds {
                    for &n in &keys {
                        prop_assert_eq!(clock.duration(n), cpu.instructions(n) * factor);
                        prop_assert_eq!(clock.keys[slot(n)], n);
                    }
                }
            }
        }
    }

    #[test]
    fn an_unscaled_clock_is_the_plain_conversion() {
        let cpu = CpuParams::default();
        let mut clock = InstructionClock::new(cpu, 1.0);
        for n in [0, 1, 10_000, 40_000, 123_457, u64::from(u32::MAX)] {
            assert_eq!(clock.duration(n), cpu.instructions(n));
        }
        assert_eq!(clock.duration(40_000), Duration::from_millis(1));
    }
}
