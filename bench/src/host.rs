//! Host-side measurement: the drift reference kernel, peak resident memory
//! and the order statistics the reports use.
//!
//! The reference box is a shared container whose speed drifts by a fifth
//! over minutes while its run queue stays empty (see README.md). Every timing is
//! therefore divided by a fixed pure-std reference kernel timed in the same
//! run and multiplied by [`REFERENCE_CALIB_S`], the kernel's time on the
//! reference box, so normalized seconds stay comparable across runs made
//! minutes or hours apart.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the reference box (2-core container,
/// Intel Xeon at 2.1 GHz), in seconds: a normalized timing is
/// `raw / kernel × REFERENCE_CALIB_S`.
pub const REFERENCE_CALIB_S: f64 = 0.065;

/// Entries of the kernel's random-read table: 256 KB of `u64`s. On the
/// reference box an 8 MB table tracked the simulator's slowdowns worse than
/// this one (see README.md), and it would sit in every peak-memory sample.
const TABLE_WORDS: usize = 1 << 15;
/// Events held in the kernel's calendar.
const HELD: u64 = 4096;
/// Hold operations per kernel run.
const STEPS: u64 = 1_000_000;

/// A binary-heap hold model (pop the earliest event, read a random table
/// word, reschedule) — the access pattern of a discrete-event calendar,
/// written against the standard library only so no change to the
/// repository's code can move it.
pub struct Kernel {
    table: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Allocates and fills the table once, for the whole run.
    pub fn new() -> Self {
        let table = (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Self { table }
    }

    /// Runs the kernel once and returns its wall-clock seconds.
    pub fn run(&self) -> f64 {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut heap = BinaryHeap::with_capacity(HELD as usize);
        for id in 0..HELD {
            heap.push(Reverse((next() >> 40, id)));
        }
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Reverse((time, id)) = heap.pop().expect("the calendar never empties");
            let r = next();
            acc = acc.wrapping_add(self.table[r as usize & (TABLE_WORDS - 1)] ^ id);
            heap.push(Reverse((time + (r >> 44) + 1 + (acc & 1), id)));
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// Resets the kernel's high-water mark of resident memory to the current
/// resident set (Linux `clear_refs` code 5). Returns false where the file is
/// unavailable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The high-water mark of resident memory since the last reset, in MB
/// (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
