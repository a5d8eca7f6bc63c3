//! Differential test of the wheel calendar against the plain `(time, seq)`
//! binary heap it replaces: random schedule/pop interleavings over a small
//! set of instants (so many events share one), now-events, past-time clamps
//! and pops of an empty calendar must agree on every pop, `peek_time`,
//! `pending` and `processed`. A second run draws its instants across the
//! wheel's bucket edges, at its horizon and beyond it.

use dlb_common::{Duration, SimTime};
use dlb_sim::calendar::{BUCKET_SHIFT, WHEEL_SLOTS};
use dlb_sim::EventCalendar;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference: one heap entry per event, ties broken by scheduling order.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    now: u64,
    seq: u64,
    processed: u64,
}

impl Model {
    fn schedule_at(&mut self, time: u64, event: usize) {
        self.heap
            .push(Reverse((time.max(self.now), self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let Reverse((time, _, event)) = self.heap.pop()?;
        self.now = time;
        self.processed += 1;
        Some((SimTime::from_nanos(time), event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|Reverse((t, _, _))| SimTime::from_nanos(*t))
    }
}

fn assert_agree(cal: &EventCalendar<usize>, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(cal.now(), SimTime::from_nanos(model.now));
    prop_assert_eq!(cal.peek_time(), model.peek_time());
    prop_assert_eq!(cal.pending(), model.heap.len());
    prop_assert_eq!(cal.is_empty(), model.heap.is_empty());
    prop_assert_eq!(cal.processed(), model.processed);
    Ok(())
}

/// Width of one wheel bucket, in nanoseconds.
const BUCKET: u64 = 1 << BUCKET_SHIFT;
/// How far ahead of the clock the wheel reaches, in nanoseconds.
const HORIZON: u64 = WHEEL_SLOTS as u64 * BUCKET;

/// Replays `ops` on a calendar and on the model. An op is a kind and an
/// index `k`: kind 0 schedules at the absolute instant `absolute[k]`, kind 1
/// at `relative[k]` after the clock, kind 2 `k + 1` ns in the past, and the
/// rest pop. Then both are drained.
fn replay(ops: &[(u8, usize)], absolute: &[u64], relative: &[u64]) -> Result<(), TestCaseError> {
    let mut cal = EventCalendar::new();
    let mut model = Model::default();
    for (event, &(op, k)) in ops.iter().enumerate() {
        let now = model.now;
        match op {
            // Shared by many events early on, a past-time clamp once the
            // clock passed it.
            0 => {
                let t = absolute[k % absolute.len()];
                cal.schedule_at(SimTime::from_nanos(t), event);
                model.schedule_at(t, event);
            }
            // Relative to the clock; a zero delay is a now-event.
            1 => {
                let delay = relative[k % relative.len()];
                cal.schedule_after(Duration::from_nanos(delay), event);
                model.schedule_at(now + delay, event);
            }
            // Strictly in the past (or at zero while the clock is there).
            2 => {
                let t = now.saturating_sub(k as u64 + 1);
                cal.schedule_at(SimTime::from_nanos(t), event);
                model.schedule_at(t, event);
            }
            // Pops, including pops of an empty calendar.
            _ => prop_assert_eq!(cal.pop(), model.pop()),
        }
        assert_agree(&cal, &model)?;
    }
    loop {
        let popped = cal.pop();
        prop_assert_eq!(popped, model.pop());
        assert_agree(&cal, &model)?;
        if popped.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Every instant within 50 ns: one bucket, many shared instants.
    #[test]
    fn matches_the_time_seq_heap(ops in proptest::collection::vec((0u8..5, 0usize..6), 0..300)) {
        let tens = [0, 10, 20, 30, 40, 50];
        replay(&ops, &tens, &tens)?;
    }

    /// Instants either side of bucket edges and of the horizon, and several
    /// horizons out. Absolute instants recur, so one is scheduled while it
    /// is far and again after it moved onto the wheel; relative ones near
    /// a horizon leave long empty gaps that wrap the bucket scan.
    #[test]
    fn matches_the_time_seq_heap_across_the_wheel(
        ops in proptest::collection::vec((0u8..6, 0usize..12), 0..300)
    ) {
        let absolute = [
            30,
            BUCKET - 1,
            BUCKET,
            HORIZON - 1,
            HORIZON,
            HORIZON + BUCKET + 1,
            2 * HORIZON - 5,
            2 * HORIZON + 5,
            3 * HORIZON,
            5 * HORIZON + 3,
        ];
        let relative = [
            0,
            10,
            BUCKET - 1,
            BUCKET,
            BUCKET + 1,
            7 * BUCKET + 3,
            HORIZON - BUCKET,
            HORIZON - 1,
            HORIZON,
            HORIZON + 1,
            3 * HORIZON + 7,
        ];
        replay(&ops, &absolute, &relative)?;
    }
}
