//! Differential test of the instant-bucketed calendar against the plain
//! `(time, seq)` binary heap it replaces: random schedule/pop interleavings
//! over a small set of instants (so many events share one), now-events,
//! past-time clamps and pops of an empty calendar must agree on every pop,
//! `peek_time`, `pending` and `processed`.

use dlb_common::{Duration, SimTime};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn matches_the_time_seq_heap(ops in proptest::collection::vec((0u8..5, 0u64..6), 0..300)) {
        let mut cal = EventCalendar::new();
        let mut model = Model::default();
        for (event, &(op, k)) in ops.iter().enumerate() {
            let now = model.now;
            match op {
                // An absolute instant from {0, 10, .., 50}: shared by many
                // events early on, a past-time clamp once the clock passed.
                0 => {
                    cal.schedule_at(SimTime::from_nanos(k * 10), event);
                    model.schedule_at(k * 10, event);
                }
                // Relative to the clock; `k == 0` is a now-event.
                1 => {
                    cal.schedule_after(Duration::from_nanos(k * 10), event);
                    model.schedule_at(now + k * 10, event);
                }
                // Strictly in the past (or at zero while the clock is there).
                2 => {
                    let t = now.saturating_sub(k + 1);
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
                break;
            }
        }
    }
}
