//! Event calendar: the core of the discrete-event simulation.
//!
//! Events pop in `(time, scheduling order)` order, so two runs with the
//! same inputs produce the same interleaving. Scheduling in the past clamps
//! to the current instant.
//!
//! The engine's deterministic quanta make many events end at the very same
//! nanosecond, so the calendar is bucketed by **distinct instant**:
//!
//! * a min-heap of plain `u64` instants holds each pending future instant
//!   once;
//! * an index maps each of those instants to its FIFO chain, hashed with one
//!   folded multiply (instants come from the simulation's own clock
//!   arithmetic, so SipHash's flood resistance buys nothing);
//! * payloads sit still in a [`Slab`], each with an intrusive `next` link,
//!   so appending to a chain allocates nothing;
//! * the chain of the instant being delivered is held apart and takes the
//!   events scheduled at `now` and the past-time clamps alike.
//!
//! Scheduling at an already pending instant is an index hit and a list
//! append; the heap moves only for a new instant and when the clock advances.
//!
//! **Why this is `(time, seq)` order.** Number events by scheduling order
//! (`seq`) and give each its clamped time `max(time, now)`. Across instants:
//! the heap yields instants in increasing order and nothing is chained to
//! an instant before `now`. Within an instant `t`: every event with clamped
//! time `t` is appended to the one chain of `t`, through the index while
//! `now < t`, and as the current chain once the clock reached `t` (the
//! advance moved that very chain out of the index). A chain is therefore in
//! increasing `seq` order, exactly what a `(time, seq)` heap would deliver.

use dlb_common::{SimTime, Slab};
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BinaryHeap;
use std::hash::{BuildHasherDefault, Hasher};

/// The end of a chain.
const NIL: u32 = u32::MAX;

/// A payload and the slab key of the next event of its instant.
#[derive(Debug)]
struct Node<E> {
    event: E,
    next: u32,
}

/// The FIFO of one instant: pop at `head`, append at `tail`. `tail` is
/// meaningful only while `head` is not [`NIL`].
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };

    fn append<E>(&mut self, key: u32, store: &mut Slab<Node<E>>) {
        if self.head == NIL {
            self.head = key;
        } else {
            store.get_mut(self.tail).expect("chain tail is live").next = key;
        }
        self.tail = key;
    }
}

/// Hashes an instant with one folded 64×64→128-bit multiply: both halves of
/// the product mix every input bit, which the table's low (bucket) and high
/// (tag) bits both need.
#[derive(Debug, Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministic discrete-event calendar.
///
/// ```
/// use dlb_common::{Duration, SimTime};
/// use dlb_sim::EventCalendar;
///
/// let mut cal: EventCalendar<&str> = EventCalendar::new();
/// cal.schedule_at(SimTime::ZERO + Duration::from_millis(2), "later");
/// cal.schedule_at(SimTime::ZERO + Duration::from_millis(1), "sooner");
/// let (t, e) = cal.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t.as_nanos(), 1_000_000);
/// ```
#[derive(Debug)]
pub struct EventCalendar<E> {
    /// Every future instant with a pending event, once.
    instants: BinaryHeap<Reverse<u64>>,
    /// The chain of each instant in `instants`.
    chains: HashMap<u64, Chain, BuildHasherDefault<InstantHasher>>,
    /// The chain of `now`.
    current: Chain,
    store: Slab<Node<E>>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventCalendar<E> {
    /// Creates an empty calendar at virtual time zero.
    pub fn new() -> Self {
        Self {
            instants: BinaryHeap::new(),
            chains: HashMap::default(),
            current: Chain::EMPTY,
            store: Slab::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.store.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Schedules `event` at absolute virtual time `time`.
    ///
    /// Scheduling in the past is clamped to the current time: the event fires
    /// "now" but after already-scheduled events for the current instant.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let key = self.store.insert(Node { event, next: NIL });
        let chain = if time <= self.now {
            &mut self.current
        } else {
            match self.chains.entry(time.as_nanos()) {
                Entry::Occupied(chain) => chain.into_mut(),
                Entry::Vacant(slot) => {
                    self.instants.push(Reverse(time.as_nanos()));
                    slot.insert(Chain::EMPTY)
                }
            }
        };
        chain.append(key, &mut self.store);
    }

    /// Schedules `event` after `delay` from the current virtual time.
    pub fn schedule_after(&mut self, delay: dlb_common::Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the virtual clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.head == NIL {
            let Reverse(instant) = self.instants.pop()?;
            self.current = self
                .chains
                .remove(&instant)
                .expect("a pending instant has a chain");
            self.now = SimTime::from_nanos(instant);
        }
        let node = self
            .store
            .remove(self.current.head)
            .expect("chained payload is live");
        self.current.head = node.next;
        self.processed += 1;
        Some((self.now, node.event))
    }

    /// Peeks at the time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.current.head != NIL {
            Some(self.now)
        } else {
            self.instants
                .peek()
                .map(|&Reverse(t)| SimTime::from_nanos(t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_common::Duration;

    #[test]
    fn events_pop_in_time_order() {
        let mut cal = EventCalendar::new();
        cal.schedule_at(SimTime::from_nanos(30), 3);
        cal.schedule_at(SimTime::from_nanos(10), 1);
        cal.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(cal.processed(), 3);
        assert!(cal.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut cal = EventCalendar::new();
        for i in 0..100 {
            cal.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut cal = EventCalendar::new();
        cal.schedule_at(SimTime::from_nanos(100), "a");
        cal.schedule_at(SimTime::from_nanos(50), "b");
        let (t1, _) = cal.pop().unwrap();
        assert_eq!(t1, SimTime::from_nanos(50));
        assert_eq!(cal.now(), SimTime::from_nanos(50));
        // Scheduling in the past clamps to now.
        cal.schedule_at(SimTime::from_nanos(10), "late");
        let (t2, e2) = cal.pop().unwrap();
        assert_eq!(t2, SimTime::from_nanos(50));
        assert_eq!(e2, "late");
        let (t3, _) = cal.pop().unwrap();
        assert_eq!(t3, SimTime::from_nanos(100));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut cal = EventCalendar::new();
        cal.schedule_at(SimTime::from_nanos(1_000), "first");
        cal.pop().unwrap();
        cal.schedule_after(Duration::from_nanos(500), "second");
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(1_500)));
        assert_eq!(cal.pending(), 1);
    }

    #[test]
    fn the_heap_holds_each_pending_instant_once() {
        let mut cal = EventCalendar::new();
        for i in 0..30u64 {
            cal.schedule_at(SimTime::from_nanos(10 * (1 + i % 3)), i);
        }
        assert_eq!(cal.instants.len(), 3);
        assert_eq!(cal.chains.len(), 3);
        assert_eq!(cal.pending(), 30);
        // The first pop moves the earliest chain out of the index; events
        // at the current instant join that chain, not the heap.
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(10), 0)));
        cal.schedule_at(SimTime::from_nanos(10), 100);
        cal.schedule_at(SimTime::from_nanos(20), 101);
        assert_eq!(cal.instants.len(), 2);
        assert_eq!(cal.chains.len(), 2);
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        let mut expected: Vec<u64> = (3..30).step_by(3).chain([100]).collect();
        expected.extend((1..30).step_by(3).chain([101]));
        expected.extend((2..30).step_by(3));
        assert_eq!(order, expected);
        assert!(cal.instants.is_empty() && cal.chains.is_empty());
    }

    #[test]
    fn now_events_fire_after_pending_same_time_heap_entries() {
        let mut cal = EventCalendar::new();
        cal.schedule_at(SimTime::from_nanos(10), "t10-first");
        cal.schedule_at(SimTime::from_nanos(10), "t10-second");
        cal.schedule_at(SimTime::from_nanos(20), "t20");
        let (_, e) = cal.pop().unwrap();
        assert_eq!(e, "t10-first");
        // Now == 10; schedule two more "now" events — they must fire after
        // the remaining heap entry at t=10 (older sequence number) but
        // before t=20, in insertion order.
        cal.schedule_at(SimTime::from_nanos(10), "now-a");
        cal.schedule_at(SimTime::from_nanos(5), "now-b-clamped");
        let rest: Vec<&str> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["t10-second", "now-a", "now-b-clamped", "t20"]);
        assert_eq!(cal.processed(), 5);
        assert!(cal.is_empty());
    }
}
