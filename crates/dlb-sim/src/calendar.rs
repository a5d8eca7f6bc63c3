//! Event calendar: the core of the discrete-event simulation.
//!
//! Events pop in `(time, scheduling order)` order, so two runs with the
//! same inputs produce the same interleaving. Scheduling in the past clamps
//! to the current instant.
//!
//! The engine's deterministic quanta make many events end at the very same
//! nanosecond, so the calendar is bucketed by **distinct instant**, and
//! nearly every event lands within a short horizon (a quantum, a network
//! hop), so near instants sit on a wheel (a calendar queue, Brown 1988):
//!
//! * payloads sit still in a [`Slab`], each with an intrusive `next` link,
//!   and each pending instant owns one FIFO chain of them, so appending to a
//!   chain allocates nothing;
//! * the **wheel** has [`WHEEL_SLOTS`] buckets of 2^[`BUCKET_SHIFT`] ns each
//!   and covers the buckets `[cursor, cursor + WHEEL_SLOTS)`, where `cursor`
//!   is the bucket of `now`. A bucket is an intrusive list of its instants
//!   in increasing time, kept in a second slab; an occupancy bitmap finds
//!   the next non-empty bucket a word at a time, and its head is the next
//!   instant;
//! * instants beyond the horizon go to the **far** min-heap of plain `u64`
//!   instants and its index to their chains, hashed with one folded multiply
//!   (instants come from the simulation's own clock arithmetic, so
//!   SipHash's flood resistance buys nothing). Whenever the cursor advances,
//!   the far instants the horizon now covers move onto the wheel, chain and
//!   all;
//! * the chain of the instant being delivered is held apart and takes the
//!   events scheduled at `now` and the past-time clamps alike.
//!
//! **Why this is `(time, seq)` order.** Number events by scheduling order
//! (`seq`) and give each its clamped time `max(time, now)`. Every pending
//! instant lives in exactly one place: the current chain (`t == now`), the
//! wheel (`t`'s bucket is below `cursor + WHEEL_SLOTS`) or the far heap
//! (beyond it). The horizon only moves forward and each advance migrates
//! the instants it passes, so a far instant is never also on the wheel, and
//! all of `t`'s events join its one chain in `seq` order. Across instants:
//! every wheel instant precedes every far one, the bitmap scan from the
//! cursor's bucket visits buckets in increasing time, and each bucket's list
//! is sorted. So instants pop in increasing order and, within one, in
//! increasing `seq`: exactly what a `(time, seq)` heap would deliver.
//!
//! Scheduling walks the target bucket's list to its place, so its cost
//! grows with the instants pending in one 16 µs bucket: fractions of one in
//! the engine (tens of instants over 67 ms), but dense schedules (thousands
//! of instants within a millisecond) pay a list walk per event that a heap
//! would not.

use dlb_common::{SimTime, Slab};
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BinaryHeap;
use std::hash::{BuildHasherDefault, Hasher};

/// The end of a chain or of a bucket's instant list.
const NIL: u32 = u32::MAX;

/// Width of one wheel bucket, as a power of two of nanoseconds: 2^14 ns
/// (16.4 µs).
pub const BUCKET_SHIFT: u32 = 14;

/// Buckets on the wheel: 4,096 buckets of 16.4 µs cover 67 ms ahead of the
/// clock, past the engine's quantum ends and network hops.
pub const WHEEL_SLOTS: usize = 4096;

/// Words of the occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

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

/// A pending instant on the wheel: its time, its chain and the next (later)
/// instant of its bucket.
#[derive(Debug)]
struct Instant {
    time: u64,
    chain: Chain,
    next: u32,
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

/// The wheel bucket of instant `t`.
fn bucket(t: u64) -> u64 {
    t >> BUCKET_SHIFT
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
    /// Per wheel bucket, the first of its instants in `instants` ([`NIL`]
    /// when the bucket is empty).
    heads: Vec<u32>,
    /// One bit per wheel bucket: set while the bucket holds an instant.
    occupied: [u64; WHEEL_WORDS],
    /// The instants on the wheel.
    instants: Slab<Instant>,
    /// The bucket of `now`: the wheel holds the instants of the buckets
    /// `[cursor, cursor + WHEEL_SLOTS)`.
    cursor: u64,
    /// Every pending instant beyond the wheel's horizon, once.
    far: BinaryHeap<Reverse<u64>>,
    /// The chain of each instant in `far`.
    far_chains: HashMap<u64, Chain, BuildHasherDefault<InstantHasher>>,
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
            heads: vec![NIL; WHEEL_SLOTS],
            occupied: [0; WHEEL_WORDS],
            instants: Slab::new(),
            cursor: 0,
            far: BinaryHeap::new(),
            far_chains: HashMap::default(),
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
    #[inline]
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let key = self.store.insert(Node { event, next: NIL });
        if time <= self.now {
            self.current.append(key, &mut self.store);
            return;
        }
        let t = time.as_nanos();
        // `t > now`, so its bucket is at or after the cursor.
        if bucket(t) - self.cursor < WHEEL_SLOTS as u64 {
            let (slot, prev, at) = self.position(t);
            match self.instants.get_mut(at) {
                Some(instant) if instant.time == t => instant.chain.append(key, &mut self.store),
                _ => self.link(
                    slot,
                    prev,
                    at,
                    t,
                    Chain {
                        head: key,
                        tail: key,
                    },
                ),
            }
        } else {
            let chain = match self.far_chains.entry(t) {
                Entry::Occupied(chain) => chain.into_mut(),
                Entry::Vacant(slot) => {
                    self.far.push(Reverse(t));
                    slot.insert(Chain::EMPTY)
                }
            };
            chain.append(key, &mut self.store);
        }
    }

    /// Schedules `event` after `delay` from the current virtual time.
    pub fn schedule_after(&mut self, delay: dlb_common::Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the virtual clock to its time.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.head == NIL {
            self.advance()?;
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
        } else if self.instants.is_empty() {
            self.far.peek().map(|&Reverse(t)| SimTime::from_nanos(t))
        } else {
            let head = self.heads[self.next_occupied()];
            let time = self
                .instants
                .get(head)
                .expect("listed instant is live")
                .time;
            Some(SimTime::from_nanos(time))
        }
    }

    /// Makes the earliest pending instant current and moves the clock to
    /// it; `None` when nothing is pending.
    fn advance(&mut self) -> Option<()> {
        if self.instants.is_empty() {
            // Only far instants remain: jump the cursor to the earliest one
            // and pull in everything the new horizon covers.
            let &Reverse(t) = self.far.peek()?;
            self.cursor = bucket(t);
            self.migrate();
        }
        // A bucket's list is sorted, so its head is its earliest instant.
        let slot = self.next_occupied();
        let instant = self
            .instants
            .remove(self.heads[slot])
            .expect("listed instant is live");
        self.heads[slot] = instant.next;
        if instant.next == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.current = instant.chain;
        self.now = SimTime::from_nanos(instant.time);
        if bucket(instant.time) != self.cursor {
            self.cursor = bucket(instant.time);
            self.migrate();
        }
        Some(())
    }

    /// Moves the far instants inside the horizon `cursor + WHEEL_SLOTS`
    /// onto the wheel, each with its whole chain.
    fn migrate(&mut self) {
        while let Some(&Reverse(t)) = self.far.peek() {
            if bucket(t) - self.cursor >= WHEEL_SLOTS as u64 {
                break;
            }
            self.far.pop();
            let chain = self
                .far_chains
                .remove(&t)
                .expect("a far instant has a chain");
            let (slot, prev, next) = self.position(t);
            self.link(slot, prev, next, t, chain);
        }
    }

    /// Where near instant `t` belongs: its bucket, and the first instant
    /// of the bucket not before `t` ([`NIL`] at the end of the list) with
    /// that instant's predecessor ([`NIL`] at the head).
    fn position(&self, t: u64) -> (usize, u32, u32) {
        let slot = bucket(t) as usize % WHEEL_SLOTS;
        let (mut prev, mut at) = (NIL, self.heads[slot]);
        while let Some(instant) = self.instants.get(at) {
            if instant.time >= t {
                break;
            }
            (prev, at) = (at, instant.next);
        }
        (slot, prev, at)
    }

    /// Lists a new instant `t` with `chain` in bucket `slot`, between
    /// `prev` and `next` (see [`Self::position`]).
    fn link(&mut self, slot: usize, prev: u32, next: u32, t: u64, chain: Chain) {
        let key = self.instants.insert(Instant {
            time: t,
            chain,
            next,
        });
        match self.instants.get_mut(prev) {
            Some(before) => before.next = key,
            None => self.heads[slot] = key,
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// The first occupied bucket at or after the cursor's, wrapping around
    /// the wheel. The wheel must hold an instant.
    fn next_occupied(&self) -> usize {
        let start = self.cursor as usize % WHEEL_SLOTS;
        let word = start / 64;
        let bits = self.occupied[word] & (u64::MAX << (start % 64));
        if bits != 0 {
            return word * 64 + bits.trailing_zeros() as usize;
        }
        // The remaining words in wheel order; the start word comes round
        // again last, for the buckets below the cursor's (the latest ones).
        (1..=WHEEL_WORDS)
            .map(|i| (word + i) % WHEEL_WORDS)
            .find_map(|w| {
                let bits = self.occupied[w];
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })
            .expect("the wheel holds an instant")
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
    fn the_wheel_holds_each_pending_instant_once() {
        let mut cal = EventCalendar::new();
        for i in 0..30u64 {
            cal.schedule_at(SimTime::from_nanos(10 * (1 + i % 3)), i);
        }
        assert_eq!(cal.instants.len(), 3);
        assert!(cal.far.is_empty());
        assert_eq!(cal.pending(), 30);
        // The first pop moves the earliest chain out of the index; events
        // at the current instant join that chain, not the heap.
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(10), 0)));
        cal.schedule_at(SimTime::from_nanos(10), 100);
        cal.schedule_at(SimTime::from_nanos(20), 101);
        assert_eq!(cal.instants.len(), 2);
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        let mut expected: Vec<u64> = (3..30).step_by(3).chain([100]).collect();
        expected.extend((1..30).step_by(3).chain([101]));
        expected.extend((2..30).step_by(3));
        assert_eq!(order, expected);
        assert!(cal.instants.is_empty() && cal.far.is_empty());
    }

    /// The wheel's horizon in nanoseconds.
    const HORIZON: u64 = (WHEEL_SLOTS as u64) << BUCKET_SHIFT;

    #[test]
    fn a_far_instant_keeps_its_chain_when_it_moves_onto_the_wheel() {
        let mut cal = EventCalendar::new();
        let far = 2 * HORIZON - 5;
        cal.schedule_at(SimTime::from_nanos(far), "far-1");
        cal.schedule_at(SimTime::from_nanos(far), "far-2");
        cal.schedule_at(SimTime::from_nanos(HORIZON + 3), "step");
        assert_eq!((cal.instants.len(), cal.far.len()), (0, 2));
        // Popping `step` moves the cursor within a horizon of `far`.
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(HORIZON + 3), "step")));
        assert_eq!((cal.instants.len(), cal.far.len()), (1, 0));
        cal.schedule_at(SimTime::from_nanos(far), "wheel-3");
        assert_eq!(cal.instants.len(), 1);
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(far)));
        let rest: Vec<&str> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["far-1", "far-2", "wheel-3"]);
    }

    #[test]
    fn instants_at_the_horizon_edge_go_far_and_return_in_order() {
        let mut cal = EventCalendar::new();
        // The last nanosecond inside the horizon, the first beyond it, and
        // both neighbours of a bucket edge.
        let edge = (1u64 << BUCKET_SHIFT) - 1;
        for (i, t) in [HORIZON, HORIZON - 1, edge + 1, edge]
            .into_iter()
            .enumerate()
        {
            cal.schedule_at(SimTime::from_nanos(t), i);
        }
        assert_eq!((cal.instants.len(), cal.far.len()), (3, 1));
        let order: Vec<(u64, usize)> =
            std::iter::from_fn(|| cal.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        assert_eq!(
            order,
            vec![(edge, 3), (edge + 1, 2), (HORIZON - 1, 1), (HORIZON, 0)]
        );
    }

    #[test]
    fn the_bucket_scan_wraps_round_the_wheel() {
        let mut cal = EventCalendar::new();
        // Park the cursor near the end of the wheel, then leave a long
        // empty gap: the next instant sits in a bucket below the cursor's.
        let late = (WHEEL_SLOTS as u64 - 3) << BUCKET_SHIFT;
        cal.schedule_at(SimTime::from_nanos(late), 0);
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(late), 0)));
        let wrapped = late + HORIZON - 1;
        cal.schedule_at(SimTime::from_nanos(wrapped), 1);
        cal.schedule_at(SimTime::from_nanos(late + 100), 2);
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(late + 100)));
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(late + 100), 2)));
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(wrapped)));
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(wrapped), 1)));
        assert_eq!(cal.pop(), None);
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
