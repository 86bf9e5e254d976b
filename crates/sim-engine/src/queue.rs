//! Time-ordered event queue with deterministic FIFO tie-breaking.
//!
//! [`EventQueue`] is the one queue every simulator in this workspace
//! drains. Its contract: pop times are nondecreasing, events scheduled
//! at the same timestamp pop in the order they were scheduled (a
//! monotone sequence number breaks ties), and debug builds reject
//! scheduling into the past.
//!
//! # Calendar design
//!
//! The queue is a calendar queue (Brown, "Calendar queues", CACM 1988)
//! with a fixed bucket width. Time is integer picoseconds
//! ([`SimTime`]). A ring of `BUCKETS` = 2048 unsorted buckets, each
//! `2^BUCKET_BITS` = 2^18 ps (≈ 262 ns) wide, covers a window of 2^29 ps
//! (≈ 537 µs) that starts at the bucket of the last popped event. An
//! event in the window is pushed onto its bucket; an occupancy bitmap
//! (one bit per bucket) finds the first nonempty bucket with
//! `trailing_zeros`, and `pop` takes that bucket's minimum
//! `(time, seq)` by a linear scan. Events beyond the window wait in a
//! `BinaryHeap` overflow and move into the ring, each once, when the
//! window reaches them.
//!
//! The widths follow the offsets the simulators schedule at. The fabric
//! schedules 0.82 µs ahead (a 4 KB packet serializing at 40 Gbps), 1 µs
//! (link delay) and at µs-scale DCQCN timers, so a fault-free system
//! run's 40–140 pending events spread over the ring a few to a bucket.
//! The window covers the slowest device latency the models use, SSD-A's
//! 300 µs program, so storage-node events stay in the ring: a window
//! short of it sends a third of an SSD-A run's events through the
//! overflow and makes the run slower than on a binary heap. Beyond the
//! window lies the one timeout per in-flight request that a timeout
//! policy arms: every `ext_faults` full-scale cell peaks at 20k–40k
//! pending 5 s timeouts. Those arrive in nearly increasing time order,
//! so an overflow push rarely sifts, and most runs end before the
//! window reaches them.
//!
//! A drained bucket's vector goes to a spare list and serves the next
//! bucket that fills, so the buckets occupied at one time share their
//! capacity rather than each of the 2048 growing to the largest burst
//! it ever held, and a warmed-up queue schedules and pops without
//! allocating. The test suite holds the queue against a plain binary
//! heap (`HeapEventQueue`) on randomized interleavings.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending event: ordered by `(time, seq)` so that events scheduled at
/// the same timestamp are delivered in the order they were scheduled.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// log2 of a bucket's width in picoseconds: 2^18 ps ≈ 262 ns, about a
/// third of a 4 KB packet's serialization time at 40 Gbps.
pub(crate) const BUCKET_BITS: u32 = 18;
/// Buckets in the ring (a power of two): the window spans
/// `BUCKETS << BUCKET_BITS` = 2^29 ps ≈ 537 µs, past SSD-A's 300 µs
/// program latency.
pub(crate) const BUCKETS: usize = 2048;
/// Words of the occupancy bitmap.
const WORDS: usize = BUCKETS / 64;

// An entry for a word-sized payload is exactly 24 bytes (time + seq +
// payload, no padding): three entries per cache line in a bucket.
// Growth here taxes every simulator's hot loop, so it fails the build
// instead of slipping in.
const _: () = assert!(std::mem::size_of::<Entry<u64>>() == 24);
const _: () = assert!(std::mem::size_of::<Entry<()>>() == 16);

/// The central data structure of every simulator in this workspace: a
/// priority queue of `(SimTime, E)` pairs delivering events in
/// nondecreasing time order, FIFO among equal timestamps.
///
/// Determinism matters: the simulators seed all their RNGs and rely on
/// this queue never reordering same-time events, so a run is a pure
/// function of its configuration and seed.
pub struct EventQueue<E> {
    /// `BUCKETS` unsorted buckets; bucket number `b` lives in slot
    /// `b % BUCKETS`.
    ring: Box<[Vec<Entry<E>>]>,
    /// One bit per ring slot, set while the slot's bucket is nonempty.
    occupied: [u64; WORDS],
    /// Allocations of drained buckets, handed to the next bucket that
    /// fills so the few buckets occupied at a time share their capacity.
    spare: Vec<Vec<Entry<E>>>,
    /// Events at bucket `base + BUCKETS` or later.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// First bucket number of the window: the bucket of the last popped
    /// event, never past the earliest pending one.
    base: u64,
    /// Pending events across ring and overflow.
    len: usize,
    next_seq: u64,
    /// Highest timestamp ever popped; used to catch causality violations.
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            spare: Vec::new(),
            overflow: BinaryHeap::new(),
            base: 0,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` is earlier than the most recently
    /// popped timestamp (scheduling into the past breaks causality).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "scheduling into the past: {at:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// File an entry into its ring bucket, or the overflow when it lies
    /// beyond the window. A past-time entry (a release-mode contract
    /// violation) files into the first bucket, so it still pops next.
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
        let bucket = (entry.time.0 >> BUCKET_BITS).max(self.base);
        if bucket - self.base >= BUCKETS as u64 {
            self.overflow.push(Reverse(entry));
            return;
        }
        let slot = bucket as usize % BUCKETS;
        let events = &mut self.ring[slot];
        if events.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *events = spare;
            }
        }
        events.push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Absolute number of the first nonempty ring bucket, scanning the
    /// bitmap in ring order from `base`.
    #[inline]
    fn first_occupied(&self) -> Option<u64> {
        let start = self.base as usize % BUCKETS;
        let (word, bit) = (start / 64, start % 64);
        let ahead = self.occupied[word] >> bit;
        if ahead != 0 {
            return Some(self.base + u64::from(ahead.trailing_zeros()));
        }
        // The other words in ring order, then the start word again for
        // its slots below `start`: the far end of the window.
        (1..=WORDS).find_map(|k| {
            let w = (word + k) % WORDS;
            let bits = self.occupied[w];
            (bits != 0).then(|| {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                self.base + ((slot + BUCKETS - start) % BUCKETS) as u64
            })
        })
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let bucket = match self.first_occupied() {
            Some(bucket) => bucket,
            // Ring empty: jump the window to the overflow's earliest event.
            None => self.overflow.peek()?.0.time.0 >> BUCKET_BITS,
        };
        if bucket != self.base {
            // Advance the window and pull in the overflow events it now
            // covers. They all lie past `bucket`, which was already in
            // the window, so its minimum stays the global one.
            self.base = bucket;
            let end = bucket + BUCKETS as u64;
            while let Some(Reverse(head)) = self.overflow.peek() {
                if head.time.0 >> BUCKET_BITS >= end {
                    break;
                }
                let Reverse(entry) = self.overflow.pop().expect("peeked");
                self.place(entry);
            }
        }
        let slot = bucket as usize % BUCKETS;
        let events = &mut self.ring[slot];
        let min = (0..events.len())
            .min_by_key(|&i| (events[i].time, events[i].seq))
            .expect("first occupied bucket is nonempty");
        let e = events.swap_remove(min);
        if events.is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            self.spare.push(std::mem::take(events));
        }
        self.len -= 1;
        self.last_popped = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.first_occupied() {
            Some(bucket) => self.ring[bucket as usize % BUCKETS]
                .iter()
                .map(|e| e.time)
                .min(),
            None => self.overflow.peek().map(|Reverse(e)| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Restore the pristine `EventQueue::new()` state — empty, window,
    /// sequence counter and causality clock at zero — while keeping the
    /// bucket and overflow allocations. A reset queue is observably
    /// indistinguishable from a freshly built one; workspace reuse
    /// across simulation cells depends on exactly that.
    pub fn reset(&mut self) {
        self.ring.iter_mut().for_each(Vec::clear);
        self.occupied = [0; WORDS];
        self.overflow.clear();
        self.base = 0;
        self.len = 0;
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

/// The plain `BinaryHeap` event queue: the executable reference model
/// the tests hold [`EventQueue`] (and the streamed arrival cursor)
/// against.
#[cfg(test)]
pub(crate) struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

#[cfg(test)]
impl<E> HeapEventQueue<E> {
    pub(crate) fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            event,
        }));
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        Some((e.time, e.event))
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Picoseconds the ring window spans.
    const WINDOW_PS: u64 = (BUCKETS as u64) << BUCKET_BITS;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(3), 'c');
        q.schedule(SimTime::from_us(1), 'a');
        q.schedule(SimTime::from_us(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_us(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(5), ());
        q.schedule(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
        q.reset();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), ());
        q.pop();
        q.schedule(SimTime::from_us(5), ());
    }

    #[test]
    fn interleaved_schedule_pop_is_stable() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(1);
        q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn same_time_insert_mid_bucket_delivers_after_pending() {
        // Schedule three at t, pop one (its bucket is now part drained),
        // then schedule a fourth at t: it must pop last (largest seq).
        let mut q = EventQueue::new();
        let t = SimTime::from_us(9);
        for i in 0..3 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule(t, 3);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 3]);
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(60);
        let farther = SimTime::from_secs(61);
        q.schedule(far, "far");
        q.schedule(farther, "farther");
        q.schedule(far, "far, tied");
        q.schedule(SimTime::from_us(1), "near");
        assert_eq!((q.len(), q.overflow.len()), (4, 3));
        assert_eq!(q.pop().unwrap(), (SimTime::from_us(1), "near"));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop().unwrap(), (far, "far"));
        // After the jump, nearer events can still be scheduled.
        q.schedule(SimTime::from_secs(60) + SimDuration::from_us(5), "between");
        assert_eq!(q.pop().unwrap(), (far, "far, tied"));
        assert_eq!(q.pop().unwrap().1, "between");
        assert_eq!(q.pop().unwrap(), (farther, "farther"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn window_edge_splits_ring_and_overflow() {
        // The last picosecond of the window files into the ring; the
        // window end and later go to the overflow until the window
        // advances over them.
        let mut q = EventQueue::new();
        for (i, t) in [WINDOW_PS - 1, WINDOW_PS, WINDOW_PS + 1, 0]
            .into_iter()
            .enumerate()
        {
            q.schedule(SimTime::from_ps(t), i);
        }
        assert_eq!(q.overflow.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 3)));
        assert_eq!(q.pop(), Some((SimTime::from_ps(WINDOW_PS - 1), 0)));
        assert!(q.overflow.is_empty(), "advancing the window refills");
        // The window now starts at that event's bucket and ends one
        // bucket short of twice the first window's end.
        let end = 2 * WINDOW_PS - (1 << BUCKET_BITS);
        q.schedule(SimTime::from_ps(end), 5);
        q.schedule(SimTime::from_ps(end - 1), 4);
        assert_eq!(q.overflow.len(), 1);
        let rest: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 4, 5]);
    }

    #[test]
    fn heap_reference_agrees_on_dense_schedule() {
        let mut q = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // Deterministic pseudo-random times with heavy collisions.
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = SimTime::from_ps(x % 4096);
            q.schedule(t, i);
            heap.schedule(t, i);
        }
        loop {
            let (a, b) = (q.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 1u64);
        q.schedule(SimTime::from_us(9), 2u64);
        let _ = q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // The window is back at zero: a stale one would still pop in
        // order, but would file every earlier event into one bucket.
        assert_eq!((q.base, q.occupied), (0, [0; WORDS]));
        // After reset, seq and window are fresh: scheduling at an earlier
        // time than before the reset must be legal and ordered.
        q.schedule(SimTime::from_us(1), 3u64);
        q.schedule(SimTime::from_us(1), 4u64);
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 3u64)));
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 4u64)));
        assert!(q.pop().is_none());
    }

    /// Offset from `now` for one scheduling op; `kind` picks the shape so
    /// every placement path of the calendar is hit.
    fn offset(now: SimTime, kind: u8, raw: u64) -> u64 {
        // Picoseconds from `now` to the start of the bucket `k` ahead.
        let to_bucket = |k: u64| (((now.0 >> BUCKET_BITS) + k) << BUCKET_BITS) - now.0;
        match kind {
            // Ties: 0..4 ps, many events on identical timestamps.
            0 | 1 => raw % 4,
            // Inside the current or next bucket.
            2 => raw << (BUCKET_BITS - 6),
            // One picosecond before, at, or after a bucket boundary.
            3 => to_bucket(1 + raw % 8) + raw % 3 - 1,
            // One picosecond before, at, or after the window's end.
            4 => to_bucket(BUCKETS as u64) + raw % 3 - 1,
            // Far beyond the window (5 s timeouts), tie-prone.
            _ => SimDuration::from_secs(5).0 + ((raw % 4) << 30),
        }
    }

    /// Drive `q` and the heap reference through `ops`, requiring equal
    /// pops, lengths and head times throughout, then drain both.
    fn check_against_heap(
        q: &mut EventQueue<u64>,
        ops: &[(u8, u64)],
    ) -> Result<Vec<(SimTime, u64)>, proptest::TestCaseError> {
        let mut heap = HeapEventQueue::new();
        let mut now = SimTime::ZERO;
        let mut popped = Vec::new();
        for (id, &(kind, raw)) in ops.iter().enumerate() {
            if kind < 6 {
                let t = now + SimDuration::from_ps(offset(now, kind, raw));
                q.schedule(t, id as u64);
                heap.schedule(t, id as u64);
            } else {
                let a = q.pop();
                proptest::prop_assert_eq!(a, heap.pop());
                if let Some((t, id)) = a {
                    now = t;
                    popped.push((t, id));
                }
            }
            proptest::prop_assert_eq!(q.len(), heap.len());
            proptest::prop_assert_eq!(q.peek_time(), heap.peek_time());
        }
        loop {
            let a = q.pop();
            proptest::prop_assert_eq!(a, heap.pop());
            match a {
                Some(p) => popped.push(p),
                None => return Ok(popped),
            }
        }
    }

    proptest::proptest! {
        /// Popped timestamps are nondecreasing and equal-time events keep
        /// their insertion order, for arbitrary schedules.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ps(t), i);
            }
            let mut last = (SimTime::ZERO, 0usize);
            let mut popped = 0;
            while let Some((t, i)) = q.pop() {
                popped += 1;
                proptest::prop_assert!(t >= last.0);
                if t == last.0 && popped > 1 {
                    proptest::prop_assert!(i > last.1);
                }
                proptest::prop_assert_eq!(SimTime::from_ps(times[i]), t);
                last = (t, i);
            }
            proptest::prop_assert_eq!(popped, times.len());
        }

        /// The calendar agrees with the binary-heap reference model on
        /// arbitrary push/pop interleavings: same-timestamp ties inside
        /// a bucket, times straddling bucket boundaries, times at and
        /// just past the window's end, and 5 s timeouts far beyond it
        /// (through the overflow and back as the window advances).
        #[test]
        fn prop_matches_heap_reference(
            ops in proptest::collection::vec((0u8..9, 0u64..64), 1..400),
        ) {
            check_against_heap(&mut EventQueue::new(), &ops)?;
        }

        /// A queue that was used, reset and reused pops exactly what a
        /// fresh queue pops: workspace reuse depends on it.
        #[test]
        fn prop_reset_reuse_matches_fresh(
            warmup in proptest::collection::vec((0u8..9, 0u64..64), 0..200),
            ops in proptest::collection::vec((0u8..9, 0u64..64), 1..200),
            drain_warmup in 0u8..2,
        ) {
            let mut reused = EventQueue::new();
            let mut now = SimTime::ZERO;
            for (id, &(kind, raw)) in warmup.iter().enumerate() {
                if kind < 6 {
                    let t = now + SimDuration::from_ps(offset(now, kind, raw));
                    reused.schedule(t, id as u64);
                } else if let Some((t, _)) = reused.pop() {
                    now = t;
                }
            }
            if drain_warmup == 1 {
                while reused.pop().is_some() {}
            }
            reused.reset();
            let fresh = check_against_heap(&mut EventQueue::new(), &ops)?;
            proptest::prop_assert_eq!(check_against_heap(&mut reused, &ops)?, fresh);
        }
    }
}
