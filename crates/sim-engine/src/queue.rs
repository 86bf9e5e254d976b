//! Time-ordered event queue with deterministic FIFO tie-breaking.
//!
//! [`EventQueue`] is the one queue every simulator in this workspace
//! drains. It is one type with two private regimes that share one
//! contract (nondecreasing pop times, FIFO among equal timestamps via a
//! monotone sequence number, debug causality check):
//!
//! * a binary heap while few events are pending. Up to ~16k pending on
//!   the bench host a cache-resident sift costs less than the wheel's
//!   slot bookkeeping;
//! * a hierarchical timing wheel with amortized O(1) schedule/pop, plus
//!   a binary-heap calendar overflow for timers beyond the wheel
//!   horizon. It wins from ~32k pending up (~1.2× over the heap at 64k,
//!   ~7× at 1M).
//!
//! The queue starts on the heap and migrates **once** into the wheel
//! when live pending reaches `WHEEL_THRESHOLD` (16 384), moving every entry
//! with its already-assigned `(time, seq)` pair, so the pop sequence is
//! identical to either structure run alone. The threshold is a
//! compile-time constant: the regime a run uses is a pure function of
//! its event sequence. Both regimes carry real runs: a storage-node run
//! keeps about a dozen events pending (one per busy chip and channel)
//! and a fault-free system run about a hundred, so both stay on the
//! heap; a system run with a timeout policy keeps one timer per
//! in-flight request, and every `ext_faults` full-scale cell peaks at
//! 20k–40k pending. The test suite keeps the plain binary heap as an
//! oracle and requires identical pop sequences from both regimes and
//! from migrations at arbitrary points.
//!
//! # Wheel design
//!
//! Time is integer picoseconds ([`SimTime`]). The wheel has
//! `LEVELS` = 7 levels of 64 slots; level `l` slots are `64^l` ps
//! wide, so one full rotation covers `64^7 = 2^42` ps ≈ 4.4 s of
//! simulated time relative to the current wheel position — far beyond
//! any timer the simulators arm (DCQCN timers are µs-scale, SSD erases
//! ms-scale). Events whose time differs from the wheel position above
//! bit 42 go to the overflow heap and migrate into the wheel when the
//! wheel catches up (each event migrates at most once).
//!
//! `schedule` picks the level from the highest differing 6-bit group
//! between the event time and the wheel position (`elapsed`): one XOR,
//! one `leading_zeros`, one push. `pop` finds the lowest nonempty
//! level's lowest slot through per-level occupancy bitmaps
//! (`trailing_zeros`); level-0 slots are one picosecond wide, so a
//! drained slot is a batch of equal-time events sorted by sequence
//! number — FIFO for free. Higher-level slots cascade: their events
//! redistribute to lower levels as the wheel position advances, at most
//! once per level per event, which gives the amortized O(1) bound.
//!
//! Slot vectors, the delivery batch, and the cascade scratch buffer are
//! all reused across operations, so a warmed-up queue schedules and
//! pops without allocating.

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

/// Bits per wheel level: 64 slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask selecting one level's slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels. Level `l` slots are `64^l` ps wide; the whole wheel
/// spans `2^(6*7) = 2^42` ps (≈ 4.4 s) relative to its position.
const LEVELS: usize = 7;
/// Bits covered by the wheel; times differing from `elapsed` at or
/// above this bit live in the overflow heap.
const SPAN_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// Live-pending count at which [`EventQueue`] migrates from the binary
/// heap to the timing wheel: the top of the heap's measured regime (it
/// wins up to ~16k pending, the wheel from ~32k up, and the crossover
/// zone is within a few percent either way). Compile-time fixed — the
/// migration point must be a pure function of the event sequence, never
/// of wall-clock measurements.
const WHEEL_THRESHOLD: usize = 16_384;

// A wheel/heap entry for a word-sized payload is exactly 24 bytes
// (time + seq + payload, no padding): three entries per cache line in
// slot vectors and the delivery batch. Growth here taxes every
// simulator's hot loop, so it fails the build instead of slipping in.
const _: () = assert!(std::mem::size_of::<Entry<u64>>() == 24);
const _: () = assert!(std::mem::size_of::<Entry<()>>() == 16);

/// The central data structure of every simulator in this workspace: a
/// priority queue of `(SimTime, E)` pairs delivering events in
/// nondecreasing time order, FIFO among equal timestamps.
///
/// Determinism matters: the simulators seed all their RNGs and rely on
/// this queue never reordering same-time events, so a run is a pure
/// function of its configuration and seed. The heap→wheel migration
/// (see the module docs) never changes the pop sequence.
pub struct EventQueue<E> {
    /// Small-regime store (pre-migration).
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Large-regime store, stored inline so post-migration operations
    /// pay no pointer hop — its slot table is one ~10 KB allocation at
    /// construction, retained across `reset` for workspace reuse.
    wheel: Wheel<E>,
    /// True once migrated: every operation delegates to the wheel.
    on_wheel: bool,
    threshold: usize,
    next_seq: u64,
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
            heap: BinaryHeap::new(),
            wheel: Wheel::new(),
            on_wheel: false,
            threshold: WHEEL_THRESHOLD,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// An empty queue migrating at `threshold` pending events (minimum
    /// 1), so tests can drive interleavings across the migration point.
    #[cfg(test)]
    pub(crate) fn with_threshold(threshold: usize) -> Self {
        EventQueue {
            threshold: threshold.max(1),
            ..Self::new()
        }
    }

    /// Move every heap entry into the wheel, preserving `(time, seq)`.
    /// The wheel starts positioned at the last popped timestamp — every
    /// pending entry is at or after it (causality contract), and any
    /// release-mode violator is clamped exactly as `schedule` clamps.
    #[cold]
    fn migrate(&mut self) {
        let wheel = &mut self.wheel;
        wheel.reset();
        wheel.elapsed = self.last_popped.0;
        wheel.last_popped = self.last_popped;
        wheel.next_seq = self.next_seq;
        wheel.len = self.heap.len();
        for Reverse(entry) in self.heap.drain() {
            let t = entry.time.0.max(wheel.elapsed);
            wheel.place_at(t, entry);
        }
        self.on_wheel = true;
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` is earlier than the most recently
    /// popped timestamp (scheduling into the past breaks causality).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if self.on_wheel {
            return self.wheel.schedule(at, event);
        }
        debug_assert!(
            at >= self.last_popped,
            "scheduling into the past: {at:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            event,
        }));
        if self.heap.len() >= self.threshold {
            self.migrate();
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.on_wheel {
            return self.wheel.pop();
        }
        let Reverse(e) = self.heap.pop()?;
        self.last_popped = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.on_wheel {
            return self.wheel.peek_time();
        }
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        if self.on_wheel {
            return self.wheel.len;
        }
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restore the pristine `EventQueue::new()` state — empty, heap
    /// regime, sequence counter and causality clock at zero — while
    /// keeping the heap and wheel allocations. A reset queue is
    /// observably indistinguishable from a freshly built one; workspace
    /// reuse across simulation cells depends on exactly that.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.wheel.reset();
        self.on_wheel = false;
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

/// The hierarchical timing wheel behind [`EventQueue`]'s large regime
/// (see the module docs). It keeps the same `(time, seq)` contract as
/// the heap regime on its own, which the tests check directly.
struct Wheel<E> {
    /// `LEVELS * SLOTS` slot vectors, flattened (`level * 64 + slot`).
    slots: Box<[Vec<Entry<E>>]>,
    /// Per-level slot occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Far-future events (beyond the wheel span from `elapsed`).
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// The drained current-slot batch, sorted descending by
    /// `(time, seq)` so `pop` takes from the back.
    deliver: Vec<Entry<E>>,
    /// Scratch buffer for cascading a higher-level slot.
    cascade: Vec<Entry<E>>,
    /// Wheel position: the slot time events are currently delivered
    /// from. Never exceeds the earliest pending event time.
    elapsed: u64,
    next_seq: u64,
    /// Count of pending events across slots, overflow, and batch.
    len: usize,
    /// Highest timestamp ever popped; used to catch causality violations.
    last_popped: SimTime,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            deliver: Vec::new(),
            cascade: Vec::new(),
            elapsed: 0,
            next_seq: 0,
            len: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Wheel level for an event at `t` given the current position:
    /// the highest 6-bit group where they differ.
    #[inline]
    fn level_for(elapsed: u64, t: u64) -> usize {
        let diff = elapsed ^ t;
        if diff == 0 {
            return 0;
        }
        ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
    }

    /// Place an entry into the wheel or the overflow heap. `entry.time`
    /// must be ≥ `elapsed` (callers clamp).
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
        let t = entry.time.0;
        debug_assert!(t >= self.elapsed);
        self.place_at(t, entry);
    }

    /// [`Wheel::place`] with an explicit placement time `t` (the entry
    /// keeps its own `time`): heap→wheel migration uses it to apply the
    /// same past-time clamp [`Wheel::schedule`] applies, while
    /// preserving `(time, seq)` pairs assigned by the heap.
    #[inline]
    fn place_at(&mut self, t: u64, entry: Entry<E>) {
        debug_assert!(t >= self.elapsed);
        if (t ^ self.elapsed) >> SPAN_BITS != 0 {
            self.overflow.push(Reverse(entry));
            return;
        }
        let level = Self::level_for(self.elapsed, t);
        let slot = ((t >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "scheduling into the past: {at:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        // Clamp for wheel placement only (the entry keeps its time): a
        // contract-violating past event lands in the current slot and
        // still pops next, ordered by (time, seq) — matching the heap.
        let t = SimTime(at.0.max(self.elapsed));
        if !self.deliver.is_empty() && at.0 <= self.elapsed {
            // A batch at `elapsed` is mid-delivery; merge by (time, seq)
            // into the descending-sorted batch so order holds.
            let entry = Entry {
                time: at,
                seq,
                event,
            };
            let pos = self
                .deliver
                .partition_point(|e| (e.time, e.seq) > (entry.time, entry.seq));
            self.deliver.insert(pos, entry);
            return;
        }
        self.place(Entry {
            time: t,
            seq,
            event,
        });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(e) = self.deliver.pop() {
            self.len -= 1;
            self.last_popped = e.time;
            return Some((e.time, e.event));
        }
        loop {
            // Pull overflow events that fit the wheel at its current
            // position (each event migrates at most once).
            while let Some(Reverse(head)) = self.overflow.peek() {
                if (head.time.0 ^ self.elapsed) >> SPAN_BITS != 0 {
                    break;
                }
                let Reverse(entry) = self.overflow.pop().expect("peeked");
                self.place(entry);
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty: jump to the overflow's earliest event.
                let Reverse(head) = self.overflow.peek()?;
                self.elapsed = head.time.0;
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // One-picosecond slot: a batch of equal-time events.
                let slot_time = (self.elapsed & !SLOT_MASK) | slot as u64;
                debug_assert!(slot_time >= self.elapsed);
                self.elapsed = slot_time;
                self.occupied[0] &= !(1 << slot);
                let bucket = &mut self.slots[slot];
                std::mem::swap(bucket, &mut self.deliver);
                self.deliver
                    .sort_unstable_by_key(|e| Reverse((e.time, e.seq)));
                let e = self.deliver.pop().expect("occupied slot was empty");
                self.len -= 1;
                self.last_popped = e.time;
                return Some((e.time, e.event));
            }
            // Cascade: advance to the slot's base time and redistribute
            // its events to lower levels.
            let shift = SLOT_BITS * level as u32;
            let base = ((self.elapsed >> shift >> SLOT_BITS) << SLOT_BITS | slot as u64) << shift;
            debug_assert!(base >= self.elapsed);
            self.elapsed = base;
            self.occupied[level] &= !(1 << slot);
            let idx = level * SLOTS + slot;
            std::mem::swap(&mut self.slots[idx], &mut self.cascade);
            let mut pending = std::mem::take(&mut self.cascade);
            for entry in pending.drain(..) {
                self.place(entry);
            }
            self.cascade = pending;
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.deliver.last() {
            return Some(e.time);
        }
        if let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) {
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                return Some(SimTime((self.elapsed & !SLOT_MASK) | slot as u64));
            }
            // Higher-level slots are unordered inside: scan for the min.
            return self.slots[level * SLOTS + slot]
                .iter()
                .map(|e| e.time)
                .min();
        }
        self.overflow.peek().map(|Reverse(e)| e.time)
    }

    /// Back to the `Wheel::new()` state — no pending events, position
    /// and sequence counter at zero — keeping every allocation.
    fn reset(&mut self) {
        for (level, bits) in self.occupied.iter_mut().enumerate() {
            let mut b = *bits;
            while b != 0 {
                let slot = b.trailing_zeros() as usize;
                b &= b - 1;
                self.slots[level * SLOTS + slot].clear();
            }
            *bits = 0;
        }
        self.overflow.clear();
        self.deliver.clear();
        self.len = 0;
        self.elapsed = 0;
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

/// The plain `BinaryHeap` event queue: the executable reference model
/// the tests hold both of [`EventQueue`]'s regimes (and the streamed
/// arrival cursor) against.
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
        let mut q = Wheel::new();
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
        let mut q = Wheel::new();
        let t = SimTime::from_us(1);
        q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn same_time_insert_mid_batch_delivers_after_pending() {
        // Schedule three at t, pop one (batch now mid-delivery), then
        // schedule a fourth at t: it must pop last (largest seq).
        let mut q = Wheel::new();
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
        let mut q = Wheel::new();
        // Beyond the 2^42 ps wheel span from t=0.
        let far = SimTime::from_secs(60);
        let farther = SimTime::from_secs(61);
        q.schedule(far, "far");
        q.schedule(farther, "farther");
        q.schedule(SimTime::from_us(1), "near");
        assert_eq!(q.len, 3);
        assert_eq!(q.pop().unwrap(), (SimTime::from_us(1), "near"));
        assert_eq!(q.pop().unwrap(), (far, "far"));
        // After migrating, nearer events can still be scheduled.
        q.schedule(SimTime::from_secs(60) + SimDuration::from_us(5), "between");
        assert_eq!(q.pop().unwrap().1, "between");
        assert_eq!(q.pop().unwrap(), (farther, "farther"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascades_across_levels() {
        // Events spread over several orders of magnitude exercise every
        // wheel level and the cascade path.
        let mut q = Wheel::new();
        let times: Vec<u64> = (0..20).map(|i| 1u64 << i).chain([0, 63, 64, 65]).collect();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ps(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort();
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_ps(), e))).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn heap_reference_agrees_on_dense_schedule() {
        let mut wheel = Wheel::new();
        let mut heap = HeapEventQueue::new();
        // Deterministic pseudo-random times with heavy collisions.
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = SimTime::from_ps(x % 4096);
            wheel.schedule(t, i);
            heap.schedule(t, i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn adaptive_migrates_once_and_keeps_fifo() {
        let mut q = EventQueue::with_threshold(8);
        let t = SimTime::from_us(3);
        // Cross the threshold with heavy same-timestamp collisions: the
        // migration must carry the heap-assigned sequence numbers.
        for i in 0..20 {
            q.schedule(t, i);
        }
        assert!(q.on_wheel, "threshold crossed: must be on the wheel");
        assert_eq!(q.len(), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
        // Draining does not demote: the queue migrates once.
        q.schedule(t, 99);
        assert!(q.on_wheel);
    }

    #[test]
    fn adaptive_below_threshold_stays_on_heap() {
        let mut q = EventQueue::with_threshold(64);
        for i in 0..63 {
            q.schedule(SimTime::from_us(i), i);
        }
        assert!(!q.on_wheel);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(0)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..63).collect::<Vec<_>>());
    }

    #[test]
    fn adaptive_migration_through_overflow_times() {
        // Entries past the 2^42 ps wheel horizon at migration time must
        // come back in order through the wheel's overflow heap.
        let mut q = EventQueue::with_threshold(4);
        q.schedule(SimTime::from_secs(60), "far");
        q.schedule(SimTime::from_us(1), "near");
        q.schedule(SimTime::from_secs(61), "farther");
        q.schedule(SimTime::from_us(2), "soon");
        assert!(q.on_wheel);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["near", "soon", "far", "farther"]);
    }

    #[test]
    fn reset_restores_pristine_state() {
        // Drive a queue through a run that migrates, reset, and require
        // the second run's pops to be identical to the first — the
        // workspace-reuse contract.
        let script = |q: &mut EventQueue<u64>| {
            let mut popped = Vec::new();
            for i in 0..12u64 {
                q.schedule(SimTime::from_us(7 + (i % 3)), i);
            }
            while let Some((t, e)) = q.pop() {
                popped.push((t, e));
            }
            popped
        };
        let mut reused = EventQueue::with_threshold(8);
        let first = script(&mut reused);
        assert!(reused.on_wheel);
        reused.reset();
        assert!(!reused.on_wheel, "reset returns to the heap regime");
        assert!(reused.is_empty());
        let second = script(&mut reused);
        assert_eq!(first, second);

        let mut wheel = Wheel::new();
        wheel.schedule(SimTime::from_us(5), 1u64);
        let _ = wheel.pop();
        wheel.schedule(SimTime::from_us(9), 2u64);
        wheel.reset();
        // After reset, seq and position are fresh: scheduling at an
        // earlier time than before the reset must be legal and ordered.
        wheel.schedule(SimTime::from_us(1), 3u64);
        wheel.schedule(SimTime::from_us(1), 4u64);
        assert_eq!(wheel.pop(), Some((SimTime::from_us(1), 3u64)));
        assert_eq!(wheel.pop(), Some((SimTime::from_us(1), 4u64)));
        assert!(wheel.pop().is_none());
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

        /// The wheel agrees with the binary-heap reference model on
        /// arbitrary push/pop interleavings: heavy same-timestamp
        /// collisions, offsets spanning every wheel level, and
        /// far-future times past the 2^42 ps wheel horizon (which
        /// travel through the overflow heap and migrate back).
        #[test]
        fn prop_matches_heap_reference(
            ops in proptest::collection::vec((0u8..8, 0u64..64), 1..400),
        ) {
            let mut wheel = Wheel::new();
            let mut heap = HeapEventQueue::new();
            let mut now = SimTime::ZERO;
            let mut next_id = 0u64;
            for &(kind, raw) in &ops {
                match kind {
                    // Schedules at now + offset; the offset shape is
                    // chosen by kind so every wheel regime is hit.
                    0..=4 => {
                        let offset = match kind {
                            // Collision-heavy: offsets 0..4 ps, many
                            // events land on identical timestamps.
                            0 | 1 => raw % 4,
                            // Around slot boundaries of level 0/1.
                            2 => raw * 64,
                            // High levels of the wheel.
                            3 => raw << 36,
                            // Past the wheel horizon: overflow heap.
                            _ => (1u64 << 42) + (raw << 30),
                        };
                        let t = now + SimDuration::from_ps(offset);
                        wheel.schedule(t, next_id);
                        heap.schedule(t, next_id);
                        next_id += 1;
                    }
                    // Pops must agree exactly, including on empty.
                    _ => {
                        let (a, b) = (wheel.pop(), heap.pop());
                        proptest::prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                }
            }
            // Drain both queues in lockstep to the end.
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                proptest::prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// The queue agrees with BOTH references — the binary heap and
        /// the bare timing wheel — on arbitrary push/pop interleavings
        /// whose pending count wanders across the migration threshold
        /// (small thresholds force the migration to happen
        /// mid-interleaving, in every offset regime).
        #[test]
        fn prop_adaptive_matches_both_references(
            ops in proptest::collection::vec((0u8..8, 0u64..64), 1..400),
            threshold in 1usize..48,
        ) {
            let mut adaptive = EventQueue::with_threshold(threshold);
            let mut wheel = Wheel::new();
            let mut heap = HeapEventQueue::new();
            let mut now = SimTime::ZERO;
            let mut next_id = 0u64;
            for &(kind, raw) in &ops {
                match kind {
                    0..=4 => {
                        let offset = match kind {
                            0 | 1 => raw % 4,
                            2 => raw * 64,
                            3 => raw << 36,
                            _ => (1u64 << 42) + (raw << 30),
                        };
                        let t = now + SimDuration::from_ps(offset);
                        adaptive.schedule(t, next_id);
                        wheel.schedule(t, next_id);
                        heap.schedule(t, next_id);
                        next_id += 1;
                    }
                    _ => {
                        let a = adaptive.pop();
                        proptest::prop_assert_eq!(a, wheel.pop());
                        proptest::prop_assert_eq!(a, heap.pop());
                        proptest::prop_assert_eq!(adaptive.len(), heap.len());
                        proptest::prop_assert_eq!(adaptive.peek_time(), heap.peek_time());
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                }
            }
            loop {
                let a = adaptive.pop();
                proptest::prop_assert_eq!(a, wheel.pop());
                proptest::prop_assert_eq!(a, heap.pop());
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
