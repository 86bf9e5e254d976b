//! Streamed arrivals: feed an arrival-sorted stimulus list into an event
//! loop without pre-scheduling it.
//!
//! Trace-driven loops used to push every arrival into the event queue
//! before the first event ran, so the queue carried the whole trace for
//! the whole run. [`ArrivalCursor`] walks the arrivals in order instead
//! and hands out the next one whenever it is due no later than the
//! queue's head. Arrivals win ties because a pre-scheduled arrival was
//! pushed before any other event, so it held a lower sequence number
//! than every event it tied with; equal arrivals keep their input order.
//! The merged pop order is therefore exactly the pre-scheduled one.

use crate::queue::EventQueue;
use crate::time::SimTime;
use std::iter::Peekable;

/// Cursor over `(arrival time, payload)` pairs in nondecreasing time
/// order.
pub struct ArrivalCursor<I: Iterator> {
    arrivals: Peekable<I>,
}

impl<A, I: Iterator<Item = (SimTime, A)>> ArrivalCursor<I> {
    /// Wrap an arrival-sorted iterator.
    pub fn new(arrivals: I) -> Self {
        ArrivalCursor {
            arrivals: arrivals.peekable(),
        }
    }

    /// The loop's next event: the next arrival, wrapped by `wrap`, when
    /// it is due no later than the head of `queue`; otherwise the head of
    /// `queue`. `None` once both are exhausted.
    #[inline]
    pub fn pop<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        wrap: impl FnOnce(A) -> E,
    ) -> Option<(SimTime, E)> {
        if let Some(&(at, _)) = self.arrivals.peek() {
            if queue.peek_time().is_none_or(|head| at <= head) {
                let (at, payload) = self.arrivals.next().expect("peeked");
                debug_assert!(
                    self.arrivals.peek().is_none_or(|(next, _)| *next >= at),
                    "arrivals out of time order"
                );
                return Some((at, wrap(payload)));
            }
        }
        queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{HeapEventQueue, BUCKETS, BUCKET_BITS};
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Arrival(u32),
        Other(u32),
    }

    fn drain(arrivals: &[(SimTime, u32)], q: &mut EventQueue<Ev>) -> Vec<(SimTime, Ev)> {
        let mut cursor = ArrivalCursor::new(arrivals.iter().copied());
        std::iter::from_fn(|| cursor.pop(q, Ev::Arrival)).collect()
    }

    #[test]
    fn tied_arrivals_keep_input_order_and_precede_a_tied_event() {
        let t = SimTime::from_us(5);
        let mut q = EventQueue::new();
        q.schedule(t, Ev::Other(9));
        assert_eq!(
            drain(&[(t, 1), (t, 2)], &mut q),
            vec![(t, Ev::Arrival(1)), (t, Ev::Arrival(2)), (t, Ev::Other(9))]
        );
    }

    #[test]
    fn earlier_events_run_before_a_later_arrival() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), Ev::Other(0));
        q.schedule(SimTime::from_us(3), Ev::Other(1));
        let kinds: Vec<Ev> = drain(&[(SimTime::from_us(2), 7)], &mut q)
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(kinds, vec![Ev::Other(0), Ev::Arrival(7), Ev::Other(1)]);
    }

    type Follow<'a> = &'a dyn Fn(&Ev) -> Vec<u64>;

    /// Reference loop: every arrival pre-scheduled, then each popped
    /// event schedules the follow-ups `follow` names.
    fn prescheduled(arrivals: &[(SimTime, u32)], follow: Follow) -> Vec<(SimTime, Ev)> {
        let mut q = HeapEventQueue::new();
        for &(t, a) in arrivals {
            q.schedule(t, Ev::Arrival(a));
        }
        let mut out = Vec::new();
        let mut next_id = 0;
        while let Some((now, ev)) = q.pop() {
            for d in follow(&ev) {
                q.schedule(now + SimDuration::from_ps(d), Ev::Other(next_id));
                next_id += 1;
            }
            out.push((now, ev));
        }
        out
    }

    fn streamed(arrivals: &[(SimTime, u32)], follow: Follow) -> Vec<(SimTime, Ev)> {
        let mut q = EventQueue::new();
        let mut cursor = ArrivalCursor::new(arrivals.iter().copied());
        let mut out = Vec::new();
        let mut next_id = 0;
        while let Some((now, ev)) = cursor.pop(&mut q, Ev::Arrival) {
            for d in follow(&ev) {
                q.schedule(now + SimDuration::from_ps(d), Ev::Other(next_id));
                next_id += 1;
            }
            out.push((now, ev));
        }
        out
    }

    /// A gap or delay in picoseconds whose shape `kind` picks: ties,
    /// sub-bucket steps, whole buckets, or about one calendar window.
    fn span(kind: u8, raw: u64) -> u64 {
        match kind {
            0 | 1 => raw % 4,
            2 => raw << (BUCKET_BITS - 4),
            3 => (raw % 4) << BUCKET_BITS,
            _ => ((BUCKETS as u64) << BUCKET_BITS) - 2 + raw % 4,
        }
    }

    proptest::proptest! {
        /// Streaming reproduces the pre-scheduled pop order exactly, with
        /// follow-up delays chosen to tie with later arrivals and with
        /// each other, and with arrival gaps and delays that straddle
        /// bucket boundaries and cross the calendar window (through the
        /// overflow while a later arrival is still due first).
        #[test]
        fn prop_streamed_matches_prescheduled(
            gaps in proptest::collection::vec((0u8..5, 0u64..64), 1..60),
            delays in proptest::collection::vec((0u8..5, 0u64..64), 1..8),
        ) {
            let mut t = 0;
            let arrivals: Vec<(SimTime, u32)> = gaps
                .iter()
                .enumerate()
                .map(|(i, &(kind, raw))| {
                    t += span(kind, raw);
                    (SimTime::from_ps(t), i as u32)
                })
                .collect();
            let delay = |i: usize| {
                let (kind, raw) = delays[i % delays.len()];
                span(kind, raw)
            };
            let follow = |ev: &Ev| -> Vec<u64> {
                match ev {
                    Ev::Arrival(a) => vec![delay(*a as usize)],
                    Ev::Other(id) if *id < 200 => vec![delay(*id as usize); (*id % 3) as usize],
                    Ev::Other(_) => Vec::new(),
                }
            };
            proptest::prop_assert_eq!(
                prescheduled(&arrivals, &follow),
                streamed(&arrivals, &follow)
            );
        }
    }
}
