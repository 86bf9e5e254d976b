//! Per-worker reusable simulation state: [`SimWorkspace`] is the bundle
//! a sweep worker thread carries from cell to cell so that event-queue
//! storage, step buffers and scratch maps are allocated once per worker
//! instead of once per cell (the storage-node trace runner behind every
//! weight sweep is the consumer).
//!
//! # Reset contract
//!
//! Sweep throughput must never buy nondeterminism. Every type stored in
//! a workspace implements [`Scratch`]: `Default` construction plus a
//! `reset` that restores the **observable** `Default` state while
//! keeping allocations. Consumers (`storage_node::run_trace_windowed_in`)
//! call `reset` on their scratch **at the start of every run**, before
//! any state is read — so even a scratch left dirty by a panicking or
//! truncated previous cell cannot leak into the next one, and a cell's
//! result stays a pure function of `(config, options, seed)` at any
//! thread count. The workspace itself never calls `reset`; it only
//! stores.
//!
//! # Keying
//!
//! Slots are keyed by type: each consumer defines one private scratch
//! struct holding everything its run reuses and fetches it with
//! [`SimWorkspace::slot`]. Different consumers compose in one workspace
//! without coordination (a worker running two kinds of cells back to
//! back holds one scratch of each type).

use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Reusable per-worker state: `Default`-constructible, and resettable
/// to the observable `Default` state without releasing allocations.
///
/// `reset` must leave the value indistinguishable — through its public
/// API and in every effect on a simulation — from `T::default()`.
pub trait Scratch: Default + Send + 'static {
    /// Restore the observable `Default` state, keeping allocations.
    fn reset(&mut self);
}

/// A type-keyed store of [`Scratch`] values, one per worker thread (see
/// module docs). Handed to each worker by
/// [`crate::ScenarioRunner::run_with_workspace`] and reused across
/// every cell that worker claims.
#[derive(Default)]
pub struct SimWorkspace {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl SimWorkspace {
    /// Create an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The workspace's `T` slot, created on first access via
    /// `T::default()`. The value comes back exactly as the previous
    /// user left it — callers reset it before reading any state (the
    /// module-level contract).
    pub fn slot<T: Scratch>(&mut self) -> &mut T {
        self.slots
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut::<T>()
            .expect("workspace slot is keyed by its own TypeId")
    }

    /// Number of distinct scratch types currently stored.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        calls: u64,
        buf: Vec<u8>,
    }
    impl Scratch for Counter {
        fn reset(&mut self) {
            self.calls = 0;
            self.buf.clear();
        }
    }

    #[derive(Default)]
    struct Other(u32);
    impl Scratch for Other {
        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    #[test]
    fn slot_persists_across_accesses_and_keys_by_type() {
        let mut ws = SimWorkspace::new();
        ws.slot::<Counter>().calls = 7;
        ws.slot::<Counter>().buf.extend_from_slice(b"abc");
        ws.slot::<Other>().0 = 5;
        assert_eq!(ws.slot::<Counter>().calls, 7);
        assert_eq!(ws.slot::<Counter>().buf, b"abc");
        assert_eq!(ws.slot::<Other>().0, 5);
        assert_eq!(ws.n_slots(), 2);
    }

    #[test]
    fn reset_keeps_capacity_but_clears_observable_state() {
        let mut ws = SimWorkspace::new();
        let c = ws.slot::<Counter>();
        c.buf.reserve(1024);
        c.buf.extend_from_slice(&[1, 2, 3]);
        c.calls = 3;
        let cap = c.buf.capacity();
        c.reset();
        assert_eq!(c.calls, 0);
        assert!(c.buf.is_empty());
        assert_eq!(c.buf.capacity(), cap, "reset must not release storage");
    }
}
