//! Gated, per-thread allocation counting for `srcbench trace`.
//!
//! A relaxed `AtomicBool` gates the counter and only the traced rep
//! turns it on, so untraced runs pay one predictable branch per
//! allocation. Counts are per thread, so a span that reads the counter
//! before and after its call gets exactly its own allocations even while
//! the other pool worker allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized and free of `Drop`, so touching it from inside
    // the allocator never allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus the gated counter.
pub struct Counting;

#[inline]
fn count() {
    if COUNTING.load(Relaxed) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; `count` only touches a
// const thread-local `Cell<u64>` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
