//! A counting global allocator.
//!
//! Counting is off unless switched on (traced runs switch it on); when off
//! each allocation pays one relaxed load. When on, every allocation bumps a
//! process-wide counter and the calling thread's own counter, so a layer's
//! allocations can be told apart from the generator's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus allocation counts.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count() {
        if COUNTING.load(Ordering::Relaxed) {
            PROCESS.fetch_add(1, Ordering::Relaxed);
            // `try_with`: the thread's slot may already be gone while the
            // thread tears down its other locals.
            let _ = THREAD.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and a const-initialised
// thread-local cell, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) by every thread while counting.
pub fn process_allocs() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}

/// Allocations by the calling thread while counting.
pub fn thread_allocs() -> u64 {
    THREAD.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation() {
        set_counting(true);
        let (t0, p0) = (thread_allocs(), process_allocs());
        let boxed = std::hint::black_box(Box::new([7u8; 64]));
        let (t1, p1) = (thread_allocs(), process_allocs());
        drop(boxed);
        // Other test threads may allocate concurrently: the process count
        // can only have grown by more, the thread count by exactly one.
        assert_eq!(t1 - t0, 1);
        assert!(p1 - p0 >= 1);
    }
}
