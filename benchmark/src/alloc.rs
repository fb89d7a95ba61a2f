//! Gated counting allocator.
//!
//! The `metabench` binary (and the one test that needs it) registers
//! [`CountingAlloc`] as its `#[global_allocator]`. Counting is off by
//! default: each allocation then costs one relaxed load of a flag nobody
//! writes, so the timed passes and the two-thread sharded passes run on an
//! unperturbed allocator. The counted reference pass flips the flag through
//! [`count_allocs`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus a gated call counter.
pub struct CountingAlloc;

// Both are statistics that publish no other data, hence `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; the only addition is a
// relaxed flag load and counter bump, which allocate nothing and are
// reentrancy-safe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` with counting switched on (when `on`) and returns its result
/// with the number of `alloc`/`realloc` calls made meanwhile, on any thread.
/// Reads 0 when `on` is false or [`CountingAlloc`] is not the registered
/// allocator.
pub fn count_allocs<T>(on: bool, f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    COUNTING.store(on, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, CALLS.load(Ordering::Relaxed) - before)
}
