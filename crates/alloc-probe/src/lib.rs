//! # sesame-alloc-probe — a per-thread counting allocator for tests
//!
//! The zero-allocation tests across the workspace measure "how many heap
//! allocations did this window of code perform". A process-global counter
//! cannot answer that under `cargo test`, which runs the `#[test]`s of one
//! binary on parallel threads: a sibling test's allocations land inside
//! the measured window. [`CountingAlloc`] counts **per thread** instead,
//! so a window measured on one test thread sees only that thread's own
//! allocations.
//!
//! Beside the call count it keeps the thread's **live bytes** (requested
//! sizes allocated minus freed, by this thread) and their high-water mark,
//! for the footprint tests that bound what a machine holds and what a run
//! peaks at.
//!
//! This is a dev-dependency only, and its own crate because the library
//! crates it serves (`sesame-sim`, `sesame-telemetry`, …) forbid `unsafe`,
//! which implementing [`GlobalAlloc`] requires.
//!
//! ```
//! use sesame_alloc_probe::{allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! let before = allocations();
//! let v = vec![1u8; 32];
//! assert_eq!(allocations() - before, 1);
//! drop(v);
//! ```

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Signed: a thread may free blocks another thread allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocating call (`alloc`,
/// `alloc_zeroed`, `realloc`) against the calling thread. Install it with
/// `#[global_allocator]` in the test binary that measures.
pub struct CountingAlloc;

fn count() {
    // `try_with`: a thread that allocates while its TLS is being torn down
    // simply goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Moves the calling thread's live bytes by `delta`, raising the peak.
fn resize(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting side effect touches only
// thread-local `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resize(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s requirements.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocating calls made so far **by the calling thread** (0 unless
/// [`CountingAlloc`] is the binary's global allocator).
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not yet freed (requested
/// sizes; 0 if it has freed more than it allocated, which happens when it
/// drops blocks another thread made).
#[must_use]
pub fn live_bytes() -> usize {
    LIVE.with(Cell::get).max(0) as usize
}

/// The highest [`live_bytes`] the calling thread has reached since its
/// last [`reset_peak`] (or since it started).
#[must_use]
pub fn peak_bytes() -> usize {
    PEAK.with(Cell::get).max(0) as usize
}

/// Restarts the calling thread's high-water mark at its current
/// [`live_bytes`], opening a new measured window.
pub fn reset_peak() {
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
}
