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

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting side effect touches only
// a thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
