//! The property the zero-allocation tests rely on: a measured window sees
//! its own thread's allocations only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use sesame_alloc_probe::{allocations, live_bytes, peak_bytes, reset_peak, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_sibling_threads_allocations_stay_out_of_the_window() {
    // Two rendezvous points force the interleaving: the sibling allocates
    // strictly inside the main thread's measured window.
    let (open, close) = (Barrier::new(2), Barrier::new(2));
    let sibling = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            open.wait();
            let before = allocations();
            let boxes: Vec<Box<u64>> = (0..1_000).map(Box::new).collect();
            assert_eq!(boxes.len(), 1_000);
            sibling.store(allocations() - before, Ordering::SeqCst);
            close.wait();
        });
        let before = allocations();
        open.wait();
        close.wait();
        let mine = allocations() - before;
        let sibling = sibling.load(Ordering::SeqCst);
        assert!(sibling >= 1_000, "sibling counted {sibling}");
        assert_eq!(mine, 0, "barrier waits do not allocate");
    });
}

#[test]
fn own_allocations_are_counted_once_each() {
    let before = allocations();
    let mut v: Vec<u64> = Vec::with_capacity(4);
    v.extend([1, 2, 3, 4]);
    assert_eq!(allocations() - before, 1);
    v.push(5); // grows: one realloc
    assert_eq!(allocations() - before, 2);
}

#[test]
fn live_and_peak_bytes_follow_the_threads_own_blocks() {
    let base = live_bytes();
    reset_peak();
    let big = vec![0u8; 1 << 20];
    let mut small: Vec<u8> = Vec::with_capacity(1 << 10);
    assert_eq!(live_bytes() - base, (1 << 20) + (1 << 10));
    small.reserve_exact(1 << 12); // realloc: the block changes size
    assert_eq!(live_bytes() - base, (1 << 20) + (1 << 12));
    drop(big);
    assert_eq!(live_bytes() - base, 1 << 12);
    assert_eq!(
        peak_bytes() - base,
        (1 << 20) + (1 << 12),
        "peak outlives the free"
    );
    reset_peak();
    assert_eq!(
        peak_bytes(),
        live_bytes(),
        "a new window starts at the current level"
    );
    drop(small);
    assert_eq!(live_bytes(), base);
}
