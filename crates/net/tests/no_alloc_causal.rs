//! Proof that causal-id tracking is free when tracing is detached:
//! allocating ids, stamping them onto packets, and comparing them performs
//! no heap allocation. Companion to the sim crate's counting-allocator
//! test for the trace recorder itself.

use sesame_alloc_probe::{allocations, CountingAlloc};
use sesame_net::{CauseAlloc, CauseId};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn allocating_causal_ids_never_touches_the_heap() {
    let mut alloc = CauseAlloc::new();
    let before = allocations();
    let mut last = CauseId::NONE;
    for _ in 0..100_000 {
        let id = alloc.fresh();
        assert!(id.is_some() && id > last);
        last = id;
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "causal-id allocation must be a bare counter increment"
    );
    assert_eq!(alloc.allocated(), 100_000);
}
