//! What a search costs the checker itself, on the ledger's `check_mutex`
//! configuration (3 CPUs × 1 round, 100 000 leaves): the folding store's
//! bytes per remembered state, and the heap allocations a visit makes
//! outside the prefix replays (which only a forking explorer removes).
//!
//! Counted by `sesame-alloc-probe` on this test's own thread, so the
//! budgets hold under `cargo test`'s parallel runner.

use sesame_alloc_probe::{allocations, live_bytes, peak_bytes, reset_peak, CountingAlloc};
use sesame_check::{check_with_replay_hook, CanonicalConfig, CheckOptions};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_folded_state_costs_its_digest_and_a_visit_allocates_outside_replays_almost_never() {
    let cfg = CanonicalConfig {
        contenders: 3,
        rounds: 1,
        ..CanonicalConfig::default()
    };
    let opts = CheckOptions {
        work_max: 100_000,
        ..CheckOptions::default()
    };
    let (mut replay_started, mut in_replays) = (0, 0);
    let base = live_bytes();
    reset_peak();
    let before = allocations();
    let report = check_with_replay_hook(cfg, opts, &mut |starting| {
        if starting {
            replay_started = allocations();
        } else {
            in_replays += allocations() - replay_started;
        }
    });
    let outside_replays = allocations() - before - in_replays;
    let peak = peak_bytes().saturating_sub(base);
    // The same search as before the store and the scratch changed: the
    // ledger's exact counts.
    assert_eq!(
        (report.schedules, report.truncated, report.sleep_blocked),
        (21, 0, 57_584),
        "{report:?}"
    );
    assert_eq!(
        (report.pruned, report.max_depth),
        (42_395, 64),
        "{report:?}"
    );

    // The store holds 8 bytes a digest plus at most a quarter of spare
    // capacity; everything else the search keeps live (one execution, its
    // trace, the per-depth scratch) fits the megabyte. Two `HashSet<u64>`s
    // peaked at 3.6 MB here (9 bytes a slot, and both tables while the
    // big one doubled), over this budget of 2.9 MB; it reads 2.1 MB.
    let budget = 10 * report.stored_digests as usize + (1 << 20);
    assert!(
        peak <= budget,
        "search peak {peak} B over {budget} B for {} stored digests",
        report.stored_digests
    );

    // Every visit used to build its pending view, snapshot, hash sets and
    // sleep sets afresh, and two footprints per independence test: 40
    // allocations a state outside replays. What is left (0.75) is the
    // rolled-forward step's handler and each leaf's final checks.
    let per_state = outside_replays as f64 / report.states as f64;
    assert!(
        per_state <= 2.0,
        "{outside_replays} allocations outside replays over {} states: {per_state:.2} a state",
        report.states
    );
}
