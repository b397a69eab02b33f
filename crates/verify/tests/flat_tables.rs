//! The verifier keeps its per-sequence state — the payload the root bound
//! to each sequence number, the writer's clock bound to it — in flat
//! per-group tables. This test holds them to the `(group, seq)` hash maps
//! they replaced (`reference/`): the same violations, in the same order,
//! with the same text, and the same notes on a truncated trace, over every
//! scenario, the planted-fault traces, and generated streams with gaps,
//! duplicates, late lower numbers, applies before their number is
//! sequenced, and far numbers.
//!
//! Online, the tables also retire at each group's applied floor
//! (`TraceObserver::on_seq_floor`). The verdicts must not move: the online
//! verifier, floors and all, is held to an offline feed of the same
//! records without them, over every scenario, runs of the planted protocol
//! mutants, and the planted-fault traces fed the floors a machine would
//! publish for them.

mod common;
mod reference;

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use sesame_core::MutexMutation;
use sesame_dsm::{DsmEvent, GwcMutation};
use sesame_net::NodeId;
use sesame_sim::{
    ApplyMode, DetRng, SimTime, Simulation, TraceDetail, TraceEntry, TraceKind as K, TraceObserver,
};
use sesame_verify::{check_trace, check_trace_partial, Verifier};
use sesame_workloads::canonical::{build_canonical, CanonicalConfig};
use sesame_workloads::scenario::Scenario;

use common::{apply, e, rseq, var, vv};

/// Asserts both verifiers report the same over `entries`, finished and
/// as a truncated trace, and returns how many violations that is.
fn same_verdicts(what: &str, entries: &[TraceEntry]) -> usize {
    let flat = check_trace(entries);
    assert_eq!(flat, reference::check_trace(entries), "{what}");
    let partial = check_trace_partial(entries);
    assert_eq!(
        (partial.violations, partial.incomplete),
        reference::check_trace_partial(entries),
        "{what} (truncated)"
    );
    flat.len()
}

/// Keeps every record a run emits.
#[derive(Default)]
struct Recording(Vec<TraceEntry>);

impl TraceObserver for Recording {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.0.push(*entry);
    }
}

/// A sequence number far from any a root assigns.
fn far(rng: &mut DetRng) -> u64 {
    [0, 1_000_000_000, u64::MAX, u64::MAX - 1][rng.next_below(4) as usize]
}

/// `trace` with a few sequencing faults planted at random: an apply or a
/// sequencing decision renumbered (near or far), two applies' payloads
/// swapped, a decision repeated later, records dropped.
fn perturbed(trace: &[TraceEntry], rng: &mut DetRng) -> Vec<TraceEntry> {
    let mut t = trace.to_vec();
    let sequencing: Vec<usize> = (0..t.len())
        .filter(|&i| matches!(t[i].kind, K::RootSeq | K::GwcApply))
        .collect();
    for _ in 0..1 + rng.next_below(4) {
        let at = sequencing[rng.next_below(sequencing.len() as u64) as usize];
        match rng.next_below(5) {
            0 | 1 => {
                let (near, step, far) = (rng.chance(0.7), rng.next_below(8), far(rng));
                if let TraceDetail::Seq { seq, .. } | TraceDetail::Apply { seq, .. } =
                    &mut t[at].detail
                {
                    *seq = if near { seq.saturating_add(step) } else { far };
                }
            }
            2 => {
                let other = sequencing[rng.next_below(sequencing.len() as u64) as usize];
                let detail = t[other].detail;
                if t[at].kind == t[other].kind {
                    t[other].detail = std::mem::replace(&mut t[at].detail, detail);
                }
            }
            3 => {
                let mut again = t[at];
                again.time = t.last().map_or(again.time, |last| last.time);
                t.push(again);
            }
            _ => {
                t.remove(at);
                return t;
            }
        }
    }
    t
}

#[test]
fn every_scenario_gets_the_reference_verdict_clean_and_perturbed() {
    let mut flagged = 0;
    for name in [
        "three-cpu",
        "contention",
        "task-queue",
        "pipeline",
        "bigmesh",
        "canonical",
    ] {
        let scenario = Scenario::parse(name).expect("a listed scenario");
        let recording = Rc::new(RefCell::new(Recording::default()));
        if let Err(e) = scenario.run(Some(recording.clone())) {
            panic!("{e}");
        }
        let trace = std::mem::take(&mut recording.borrow_mut().0);
        assert!(
            trace.iter().any(|e| e.kind == K::RootSeq),
            "{name} sequences writes"
        );
        assert_eq!(same_verdicts(name, &trace), 0, "{name} is clean");
        let mut rng = DetRng::new(name.len() as u64);
        for round in 0..6 {
            let what = format!("{name} perturbed #{round}");
            flagged += same_verdicts(&what, &perturbed(&trace, &mut rng));
        }
    }
    assert!(
        flagged >= 12,
        "perturbed traces raised {flagged} violations"
    );
}

#[test]
fn the_planted_faults_get_the_reference_verdict() {
    for (name, trace) in common::planted() {
        assert!(same_verdicts(name, &trace) > 0, "{name} is caught");
    }
}

/// One write's payload: `(var, val, origin)`.
type Payload = (u32, i64, u32);

/// A stream of root decisions, member applies and the accesses and lock
/// edges around them, with sequence numbers no root would assign.
fn stream(rng: &mut DetRng) -> Vec<TraceEntry> {
    const GROUPS: [u32; 3] = [0, 1, 70_000];
    let mut next = [0u64; 3];
    let mut writes: Vec<Payload> = Vec::new();
    let mut sequenced: Vec<(u32, u64, Payload)> = Vec::new();
    let mut t = Vec::new();
    for ns in 0..200 {
        let node = 1 + rng.next_below(4) as usize;
        let g = rng.next_below(3) as usize;
        let group = GROUPS[g];
        let (kind, detail) = match rng.next_below(12) {
            0..=2 => {
                let (v, val) = (1 + rng.next_below(3) as u32, rng.next_below(4) as i64);
                writes.push((v, val, node as u32));
                (K::AccWrite, vv(v, val))
            }
            3..=5 => {
                let payload = match writes.len() {
                    0 => (1, 0, 1),
                    n => writes[rng.next_below(n as u64) as usize],
                };
                let seq = match rng.next_below(20) {
                    0..=13 => {
                        next[g] += 1;
                        next[g]
                    }
                    14 => next[g],
                    15 => next[g].saturating_sub(1 + rng.next_below(5)),
                    16 | 17 => {
                        next[g] += 2 + rng.next_below(6);
                        next[g]
                    }
                    _ => far(rng),
                };
                sequenced.push((group, seq, payload));
                let (v, val, origin) = payload;
                (K::RootSeq, rseq(group, seq, v, val, origin))
            }
            6 => {
                let (v, val, origin) = match writes.len() {
                    0 => (1, 0, 1),
                    n => writes[rng.next_below(n as u64) as usize],
                };
                let filtered = TraceDetail::Filtered {
                    group,
                    var: v,
                    val,
                    origin,
                };
                (K::RootFiltered, filtered)
            }
            7..=9 => {
                let (group, seq, (v, val, origin)) = match (sequenced.len(), rng.next_below(6)) {
                    (0, _) | (_, 0) => (group, next[g] + 1, (1, 0, 1)),
                    (_, 1) => (group, far(rng), (1, 0, 1)),
                    (n, _) => sequenced[rng.next_below(n as u64) as usize],
                };
                let val = if rng.chance(0.05) { val + 1 } else { val };
                let mode = [
                    ApplyMode::Applied,
                    ApplyMode::HwBlocked,
                    ApplyMode::Interrupt,
                ][rng.next_below(3) as usize];
                (K::GwcApply, apply(group, seq, v, val, origin, mode))
            }
            10 => (K::AccRead, var(1 + rng.next_below(3) as u32)),
            _ => {
                let kind =
                    [K::EvAcquired, K::LockRelease, K::EvReleased][rng.next_below(3) as usize];
                (kind, var(0))
            }
        };
        t.push(e(ns, node, kind, detail));
    }
    t
}

#[test]
fn generated_sequencing_streams_get_the_reference_verdict() {
    let mut rng = DetRng::new(28);
    let mut flagged = 0;
    for round in 0..300 {
        let trace = stream(&mut rng);
        flagged += usize::from(same_verdicts(&format!("stream #{round}"), &trace) > 0);
    }
    assert!(flagged > 150, "{flagged} of 300 streams raised a violation");
}

/// A number far above the first one seen, far below it, and `u64::MAX`
/// (the collector asked for a 32 GB array on the first and overflowed on
/// the last) are checked like near ones: each apply is matched to its
/// payload and joins its writer's clock.
#[test]
fn far_sequence_numbers_are_checked_like_near_ones() {
    let far = 1_000_000_000;
    let applied = |node, group, seq, v, val, origin| {
        e(
            100,
            node,
            K::GwcApply,
            apply(group, seq, v, val, origin, ApplyMode::Applied),
        )
    };
    let trace = vec![
        // Group 0 numbers 1, then far above it, then the top of the range.
        e(10, 1, K::AccWrite, vv(5, 0)),
        e(11, 0, K::RootSeq, rseq(0, 1, 5, 0, 1)),
        e(20, 1, K::AccWrite, vv(5, 1)),
        e(21, 0, K::RootSeq, rseq(0, far, 5, 1, 1)),
        e(30, 1, K::AccWrite, vv(5, 2)),
        e(31, 0, K::RootSeq, rseq(0, u64::MAX, 5, 2, 1)),
        // Group 1 numbers far, then 1: far below the first number seen.
        e(40, 3, K::AccWrite, vv(6, 0)),
        e(41, 0, K::RootSeq, rseq(1, far, 6, 0, 3)),
        e(50, 3, K::AccWrite, vv(6, 1)),
        e(51, 0, K::RootSeq, rseq(1, 1, 6, 1, 3)),
        // Group 2's first number is the top of the range: the next one
        // expected saturates there instead of overflowing.
        e(60, 3, K::AccWrite, vv(7, 0)),
        e(61, 0, K::RootSeq, rseq(2, u64::MAX, 7, 0, 3)),
        applied(2, 0, 1, 5, 0, 1),
        applied(2, 0, far, 5, 1, 1),
        applied(2, 0, u64::MAX, 5, 2, 1),
        applied(4, 1, far, 6, 0, 3),
        applied(4, 1, 1, 6, 1, 3),
        applied(4, 2, u64::MAX, 7, 0, 3),
        // Ordered after the writes they applied: no race.
        e(200, 2, K::AccWrite, vv(5, 9)),
        e(200, 4, K::AccWrite, vv(6, 9)),
        e(200, 4, K::AccWrite, vv(7, 9)),
    ];
    let violations = check_trace(&trace);
    let messages: Vec<&str> = violations.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(
        messages,
        [
            "group 0's root assigned sequence number 1000000000 but 2 was expected: root \
             numbering has a gap",
            "group 1's root assigned sequence number 1000000000 but 1 was expected: root \
             numbering has a gap",
            "group 2's root assigned sequence number 18446744073709551615 but 1 was expected: \
             root numbering has a gap",
            "node2 applied group 0 write seq=1000000000 out of order: expected seq=2",
            "node4 applied group 1 write seq=1000000000 out of order: expected seq=1",
            "node4 applied group 2 write seq=18446744073709551615 out of order: expected seq=1",
        ]
    );
    same_verdicts("far numbers", &trace);
    // Without the applies, nothing orders the last writes: both race.
    let unapplied: Vec<TraceEntry> = trace
        .into_iter()
        .filter(|e| e.kind != K::GwcApply)
        .collect();
    let races = check_trace(&unapplied);
    assert_eq!(races.len(), 6, "{races:#?}");
    assert!(races[3..]
        .iter()
        .all(|v| v.message.starts_with("write-write race")));
    same_verdicts("far numbers, unapplied", &unapplied);
}

/// Two online verifiers told every applied floor — one to finish, one to
/// finish as a truncated trace — and the records they were fed.
#[derive(Default)]
struct Online {
    finished: Verifier,
    truncated: Verifier,
    records: Vec<TraceEntry>,
    floors: usize,
}

impl TraceObserver for Online {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.finished.feed(entry);
        self.truncated.feed(entry);
        self.records.push(*entry);
    }

    fn on_seq_floor(&mut self, group: u32, floor: u64) {
        self.finished.seq_floor(group, floor);
        self.truncated.seq_floor(group, floor);
        self.floors += 1;
    }
}

impl Online {
    /// Asserts the online verdicts equal an offline feed's of the same
    /// records without floors, finished and truncated, and returns how
    /// many violations that is.
    fn same_as_offline(&mut self, what: &str) -> usize {
        self.finished.finish();
        let offline = check_trace(&self.records);
        assert_eq!(self.finished.violations(), &offline[..], "{what}");
        let notes = self.truncated.finish_partial();
        let partial = check_trace_partial(&self.records);
        assert_eq!(
            (self.truncated.violations(), &notes[..]),
            (&partial.violations[..], &partial.incomplete[..]),
            "{what} (truncated)"
        );
        offline.len()
    }
}

#[test]
fn every_scenario_gets_the_same_verdict_online_with_floors_as_offline() {
    for name in [
        "three-cpu",
        "contention",
        "task-queue",
        "pipeline",
        "bigmesh",
        "canonical",
    ] {
        let scenario = Scenario::parse(name).expect("a listed scenario");
        let online = Rc::new(RefCell::new(Online::default()));
        if let Err(e) = scenario.run(Some(online.clone())) {
            panic!("{e}");
        }
        let mut online = online.borrow_mut();
        assert!(online.floors > 0, "{name} publishes floors");
        assert_eq!(online.same_as_offline(name), 0, "{name} is clean");
    }
}

/// The canonical workload with a planted protocol bug, run online on a
/// random schedule — a root's packets delivered out of their link's order
/// among the choices, as `sesame check --links relax-roots` explores —
/// until the online verifier reports or the run drains. The verifier
/// reports before the bug trips the protocol's own asserts.
fn mutant_run(cfg: CanonicalConfig, seed: u64) -> Online {
    let machine = build_canonical(cfg);
    let nodes = machine.node_count();
    let roots: HashSet<NodeId> = machine.groups().iter().map(|g| g.root()).collect();
    let mut sim = Simulation::new(machine);
    let online = Rc::new(RefCell::new(Online::default()));
    sim.set_trace_observer(online.clone());
    for node in 0..nodes as u32 {
        sim.schedule(
            SimTime::ZERO,
            (NodeId::new(node), DsmEvent::Start { more: 0 }),
        );
    }
    let mut rng = DetRng::new(seed);
    while online.borrow().finished.violations().is_empty() {
        let pending = sim.pending();
        let (mut links, mut locals) = (HashSet::new(), HashSet::new());
        let enabled: Vec<u64> = (pending.iter())
            .filter(|p| match p.msg {
                (_, DsmEvent::Packet(pkt, _)) => {
                    roots.contains(&pkt.from) || links.insert((pkt.from, pkt.to))
                }
                (node, _) => locals.insert(*node),
            })
            .map(|p| p.seq)
            .collect();
        if enabled.is_empty() {
            break;
        }
        sim.step_seq(enabled[rng.next_below(enabled.len() as u64) as usize]);
    }
    drop(sim);
    Rc::try_unwrap(online)
        .ok()
        .expect("the run is over")
        .into_inner()
}

#[test]
fn the_planted_mutants_get_the_same_verdict_online_with_floors_as_offline() {
    let mutants = [
        ("seq-gap", GwcMutation::SeqGap, MutexMutation::None),
        (
            "stale-grant-reuse",
            GwcMutation::StaleGrantReuse,
            MutexMutation::None,
        ),
        (
            "drop-rollback",
            GwcMutation::None,
            MutexMutation::DropRollback,
        ),
    ];
    for (name, gwc_mutation, mutex_mutation) in mutants {
        let cfg = CanonicalConfig {
            contenders: 3,
            rounds: 4,
            gwc_mutation,
            mutex_mutation,
            ..CanonicalConfig::default()
        };
        let (mut caught, mut floored) = (0, 0);
        for seed in 0..40 {
            let mut online = mutant_run(cfg, seed);
            let found = online.same_as_offline(&format!("{name} seed {seed}"));
            caught += usize::from(found > 0);
            floored += usize::from(found > 0 && online.floors > 0);
        }
        assert!(caught > 0, "{name} was never caught");
        assert!(floored > 0, "{name} was never caught behind a floor");
    }
}

/// Feeds `trace` to the online verifiers with the floors a machine would
/// publish for it: after each apply, the highest number through which
/// every node that applies any of the group's writes in the trace has
/// applied every write.
fn fed_with_floors(trace: &[TraceEntry]) -> Online {
    let mut members: HashMap<u32, HashSet<usize>> = HashMap::new();
    for entry in trace {
        if let TraceDetail::Apply { group, .. } = entry.detail {
            members.entry(group).or_default().insert(entry.actor);
        }
    }
    // Per (node, group): the prefix applied without a gap, and the
    // numbers applied above it.
    let mut applied: HashMap<(usize, u32), (u64, BTreeSet<u64>)> = HashMap::new();
    let mut floors: HashMap<u32, u64> = HashMap::new();
    let mut online = Online::default();
    for entry in trace {
        online.on_record(entry);
        let (K::GwcApply, &TraceDetail::Apply { group, seq, .. }) = (entry.kind, &entry.detail)
        else {
            continue;
        };
        let (prefix, above) = applied.entry((entry.actor, group)).or_default();
        above.insert(seq);
        while above.remove(&(*prefix + 1)) {
            *prefix += 1;
        }
        let floor = (members[&group].iter())
            .map(|&node| applied.get(&(node, group)).map_or(0, |a| a.0))
            .min()
            .expect("the applying node is a member");
        let last = floors.entry(group).or_default();
        if floor > *last {
            *last = floor;
            online.on_seq_floor(group, floor);
        }
    }
    online
}

#[test]
fn the_planted_faults_get_the_same_verdict_with_floors_as_without() {
    let mut floored = 0;
    for (name, trace) in common::planted() {
        let mut online = fed_with_floors(&trace);
        assert!(online.same_as_offline(name) > 0, "{name} is caught");
        floored += usize::from(online.floors > 0);
    }
    assert!(floored >= 3, "{floored} planted traces were fed floors");
}
