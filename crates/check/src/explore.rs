//! The sleep-set DFS schedule explorer.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::rc::Rc;

use sesame_core::builder::ModelInstance;
use sesame_dsm::{independent, DsmEvent, GroupTable, Machine};
use sesame_net::NodeId;
use sesame_sim::{SimTime, Simulation, TraceEntry};
use sesame_verify::{CheckKind, Verifier, Violation};
use sesame_workloads::canonical::{build_canonical, CanonicalConfig, COUNTER};

use crate::digest_set::DigestSet;

/// How far beyond the fabric's per-path FIFO guarantee the explorer may
/// reorder packet deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkMode {
    /// Packets on the same `(from, to)` link deliver in send order — the
    /// discipline the real fabric guarantees. Violations found in this
    /// mode are reachable in the timed model.
    #[default]
    Fifo,
    /// Additionally reorder packets on links *out of group roots*
    /// (sequenced-write fan-out). The member interfaces' reorder buffer
    /// and NACK machinery exist precisely to tolerate this, so the clean
    /// protocol must still pass — and mutants of that machinery (e.g.
    /// [`sesame_dsm::GwcMutation::SeqGap`]) become reachable.
    RelaxFromRoots,
    /// Reorder every link. The protocol *assumes* member-to-root FIFO
    /// (a release must not overtake the data writes before it), so clean
    /// runs can legitimately fail here; stress mode only.
    Relax,
}

/// Budgets and reduction switches for one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Maximum schedule length; longer executions are cut and counted as
    /// truncated (the exploration is then not complete).
    pub depth_max: usize,
    /// Maximum number of complete executions to run.
    pub schedules_max: u64,
    /// Maximum total tree leaves of any kind — completed schedules,
    /// truncations, sleep-blocked states, and hash prunes all count.
    /// This bounds wall-clock time even on configurations whose schedule
    /// space is dominated by abandoned branches (e.g. relaxed links),
    /// which the schedule budget alone never charges for.
    pub work_max: u64,
    /// Fold states already fully explored, keyed by machine digest plus
    /// pending-event set (on by default). Sound for the protocol
    /// invariants and the final-state oracle; may fold histories the
    /// real-time linearizability check would distinguish — switch it off
    /// when that check must be exhaustive.
    pub hash_states: bool,
    /// Packet-delivery discipline.
    pub links: LinkMode,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            depth_max: 500,
            schedules_max: 50_000,
            work_max: 500_000,
            hash_states: true,
            links: LinkMode::Fifo,
        }
    }
}

/// The outcome of one exploration.
#[derive(Debug)]
pub struct CheckReport {
    /// Complete executions explored.
    pub schedules: u64,
    /// Whether the whole schedule space was covered: no budget tripped
    /// and no counterexample cut the search short.
    pub complete: bool,
    /// Executions cut by the depth budget.
    pub truncated: u64,
    /// States whose every enabled event was in the sleep set (their
    /// behaviors are covered by sibling subtrees).
    pub sleep_blocked: u64,
    /// States skipped because an identical state was already explored
    /// (only with [`CheckOptions::hash_states`]).
    pub pruned: u64,
    /// Longest schedule seen.
    pub max_depth: usize,
    /// States visited: every node of the search tree, leaves included.
    pub states: u64,
    /// State digests remembered for folding when the search ended, at
    /// 8 bytes each (0 without [`CheckOptions::hash_states`]).
    pub stored_digests: u64,
    /// The violating schedule, if one was found.
    pub counterexample: Option<Counterexample>,
}

/// A violating schedule with everything needed to rerun and diagnose it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The workload the schedule applies to.
    pub config: CanonicalConfig,
    /// The chosen queue sequence numbers, in order.
    pub choices: Vec<u64>,
    /// What the online checkers reported.
    pub violations: Vec<Violation>,
    /// The full trace of the violating execution.
    pub trace: Vec<TraceEntry>,
}

/// The canonical workload at its initial state, tracing on: every node's
/// start pending as its own event, so each is its own choice point.
pub(crate) fn canonical_sim(cfg: CanonicalConfig) -> Simulation<Machine<ModelInstance>> {
    let machine = build_canonical(cfg);
    let n = machine.node_count();
    let mut sim = Simulation::new(machine);
    sim.set_tracing(true);
    for i in 0..n {
        let start = DsmEvent::Start { more: 0 };
        sim.schedule(SimTime::ZERO, (NodeId::new(i as u32), start));
    }
    sim
}

/// One execution in flight: the simulator plus its online checkers.
/// Handed down the search boxed, so each level's stack frame holds a
/// pointer instead of the whole machine.
struct Exec {
    sim: Simulation<Machine<ModelInstance>>,
    verifier: Rc<RefCell<Verifier>>,
}

impl Exec {
    fn start(cfg: &CanonicalConfig) -> Box<Exec> {
        let mut sim = canonical_sim(*cfg);
        let verifier = Rc::new(RefCell::new(Verifier::with_counter_spec(COUNTER.get())));
        sim.set_trace_observer(verifier.clone());
        Box::new(Exec { sim, verifier })
    }

    fn violated(&self) -> bool {
        !self.verifier.borrow().violations().is_empty()
    }
}

/// One pending event of a state, copied out of the queue: a choice the
/// explorer may make there.
#[derive(Debug, Clone, Copy)]
struct Choice {
    time: SimTime,
    seq: u64,
    node: NodeId,
    ev: DsmEvent,
}

/// The FIFO queue a pending event waits in: its node's local events, or
/// its packet's `(from, to)` link. Ordered as the digest visits them:
/// every local queue by node, then every link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Queue {
    Local(NodeId),
    Link(NodeId, NodeId),
}

impl Choice {
    fn queue(&self) -> Queue {
        match self.ev {
            DsmEvent::Packet(pkt, _) => Queue::Link(pkt.from, pkt.to),
            _ => Queue::Local(self.node),
        }
    }
}

/// Whether a scheduler may pick `state[i]` (`state` is `(time,
/// seq)`-sorted): a packet that is the oldest on its link or is on a
/// relaxed link, or a node's earliest local event. A few dozen events
/// pending, so the earlier ones are simply scanned.
fn enabled(state: &[Choice], i: usize, links: LinkMode, roots: &[NodeId]) -> bool {
    let c = &state[i];
    let relaxed = match c.ev {
        DsmEvent::Packet(pkt, _) => match links {
            LinkMode::Fifo => false,
            LinkMode::RelaxFromRoots => roots.contains(&pkt.from),
            LinkMode::Relax => true,
        },
        _ => false,
    };
    relaxed || state[..i].iter().all(|o| o.queue() != c.queue())
}

/// Digest of a mid-exploration state: the machine digest plus the pending
/// events — per-node local queues in order, per-link packet queues in
/// order. Times are excluded: under the asynchronous-closure semantics
/// they never influence which transitions are possible, only trace
/// timestamps.
///
/// The queues are hashed as the `BTreeMap<NodeId, Vec<DsmEvent>>` and
/// `BTreeMap<(NodeId, NodeId), Vec<Packet>>` they stand for — key, length,
/// events — without building either: `order` (scratch) sorts the indices
/// of the `(time, seq)`-sorted `state` by queue, each queue's events
/// staying in pending order.
fn state_digest(
    machine: &Machine<ModelInstance>,
    state: &[Choice],
    order: &mut Vec<usize>,
) -> Option<u64> {
    let machine_digest = machine.state_digest()?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    machine_digest.hash(&mut h);
    order.clear();
    order.extend(0..state.len());
    order.sort_unstable_by_key(|&i| (state[i].queue(), i));
    for run in order.chunk_by(|&a, &b| state[a].queue() == state[b].queue()) {
        match state[run[0]].queue() {
            Queue::Local(node) => node.hash(&mut h),
            Queue::Link(from, to) => (from, to).hash(&mut h),
        }
        run.len().hash(&mut h);
        for &i in run {
            match &state[i].ev {
                DsmEvent::Packet(pkt, _) => pkt.hash(&mut h),
                ev => ev.hash(&mut h),
            }
        }
    }
    Some(h.finish())
}

/// Whether the already-explored transition `z` commutes with the
/// about-to-be-explored `e` (both identified by pending seq in `state`).
/// Unknown seqs are conservatively dependent.
fn indep(groups: &GroupTable, state: &[Choice], z: u64, e: u64) -> bool {
    let find = |seq: u64| state.iter().find(|c| c.seq == seq);
    match (find(z), find(e)) {
        (Some(z), Some(e)) => independent(z.node, &z.ev, e.node, &e.ev, groups),
        _ => false,
    }
}

/// The scratch of one depth of the search tree, kept across every state
/// visited at that depth so a visit refills buffers instead of allocating
/// them.
#[derive(Debug, Default)]
struct Level {
    /// The state's pending events, in `(time, seq)` order.
    state: Vec<Choice>,
    /// The sleep set the state was entered with: a handful of seqs.
    sleep: Vec<u64>,
    /// The enabled events not asleep, in pending order: the branches.
    explorable: Vec<u64>,
    /// The branches already explored.
    done: Vec<u64>,
}

struct Explorer<'h> {
    cfg: CanonicalConfig,
    opts: CheckOptions,
    groups: GroupTable,
    roots: Vec<NodeId>,
    schedules: u64,
    truncated: u64,
    sleep_blocked: u64,
    pruned: u64,
    max_depth: usize,
    states: u64,
    budget_hit: bool,
    visited: DigestSet,
    visited_sleepy: DigestSet,
    counterexample: Option<Counterexample>,
    /// Per-depth scratch; `levels[d + 1].sleep` is where a state at depth
    /// `d` writes its child's sleep set.
    levels: Vec<Level>,
    /// Scratch for [`state_digest`] and the sleep-set member hashes.
    order: Vec<usize>,
    members: Vec<u64>,
    on_replay: &'h mut dyn FnMut(bool),
}

impl Explorer<'_> {
    /// Truncated executions count against the schedule budget too: a
    /// livelocking mutant would otherwise grind forever without ever
    /// *completing* a schedule. The work budget additionally charges for
    /// sleep-blocked and pruned leaves, bounding configurations whose
    /// trees are mostly abandoned branches.
    fn budget_exhausted(&self) -> bool {
        self.schedules + self.truncated >= self.opts.schedules_max
            || self.schedules + self.truncated + self.sleep_blocked + self.pruned
                >= self.opts.work_max
    }

    /// Replays `prefix` from the initial state. Every proper prefix was
    /// already checked violation-free, so only the final step can trip a
    /// checker.
    fn replay(&mut self, prefix: &[u64]) -> Box<Exec> {
        (self.on_replay)(true);
        let mut exec = Exec::start(&self.cfg);
        for &seq in prefix {
            assert!(
                exec.sim.step_seq(seq),
                "replay diverged: seq {seq} is not pending"
            );
        }
        (self.on_replay)(false);
        exec
    }

    fn record_counterexample(&mut self, exec: &Exec, choices: Vec<u64>) {
        self.counterexample = Some(Counterexample {
            config: self.cfg,
            choices,
            violations: exec.verifier.borrow().violations().to_vec(),
            trace: exec.sim.trace().entries().to_vec(),
        });
    }

    /// Final-state oracle for a drained execution: run the end-of-trace
    /// checks (rollback completeness, counter-value contiguity) and
    /// require every node's copy of the counter to equal the section
    /// count.
    fn finish_execution(&mut self, exec: Box<Exec>, prefix: &[u64]) -> ControlFlow<()> {
        exec.verifier.borrow_mut().finish();
        let Exec { sim, verifier } = *exec;
        let (machine, recorder) = sim.into_parts();
        let trace = recorder.entries();
        let mut violations = verifier.borrow().violations().to_vec();
        let expected = self.cfg.expected_counter();
        let end = trace.last().map(|e| e.time).unwrap_or(SimTime::ZERO);
        for i in 0..machine.node_count() {
            let got = machine.mem(NodeId::new(i as u32)).read(COUNTER);
            if got != expected {
                violations.push(Violation {
                    time: end,
                    node: i,
                    check: CheckKind::Linearizability,
                    message: format!(
                        "final counter at node{i} is {got}, expected {expected}: \
                         increments were lost or duplicated"
                    ),
                });
            }
        }
        if violations.is_empty() {
            return ControlFlow::Continue(());
        }
        self.counterexample = Some(Counterexample {
            config: self.cfg,
            choices: prefix.to_vec(),
            violations,
            trace: trace.to_vec(),
        });
        ControlFlow::Break(())
    }

    /// Explores the state `exec` reached by `prefix`, whose sleep set is
    /// `levels[prefix.len()].sleep`. The exec is consumed: it rolls down
    /// into the first child, so a linear run never replays; only sibling
    /// branches rebuild from the root.
    fn explore(&mut self, exec: Box<Exec>, prefix: &mut Vec<u64>) -> ControlFlow<()> {
        let depth = prefix.len();
        if self.levels.len() < depth + 2 {
            self.levels.resize_with(depth + 2, Level::default);
        }
        let mut level = std::mem::take(&mut self.levels[depth]);
        let flow = self.visit(exec, prefix, &mut level);
        self.levels[depth] = level;
        flow
    }

    /// [`Explorer::explore`]'s body, with its depth's scratch lent out.
    fn visit(
        &mut self,
        exec: Box<Exec>,
        prefix: &mut Vec<u64>,
        level: &mut Level,
    ) -> ControlFlow<()> {
        self.states += 1;
        self.max_depth = self.max_depth.max(prefix.len());
        if exec.violated() {
            self.record_counterexample(&exec, prefix.clone());
            return ControlFlow::Break(());
        }
        if exec.sim.pending_unordered().next().is_none() || exec.sim.stopped() {
            self.schedules += 1;
            return self.finish_execution(exec, prefix);
        }
        if prefix.len() >= self.opts.depth_max {
            self.truncated += 1;
            return ControlFlow::Continue(());
        }
        if self.budget_exhausted() {
            self.budget_hit = true;
            return ControlFlow::Break(());
        }
        let state = &mut level.state;
        state.clear();
        state.extend(exec.sim.pending_unordered().map(|p| Choice {
            time: p.time,
            seq: p.seq,
            node: p.msg.0,
            ev: p.msg.1,
        }));
        state.sort_unstable_by_key(|c| (c.time, c.seq));
        if self.opts.hash_states {
            if let Some(d) = state_digest(exec.sim.actor(), state, &mut self.order) {
                #[cfg(test)]
                tests::compare_with_the_collecting_digest(&exec.sim, d);
                // A hit means a previous *empty-sleep* visit already
                // explored every behavior from this state; any current
                // sleep set only narrows that, so skipping is safe.
                if self.visited.contains(d) {
                    self.pruned += 1;
                    return ControlFlow::Continue(());
                }
                if level.sleep.is_empty() {
                    self.visited.insert(d);
                } else {
                    // Exact (state, sleep-contents) revisit: an identical
                    // subtree was already explored — seqs differ across
                    // branches, so the sleep set is compared by the
                    // *events* it names, not their queue numbers.
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    d.hash(&mut h);
                    self.members.clear();
                    self.members.extend(level.sleep.iter().filter_map(|&z| {
                        state.iter().find(|c| c.seq == z).map(|c| {
                            let mut mh = std::collections::hash_map::DefaultHasher::new();
                            (c.node, c.ev).hash(&mut mh);
                            mh.finish()
                        })
                    }));
                    self.members.sort_unstable();
                    self.members.hash(&mut h);
                    if !self.visited_sleepy.insert(h.finish()) {
                        self.pruned += 1;
                        return ControlFlow::Continue(());
                    }
                }
            }
        }

        level.explorable.clear();
        for i in 0..state.len() {
            let seq = state[i].seq;
            if enabled(state, i, self.opts.links, &self.roots) && !level.sleep.contains(&seq) {
                level.explorable.push(seq);
            }
        }
        if level.explorable.is_empty() {
            // Everything enabled here is covered by a sibling subtree.
            self.sleep_blocked += 1;
            return ControlFlow::Continue(());
        }
        let mut rolling = Some(exec);
        level.done.clear();
        for &e in &level.explorable {
            if self.budget_exhausted() {
                self.budget_hit = true;
                return ControlFlow::Break(());
            }
            let child_sleep = &mut self.levels[prefix.len() + 1].sleep;
            child_sleep.clear();
            child_sleep.extend(
                (level.sleep.iter().chain(&level.done))
                    .copied()
                    .filter(|&z| indep(&self.groups, &level.state, z, e)),
            );
            prefix.push(e);
            let child = match rolling.take() {
                Some(mut ex) => {
                    assert!(ex.sim.step_seq(e), "enabled seq {e} must be pending");
                    ex
                }
                None => self.replay(prefix),
            };
            let r = self.explore(child, prefix);
            prefix.pop();
            r?;
            level.done.push(e);
        }
        ControlFlow::Continue(())
    }
}

/// Explores the schedule space of `cfg` under `opts`.
///
/// Returns a [`CheckReport`]; `report.complete` is true iff every
/// schedule (up to sleep-set equivalence, and state folding when enabled)
/// was executed without tripping a budget, and
/// `report.counterexample` carries the first violating schedule found.
///
/// # Panics
///
/// Panics if the workload's fabric is lossy — the independence relation
/// used for reduction assumes message delivery is reliable.
pub fn check(cfg: CanonicalConfig, opts: CheckOptions) -> CheckReport {
    check_with_replay_hook(cfg, opts, &mut |_| {})
}

/// [`check`], calling `on_replay(true)` before and `on_replay(false)`
/// after every rebuild of a prefix from the initial state, so a caller
/// can tell the replays' share of the search's work from the rest (the
/// footprint test counts heap allocations either side).
#[doc(hidden)]
pub fn check_with_replay_hook(
    cfg: CanonicalConfig,
    opts: CheckOptions,
    on_replay: &mut dyn FnMut(bool),
) -> CheckReport {
    let probe = build_canonical(cfg);
    assert_eq!(
        probe.fabric().loss_probability(),
        0.0,
        "sesame-check requires a loss-free fabric"
    );
    let groups = probe.groups().clone();
    drop(probe);
    let mut roots: Vec<NodeId> = groups.iter().map(|g| g.root()).collect();
    roots.sort_unstable();
    roots.dedup();

    let mut explorer = Explorer {
        cfg,
        opts,
        groups,
        roots,
        schedules: 0,
        truncated: 0,
        sleep_blocked: 0,
        pruned: 0,
        max_depth: 0,
        states: 0,
        budget_hit: false,
        visited: DigestSet::default(),
        visited_sleepy: DigestSet::default(),
        counterexample: None,
        levels: Vec::new(),
        order: Vec::new(),
        members: Vec::new(),
        on_replay,
    };
    let mut prefix = Vec::new();
    let root = Exec::start(&cfg);
    let _ = explorer.explore(root, &mut prefix);
    let complete =
        !explorer.budget_hit && explorer.truncated == 0 && explorer.counterexample.is_none();
    CheckReport {
        schedules: explorer.schedules,
        complete,
        truncated: explorer.truncated,
        sleep_blocked: explorer.sleep_blocked,
        pruned: explorer.pruned,
        max_depth: explorer.max_depth,
        states: explorer.states,
        stored_digests: (explorer.visited.len() + explorer.visited_sleepy.len()) as u64,
        counterexample: explorer.counterexample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::{BTreeMap, HashMap};

    use sesame_dsm::{Model, Packet, Word};
    use sesame_sim::TraceDetail;

    thread_local! {
        /// States whose digest [`compare_with_the_collecting_digest`]
        /// checked on this thread.
        static COMPARED: Cell<u64> = const { Cell::new(0) };
        /// While armed, each state digest and its full-history reference
        /// (see [`full_history_state_digest`]), mapped both ways.
        static PARTITION: RefCell<Option<Partition>> = const { RefCell::new(None) };
    }

    #[derive(Default)]
    struct Partition {
        to_reference: HashMap<u64, u64>,
        to_digest: HashMap<u64, u64>,
        /// States compared.
        states: u64,
    }

    /// `Machine::state_digest` as it was while it collected each node's
    /// words into a sorted `Vec` to hash, over `model`'s digest (the
    /// model's own part is checked against its own collecting copy in
    /// `sesame-dsm`).
    fn collecting_machine_digest(m: &Machine<ModelInstance>, model: u64) -> Option<u64> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        model.hash(&mut h);
        let nodes = (0..m.node_count()).map(|i| NodeId::new(i as u32));
        for (i, node) in nodes.clone().enumerate() {
            let mut words: Vec<(u32, Word)> =
                m.mem(node).iter().map(|(v, w)| (v.get(), w)).collect();
            words.sort_unstable();
            (i, words).hash(&mut h);
        }
        for node in nodes {
            m.program(node).digest()?.hash(&mut h);
        }
        Some(h.finish())
    }

    /// The state digest as it was computed before the explorer kept its
    /// scratch in reused buffers: collected into two `BTreeMap`s of
    /// `Vec`s, then hashed, over `machine_digest`.
    fn collecting_state_digest(
        sim: &Simulation<Machine<ModelInstance>>,
        machine_digest: u64,
    ) -> u64 {
        let mut locals: BTreeMap<NodeId, Vec<DsmEvent>> = BTreeMap::new();
        let mut links: BTreeMap<(NodeId, NodeId), Vec<Packet>> = BTreeMap::new();
        for p in sim.pending() {
            let (node, ev) = p.msg;
            match ev {
                DsmEvent::Packet(pkt, _) => links.entry((pkt.from, pkt.to)).or_default().push(*pkt),
                other => locals.entry(*node).or_default().push(*other),
            }
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        machine_digest.hash(&mut h);
        for (node, evs) in &locals {
            node.hash(&mut h);
            evs.hash(&mut h);
        }
        for (link, pkts) in &links {
            link.hash(&mut h);
            pkts.hash(&mut h);
        }
        h.finish()
    }

    /// The state digest with the GWC model hashing every write its roots
    /// ever sequenced, rebuilt from the execution's `RootSeq` records, in
    /// place of its running sum over them.
    fn full_history_state_digest(sim: &Simulation<Machine<ModelInstance>>) -> Option<u64> {
        let mut histories: BTreeMap<u32, Vec<(u32, Word, u32)>> = BTreeMap::new();
        for e in sim.trace().entries() {
            if let TraceDetail::Seq {
                group,
                var,
                val,
                origin,
                ..
            } = e.detail
            {
                histories.entry(group).or_default().push((var, val, origin));
            }
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        histories.hash(&mut h);
        let machine = sim.actor();
        let gwc = machine.model().as_gwc().expect("canonical model is GWC");
        let model = gwc.state_digest_over(h.finish());
        collecting_machine_digest(machine, model).map(|d| collecting_state_digest(sim, d))
    }

    /// Called by the explorer on every state it digests (test builds
    /// only): the digest must be the collecting one's, bit for bit, and,
    /// while a partition test is armed, must part states as the full
    /// histories do.
    pub(super) fn compare_with_the_collecting_digest(
        sim: &Simulation<Machine<ModelInstance>>,
        digest: u64,
    ) {
        let machine = sim.actor();
        let model = machine.model().digest().expect("a digested state");
        let collecting =
            collecting_machine_digest(machine, model).map(|d| collecting_state_digest(sim, d));
        assert_eq!(Some(digest), collecting, "the digest moved");
        COMPARED.with(|n| n.set(n.get() + 1));
        PARTITION.with(|p| {
            let mut p = p.borrow_mut();
            let Some(p) = p.as_mut() else {
                return;
            };
            let reference = full_history_state_digest(sim).expect("a digested state");
            let seen = *p.to_reference.entry(digest).or_insert(reference);
            assert_eq!(seen, reference, "one digest, two full histories");
            let seen = *p.to_digest.entry(reference).or_insert(digest);
            assert_eq!(seen, digest, "one full history, two digests");
            p.states += 1;
        });
    }

    #[test]
    fn every_digest_of_a_two_cpu_search_is_the_collecting_one() {
        // Each state's digest is also checked to part states as the
        // full write histories did: the GWC model's digest sums its
        // sequenced writes instead of hashing every root's history, and
        // two digests must be equal exactly when the digests over the
        // full histories are.
        let cfg = CanonicalConfig {
            contenders: 2,
            rounds: 1,
            ..CanonicalConfig::default()
        };
        for (links, work_max, depth_max) in [
            (LinkMode::Fifo, 500_000, 500),
            (LinkMode::RelaxFromRoots, 5_000, 120),
            (LinkMode::Relax, 5_000, 120),
        ] {
            PARTITION.with(|p| *p.borrow_mut() = Some(Partition::default()));
            let before = COMPARED.with(Cell::get);
            let opts = CheckOptions {
                links,
                work_max,
                depth_max,
                ..CheckOptions::default()
            };
            let report = check(cfg, opts);
            let compared = COMPARED.with(Cell::get) - before;
            // Every state past the leaf tests is digested once.
            assert!(compared > 1_000, "{links:?}: {compared} digests compared");
            assert!(compared <= report.states, "{links:?}: {report:?}");
            let p = PARTITION.with(|p| p.borrow_mut().take()).expect("armed");
            assert_eq!(p.states, compared, "{links:?}");
            assert_eq!(p.to_reference.len(), p.to_digest.len(), "{links:?}");
        }
    }
}
