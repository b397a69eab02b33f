//! The sleep-set DFS schedule explorer.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::rc::Rc;

use sesame_core::builder::ModelInstance;
use sesame_dsm::{independent, DsmEvent, GroupTable, Machine, Packet};
use sesame_net::{ContentionModel, NodeId};
use sesame_sim::{PendingEvent, SimTime, Simulation, TraceEntry};
use sesame_verify::{CheckKind, Verifier, Violation};
use sesame_workloads::canonical::{build_canonical, CanonicalConfig, COUNTER};

/// The simulator message type of a DSM machine run.
type Msg = (NodeId, DsmEvent);

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
struct Exec {
    sim: Simulation<Machine<ModelInstance>>,
    verifier: Rc<RefCell<Verifier>>,
}

impl Exec {
    fn start(cfg: &CanonicalConfig) -> Exec {
        let mut sim = canonical_sim(*cfg);
        let verifier = Rc::new(RefCell::new(Verifier::with_counter_spec(COUNTER.get())));
        sim.set_trace_observer(verifier.clone());
        Exec { sim, verifier }
    }

    fn violated(&self) -> bool {
        !self.verifier.borrow().violations().is_empty()
    }
}

/// The events a scheduler may pick at a state: every packet that is the
/// oldest on its (non-relaxed) link, every packet on a relaxed link, plus
/// each node's earliest local event. `pending` is `(time, seq)`-sorted.
fn enabled_seqs(
    pending: &[PendingEvent<'_, Msg>],
    links: LinkMode,
    roots: &HashSet<NodeId>,
) -> Vec<u64> {
    let mut local_seen: HashSet<NodeId> = HashSet::new();
    let mut link_seen: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut out = Vec::new();
    for p in pending {
        let (node, ev) = p.msg;
        match ev {
            DsmEvent::Packet(pkt) => {
                let relaxed = match links {
                    LinkMode::Fifo => false,
                    LinkMode::RelaxFromRoots => roots.contains(&pkt.from),
                    LinkMode::Relax => true,
                };
                if relaxed || link_seen.insert((pkt.from, pkt.to)) {
                    out.push(p.seq);
                }
            }
            _ => {
                if local_seen.insert(*node) {
                    out.push(p.seq);
                }
            }
        }
    }
    out
}

/// Digest of a mid-exploration state: the machine digest plus the pending
/// events — per-node local queues in order, per-link packet queues in
/// order. Times are excluded: under the asynchronous-closure semantics
/// they never influence which transitions are possible, only trace
/// timestamps.
fn state_digest(sim: &Simulation<Machine<ModelInstance>>) -> Option<u64> {
    let machine_digest = sim.actor().state_digest()?;
    let mut locals: BTreeMap<NodeId, Vec<DsmEvent>> = BTreeMap::new();
    let mut links: BTreeMap<(NodeId, NodeId), Vec<Packet>> = BTreeMap::new();
    for p in sim.pending() {
        let (node, ev) = p.msg;
        match ev {
            DsmEvent::Packet(pkt) => links.entry((pkt.from, pkt.to)).or_default().push(*pkt),
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
    Some(h.finish())
}

struct Explorer {
    cfg: CanonicalConfig,
    opts: CheckOptions,
    groups: GroupTable,
    roots: HashSet<NodeId>,
    schedules: u64,
    truncated: u64,
    sleep_blocked: u64,
    pruned: u64,
    max_depth: usize,
    budget_hit: bool,
    visited: HashSet<u64>,
    visited_sleepy: HashSet<u64>,
    counterexample: Option<Counterexample>,
}

impl Explorer {
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
    fn replay(&self, prefix: &[u64]) -> Exec {
        let mut exec = Exec::start(&self.cfg);
        for &seq in prefix {
            assert!(
                exec.sim.step_seq(seq),
                "replay diverged: seq {seq} is not pending"
            );
        }
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
    fn finish_execution(&mut self, exec: Exec, prefix: &[u64]) -> ControlFlow<()> {
        exec.verifier.borrow_mut().finish();
        let Exec { sim, verifier } = exec;
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

    /// Whether the already-explored transition `z` commutes with the
    /// about-to-be-explored `e` (both identified by pending seq at the
    /// current state). Unknown seqs are conservatively dependent.
    fn indep(&self, snapshot: &[(u64, NodeId, DsmEvent)], z: u64, e: u64) -> bool {
        let find = |seq: u64| snapshot.iter().find(|(q, _, _)| *q == seq);
        match (find(z), find(e)) {
            (Some((_, zn, zev)), Some((_, en, eev))) => {
                independent(*zn, zev, *en, eev, &self.groups)
            }
            _ => false,
        }
    }

    /// Explores the state `exec` reached by `prefix`. The exec is
    /// consumed: it rolls down into the first child, so a linear run
    /// never replays; only sibling branches rebuild from the root.
    fn explore(&mut self, exec: Exec, prefix: &mut Vec<u64>, sleep: Vec<u64>) -> ControlFlow<()> {
        self.max_depth = self.max_depth.max(prefix.len());
        if exec.violated() {
            self.record_counterexample(&exec, prefix.clone());
            return ControlFlow::Break(());
        }
        if exec.sim.pending().is_empty() || exec.sim.stopped() {
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
        let pending = exec.sim.pending();
        let snapshot: Vec<(u64, NodeId, DsmEvent)> =
            pending.iter().map(|p| (p.seq, p.msg.0, p.msg.1)).collect();
        let enabled = enabled_seqs(&pending, self.opts.links, &self.roots);
        drop(pending);
        if self.opts.hash_states {
            if let Some(d) = state_digest(&exec.sim) {
                // A hit means a previous *empty-sleep* visit already
                // explored every behavior from this state; any current
                // sleep set only narrows that, so skipping is safe.
                if self.visited.contains(&d) {
                    self.pruned += 1;
                    return ControlFlow::Continue(());
                }
                if sleep.is_empty() {
                    self.visited.insert(d);
                } else {
                    // Exact (state, sleep-contents) revisit: an identical
                    // subtree was already explored — seqs differ across
                    // branches, so the sleep set is compared by the
                    // *events* it names, not their queue numbers.
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    d.hash(&mut h);
                    let mut members: Vec<u64> = sleep
                        .iter()
                        .filter_map(|&z| {
                            snapshot.iter().find(|(q, _, _)| *q == z).map(|(_, n, ev)| {
                                let mut mh = std::collections::hash_map::DefaultHasher::new();
                                (n, ev).hash(&mut mh);
                                mh.finish()
                            })
                        })
                        .collect();
                    members.sort_unstable();
                    members.hash(&mut h);
                    if !self.visited_sleepy.insert(h.finish()) {
                        self.pruned += 1;
                        return ControlFlow::Continue(());
                    }
                }
            }
        }

        let asleep: HashSet<u64> = sleep.iter().copied().collect();
        let explorable: Vec<u64> = enabled
            .iter()
            .copied()
            .filter(|s| !asleep.contains(s))
            .collect();
        if explorable.is_empty() {
            // Everything enabled here is covered by a sibling subtree.
            self.sleep_blocked += 1;
            return ControlFlow::Continue(());
        }
        let mut rolling = Some(exec);
        let mut done: Vec<u64> = Vec::new();
        for &e in &explorable {
            if self.budget_exhausted() {
                self.budget_hit = true;
                return ControlFlow::Break(());
            }
            let child_sleep: Vec<u64> = sleep
                .iter()
                .chain(done.iter())
                .copied()
                .filter(|&z| self.indep(&snapshot, z, e))
                .collect();
            prefix.push(e);
            let child = match rolling.take() {
                Some(mut ex) => {
                    assert!(ex.sim.step_seq(e), "enabled seq {e} must be pending");
                    ex
                }
                None => self.replay(prefix),
            };
            let r = self.explore(child, prefix, child_sleep);
            prefix.pop();
            r?;
            done.push(e);
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
/// Panics if the workload's fabric is lossy or contended — the
/// independence relation used for reduction assumes message delivery is
/// reliable and links are independent.
pub fn check(cfg: CanonicalConfig, opts: CheckOptions) -> CheckReport {
    let probe = build_canonical(cfg);
    assert_eq!(
        probe.fabric().loss_probability(),
        0.0,
        "sesame-check requires a loss-free fabric"
    );
    assert_eq!(
        probe.fabric().contention(),
        ContentionModel::None,
        "sesame-check requires a contention-free fabric"
    );
    let groups = probe.groups().clone();
    drop(probe);
    let roots: HashSet<NodeId> = groups.iter().map(|g| g.root()).collect();

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
        budget_hit: false,
        visited: HashSet::new(),
        visited_sleepy: HashSet::new(),
        counterexample: None,
    };
    let mut prefix = Vec::new();
    let root = Exec::start(&cfg);
    let _ = explorer.explore(root, &mut prefix, Vec::new());
    let complete =
        !explorer.budget_hit && explorer.truncated == 0 && explorer.counterexample.is_none();
    CheckReport {
        schedules: explorer.schedules,
        complete,
        truncated: explorer.truncated,
        sleep_blocked: explorer.sleep_blocked,
        pruned: explorer.pruned,
        max_depth: explorer.max_depth,
        counterexample: explorer.counterexample,
    }
}
