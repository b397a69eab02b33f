//! The 100k-node scaling scenario: a mesh of independent row pipelines.
//!
//! Figure 8's single global pipeline cannot scale to very large meshes —
//! one global mutex group spanning every node makes each multicast O(N)
//! and serializes the whole machine behind one token. This scenario keeps
//! the *style* of Figure 8 (token hand-off, a mutually exclusive section
//! per visit, overlapped local computation) but shards it: every row of
//! the mesh torus runs its own token pipeline with a row-local mutex
//! group, so the machine hosts `O(sqrt N)` concurrent pipelines and
//! `O(N)` sharing groups while total work stays `O(N)` events per lap.
//!
//! This is the workload the 100k-node scaling stack is sized against:
//!
//! * the calendar event queue absorbs the `O(sqrt N)` concurrent rows'
//!   event churn at O(1) amortized cost per operation, and stays about
//!   as deep as there are writes in flight: a fan-out is scheduled
//!   lazily, one wavefront at a time, each dispatched wave scheduling the
//!   next (as is the time-zero start of every node), so neither a row's
//!   width nor the machine's size multiplies the pending set;
//! * slab/slot protocol state keeps per-(group, member) bookkeeping dense
//!   (about `3N` member slots here) instead of hashing per step;
//! * [`MachineConfig::pruned_multicast`] routes each row's multicasts over
//!   the row's own links only and delivers each wavefront as one queue
//!   event — without it, every multicast would flood all `O(N)` positions,
//!   making one lap quadratic in machine size.
//!
//! Determinism: the scenario is seeded, contention-free across rows (rows
//! share no variables), and uses only deterministic fabric paths, so
//! repeated runs are event-for-event identical.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::{BuildError, ModelInstance, SystemBuilder};
use sesame_dsm::{
    lockval, AppEvent, GroupSpec, Machine, MachineConfig, NodeApi, Program, RunResult, VarId, Word,
};
use sesame_net::{FabricStats, LinkTiming, MeshTorus2d, NodeId};
use sesame_sim::{RunOutcome, SimDur, SimTime};

use crate::scenario::{Outcome, RunError, Scenario};

/// Link timing.
const TIMING: LinkTiming = LinkTiming::paper_1994();

/// Parameters of the sharded-mesh scaling scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BigMeshConfig {
    /// CPU count (the headline configuration is 100 000). Ignored when an
    /// explicit [`BigMeshConfig::rows`] x [`BigMeshConfig::cols`] geometry
    /// is set.
    pub nodes: usize,
    /// Explicit torus height: with [`BigMeshConfig::cols`], requests a
    /// deliberately non-square `cols`-wide, `rows`-tall mesh torus of
    /// `rows * cols` CPUs. Zero (the default) derives a near-square torus
    /// from [`BigMeshConfig::nodes`]. Narrow tall geometries (e.g.
    /// 100 000 x 10 for the 1M-CPU configuration) keep each row pipeline —
    /// and therefore each multicast fan-out and each token's serial chain —
    /// short while scaling the machine by row count.
    pub rows: u32,
    /// Explicit torus width (row length); see [`BigMeshConfig::rows`].
    pub cols: u32,
    /// Token laps per row: every node performs `laps` visits.
    pub laps: u32,
    /// Local computation `L` per visit; the mutex section is `L/8`
    /// (Figure 8's ratio).
    pub local_calc: SimDur,
    /// Words updated inside each row's mutex section.
    pub shared_words: u32,
    /// Event budget: the run aborts (outcome
    /// [`RunOutcome::EventLimitExceeded`]) past this many events — the CI
    /// smoke-run work bound.
    pub event_limit: u64,
}

impl Default for BigMeshConfig {
    fn default() -> Self {
        BigMeshConfig {
            nodes: 100_000,
            rows: 0,
            cols: 0,
            laps: 1,
            local_calc: SimDur::from_us(5),
            shared_words: 1,
            event_limit: sesame_sim::DEFAULT_EVENT_LIMIT,
        }
    }
}

/// Outcome of one sharded-mesh run.
#[derive(Debug, Clone, Copy)]
pub struct BigMeshRun {
    /// CPU count.
    pub nodes: usize,
    /// Independent row pipelines (torus rows with at least two CPUs).
    pub rows: usize,
    /// Rows that completed all their visits.
    pub completed_rows: u64,
    /// Mutex-section visits performed across all rows.
    pub visits: u64,
    /// Simulated makespan.
    pub end: SimTime,
    /// Events processed.
    pub events: u64,
    /// Network power (total useful work / makespan).
    pub power: f64,
    /// Why the run ended ([`RunOutcome::Drained`] on success).
    pub outcome: RunOutcome,
    /// Interconnect traffic counters.
    pub fabric: FabricStats,
}

const TAG_CALC_A: u64 = 1;
const TAG_CALC_B: u64 = 2;
const TAG_SECTION: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    WaitToken,
    CalcA,
    Mutex,
    Section,
    CalcB,
}

/// Row geometry: `[start, start + len)` node ids sharing one torus row.
#[derive(Debug, Clone, Copy)]
struct Row {
    start: u32,
    len: u32,
    lock: VarId,
    shared_base: u32,
}

/// Shared progress counters: `(completed rows, total visits)`.
type Progress = Rc<RefCell<(u64, u64)>>;

/// One row's program: every CPU of the row runs it, and it tells them
/// apart by `api.id() - row.start`. What the row's CPUs share is held
/// once; what each CPU keeps is an 8-byte [`CpuState`].
struct RowProgram {
    row: Row,
    flag_off: u32,
    laps: u32,
    local_calc: SimDur,
    shared_words: u32,
    progress: Progress,
    cpus: Vec<CpuState>,
}

/// One CPU's progress. The latest token visit it took is `visit`: a flag
/// value above it is a new token.
#[derive(Debug, Clone, Copy)]
struct CpuState {
    stage: Stage,
    visit: u32,
}

// One per node: 8 bytes is all a CPU of a row adds (docs/performance.md,
// "Bytes per node").
const _: () = assert!(std::mem::size_of::<CpuState>() <= 8);

impl RowProgram {
    fn idx_in_row(&self, api: &NodeApi<'_>) -> usize {
        (api.id().get() - self.row.start) as usize
    }

    fn prev_flag(&self, api: &NodeApi<'_>) -> VarId {
        let (row, idx) = (self.row, self.idx_in_row(api) as u32);
        VarId::new(self.flag_off + row.start + (idx + row.len - 1) % row.len)
    }

    fn my_flag(&self, api: &NodeApi<'_>) -> VarId {
        VarId::new(self.flag_off + api.id().get())
    }

    fn total_visits(&self) -> u32 {
        self.laps * self.row.len
    }

    fn token_arrived(&mut self, cpu: usize, visit: Word, api: &mut NodeApi<'_>) {
        let state = &mut self.cpus[cpu];
        debug_assert_eq!(state.stage, Stage::WaitToken);
        state.visit = u32::try_from(visit).expect("a row's visits fit in 32 bits");
        state.stage = Stage::CalcA;
        api.compute(self.local_calc / 2, TAG_CALC_A);
    }

    fn hand_off(&mut self, cpu: usize, api: &mut NodeApi<'_>) {
        self.progress.borrow_mut().1 += 1;
        let visit = self.cpus[cpu].visit;
        if visit < self.total_visits() {
            // The successor's visit number rides in the flag value.
            api.write(self.my_flag(api), Word::from(visit) + 1);
        } else {
            // This row's token expires here. Nobody calls `stop`: GWC has
            // no periodic timers, so the run drains naturally once every
            // row's tail writes and computations settle — which also
            // guarantees the final sequenced writes reach their roots
            // before the post-run verification reads them.
            self.progress.borrow_mut().0 += 1;
        }
        self.cpus[cpu].stage = Stage::CalcB;
        api.compute(self.local_calc / 2, TAG_CALC_B);
    }

    fn iteration_done(&mut self, cpu: usize, api: &mut NodeApi<'_>) {
        self.cpus[cpu].stage = Stage::WaitToken;
        // With laps > 1 the next token may already have arrived
        // mid-iteration; re-check the predecessor's flag.
        let flag = api.read(self.prev_flag(api));
        if flag > Word::from(self.cpus[cpu].visit) {
            self.token_arrived(cpu, flag, api);
        }
    }
}

impl Program for RowProgram {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        let row = self.row;
        let cpu = self.idx_in_row(api);
        let CpuState { stage, visit } = self.cpus[cpu];
        match ev {
            // The row leader injects the token: visit 1.
            AppEvent::Started if cpu == 0 => self.token_arrived(cpu, 1, api),
            AppEvent::Updated { var, value, .. }
                if stage == Stage::WaitToken
                    && var == self.prev_flag(api)
                    && value > Word::from(visit) =>
            {
                self.token_arrived(cpu, value, api);
            }
            AppEvent::ComputeDone { tag: TAG_CALC_A } => {
                self.cpus[cpu].stage = Stage::Mutex;
                api.acquire(row.lock);
            }
            AppEvent::Acquired { lock } if lock == row.lock => {
                self.cpus[cpu].stage = Stage::Section;
                api.compute(self.local_calc / 8, TAG_SECTION);
            }
            AppEvent::ComputeDone { tag: TAG_SECTION } => {
                for w in 0..self.shared_words {
                    let var = VarId::new(row.shared_base + w);
                    let old = api.read(var);
                    api.write(var, old + 1);
                }
                api.release(row.lock);
            }
            AppEvent::Released { lock } if lock == row.lock => {
                self.hand_off(cpu, api);
            }
            AppEvent::ComputeDone { tag: TAG_CALC_B } => {
                self.iteration_done(cpu, api);
            }
            _ => {}
        }
    }
}

/// Splits `nodes` CPUs into torus rows of `width`; a trailing single-CPU
/// remainder idles (a one-node pipeline would hand the token to itself).
fn rows_of(nodes: usize, width: u32, shared_words: u32) -> Vec<Row> {
    let row_vars = 1 + shared_words; // lock + shared words
    let mut rows = Vec::new();
    let mut start = 0u32;
    while (start as usize) < nodes {
        let len = (nodes as u32 - start).min(width);
        if len >= 2 {
            let r = rows.len() as u32;
            rows.push(Row {
                start,
                len,
                lock: VarId::new(r * row_vars),
                shared_base: r * row_vars + 1,
            });
        }
        start += len;
    }
    rows
}

/// Resolved torus geometry: `(cpu count, row width)`.
pub(crate) fn geometry(cfg: &BigMeshConfig) -> (usize, u32) {
    if cfg.rows > 0 || cfg.cols > 0 {
        (cfg.rows as usize * cfg.cols as usize, cfg.cols)
    } else {
        (cfg.nodes, MeshTorus2d::with_nodes(cfg.nodes).width())
    }
}

/// What a run is checked against: the row geometry and the counters the
/// row programs report into.
pub(crate) struct Probe {
    rows: Vec<Row>,
    progress: Progress,
}

/// The machine the scenario runs on: member-pruned routes.
const PRUNED: MachineConfig = MachineConfig {
    pruned_multicast: true,
};

/// Assembles the sharded-mesh system under explicit protocol toggles:
/// groups, init values, and (with `programs`) the row programs — without
/// them every node idles, which is all the footprint smoke needs.
fn assemble(
    cfg: &BigMeshConfig,
    machine_cfg: MachineConfig,
    programs: bool,
) -> Result<(Machine<ModelInstance>, Probe), BuildError> {
    let (nodes, width) = geometry(cfg);
    let rows = rows_of(nodes, width, cfg.shared_words);
    let progress: Progress = Rc::new(RefCell::new((0, 0)));
    let flag_off = rows.len() as u32 * (1 + cfg.shared_words);
    let mut builder = SystemBuilder::new(nodes)
        .timing(TIMING)
        .machine_config(machine_cfg);
    if cfg.rows > 0 {
        // An explicit, usually non-square, geometry.
        builder = builder.topology(MeshTorus2d::new(cfg.cols, cfg.rows));
    }
    // One spec, refilled for every group: the builder copies it into the
    // flat table, so no group costs an allocation of its own.
    let mut spec = GroupSpec {
        root: NodeId::new(0),
        members: Vec::new(),
        vars: Vec::new(),
        mutex_lock: None,
    };
    for row in &rows {
        // The row's mutex group: lock + shared words, rooted at the leader.
        spec.root = NodeId::new(row.start);
        spec.members.clear();
        spec.members
            .extend((row.start..row.start + row.len).map(NodeId::new));
        spec.vars.clear();
        spec.vars.push(row.lock);
        spec.vars
            .extend((0..cfg.shared_words).map(|w| VarId::new(row.shared_base + w)));
        spec.mutex_lock = Some(row.lock);
        builder.group(&spec).init_var(row.lock, lockval::FREE);
        // One hand-off flag group per node: {i, successor}, rooted at the
        // writer — O(N) tiny groups, the group-count stress of the
        // scenario.
        spec.mutex_lock = None;
        for idx in 0..row.len {
            let me = row.start + idx;
            let next = row.start + (idx + 1) % row.len;
            spec.root = NodeId::new(me);
            spec.members.clear();
            spec.members.extend([NodeId::new(me), NodeId::new(next)]);
            spec.vars.clear();
            spec.vars.push(VarId::new(flag_off + me));
            builder.group(&spec);
        }
        if programs {
            let idle = CpuState {
                stage: Stage::WaitToken,
                visit: 0,
            };
            builder.program_range(
                NodeId::new(row.start)..NodeId::new(row.start + row.len),
                Box::new(RowProgram {
                    row: *row,
                    flag_off,
                    laps: cfg.laps,
                    local_calc: cfg.local_calc,
                    shared_words: cfg.shared_words,
                    progress: progress.clone(),
                    cpus: vec![idle; row.len as usize],
                }),
            );
        }
    }
    let machine = builder.build()?;
    Ok((machine, Probe { rows, progress }))
}

/// Builds the running system: row programs on member-pruned routes.
pub(crate) fn build(cfg: &BigMeshConfig) -> Result<(Machine<ModelInstance>, Probe), BuildError> {
    assemble(cfg, PRUNED, true)
}

/// Reads the progress counters. A run that did not drain with every visit
/// done is incomplete; on one that did, the oracle is each row's shared
/// counter, incremented once per visit under the row lock.
pub(crate) fn finish(
    cfg: &BigMeshConfig,
    result: &RunResult<ModelInstance>,
    probe: &Probe,
) -> Result<BigMeshRun, RunError> {
    let rows = &probe.rows;
    let (completed_rows, visits) = *probe.progress.borrow();
    let expected: u64 = rows.iter().map(|r| cfg.laps as u64 * r.len as u64).sum();
    if result.outcome != RunOutcome::Drained || visits != expected {
        let left = format!(
            "{visits} of {expected} visits, {completed_rows} of {} rows",
            rows.len()
        );
        return Err(RunError::Incomplete("bigmesh", result.outcome, left));
    }
    for row in rows {
        let got = result
            .machine
            .mem(NodeId::new(row.start))
            .read(VarId::new(row.shared_base));
        let want = cfg.laps as Word * row.len as Word;
        if got != want {
            let what = format!(
                "mutual exclusion: the shared counter of the row at {} reads {got} after \
                 {want} visits",
                row.start
            );
            return Err(RunError::Violated("bigmesh", what));
        }
    }
    Ok(BigMeshRun {
        nodes: result.machine.node_count(),
        rows: rows.len(),
        completed_rows,
        visits,
        end: result.end,
        events: result.events,
        power: result.network_power(),
        outcome: result.outcome,
        fabric: result.machine.fabric_stats(),
    })
}

/// Runs the sharded-mesh scenario.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text if the configuration is invalid
/// (fewer than 2 CPUs: no row can pipeline), the run exhausted its event
/// budget, or a completed run left a row's shared counter inconsistent
/// with its visit count.
pub fn run_bigmesh(cfg: BigMeshConfig) -> BigMeshRun {
    match Scenario::BigMesh(cfg).run(None) {
        Ok(Outcome::BigMesh(run, _)) => run,
        Ok(other) => unreachable!("a bigmesh scenario ended as {other:?}"),
        Err(e) => panic!("{e}"),
    }
}

/// Builds the machine only (idle nodes, no run) — the memory-footprint
/// smoke check. With lazy routing structures this is `O(N)` in nodes and
/// groups.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text on an invalid configuration.
pub fn build_bigmesh_machine(cfg: BigMeshConfig) -> Machine<ModelInstance> {
    let scenario = Scenario::BigMesh(cfg);
    scenario.validate().unwrap_or_else(|e| panic!("{e}"));
    let (machine, _) = assemble(&cfg, PRUNED, false).expect("valid sharded-mesh system");
    machine
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_dsm::{run, RunOptions};

    fn tiny(nodes: usize) -> BigMeshConfig {
        BigMeshConfig {
            nodes,
            ..BigMeshConfig::default()
        }
    }

    #[test]
    fn rows_partition_the_mesh() {
        // 10 CPUs on a 4-wide torus: rows of 4, 4, and 2.
        let rows = rows_of(10, 4, 1);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].start, rows[0].len), (0, 4));
        assert_eq!((rows[2].start, rows[2].len), (8, 2));
        // A trailing single CPU idles instead of forming a row.
        let rows = rows_of(9, 4, 1);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn small_mesh_completes_every_visit() {
        let run = run_bigmesh(tiny(48)); // 7-wide torus: 6 full rows + one of 6
        assert_eq!(run.outcome, RunOutcome::Drained);
        assert_eq!(run.completed_rows as usize, run.rows);
        assert_eq!(run.visits, 48);
        assert!(run.power > 1.0, "rows overlap: power {}", run.power);
    }

    #[test]
    fn multiple_laps_multiply_visits() {
        let run = run_bigmesh(BigMeshConfig {
            laps: 3,
            ..tiny(12)
        });
        assert_eq!(run.outcome, RunOutcome::Drained);
        assert_eq!(run.visits, 36);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_bigmesh(tiny(30));
        let b = run_bigmesh(tiny(30));
        assert_eq!(a.end, b.end);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fabric, b.fabric);
    }

    #[test]
    fn pruned_routing_preserves_makespan() {
        // The same system with full-tree flooding instead of pruned routes:
        // arrival times are depth-determined either way under cut-through,
        // so the makespan and visit count must agree exactly — only the
        // traffic accounting and event count differ.
        let pruned = run_bigmesh(tiny(24));
        let (machine, probe) = assemble(&tiny(24), MachineConfig::default(), true).unwrap();
        let flooded = run(machine, RunOptions::default());
        let full = finish(&tiny(24), &flooded, &probe).expect("the flood path completes too");
        assert_eq!(pruned.end, full.end, "arrival times must be identical");
        assert_eq!(pruned.visits, full.visits);
        // Pruned routes traverse fewer links; batching processes fewer
        // events.
        assert!(pruned.fabric.link_traversals < full.fabric.link_traversals);
        assert!(pruned.events < full.events);
    }

    #[test]
    fn a_run_keeps_floors_for_what_is_in_flight_only() {
        // Every node sends its lock traffic to its row's root, so a run
        // uses at least as many (src, dst) paths as it has nodes — a floor
        // per path ever used took room for 28 672 here. What a run needs
        // floors for is the few hundred packets in flight at a time (the
        // table ends at 448; 896 on the 32 400-node mesh).
        let (machine, probe) = build(&tiny(10_000)).unwrap();
        let result = run(machine, RunOptions::default());
        let done = finish(&tiny(10_000), &result, &probe).expect("every visit completed");
        assert_eq!(done.visits, 10_000);
        let floors = result.machine.fabric().floor_capacity();
        assert!(floors <= 2_048, "room for {floors} floors after the run");
    }

    #[test]
    fn explicit_geometry_scales_by_rows() {
        // 12 rows of 4: 48 CPUs in a deliberately non-square torus.
        let run = run_bigmesh(BigMeshConfig {
            rows: 12,
            cols: 4,
            ..tiny(2)
        });
        assert_eq!(run.nodes, 48);
        assert_eq!(run.rows, 12);
        assert_eq!(run.outcome, RunOutcome::Drained);
        assert_eq!(run.visits, 48);
        assert_eq!(run.completed_rows, 12);
    }

    #[test]
    #[should_panic(expected = "rows and cols must be set together")]
    fn partial_geometry_is_rejected() {
        let _ = run_bigmesh(BigMeshConfig {
            rows: 12,
            ..tiny(2)
        });
    }

    #[test]
    #[should_panic(expected = "at most 2^32 - 1 visits per row")]
    fn more_visits_per_row_than_a_cpu_can_count_are_rejected() {
        let _ = run_bigmesh(BigMeshConfig {
            laps: u32::MAX / 2,
            ..tiny(9)
        });
    }

    #[test]
    #[should_panic(expected = "need at least one two-node row")]
    fn a_one_node_mesh_is_rejected() {
        let _ = run_bigmesh(tiny(1));
    }

    #[test]
    fn a_trailing_single_cpu_idles_and_the_run_still_completes() {
        // 3 CPUs on a 2-wide torus: one row of two, one idle node.
        let run = run_bigmesh(tiny(3));
        assert_eq!((run.nodes, run.rows, run.visits), (3, 1, 2));
    }

    /// The idle machine as `assemble` built it before it refilled one
    /// spec: a fresh `GroupSpec`, with member and variable lists of its
    /// own, per group.
    fn reference_machine(cfg: &BigMeshConfig) -> Machine<ModelInstance> {
        let (nodes, width) = geometry(cfg);
        let rows = rows_of(nodes, width, cfg.shared_words);
        let flag_off = rows.len() as u32 * (1 + cfg.shared_words);
        let mut builder = SystemBuilder::new(nodes)
            .timing(TIMING)
            .machine_config(PRUNED);
        if cfg.rows > 0 {
            builder = builder.topology(MeshTorus2d::new(cfg.cols, cfg.rows));
        }
        for row in &rows {
            let members: Vec<NodeId> = (row.start..row.start + row.len).map(NodeId::new).collect();
            let vars: Vec<VarId> = std::iter::once(row.lock)
                .chain((0..cfg.shared_words).map(|w| VarId::new(row.shared_base + w)))
                .collect();
            builder
                .group(&GroupSpec {
                    root: NodeId::new(row.start),
                    members: members.clone(),
                    vars,
                    mutex_lock: Some(row.lock),
                })
                .init_var(row.lock, lockval::FREE);
            for idx in 0..row.len {
                let me = row.start + idx;
                let next = row.start + (idx + 1) % row.len;
                builder.group(&GroupSpec {
                    root: NodeId::new(me),
                    members: vec![NodeId::new(me), NodeId::new(next)],
                    vars: vec![VarId::new(flag_off + me)],
                    mutex_lock: None,
                });
            }
        }
        builder.build().expect("valid reference system")
    }

    #[test]
    fn one_refilled_spec_builds_the_per_spec_table() {
        let shapes = [
            tiny(3), // a row of two and a trailing idle CPU
            tiny(48),
            BigMeshConfig {
                rows: 12,
                cols: 4,
                ..tiny(2)
            },
            BigMeshConfig {
                shared_words: 3,
                ..tiny(30)
            },
            tiny(2_500),
        ];
        for cfg in shapes {
            let (got, _) = assemble(&cfg, PRUNED, false).unwrap();
            let want = reference_machine(&cfg);
            let (gt, wt) = (got.groups(), want.groups());
            assert_eq!(gt.len(), wt.len(), "{cfg:?}");
            assert_eq!(gt.member_slots(), wt.member_slots(), "{cfg:?}");
            let nodes = got.node_count() as u32;
            assert_eq!(nodes as usize, want.node_count());
            for (g, w) in gt.iter().zip(wt.iter()) {
                let at = format!("{cfg:?} group {}", g.id());
                assert_eq!(g.id(), w.id(), "{at}");
                assert_eq!(g.root(), w.root(), "{at}");
                assert_eq!(g.members(), w.members(), "{at}");
                assert_eq!(g.vars(), w.vars(), "{at}");
                assert_eq!(g.mutex_lock(), w.mutex_lock(), "{at}");
                assert_eq!(gt.slot_base(g.id()), wt.slot_base(w.id()), "{at}");
                for &var in g.vars() {
                    assert_eq!(gt.group_of(var).map(|o| o.id()), Some(g.id()), "{at}");
                    // Every memory reads the one shared image.
                    for node in [0, nodes / 2, nodes - 1].map(NodeId::new) {
                        let (a, b) = (got.mem(node).read(var), want.mem(node).read(var));
                        assert_eq!(a, b, "{at}: {var} at {node}");
                    }
                }
            }
            let last = gt.iter().flat_map(|g| g.vars()).map(|v| v.get()).max();
            let past = VarId::new(last.unwrap() + 1);
            assert!(gt.group_of(past).is_none() && wt.group_of(past).is_none());
        }
    }

    #[test]
    fn machine_build_is_cheap_without_runs() {
        // Lazy routing structures: assembling a (scaled-down stand-in for
        // the) large machine builds no routes at all.
        let machine = build_bigmesh_machine(tiny(2_000));
        assert_eq!(machine.node_count(), 2_000);
        assert!(machine.groups().len() > 2_000, "O(N) groups materialized");
    }
}
