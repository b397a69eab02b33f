//! The metric dictionary: every number the ledger prints, with its unit,
//! its time domain, which way is better, which pass measures it and which
//! end-to-end metric it is expected to move.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two from drifting apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a value measures: the simulator's cost on the host, the modelled
/// 1994 machine, or an exact count of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Host,
    Simulated,
    Count,
}

impl Domain {
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Host => "host",
            Domain::Simulated => "simulated",
            Domain::Count => "count",
        }
    }

    /// Simulated values and counts must repeat exactly for a fixed seed.
    pub fn exact(self) -> bool {
        self != Domain::Host
    }
}

/// Which pass yields the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Every run, traced or not: results, counts and benchmark-side spans.
    Untraced,
    /// The traced build only: read from the simulator's host profiler.
    Traced,
    /// The traced pass only: N timed calls into the layer's public API.
    Probe,
}

impl Pass {
    pub fn tag(self) -> &'static str {
        match self {
            Pass::Untraced => "U",
            Pass::Traced => "T",
            Pass::Probe => "P",
        }
    }
}

/// One dictionary entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `e2e`, `run` (derived across workloads) or a crate name.
    pub layer: &'static str,
    pub domain: Domain,
    pub better: Better,
    pub pass: Pass,
    /// Regression bound as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
    /// What the metric is, and the end-to-end metric and workload it
    /// should move.
    pub note: &'static str,
}

impl MetricDef {
    pub fn is_e2e(&self) -> bool {
        self.layer == "e2e"
    }
}

/// Below this much absolute change `setup_s` is never a regression: four
/// of the six set-ups are a millisecond or two of process start.
pub const SETUP_FLOOR_S: f64 = 0.005;

use Better::{Higher, Lower};
use Domain::{Count, Host, Simulated};
use Pass::{Probe, Traced, Untraced};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer: "e2e",
        domain,
        better,
        pass: Untraced,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    domain: Domain,
    better: Better,
    pass: Pass,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer,
        domain,
        better,
        pass,
        bound: None,
        note,
    }
}

/// The end-to-end metrics `BENCHMARK.json` lists under `end_to_end`, in
/// its order, each with the acceptance driver's bound: the two the
/// reference host can resolve. The driver refuses a benchmark whose runs
/// of the same code spread wider than a metric's bound, which it caps at
/// 0.25; host seconds of unchanged code move by 1.5x to 2x on that host in
/// waves that outlast any run (README, "What the reference host can
/// resolve"), so `wall_s` and `ops_per_s` cannot be bounded there. They
/// are listed under `per_layer`, unbounded, with the three exact
/// end-to-end values, which may be 0 (the contract forbids that of a
/// bounded metric) and are enforced through `correct` / `failed`. The
/// bounds in [`METRICS`] are the issue's and are what `compare` judges two
/// captures by.
pub const CONTRACT_E2E: [(&str, f64); 2] = [("setup_s", 0.25), ("peak_rss_mb", 0.1)];

/// Every metric, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    e2e("wall_s", "s", Host, Lower, 0.10,
        "measured phase of one sample: run plus online checking and export where the workload has them; excludes set-up (bound 0.15 on paper_figs_par)"),
    e2e("ops_per_s", "1/s", Host, Higher, 0.10,
        "completed application operations / wall_s (section visits, sweep points or explored leaves; never simulated events)"),
    e2e("setup_s", "s", Host, Lower, 0.25,
        "child-process start to first measured op: input generation and the machine build (compare also gives it a 5 ms absolute floor)"),
    e2e("peak_rss_mb", "MB", Host, Lower, 0.05,
        "child VmHWM at exit"),
    e2e("sim_makespan_ms", "ms", Simulated, Lower, 0.0,
        "simulated completion time, summed over points for paper_figs; 0 where the public API gives none (check_mutex, paper_figs_par)"),
    e2e("paper_err_pct", "%", Simulated, Lower, 0.0,
        "paper_figs* only: mean absolute relative error against the eight paper values in EXPERIMENTS.md; each error is printed beside it as paper_err_pct.<value>"),
    e2e("fail_share", "ratio", Count, Lower, 0.0,
        "failed / attempted operations"),
    // ---- sim -----------------------------------------------------------
    layer("sim.events", "count", "sim", Count, Lower, Untraced,
        "events dispatched; host-time changes must leave it exact"),
    layer("sim.events_per_s", "1/s", "sim", Host, Higher, Untraced,
        "sim.events / time inside the run calls"),
    layer("sim.pop_s", "s", "sim", Host, Lower, Traced,
        "time in EventQueue pops -> wall_s on bigmesh_32k; predicted flat on paper_figs and observed_contention"),
    layer("sim.trace_s", "s", "sim", Host, Lower, Traced,
        "trace emission minus observer callbacks -> wall_s on observed_contention only"),
    layer("sim.trace.records", "count", "sim", Count, Lower, Traced,
        "trace records emitted; 0 on the four unobserved workloads"),
    layer("sim.queue.depth_max", "count", "sim", Count, Lower, Traced,
        "deepest pending-event queue seen at a pop"),
    layer("sim.queue.pushed", "count", "sim", Count, Lower, Traced,
        "events pushed by the last run of the sample"),
    layer("sim.alloc.count", "count", "sim", Count, Lower, Traced,
        "heap allocations during the run calls"),
    layer("sim.alloc.mb", "MB", "sim", Host, Lower, Traced,
        "heap bytes allocated during the run calls -> peak_rss_mb on bigmesh_32k and observed_contention"),
    layer("sim.queue.churn_ns_per_op", "ns", "sim", Host, Lower, Probe,
        "pop+push pair held at the workload's depth_max -> wall_s on bigmesh_32k"),
    layer("sim.queue.filldrain_ns_per_op", "ns", "sim", Host, Lower, Probe,
        "fill to depth_max then drain, per event"),
    // ---- net -----------------------------------------------------------
    layer("net.packets", "count", "net", Count, Lower, Untraced, "FabricStats.packets"),
    layer("net.bytes", "count", "net", Count, Lower, Untraced, "FabricStats.bytes"),
    layer("net.link_traversals", "count", "net", Count, Lower, Untraced,
        "FabricStats.link_traversals"),
    layer("net.losses", "count", "net", Count, Lower, Untraced,
        "packets dropped by the loss model; 0 except on lossy_mutex"),
    layer("net.ser_ms", "ms", "net", Simulated, Lower, Untraced,
        "simulated link occupancy"),
    layer("net.loss_share", "ratio", "net", Count, Lower, Untraced,
        "net.losses / net.packets"),
    layer("net.unicast_ns_per_call", "ns", "net", Host, Lower, Probe,
        "Fabric::unicast between seeded endpoints -> wall_s on bigmesh_32k and lossy_mutex"),
    layer("net.mcast_ns_per_call", "ns", "net", Host, Lower, Probe,
        "multicast_route_into (pruned workload) or multicast_into plus per-member loss rolls (flood workloads)"),
    layer("net.mroute_build_us", "us", "net", Host, Lower, Probe,
        "MulticastRoute::build -> setup_s and first-use cost on bigmesh_32k"),
    layer("net.tree_build_us", "us", "net", Host, Lower, Probe,
        "SpanningTree::build -> first-use cost on the flood workloads"),
    // ---- dsm -----------------------------------------------------------
    layer("dsm.dispatch_s", "s", "dsm", Host, Lower, Traced,
        "time in Machine dispatch, less the trace emission inside it -> wall_s on bigmesh_32k, lossy_mutex and paper_figs"),
    layer("dsm.dispatch_ns_per_event", "ns", "dsm", Host, Lower, Traced,
        "dsm.dispatch_s / profiled events"),
    layer("dsm.gwc.grants", "count", "dsm", Count, Lower, Untraced, "GwcStats.grants"),
    layer("dsm.gwc.queued_requests", "count", "dsm", Count, Lower, Untraced,
        "GwcStats.queued_requests"),
    layer("dsm.gwc.root_drops", "count", "dsm", Count, Lower, Untraced, "GwcStats.root_drops"),
    layer("dsm.gwc.hw_block_drops", "count", "dsm", Count, Lower, Untraced,
        "GwcStats.hw_block_drops"),
    layer("dsm.gwc.nacks", "count", "dsm", Count, Lower, Untraced, "GwcStats.nacks"),
    layer("dsm.gwc.retransmissions", "count", "dsm", Count, Lower, Untraced,
        "GwcStats.retransmissions -> sim_makespan_ms and wall_s on lossy_mutex only; 0 elsewhere"),
    layer("dsm.gwc.grant_retransmissions", "count", "dsm", Count, Lower, Untraced,
        "GwcStats.grant_retransmissions"),
    layer("dsm.gwc.retx_per_grant", "ratio", "dsm", Count, Lower, Untraced,
        "(retransmissions + grant_retransmissions) / grants"),
    layer("dsm.gwc.run_s", "s", "dsm", Host, Lower, Untraced,
        "spans round the GWC points of paper_figs (and the GWC run of the other workloads)"),
    layer("dsm.memory.ns_per_op", "ns", "dsm", Host, Lower, Probe,
        "LocalMemory read+write, inline and over a set_base image -> wall_s on bigmesh_32k"),
    layer("dsm.group_table.build_ms", "ms", "dsm", Host, Lower, Probe,
        "GroupTable::new at the workload's group shape -> setup_s"),
    // ---- consistency ---------------------------------------------------
    layer("consistency.entry.run_s", "s", "consistency", Host, Lower, Untraced,
        "spans round the entry-consistency points -> wall_s on paper_figs only"),
    layer("consistency.entry.events", "count", "consistency", Count, Lower, Untraced,
        "events of the entry-consistency points"),
    layer("consistency.entry.ns_per_event", "ns", "consistency", Host, Lower, Untraced,
        "consistency.entry.run_s / consistency.entry.events"),
    // ---- core ----------------------------------------------------------
    layer("core.opt.attempts", "count", "core", Count, Lower, Untraced,
        "OptimisticStats.optimistic_attempts (on paper_figs: visits of the optimistic points; PipelineRun exposes no count)"),
    layer("core.opt.regular_attempts", "count", "core", Count, Lower, Untraced,
        "OptimisticStats.regular_attempts"),
    layer("core.opt.rollbacks", "count", "core", Count, Lower, Untraced,
        "rollbacks taken; > 0 on observed_contention"),
    layer("core.opt.fully_overlapped", "count", "core", Count, Higher, Untraced,
        "completions whose grant round trip was fully overlapped"),
    layer("core.opt.hit_rate", "ratio", "core", Count, Higher, Untraced,
        "(attempts - rollbacks) / attempts -> sim_makespan_ms on observed_contention and paper_figs, paper_err_pct on paper_figs"),
    layer("core.opt.run_s", "s", "core", Host, Lower, Untraced,
        "spans round the optimistic points of paper_figs and the plain observed_contention run"),
    // ---- workloads -----------------------------------------------------
    layer("workloads.build_s", "s", "workloads", Host, Lower, Untraced,
        "the machine build timed alone: setup_s's main term, so work moved from run into build shows"),
    layer("workloads.run_s", "s", "workloads", Host, Lower, Untraced,
        "time inside the run calls"),
    layer("workloads.check_s", "s", "workloads", Host, Lower, Untraced,
        "the benchmark's own output checks"),
    layer("workloads.ops", "count", "workloads", Count, Higher, Untraced,
        "completed application operations"),
    // ---- telemetry -----------------------------------------------------
    layer("telemetry.observed_run_s", "s", "telemetry", Host, Lower, Untraced,
        "the run with a Telemetry collector attached -> wall_s on observed_contention"),
    layer("telemetry.overhead_x", "x", "telemetry", Host, Lower, Untraced,
        "telemetry.observed_run_s / the plain run"),
    layer("telemetry.observer_s", "s", "telemetry", Host, Lower, Traced,
        "time inside the collector's on_record"),
    layer("telemetry.export_s", "s", "telemetry", Host, Lower, Untraced,
        "absorb_run, snapshot, series and causes JSON"),
    layer("telemetry.export_mb", "MB", "telemetry", Count, Lower, Untraced,
        "bytes of the three exports -> peak_rss_mb on observed_contention (the causal DAG and its 190 MB JSON dominate RSS)"),
    layer("telemetry.validate_s", "s", "telemetry", Host, Lower, Untraced,
        "the from_json validators over the snapshot and series exports, and a structural check of the causes export"),
    // ---- verify --------------------------------------------------------
    layer("verify.observed_run_s", "s", "verify", Host, Lower, Untraced,
        "the run with an online Verifier -> wall_s on observed_contention"),
    layer("verify.overhead_x", "x", "verify", Host, Lower, Untraced,
        "verify.observed_run_s / the plain run"),
    layer("verify.observer_s", "s", "verify", Host, Lower, Traced,
        "time inside the Verifier's on_record"),
    layer("verify.offline_records_per_s", "1/s", "verify", Host, Higher, Probe,
        "check_trace over a recorded trace -> wall_s on check_mutex"),
    layer("verify.violations", "count", "verify", Count, Lower, Untraced,
        "diagnostics reported; must be 0"),
    // ---- check ---------------------------------------------------------
    layer("check.leaves", "count", "check", Count, Higher, Untraced,
        "schedules + truncated + sleep_blocked + pruned"),
    layer("check.schedules", "count", "check", Count, Higher, Untraced,
        "complete executions explored"),
    layer("check.sleep_blocked", "count", "check", Count, Lower, Untraced,
        "states whose enabled events were all asleep"),
    layer("check.pruned", "count", "check", Count, Lower, Untraced,
        "states folded by state hashing"),
    layer("check.max_depth", "count", "check", Count, Lower, Untraced, "longest schedule"),
    layer("check.prune_share", "ratio", "check", Count, Higher, Untraced,
        "(sleep_blocked + pruned) / leaves"),
    layer("check.leaves_per_s", "1/s", "check", Host, Higher, Untraced,
        "check.leaves / wall_s -> wall_s on check_mutex only"),
    // ---- sweep ---------------------------------------------------------
    layer("sweep.jobs", "count", "sweep", Count, Higher, Untraced,
        "worker threads: min(nproc, 4) on paper_figs_par, else 1"),
    layer("sweep.points", "count", "sweep", Count, Higher, Untraced,
        "sweep points run"),
    // ---- derived across workloads (ledger output only) -----------------
    layer("sweep.speedup", "x", "run", Host, Higher, Untraced,
        "median paper_figs.wall_s / median paper_figs_par.wall_s -> wall_s on paper_figs_par only"),
    layer("sweep.efficiency", "ratio", "run", Host, Higher, Untraced,
        "sweep.speedup / sweep.jobs"),
    layer("trace_overhead_pct", "%", "run", Host, Lower, Traced,
        "traced wall_s / untraced median wall_s - 1, per workload"),
];

/// The regression bound of end-to-end metric `def` on `workload`.
pub fn bound_on(def: &MetricDef, workload: &str) -> f64 {
    match (def.name, workload) {
        // Two sweep workers fill both cores of the reference host, so
        // anything else that runs there takes time from one of them.
        ("wall_s", "paper_figs_par") => 0.15,
        _ => def.bound.unwrap_or(0.0),
    }
}

/// Looks a metric up by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The end-to-end metrics of the ledger.
pub fn e2e_metrics() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.is_e2e())
}

/// What `BENCHMARK.json` lists under `per_layer`: every single-layer
/// metric, plus the end-to-end metrics it does not bound.
pub fn contract_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|m| m.layer != "run" && CONTRACT_E2E.iter().all(|(name, _)| *name != m.name))
}

/// The workloads and the dictionary as Markdown tables (the README's
/// workload list and metric dictionary).
pub fn render_markdown() -> String {
    let mut out = String::from("| workload | why it was chosen |\n|---|---|\n");
    for w in &crate::workloads::WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    out.push_str(
        "\n| name | unit | layer | domain | better | pass | bound | what it is, and what it should move |\n|---|---|---|---|---|---|---|---|\n",
    );
    for m in METRICS {
        let bound = match m.bound {
            Some(b) if m.domain.exact() => format!("{b}, exact"),
            Some(b) => format!("{b}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.layer,
            m.domain.as_str(),
            m.better.as_str(),
            m.pass.tag(),
            bound,
            m.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
        assert_eq!(e2e_metrics().count(), 7);
        assert!(contract_per_layer().count() <= 128);
    }
}
