//! # sesame-workloads — the paper's evaluation workloads
//!
//! The workloads reproducing every figure of *Hermannsson & Wittie (ICDCS
//! 1994)*, and the one driver that runs them:
//!
//! * [`scenario`] — the closed [`Scenario`](scenario::Scenario) enum over
//!   the six workloads below and its driver: validate, build, run under an
//!   optional observer, apply the oracle, return a typed run or a
//!   [`RunError`](scenario::RunError);
//! * [`three_cpu`] — Figure 1, three successive mutex accesses compared
//!   across GWC, entry, and weak/release consistency, cross-checked
//!   against closed forms;
//! * [`task_queue`] — Figure 2, task management through a lock-protected
//!   shared queue (one producer, `N−1` consumers);
//! * [`pipeline`] — Figure 8, the linear pipeline comparing optimistic
//!   GWC, non-optimistic GWC, and entry consistency;
//! * [`bigmesh`] — the 100k-node scaling scenario: independent per-row
//!   token pipelines with row-local mutex groups and pruned multicast;
//! * [`canonical`] — tiny deterministic configurations explored
//!   exhaustively by the `sesame-check` model checker;
//! * [`contention`] — rollback / contention sweeps (the Figure 7 regime at
//!   scale) used by the ablation benches;
//! * [`experiments`] — sweep runners that produce the figures' series;
//! * [`telemetry`] — the driver under the `sesame-telemetry` collector
//!   (metrics snapshots, Chrome-trace timelines, the causal DAG).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigmesh;
pub mod canonical;
pub mod contention;
pub mod experiments;
pub mod pipeline;
pub mod scenario;
pub mod task_queue;
pub mod telemetry;
pub mod three_cpu;
pub mod timeline;
