//! # sesame-dsm — eagersharing distributed shared memory with group write
//! consistency
//!
//! The DSM substrate of the `sesame-rs` reproduction of *Hermannsson &
//! Wittie, "Optimistic Synchronization in Distributed Shared Memory"
//! (ICDCS 1994)*:
//!
//! * shared-variable addressing and the paper's lock-value encoding
//!   ([`lockval`]);
//! * sharing groups with a root that sequences all writes and manages the
//!   group lock ([`GroupTable`]);
//! * per-node local memories and sharing interfaces with in-order apply,
//!   insharing suspension, armed lock interrupts, and the Figure 6 hardware
//!   blocking ([`GwcModel`]);
//! * the protocol-agnostic [`Machine`] that runs [`Program`]s under any
//!   [`Model`] (GWC here; entry and release consistency in
//!   `sesame-consistency`).
//!
//! ## Example: eagersharing propagates a write to every member
//!
//! ```
//! use sesame_dsm::{
//!     run, AppEvent, GroupSpec, GroupTable, GwcModel, Machine, MachineConfig, Program,
//!     RunOptions, VarId,
//! };
//! use sesame_net::{LinkTiming, NodeId, Ring};
//!
//! let var = VarId::new(0);
//! let groups = GroupTable::new(vec![GroupSpec {
//!     root: NodeId::new(0),
//!     members: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
//!     vars: vec![var],
//!     mutex_lock: None,
//! }])?;
//!
//! // Node 0 writes 42 at start; the others are idle.
//! let programs: Vec<Box<dyn Program>> = vec![
//!     Box::new(move |ev: AppEvent, api: &mut sesame_dsm::NodeApi<'_>| {
//!         if ev == AppEvent::Started && api.id() == NodeId::new(0) {
//!             api.write(var, 42);
//!         }
//!     }),
//!     Box::new(sesame_dsm::IdleProgram),
//!     Box::new(sesame_dsm::IdleProgram),
//! ];
//!
//! let model = GwcModel::new(&groups, 3);
//! let machine = Machine::new(
//!     Box::new(Ring::new(3)),
//!     LinkTiming::paper_1994(),
//!     groups,
//!     programs,
//!     model,
//!     MachineConfig::default(),
//! );
//! let result = run(machine, RunOptions::default());
//! for n in 0..3 {
//!     assert_eq!(result.machine.mem(NodeId::new(n)).read(var), 42);
//! }
//! # Ok::<(), sesame_dsm::GroupConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod causal;
mod footprint;
mod group;
mod gwc;
mod machine;
mod memory;
mod program;
mod protocol;

pub use addr::{lockval, GroupId, VarId, Word};
pub use causal::{Carried, CauseCtx};
pub use footprint::{event_footprint, independent, is_local, Footprint, Resource};
pub use group::{GroupConfigError, GroupSpec, GroupTable, GroupTableBuilder, SharingGroup};
pub use gwc::{GwcModel, GwcMutation, GwcStats};
pub use machine::{
    run, run_observed, CpuMeter, DsmEvent, Machine, MachineConfig, MachineMsg, Model, Mx,
    RunOptions, RunResult,
};
pub use memory::{LocalMemory, NodeMem};
pub use program::{Action, AppEvent, IdleProgram, ModelAction, NodeApi, Program, ProgramTable};
pub use protocol::{sizes, Packet, PacketKind};
pub use sesame_net::{CauseAlloc, CauseId};
pub use sesame_sim::{ApplyMode, CauseOp, TraceDetail, TraceKind};
