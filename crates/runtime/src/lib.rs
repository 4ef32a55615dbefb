//! # partir-runtime — executing auto-parallelized programs
//!
//! Two execution back-ends over the plans produced by `partir-core`:
//!
//! * [`exec`] — a real threaded executor (one task per subregion on a
//!   worker pool) implementing the paper's runtime mechanisms: legality
//!   checking, two-step buffered reductions, relaxation guards, and private
//!   sub-partitions;
//! * [`sim`] — a distributed-memory simulator with an explicit machine
//!   model (nodes, bandwidth, latency, per-node ingress/egress) used to
//!   reproduce the weak-scaling experiments of Figure 14;
//! * [`dist`] — an SPMD rank-sharded backend: each rank holds only its
//!   shard of every region plus ghost cells derived from the constraint
//!   solution, exchanging over in-process mailboxes with results
//!   bit-identical to the sequential interpreter;
//! * [`setup`] — the execution core both backends share: plan-shape
//!   validation and per-loop access setup (modes, buffer sets, write
//!   ownership). Index functions evaluate through the interpreter's one
//!   evaluator (`partir_ir::interp::eval_fn`) on every store.

pub mod dist;
pub mod exec;
pub mod fault;
pub mod setup;
pub mod shared;
pub mod sim;

pub mod prelude {
    pub use crate::dist::{
        execute_with_exchange_full, CheckpointPolicy, DistError, DistFaultPlan, DistOptions,
        DistReport, DistViolation, LegalityMode, RankCrash, RankStore,
    };
    pub use crate::exec::{execute_program, ExecError, ExecOptions, ExecReport, LegalityViolation};
    pub use crate::fault::{FaultPlan, RetryPolicy};
    pub use crate::setup::ShapeError;
    pub use crate::shared::SharedStore;
    pub use crate::sim::{
        simulate, simulate_hetero, FailureModel, FailureSummary, MachineModel, NodeBreakdown,
        SimAccess, SimError, SimLoop, SimResult, SimSpec,
    };
}

pub use prelude::*;
