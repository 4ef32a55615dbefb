//! The unified `partir::Error`.
//!
//! Every layer of the pipeline has its own typed error (pipeline,
//! solver, exchange derivation, threaded executor, distributed executor,
//! simulator). The builder API surfaces them all as one enum so callers
//! match on a single type, and [`Error::error_code`] gives each failure a
//! stable string from the `partir-report-v1` registry
//! ([`partir_obs::report::ERROR_CODES`]) for machine-readable failure
//! reports. Renaming a code is a schema break; adding one is not.

use partir_core::cache::CacheError;
use partir_core::exchange::ExchangeError;
use partir_core::pipeline::AutoError;
use partir_core::solve::SolveError;
use partir_runtime::dist::DistError;
use partir_runtime::exec::ExecError;
use partir_runtime::setup::ShapeError;
use partir_runtime::sim::SimError;
use std::fmt;

/// Failures of the serving layer ([`crate::serve`]), each with its own
/// stable code so clients can branch on admission-control outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request's solve exhausted the server's admission
    /// [`SolveBudget`](partir_core::solve::SolveBudget) and would have
    /// degraded to the trivial plan; the server rejects it instead of
    /// serving (or caching) a degraded solution (`serve.over_budget`).
    OverBudget,
    /// The server already has `cap` requests queued or in flight
    /// (`serve.queue_full`). Back off and resubmit.
    QueueFull { cap: usize },
    /// The worker processing the request went away before replying —
    /// the server was shut down mid-request (`serve.disconnected`).
    Disconnected,
    /// Processing the request panicked (`serve.internal`), e.g. on a
    /// malformed program. The worker survives and keeps serving; the
    /// payload is the panic message.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::OverBudget => {
                write!(f, "solve exceeded the server's admission budget")
            }
            ServeError::QueueFull { cap } => {
                write!(f, "server queue is full ({cap} requests in flight)")
            }
            ServeError::Disconnected => {
                write!(f, "serve worker disconnected before replying")
            }
            ServeError::Internal(m) => write!(f, "serve worker panicked on the request: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Any failure the partir pipeline or one of its backends can report.
#[derive(Debug)]
pub enum Error {
    /// Constraint inference / pipeline failure (`auto.*`).
    Auto(AutoError),
    /// Standalone solver failure (`solve.*`).
    Solve(SolveError),
    /// Communication-set derivation failure (`exchange.*`).
    Exchange(ExchangeError),
    /// Threaded-executor failure (`exec.*`).
    Exec(ExecError),
    /// Distributed-executor failure (`dist.*`).
    Dist(DistError),
    /// Machine-model simulator failure (`sim.*`).
    Sim(SimError),
    /// An inconsistent or impossible solve or run configuration, rejected
    /// before any work (`session.invalid`).
    Session(String),
    /// Serving-layer failure (`serve.*`).
    Serve(ServeError),
    /// Plan-cache failure (`cache.*`).
    Cache(CacheError),
}

impl Error {
    /// The stable `partir-report-v1` error code for this failure. Every
    /// returned string is registered in
    /// [`partir_obs::report::ERROR_CODES`].
    pub fn error_code(&self) -> &'static str {
        match self {
            Error::Auto(AutoError::NotParallelizable(_)) => "auto.not_parallelizable",
            Error::Auto(AutoError::Unsatisfiable) => "auto.unsatisfiable",
            Error::Solve(SolveError::Unsatisfiable) => "solve.unsatisfiable",
            Error::Exchange(e) => exchange_code(e),
            Error::Exec(e) => match e {
                ExecError::Shape(s) => shape_codes(s).0,
                ExecError::Legality(_) => "exec.legality",
                ExecError::TaskPanic(_) => "exec.task_panic",
                ExecError::TaskFailed { .. } => "exec.task_failed",
                ExecError::BufferStateCorrupt { .. } => "exec.buffer_state_corrupt",
            },
            Error::Dist(e) => match e {
                // Exchange derivation keeps its own code family even when
                // reached through the distributed entry point.
                DistError::Exchange(x) => exchange_code(x),
                DistError::Shape(s) => shape_codes(s).1,
                DistError::Legality(_) => "dist.legality",
                DistError::PlanIllegal(_) => "dist.plan_illegal",
                DistError::RankPanic { .. } => "dist.rank_panic",
                DistError::Disconnected { .. } => "dist.disconnected",
                DistError::Aborted => "dist.aborted",
                DistError::Internal(_) => "dist.internal",
                DistError::VolumeMismatch { .. } => "dist.volume_mismatch",
                DistError::RankLost { .. } => "dist.rank_lost",
            },
            Error::Sim(e) => match e {
                SimError::MissingRegionSize { .. } => "sim.missing_region_size",
                SimError::HomeWidthMismatch { .. } => "sim.home_width_mismatch",
                SimError::IterWidthMismatch { .. } => "sim.iter_width_mismatch",
            },
            Error::Session(_) => "session.invalid",
            Error::Serve(e) => match e {
                ServeError::OverBudget => "serve.over_budget",
                ServeError::QueueFull { .. } => "serve.queue_full",
                ServeError::Disconnected => "serve.disconnected",
                ServeError::Internal(_) => "serve.internal",
            },
            Error::Cache(CacheError::Poisoned) => "cache.poisoned",
        }
    }
}

/// The `(threads, ranks)` codes of a plan-shape failure: both backends
/// run the one shape check, and each keeps its own code family.
fn shape_codes(e: &ShapeError) -> (&'static str, &'static str) {
    match e {
        ShapeError::PlanMismatch { .. } => ("exec.plan_mismatch", "dist.plan_mismatch"),
        ShapeError::PartitionIndexOutOfBounds { .. } => {
            ("exec.partition_index_out_of_bounds", "dist.partition_index_out_of_bounds")
        }
        ShapeError::PartitionWidthMismatch { .. } => {
            ("exec.partition_width_mismatch", "dist.partition_width_mismatch")
        }
        ShapeError::PartitionExceedsRegion { .. } => {
            ("exec.partition_exceeds_region", "dist.partition_exceeds_region")
        }
        ShapeError::IncompleteIteration { .. } => {
            ("exec.incomplete_iteration", "dist.incomplete_iteration")
        }
        ShapeError::IterationNotDisjoint { .. } => {
            ("exec.iteration_not_disjoint", "dist.iteration_not_disjoint")
        }
        ShapeError::ReductionNotDisjoint { .. } => {
            ("exec.reduction_not_disjoint", "dist.reduction_not_disjoint")
        }
    }
}

fn exchange_code(e: &ExchangeError) -> &'static str {
    match e {
        ExchangeError::NoRanks => "exchange.no_ranks",
        ExchangeError::WidthMismatch { .. } => "exchange.width_mismatch",
        ExchangeError::BadAssignment { .. } => "exchange.bad_assignment",
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Auto(e) => write!(f, "{e}"),
            Error::Solve(e) => write!(f, "{e}"),
            Error::Exchange(e) => write!(f, "{e}"),
            Error::Exec(e) => write!(f, "{e}"),
            Error::Dist(e) => write!(f, "{e}"),
            Error::Sim(e) => write!(f, "{e}"),
            Error::Session(m) => write!(f, "invalid session configuration: {m}"),
            Error::Serve(e) => write!(f, "{e}"),
            Error::Cache(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Auto(e) => Some(e),
            Error::Solve(e) => Some(e),
            Error::Exchange(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::Dist(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Session(_) => None,
            Error::Serve(e) => Some(e),
            Error::Cache(e) => Some(e),
        }
    }
}

impl From<AutoError> for Error {
    fn from(e: AutoError) -> Self {
        Error::Auto(e)
    }
}

impl From<SolveError> for Error {
    fn from(e: SolveError) -> Self {
        Error::Solve(e)
    }
}

impl From<ExchangeError> for Error {
    fn from(e: ExchangeError) -> Self {
        Error::Exchange(e)
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        Error::Exec(e)
    }
}

impl From<DistError> for Error {
    fn from(e: DistError) -> Self {
        Error::Dist(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<CacheError> for Error {
    fn from(e: CacheError) -> Self {
        Error::Cache(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::region::RegionId;
    use partir_ir::ast::AccessId;
    use partir_obs::report::is_known_error_code;
    use partir_runtime::dist::DistViolation;

    /// One witness per variant family; every code must be registered.
    #[test]
    fn every_error_code_is_registered() {
        let shapes = [
            ShapeError::PlanMismatch { plan_loops: 1, program_loops: 2 },
            ShapeError::PartitionIndexOutOfBounds { loop_index: 0, part: 9, len: 1 },
            ShapeError::PartitionWidthMismatch { part: 0, expected: 2, got: 3 },
            ShapeError::PartitionExceedsRegion { loop_index: 0, part: 0, index: 7, size: 4 },
            ShapeError::IncompleteIteration { loop_index: 0 },
            ShapeError::IterationNotDisjoint { loop_index: 0 },
            ShapeError::ReductionNotDisjoint { loop_index: 0, access: AccessId(0) },
        ];
        let mut samples: Vec<Error> = vec![
            Error::Auto(AutoError::Unsatisfiable),
            Error::Solve(SolveError::Unsatisfiable),
            Error::Exchange(ExchangeError::NoRanks),
            Error::Exchange(ExchangeError::WidthMismatch { part: 0, expected: 2, got: 3 }),
            Error::Exchange(ExchangeError::BadAssignment {
                colors: 4,
                got: 3,
                n_ranks: 2,
                bad_rank: Some(9),
            }),
            Error::Exec(ExecError::Legality(partir_runtime::exec::LegalityViolation {
                loop_id: 0,
                task: 0,
                region: RegionId(0),
                index: 0,
                access: AccessId(0),
            })),
            Error::Exec(ExecError::TaskPanic("boom".into())),
            Error::Exec(ExecError::TaskFailed { loop_index: 0, color: 0, attempts: 3 }),
            Error::Exec(ExecError::BufferStateCorrupt { loop_index: 0 }),
            Error::Dist(DistError::Exchange(ExchangeError::NoRanks)),
            Error::Dist(DistError::Legality(DistViolation {
                rank: 0,
                loop_id: 0,
                task: 0,
                region: RegionId(0),
                index: 0,
                access: AccessId(0),
            })),
            Error::Dist(DistError::PlanIllegal(partir_core::exchange::PlanLegalityError {
                loop_index: 0,
                access: 0,
                color: 0,
                rank: 0,
                region: RegionId(0),
                witness: 0,
            })),
            Error::Dist(DistError::RankPanic { rank: 0, message: "boom".into() }),
            Error::Dist(DistError::Disconnected { rank: 1 }),
            Error::Dist(DistError::Aborted),
            Error::Dist(DistError::Internal("x".into())),
            Error::Dist(DistError::VolumeMismatch {
                src: 0,
                dst: 1,
                predicted_bytes: 8,
                measured_bytes: 0,
            }),
            Error::Dist(DistError::RankLost { rank: 2, epoch: 5 }),
            Error::Sim(SimError::MissingRegionSize { region: RegionId(0) }),
            Error::Sim(SimError::HomeWidthMismatch { region: RegionId(0), expected: 2, got: 3 }),
            Error::Sim(SimError::IterWidthMismatch { loop_name: "l".into(), expected: 2, got: 3 }),
            Error::Session("bad".into()),
            Error::Serve(ServeError::OverBudget),
            Error::Serve(ServeError::QueueFull { cap: 64 }),
            Error::Serve(ServeError::Disconnected),
            Error::Serve(ServeError::Internal("boom".into())),
            Error::Cache(CacheError::Poisoned),
        ];
        for s in shapes {
            samples.push(Error::Exec(ExecError::Shape(s.clone())));
            samples.push(Error::Dist(DistError::Shape(s)));
        }
        for e in &samples {
            let code = e.error_code();
            assert!(is_known_error_code(code), "unregistered error code {code} for {e:?}");
        }
    }

    #[test]
    fn display_and_source_thread_through() {
        let e = Error::from(AutoError::Unsatisfiable);
        assert!(e.to_string().contains("unsatisfiable"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&Error::Session("x".into())).is_none());
        let e = Error::from(ServeError::QueueFull { cap: 8 });
        assert!(e.to_string().contains("queue is full"));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::from(CacheError::Poisoned);
        assert_eq!(e.error_code(), "cache.poisoned");
        assert!(std::error::Error::source(&e).is_some());
    }
}
