//! Deterministic fault injection and recovery policy for the executor.
//!
//! Long-running distributed executions lose nodes; the paper's target
//! (Legion on a production cluster) treats task failure as routine. This
//! module gives the threaded executor the same discipline in a testable
//! form: a seeded *fault plan* decides — as a pure function of the task's
//! coordinates — which task attempts die and where in their iteration
//! subregion, so every failure schedule replays bit-identically from its
//! seed. Two failure flavours cover the interesting recovery paths:
//!
//! * a **clean kill** stops the task mid-loop after a deterministic number
//!   of iterations, leaving partial effects behind (the executor rolls
//!   them back from a pre-attempt snapshot);
//! * a **poison** additionally panics inside the task body, exercising the
//!   `catch_unwind` isolation barrier that keeps one poisoned worker from
//!   taking down the run.
//!
//! Recovery is layered: bounded per-task retries with linear backoff
//! first, then — if a task exhausts its retries — sequential re-execution
//! on the main thread through the same task context, which is exactly the
//! reference-interpreter semantics restricted to the failed subregion.
//! Results are therefore always bit-identical to the sequential ground
//! truth, merely slower; `ExecReport::degraded` records that the slow
//! path ran.

use std::time::Duration;

/// Deterministic, seedable description of which task attempts fail.
///
/// Decisions are pure functions of `(seed, loop, color, attempt)`, so they
/// do not depend on thread scheduling: replaying with the same plan yields
/// the same injected-fault schedule, the same retry counts, and the same
/// final stores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-attempt hash; the whole schedule derives from it.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given task *attempt* is killed.
    /// `1.0` kills every attempt (recovery then handles every task).
    pub task_failure_rate: f64,
    /// Cumulative task ordinal (loop-major, color-minor, independent of
    /// scheduling) at and after which injected failures poison the worker
    /// with a panic instead of dying cleanly. `None` means clean kills
    /// only.
    pub poison_after: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for struct update).
    pub fn quiescent(seed: u64) -> FaultPlan {
        FaultPlan { seed, task_failure_rate: 0.0, poison_after: None }
    }

    /// Builds a plan from `PARTIR_FAULT_SEED` / `PARTIR_FAULT_RATE` /
    /// `PARTIR_FAULT_POISON_AFTER` — parsed in exactly one place,
    /// [`partir_obs::config::fault_env`] — for CI fault-matrix runs.
    /// Returns `None` when `PARTIR_FAULT_SEED` is unset or unparsable; the
    /// rate defaults to `0.3` when only the seed is given. New code should
    /// pass a `FaultPlan` explicitly through `partir::Run::fault`.
    pub fn from_env() -> Option<FaultPlan> {
        let env = partir_obs::config::fault_env()?;
        Some(FaultPlan {
            seed: env.seed,
            task_failure_rate: env.rate,
            poison_after: env.poison_after,
        })
    }

    /// Decides the fate of one task attempt. `ordinal` is the cumulative
    /// task ordinal used by [`FaultPlan::poison_after`]; `n_iters` is the
    /// size of the task's iteration subregion. A returned fault always
    /// kills the attempt strictly before it completes (`survive_iters <
    /// n_iters`).
    pub fn decide(
        &self,
        loop_index: u64,
        color: u64,
        attempt: u32,
        ordinal: u64,
        n_iters: u64,
    ) -> Option<InjectedFault> {
        if self.task_failure_rate <= 0.0 {
            return None;
        }
        let h = hash4(self.seed, loop_index, color, attempt as u64);
        // 53 uniform bits → a unit float, compared against the rate.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= self.task_failure_rate {
            return None;
        }
        let survive_iters =
            if n_iters == 0 { 0 } else { hash4(h, loop_index, color, attempt as u64) % n_iters };
        Some(InjectedFault {
            poison: self.poison_after.is_some_and(|t| ordinal >= t),
            survive_iters,
        })
    }
}

/// One decided fault: how far the attempt runs and how it dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// Die by panicking (exercises `catch_unwind` isolation) instead of
    /// stopping cleanly.
    pub poison: bool,
    /// Iterations of the subregion executed before the attempt dies.
    pub survive_iters: u64,
}

/// Marker payload for injected poison panics, so the executor can tell an
/// injected failure (retryable) from a genuine bug (fatal).
pub struct InjectedPanic;

/// How the executor responds to failed task attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts per task after the first try.
    pub max_retries: u32,
    /// Base backoff between attempts; attempt `k` sleeps `k * backoff`.
    pub backoff: Duration,
    /// Re-execute tasks that exhaust their retries sequentially on the
    /// main thread (the graceful-degradation path). With this off,
    /// exhaustion is an [`crate::exec::ExecError::TaskFailed`] error.
    pub sequential_recovery: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(50),
            sequential_recovery: true,
        }
    }
}

/// splitmix64-style finalizer: the standard 64-bit avalanche mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes four coordinates into one well-mixed word. Both fault planes
/// (this one and [`crate::dist::DistFaultPlan`]) derive their schedules
/// from it.
#[inline]
pub(crate) fn hash4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    mix(mix(mix(mix(a) ^ b) ^ c) ^ d)
}

/// The message of a caught panic payload, for the executors' typed
/// task-panic errors.
pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if p.downcast_ref::<InjectedPanic>().is_some() {
        "injected fault".to_string()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers, computed independently of this implementation: both
    /// fault planes' seeded schedules (and the fixed CI fault seeds) derive
    /// from these exact bits.
    #[test]
    fn hash4_is_splitmix64_chained() {
        assert_eq!(hash4(0, 0, 0, 0), 0x2130_748a_aac8_0268);
        assert_eq!(hash4(1, 2, 3, 4), 0xd55c_cd4a_eb3c_cafb);
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::quiescent(42);
        for li in 0..8 {
            for c in 0..64 {
                assert_eq!(plan.decide(li, c, 0, c, 100), None);
            }
        }
    }

    #[test]
    fn unit_rate_always_fires_and_dies_mid_loop() {
        let plan = FaultPlan { seed: 7, task_failure_rate: 1.0, poison_after: None };
        for c in 0..64 {
            let f = plan.decide(0, c, 0, c, 10).expect("rate 1.0 fires");
            assert!(f.survive_iters < 10);
            assert!(!f.poison);
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan { seed: 1234, task_failure_rate: 0.5, poison_after: Some(3) };
        for li in 0..4 {
            for c in 0..32 {
                for attempt in 0..3 {
                    let a = plan.decide(li, c, attempt, li * 32 + c, 17);
                    let b = plan.decide(li, c, attempt, li * 32 + c, 17);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn seed_changes_schedule() {
        let a = FaultPlan { seed: 1, task_failure_rate: 0.5, poison_after: None };
        let b = FaultPlan { seed: 2, task_failure_rate: 0.5, poison_after: None };
        let fire = |p: &FaultPlan| {
            (0..256).filter(|&c| p.decide(0, c, 0, c, 8).is_some()).collect::<Vec<_>>()
        };
        assert_ne!(fire(&a), fire(&b));
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan { seed: 99, task_failure_rate: 0.25, poison_after: None };
        let fired = (0..4096).filter(|&c| plan.decide(0, c, 0, c, 8).is_some()).count();
        let frac = fired as f64 / 4096.0;
        assert!((frac - 0.25).abs() < 0.05, "observed failure rate {frac}");
    }

    #[test]
    fn poison_after_thresholds_on_ordinal() {
        let plan = FaultPlan { seed: 5, task_failure_rate: 1.0, poison_after: Some(10) };
        assert!(!plan.decide(0, 0, 0, 9, 4).unwrap().poison);
        assert!(plan.decide(0, 0, 0, 10, 4).unwrap().poison);
        assert!(plan.decide(0, 0, 0, 11, 4).unwrap().poison);
    }
}
