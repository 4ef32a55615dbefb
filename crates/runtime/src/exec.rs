//! Parallel execution of auto-parallelized loops on host threads.
//!
//! One task per subregion ("color") of the iteration partition, scheduled
//! over a fixed worker pool. The executor implements the paper's runtime
//! mechanisms faithfully:
//!
//! * **legality checking** — with [`ExecOptions::check_legality`] every
//!   region access is validated against the task's subregion of the
//!   corresponding access partition; a violation means the synthesized
//!   partitioning was wrong, so tests run with this on;
//! * **two-step uncentered reductions** (Section 2) — `Buffered` reductions
//!   accumulate into task-local buffers merged deterministically (in color
//!   order) after the parallel phase;
//! * **guards** (Section 5.1) — in relaxed loops a reduction applies only
//!   when its target lies in the task's subregion of the (disjoint)
//!   reduction partition, and centered writes apply only for the task that
//!   first owns the iteration, so aliased iteration partitions preserve
//!   sequential semantics;
//! * **private sub-partitions** (Section 5.2) — `BufferedPrivate`
//!   reductions write directly inside the private sub-partition and buffer
//!   only the shared remainder, shrinking buffer bytes (reported in
//!   [`ExecReport`]);
//! * **fault tolerance** (see [`crate::fault`]) — with a [`FaultPlan`]
//!   installed, task attempts die deterministically mid-loop (cleanly or by
//!   poisoning the worker with a panic); every attempt runs against a
//!   pre-attempt snapshot of the task's exclusive effect sets so failed
//!   attempts roll back, bounded retries with backoff re-run the task, and
//!   tasks that exhaust their retries are re-executed sequentially on the
//!   main thread — so results stay bit-identical to the sequential
//!   interpreter under any fault schedule.

use crate::fault::{panic_message, FaultPlan, InjectedPanic, RetryPolicy};
use crate::setup::{validate_shape, LoopSetup, Mode, ShapeError};
use crate::shared::SharedStore;
use parking_lot::Mutex;
use partir_core::pipeline::ParallelPlan;
use partir_dpl::func::{FnId, FnTable, IndexSource};
use partir_dpl::index_set::{Idx, IndexSet};
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, RegionId, Schema, Store};
use partir_ir::ast::{AccessId, Loop, ReduceOp, Stmt};
use partir_ir::interp::{eval_fn, eval_multi, run_loop_over, DataCtx};
use partir_obs::json::Json;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    pub n_threads: usize,
    /// Validate every access against its partition subregion (dynamic proof
    /// that the solver's output is legal). On for tests, off for benches.
    pub check_legality: bool,
    /// Deterministic fault injection; `None` runs on a perfect machine.
    pub fault: Option<FaultPlan>,
    /// Recovery policy for failed task attempts (only consulted when
    /// attempts actually fail).
    pub retry: RetryPolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            n_threads: 4,
            check_legality: true,
            fault: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    pub tasks_run: u64,
    /// Total bytes of reduction buffers allocated across tasks and loops.
    pub buffer_bytes: u64,
    /// Buffer bytes avoided by private sub-partitions (Section 5.2): the
    /// difference between full-subregion buffers and the shared remainder
    /// actually allocated.
    pub private_buffer_bytes_saved: u64,
    /// Per-access legality checks performed (0 when checking is off).
    pub legality_checks: u64,
    /// Guarded-reduction applications / skips (relaxed loops).
    pub guard_hits: u64,
    pub guard_skips: u64,
    /// Centered writes skipped because another task owns the iteration.
    pub write_skips: u64,
    /// Task attempts killed by the fault plan (clean kills and poisons).
    pub faults_injected: u64,
    /// Re-attempts after a failed attempt (bounded by the retry policy).
    pub task_retries: u64,
    /// Tasks that exhausted their retries and were re-executed
    /// sequentially on the main thread.
    pub tasks_recovered: u64,
    /// Worker panics contained by the `catch_unwind` isolation barrier.
    pub panics_isolated: u64,
    /// True when the sequential-recovery slow path ran for any task:
    /// results are still bit-identical to the sequential interpreter, but
    /// part of the run was not parallel.
    pub degraded: bool,
}

impl ExecReport {
    /// Machine-readable form, for the JSON report envelopes.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("tasks_run", self.tasks_run)
            .with("buffer_bytes", self.buffer_bytes)
            .with("private_buffer_bytes_saved", self.private_buffer_bytes_saved)
            .with("legality_checks", self.legality_checks)
            .with("guard_hits", self.guard_hits)
            .with("guard_skips", self.guard_skips)
            .with("write_skips", self.write_skips)
            .with("faults_injected", self.faults_injected)
            .with("task_retries", self.task_retries)
            .with("tasks_recovered", self.tasks_recovered)
            .with("panics_isolated", self.panics_isolated)
            .with("degraded", self.degraded)
    }
}

/// Structured description of a legality-check failure: which access of
/// which loop, run by which task, touched which element outside its
/// subregion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LegalityViolation {
    /// Loop index in execution order.
    pub loop_id: usize,
    /// The task (color) whose access escaped its subregion.
    pub task: usize,
    /// Region the violating access targets.
    pub region: RegionId,
    /// The element touched outside the subregion.
    pub index: Idx,
    /// The access site within the loop.
    pub access: AccessId,
}

impl fmt::Display for LegalityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loop {} task {}: access {:?} touched element {} of region r{} outside its subregion",
            self.loop_id, self.task, self.access, self.index, self.region.0
        )
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// The plan's partitions do not have the shape execution relies on.
    Shape(ShapeError),
    /// A task accessed an element outside its subregion (legality check).
    Legality(LegalityViolation),
    /// A worker panicked (a genuine bug, not an injected fault).
    TaskPanic(String),
    /// A task exhausted its retries and sequential recovery was disabled.
    TaskFailed { loop_index: usize, color: usize, attempts: u32 },
    /// Internal buffered-reduction bookkeeping lost its field binding.
    BufferStateCorrupt { loop_index: usize },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Shape(e) => write!(f, "{e}"),
            ExecError::Legality(v) => write!(f, "legality violation: {v}"),
            ExecError::TaskPanic(m) => write!(f, "task panicked: {m}"),
            ExecError::TaskFailed { loop_index, color, attempts } => {
                write!(
                    f,
                    "loop {loop_index}: task {color} failed all {attempts} attempts and sequential recovery is disabled"
                )
            }
            ExecError::BufferStateCorrupt { loop_index } => {
                write!(f, "loop {loop_index}: buffered reduction recorded an op without a field")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes every loop of `program` in order under `plan`.
///
/// `parts` must be `plan.evaluate(...)` output (indexed by `PartId`); every
/// partition must have the same number of subregions (the launch width).
/// Both properties, and every other plan-shape invariant the unsafe shared
/// store relies on, are validated before any loop runs and reported as
/// typed errors instead of downstream panics, out-of-bounds raw-pointer
/// arithmetic, or a store that earlier loops already mutated.
pub fn execute_program(
    program: &[Loop],
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    store: &mut Store,
    fns: &FnTable,
    opts: &ExecOptions,
) -> Result<ExecReport, ExecError> {
    {
        let vspan = partir_obs::span("exec.validate");
        validate_shape(program, plan, parts, store.schema(), opts.check_legality)
            .map_err(ExecError::Shape)?;
        drop(vspan);
    }
    let mut report = ExecReport::default();
    // Cumulative task ordinal (loop-major, color-minor): the deterministic
    // coordinate `FaultPlan::poison_after` thresholds on.
    let mut ordinal_base = 0u64;
    for (li, lp) in program.iter().enumerate() {
        let n_colors = parts[plan.loops[li].iter.0 as usize].num_subregions() as u64;
        execute_loop(li, lp, plan, parts, store, fns, opts, &mut report, ordinal_base)?;
        ordinal_base += n_colors;
    }
    partir_obs::counter("exec.tasks_run", report.tasks_run);
    partir_obs::counter("exec.legality_checks", report.legality_checks);
    partir_obs::counter("exec.buffer_bytes", report.buffer_bytes);
    partir_obs::counter("exec.private_buffer_bytes_saved", report.private_buffer_bytes_saved);
    partir_obs::counter("exec.faults_injected", report.faults_injected);
    partir_obs::counter("exec.task_retries", report.task_retries);
    partir_obs::counter("exec.tasks_recovered", report.tasks_recovered);
    partir_obs::counter("exec.panics_isolated", report.panics_isolated);
    partir_obs::flush_counters();
    Ok(report)
}

/// Mutating access sites of a loop body: `(access, field, is_write)`.
/// These determine which store elements a task attempt may have dirtied,
/// and hence what a pre-attempt snapshot must save.
fn collect_mut_sites(body: &[Stmt], out: &mut Vec<(AccessId, FieldId, bool)>) {
    for s in body {
        match s {
            Stmt::ValWrite { access, field, .. } => out.push((*access, *field, true)),
            Stmt::ValReduce { access, field, .. } => out.push((*access, *field, false)),
            Stmt::ForEach { body, .. } => collect_mut_sites(body, out),
            _ => {}
        }
    }
}

/// Saved pre-attempt values of one task's exclusive effect sets. Restoring
/// is race-free: every saved element is owned by exactly this task (the
/// same ownership argument that makes the direct effects race-free).
struct TaskSnapshot<'a> {
    saved: Vec<(FieldId, &'a IndexSet, Vec<f64>)>,
}

/// Resolves the store elements one mutating site may touch for `color`, or
/// `None` when the site's effects are task-local (buffered reductions).
fn effect_set<'a>(
    site: &(AccessId, FieldId, bool),
    setup: &'a LoopSetup<'a>,
    color: usize,
) -> Option<&'a IndexSet> {
    let (access, _, is_write) = site;
    let ap = &setup.plan.accesses[access.0 as usize];
    if *is_write {
        // Centered write: the task's iterations, narrowed to first-owner
        // elements when the iteration partition aliases.
        return Some(match &setup.write_own {
            Some(own) => &own[color],
            None => setup.iter.subregion(color),
        });
    }
    match &ap.reduce {
        // Centered reduction: disjoint iteration partition enforced.
        None => Some(setup.iter.subregion(color)),
        // Uncentered: only the disjoint in-place slice; buffered
        // contributions live in task-local buffers until the post-scope
        // merge, and a failed attempt just drops them.
        Some(_) => ap.in_place_part().map(|p| setup.parts[p.0 as usize].subregion(color)),
    }
}

/// Saves the pre-attempt values of every element the task may mutate.
///
/// # Safety argument
/// Reads race with nothing: each saved element is exclusively owned by this
/// task during the parallel phase (see `effect_set` and shared.rs docs).
fn take_snapshot<'a>(
    shared: &SharedStore,
    sites: &[(AccessId, FieldId, bool)],
    setup: &'a LoopSetup<'a>,
    color: usize,
) -> TaskSnapshot<'a> {
    let mut saved: Vec<(FieldId, &IndexSet, Vec<f64>)> = Vec::new();
    for site in sites {
        let Some(set) = effect_set(site, setup, color) else {
            continue;
        };
        let field = site.1;
        if saved.iter().any(|(f, s, _)| *f == field && std::ptr::eq(*s, set)) {
            continue; // site already covered (same field, same element set)
        }
        let vals: Vec<f64> = set.iter().map(|i| unsafe { shared.read_f64(field, i) }).collect();
        saved.push((field, set, vals));
    }
    TaskSnapshot { saved }
}

/// Rolls a failed attempt back to the snapshot (same exclusivity argument
/// as `take_snapshot`).
fn restore_snapshot(shared: &SharedStore, snap: &TaskSnapshot<'_>) {
    for (field, set, vals) in &snap.saved {
        for (rank, i) in set.iter().enumerate() {
            unsafe { shared.write_f64(*field, i, vals[rank]) };
        }
    }
}

/// How one task (color) ended after its attempt loop.
enum TaskOutcome {
    /// Completed; carries the task-local reduction buffers to publish.
    Done(Vec<Vec<f64>>),
    /// All attempts failed; queued for sequential recovery.
    Exhausted,
    /// Fatal condition (legality violation or genuine panic); stop the run.
    Abort,
}

#[allow(clippy::too_many_arguments)]
fn execute_loop(
    li: usize,
    lp: &Loop,
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    store: &mut Store,
    fns: &FnTable,
    opts: &ExecOptions,
    report: &mut ExecReport,
    ordinal_base: u64,
) -> Result<(), ExecError> {
    let loop_plan = &plan.loops[li];
    let setup = LoopSetup::resolve(loop_plan, parts);
    let iter = setup.iter;
    let write_own = setup.write_own.as_ref();
    let n_colors = iter.num_subregions();
    let tracing = partir_obs::trace_enabled();
    let loop_span = partir_obs::span_with(
        "exec.loop",
        vec![
            ("loop", li.into()),
            ("loop_name", lp.name.as_str().into()),
            ("colors", n_colors.into()),
        ],
    );
    let set_bytes = |sets: &[IndexSet]| sets.iter().map(|s| s.len() * 8).sum::<u64>();
    for (ap, mode) in loop_plan.accesses.iter().zip(&setup.modes) {
        if let Mode::Buffered { buf } | Mode::BufferedPrivate { buf, .. } = mode {
            let shared_bytes = set_bytes(&setup.buf_sets[*buf]);
            report.buffer_bytes += shared_bytes;
            report.private_buffer_bytes_saved +=
                set_bytes(parts[ap.part.0 as usize].subregions()) - shared_bytes;
        }
    }

    // Mutating sites (for effect-set snapshots); only needed under faults.
    let mut_sites: Vec<(AccessId, FieldId, bool)> = if opts.fault.is_some() {
        let mut sites = Vec::new();
        collect_mut_sites(&lp.body, &mut sites);
        sites
    } else {
        Vec::new()
    };

    let all_buf_sets = &setup.buf_sets;
    // Buffers returned by tasks: buffers[buf_idx][color].
    let buffers: Vec<Vec<Mutex<Option<Vec<f64>>>>> =
        all_buf_sets.iter().map(|sets| sets.iter().map(|_| Mutex::new(None)).collect()).collect();
    // Reduce ops discovered during execution (per buffered access index).
    let buf_ops: Vec<Mutex<Option<ReduceOp>>> =
        all_buf_sets.iter().map(|_| Mutex::new(None)).collect();
    // The field each buffered access targets.
    let buf_fields: Vec<Mutex<Option<FieldId>>> =
        all_buf_sets.iter().map(|_| Mutex::new(None)).collect();

    let violation: Mutex<Option<LegalityViolation>> = Mutex::new(None);
    let genuine_panic: Mutex<Option<String>> = Mutex::new(None);
    // Colors that exhausted their retries, for sequential recovery.
    let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let abort = AtomicBool::new(false);
    let guard_hits = AtomicU64::new(0);
    let guard_skips = AtomicU64::new(0);
    let write_skips = AtomicU64::new(0);
    let legality_checks = AtomicU64::new(0);
    let faults_injected = AtomicU64::new(0);
    let task_retries = AtomicU64::new(0);
    let panics_isolated = AtomicU64::new(0);
    let next_color = AtomicUsize::new(0);
    let schema = store.schema().clone();
    let shared = SharedStore::new(store);
    let new_ctx = |color: usize| TaskCtx {
        shared: &shared,
        fns,
        schema: &schema,
        setup: &setup,
        color,
        write_own: write_own.map(|o| &o[color]),
        check: opts.check_legality,
        local_bufs: all_buf_sets.iter().map(|_| Vec::new()).collect(),
        buf_ops: &buf_ops,
        buf_fields: &buf_fields,
        checks_done: 0,
        guard_hits: &guard_hits,
        guard_skips: &guard_skips,
        write_skips: &write_skips,
        violation: &violation,
    };

    let scope_result = crossbeam::scope(|s| {
        for _ in 0..opts.n_threads.max(1) {
            s.spawn(|_| {
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let color = next_color.fetch_add(1, Ordering::Relaxed);
                    if color >= n_colors {
                        break;
                    }
                    let sub = iter.subregion(color);
                    // Pre-attempt snapshot of the task's exclusive effect
                    // sets, so any failed attempt can roll back.
                    let snapshot =
                        opts.fault.map(|_| take_snapshot(&shared, &mut_sites, &setup, color));
                    let mut attempt: u32 = 0;
                    let outcome = loop {
                        let injection = opts.fault.and_then(|fp| {
                            fp.decide(
                                li as u64,
                                color as u64,
                                attempt,
                                ordinal_base + color as u64,
                                sub.len(),
                            )
                        });
                        // AssertUnwindSafe: shared state touched by a dying
                        // attempt is exactly the snapshot's effect sets
                        // (rolled back below) and task-local buffers (moved
                        // out only on success, dropped by the unwind).
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let mut ctx = new_ctx(color);
                            let t_task =
                                if tracing { Some(std::time::Instant::now()) } else { None };
                            let killed = match injection {
                                Some(fault) => {
                                    run_loop_over(
                                        lp,
                                        &mut ctx,
                                        sub.iter().take(fault.survive_iters as usize),
                                    );
                                    if fault.poison {
                                        std::panic::panic_any(InjectedPanic);
                                    }
                                    true
                                }
                                None => {
                                    run_loop_over(lp, &mut ctx, sub.iter());
                                    false
                                }
                            };
                            if !killed {
                                if let Some(t) = t_task {
                                    partir_obs::instant(
                                        "exec.task",
                                        vec![
                                            ("loop", li.into()),
                                            ("color", color.into()),
                                            ("attempt", attempt.into()),
                                            ("elapsed_ns", (t.elapsed().as_nanos() as u64).into()),
                                        ],
                                    );
                                }
                            }
                            (ctx.checks_done, ctx.local_bufs, killed)
                        }));
                        let injected_death = match result {
                            Ok((checks, bufs, killed)) => {
                                legality_checks.fetch_add(checks, Ordering::Relaxed);
                                if !killed {
                                    break TaskOutcome::Done(bufs);
                                }
                                true // clean injected kill
                            }
                            Err(payload) => {
                                // A legality panic means the *plan* is wrong:
                                // never retried, never recovered — masking it
                                // would hide the solver bug faults are
                                // supposed to be orthogonal to.
                                if violation.lock().is_some() {
                                    abort.store(true, Ordering::Relaxed);
                                    break TaskOutcome::Abort;
                                }
                                panics_isolated.fetch_add(1, Ordering::Relaxed);
                                if payload.downcast_ref::<InjectedPanic>().is_some() {
                                    true // injected poison
                                } else {
                                    // Genuine bug: isolate and stop the run.
                                    let mut slot = genuine_panic.lock();
                                    if slot.is_none() {
                                        *slot = Some(panic_message(payload));
                                    }
                                    drop(slot);
                                    abort.store(true, Ordering::Relaxed);
                                    break TaskOutcome::Abort;
                                }
                            }
                        };
                        debug_assert!(injected_death);
                        faults_injected.fetch_add(1, Ordering::Relaxed);
                        if tracing {
                            partir_obs::instant(
                                "fault.injected",
                                vec![
                                    ("loop", li.into()),
                                    ("color", color.into()),
                                    ("attempt", attempt.into()),
                                ],
                            );
                        }
                        if let Some(snap) = &snapshot {
                            restore_snapshot(&shared, snap);
                        }
                        if attempt >= opts.retry.max_retries {
                            break TaskOutcome::Exhausted;
                        }
                        attempt += 1;
                        task_retries.fetch_add(1, Ordering::Relaxed);
                        if tracing {
                            partir_obs::instant(
                                "task.retry",
                                vec![
                                    ("loop", li.into()),
                                    ("color", color.into()),
                                    ("attempt", attempt.into()),
                                ],
                            );
                        }
                        if !opts.retry.backoff.is_zero() {
                            std::thread::sleep(opts.retry.backoff * attempt);
                        }
                    };
                    match outcome {
                        TaskOutcome::Done(bufs) => {
                            for (bi, buf) in bufs.into_iter().enumerate() {
                                if !buf.is_empty() {
                                    *buffers[bi][color].lock() = Some(buf);
                                }
                            }
                        }
                        TaskOutcome::Exhausted => failed.lock().push(color),
                        TaskOutcome::Abort => break,
                    }
                }
            });
        }
    });
    if let Some(v) = violation.lock().take() {
        return Err(ExecError::Legality(v));
    }
    if let Some(m) = genuine_panic.lock().take() {
        return Err(ExecError::TaskPanic(m));
    }
    if let Err(p) = scope_result {
        // A panic escaped the per-attempt isolation barrier (bookkeeping
        // code, not a task body).
        return Err(ExecError::TaskPanic(panic_message(p)));
    }

    // Graceful degradation: re-execute exhausted tasks sequentially on the
    // main thread through the same task context (guards, ownership sets and
    // buffers included), which is the reference-interpreter semantics
    // restricted to the failed subregion — bit-identical, just not parallel.
    let mut failed_colors = failed.into_inner();
    failed_colors.sort_unstable();
    if !failed_colors.is_empty() && !opts.retry.sequential_recovery {
        return Err(ExecError::TaskFailed {
            loop_index: li,
            color: failed_colors[0],
            attempts: opts.retry.max_retries + 1,
        });
    }
    for color in failed_colors {
        let recovery = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = new_ctx(color);
            run_loop_over(lp, &mut ctx, iter.subregion(color).iter());
            (ctx.checks_done, ctx.local_bufs)
        }));
        match recovery {
            Ok((checks, bufs)) => {
                legality_checks.fetch_add(checks, Ordering::Relaxed);
                for (bi, buf) in bufs.into_iter().enumerate() {
                    if !buf.is_empty() {
                        *buffers[bi][color].lock() = Some(buf);
                    }
                }
                report.tasks_recovered += 1;
                report.degraded = true;
                if tracing {
                    partir_obs::instant(
                        "task.recovered",
                        vec![("loop", li.into()), ("color", color.into())],
                    );
                }
            }
            Err(p) => {
                if let Some(v) = violation.lock().take() {
                    return Err(ExecError::Legality(v));
                }
                return Err(ExecError::TaskPanic(panic_message(p)));
            }
        }
    }
    drop(shared);

    // Deterministic merge: color order, ascending element order.
    let merge_span = partir_obs::span_with("exec.merge", vec![("loop", (li as u64).into())]);
    for (bi, sets) in all_buf_sets.iter().enumerate() {
        let op = match *buf_ops[bi].lock() {
            Some(op) => op,
            None => continue, // no contributions at all
        };
        let field = match *buf_fields[bi].lock() {
            Some(f) => f,
            None => return Err(ExecError::BufferStateCorrupt { loop_index: li }),
        };
        let fs = store.f64s_mut(field);
        for (color, set) in sets.iter().enumerate() {
            if let Some(buf) = buffers[bi][color].lock().take() {
                for (rank, t) in set.iter().enumerate() {
                    let v = buf[rank];
                    let slot = &mut fs[t as usize];
                    *slot = op.apply(*slot, v);
                }
            }
        }
    }
    drop(merge_span);

    report.tasks_run += n_colors as u64;
    report.legality_checks += legality_checks.load(Ordering::Relaxed);
    report.guard_hits += guard_hits.load(Ordering::Relaxed);
    report.guard_skips += guard_skips.load(Ordering::Relaxed);
    report.write_skips += write_skips.load(Ordering::Relaxed);
    report.faults_injected += faults_injected.load(Ordering::Relaxed);
    report.task_retries += task_retries.load(Ordering::Relaxed);
    report.panics_isolated += panics_isolated.load(Ordering::Relaxed);
    loop_span.close_with(vec![
        ("tasks", n_colors.into()),
        ("legality_checks", legality_checks.load(Ordering::Relaxed).into()),
        ("guard_hits", guard_hits.load(Ordering::Relaxed).into()),
        ("guard_skips", guard_skips.load(Ordering::Relaxed).into()),
        ("write_skips", write_skips.load(Ordering::Relaxed).into()),
        ("faults_injected", faults_injected.load(Ordering::Relaxed).into()),
        ("task_retries", task_retries.load(Ordering::Relaxed).into()),
    ]);
    Ok(())
}

/// Task-local data context: all region traffic from one task.
struct TaskCtx<'a> {
    shared: &'a SharedStore,
    fns: &'a FnTable,
    schema: &'a Schema,
    setup: &'a LoopSetup<'a>,
    color: usize,
    write_own: Option<&'a IndexSet>,
    check: bool,
    /// Task-local reduction buffers, one per buffered access (lazily
    /// identity-filled on first use).
    local_bufs: Vec<Vec<f64>>,
    buf_ops: &'a [Mutex<Option<ReduceOp>>],
    buf_fields: &'a [Mutex<Option<FieldId>>],
    /// Legality checks this task performed (plain counter, merged into the
    /// shared total once at task end).
    checks_done: u64,
    guard_hits: &'a AtomicU64,
    guard_skips: &'a AtomicU64,
    write_skips: &'a AtomicU64,
    /// First legality violation observed (recorded before the panic that
    /// aborts the task, so the executor can report a structured error).
    violation: &'a Mutex<Option<LegalityViolation>>,
}

impl TaskCtx<'_> {
    #[cold]
    fn legality_violation(&self, a: AccessId, i: Idx) -> ! {
        let v = LegalityViolation {
            loop_id: self.setup.plan.loop_index,
            task: self.color,
            region: self.setup.plan.accesses[a.0 as usize].region,
            index: i,
            access: a,
        };
        let mut slot = self.violation.lock();
        if slot.is_none() {
            *slot = Some(v);
        }
        drop(slot);
        panic!("legality violation: {v}");
    }

    #[inline]
    fn check_access(&mut self, a: AccessId, i: Idx) {
        if self.check {
            self.checks_done += 1;
            if !self.setup.subregion(a, self.color).contains(i) {
                self.legality_violation(a, i);
            }
        }
    }
}

impl DataCtx for TaskCtx<'_> {
    fn read_f64(&mut self, a: AccessId, field: FieldId, i: Idx) -> f64 {
        self.check_access(a, i);
        // SAFETY: reads only race with writes to *other* elements (see
        // shared.rs module docs).
        unsafe { self.shared.read_f64(field, i) }
    }

    fn write_f64(&mut self, a: AccessId, field: FieldId, i: Idx, v: f64) {
        self.check_access(a, i);
        if let Some(own) = self.write_own {
            if !own.contains(i) {
                self.write_skips.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // SAFETY: centered write; element owned by exactly one task.
        unsafe { self.shared.write_f64(field, i, v) };
    }

    fn reduce_f64(&mut self, a: AccessId, field: FieldId, i: Idx, op: ReduceOp, v: f64) {
        let setup = self.setup;
        match &setup.modes[a.0 as usize] {
            Mode::Plain => {
                self.check_access(a, i);
                // Centered or provably-disjoint reduction: in-place.
                // SAFETY: element owned by exactly one task.
                unsafe {
                    let cur = self.shared.read_f64(field, i);
                    self.shared.write_f64(field, i, op.apply(cur, v));
                }
            }
            Mode::Guarded => {
                if self.setup.subregion(a, self.color).contains(i) {
                    self.guard_hits.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: the guard partition is disjoint.
                    unsafe {
                        let cur = self.shared.read_f64(field, i);
                        self.shared.write_f64(field, i, op.apply(cur, v));
                    }
                } else {
                    self.guard_skips.fetch_add(1, Ordering::Relaxed);
                }
            }
            Mode::Buffered { buf } => {
                self.check_access(a, i);
                self.buffer_reduce(a, *buf, field, i, op, v);
            }
            Mode::BufferedPrivate { private, buf } => {
                self.check_access(a, i);
                if private.subregion(self.color).contains(i) {
                    // SAFETY: private sub-partition is disjoint.
                    unsafe {
                        let cur = self.shared.read_f64(field, i);
                        self.shared.write_f64(field, i, op.apply(cur, v));
                    }
                } else {
                    self.buffer_reduce(a, *buf, field, i, op, v);
                }
            }
        }
    }

    fn read_ptr(&mut self, a: AccessId, field: FieldId, i: Idx) -> Idx {
        self.check_access(a, i);
        self.shared.ptr(field, i).expect("ptr read out of bounds")
    }

    // Inlined into the interpreter loop: one call per neighbor index is
    // the stencil's hot path.
    #[inline]
    fn eval_fn(&mut self, f: FnId, i: Idx) -> Idx {
        eval_fn(self.fns, self.schema, self.shared, f, i)
    }

    fn eval_multi(&mut self, a: AccessId, f: FnId, i: Idx, out: &mut Vec<Idx>) {
        self.check_access(a, i);
        eval_multi(self.fns, self.schema, self.shared, f, i, out)
    }
}

impl TaskCtx<'_> {
    fn buffer_reduce(
        &mut self,
        a: AccessId,
        bi: usize,
        field: FieldId,
        i: Idx,
        op: ReduceOp,
        v: f64,
    ) {
        let set = &self.setup.buf_sets[bi][self.color];
        let buf = &mut self.local_bufs[bi];
        if buf.is_empty() {
            buf.resize(set.len() as usize, op.identity());
            let mut slot = self.buf_ops[bi].lock();
            if slot.is_none() {
                *slot = Some(op);
                *self.buf_fields[bi].lock() = Some(field);
            }
        }
        let rank = match set.rank(i) {
            Some(r) => r as usize,
            None => self.legality_violation(a, i),
        };
        buf[rank] = op.apply(buf[rank], v);
    }
}
