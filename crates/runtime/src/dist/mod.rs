//! SPMD rank-sharded distributed backend.
//!
//! Each rank owns the subregions assigned to it by the solved disjoint
//! partitions (a block owner mapping of colors → ranks), holds only its
//! shard of every f64 region plus ghost cells, and exchanges data over
//! in-process channels — one mailbox pair per rank. Every send/recv set is
//! derived from the constraint solution by
//! [`partir_core::exchange::derive_exchange`] once per plan; execution
//! just moves the payloads.
//!
//! Results are bit-identical to the sequential interpreter (and the
//! threaded executor): ghost copies carry owner-fresh loop-start values so
//! in-place floating-point effects happen in the exact local order, owners
//! install written-back values verbatim (each element has exactly one
//! in-place writer, by disjointness), and partial reduction buffers merge
//! in ascending global color order with the same presence/skip semantics
//! as the threaded merge.

pub mod fault;
mod mailbox;
mod rank;
mod store;

pub use fault::{CheckpointPolicy, DistFaultPlan, RankCrash};
pub use store::RankStore;

use crate::dist::mailbox::build_fabric;
use crate::dist::rank::{OwnedShards, RankStats};
use crate::fault::panic_message;
use crate::setup::{validate_shape, LoopSetup, ShapeError};
use parking_lot::Mutex;
use partir_core::exchange::{
    derive_exchange_with, prove_plan_legality, ExchangeError, ExchangePlan, PlanLegalityError,
};
use partir_core::pipeline::ParallelPlan;
use partir_core::placement::{evacuate_placement, PlacementConfig};
use partir_dpl::func::FnTable;
use partir_dpl::index_set::Idx;
use partir_dpl::partition::Partition;
use partir_dpl::region::{RegionId, Schema, Store};
use partir_ir::ast::{AccessId, Loop};
use partir_obs::json::Json;
use partir_obs::trace::{RankTracer, SpanKind, Trace};
use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epoch deadline armed on every mailbox when the fault plan can crash a
/// rank: a receive that makes no progress for this long declares the first
/// still-awaited source lost. Only silent crashes need it (loud crashes
/// broadcast notices), but it is a harmless backstop either way — epochs
/// complete in microseconds-to-milliseconds, so a healthy peer never
/// comes close.
const EPOCH_DEADLINE: Duration = Duration::from_secs(2);

/// How access legality (`accessed ⊆ owned ∪ ghosts`) is established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LegalityMode {
    /// Prove containment once per plan by interval set-containment over
    /// the exchange plan's footprints ([`prove_plan_legality`]) — zero
    /// per-element work on the hot path. The release-mode default.
    Plan,
    /// Check every access against its partition subregion at runtime, on
    /// top of the plan proof — the debug-mode default, and the negative
    /// test's way of catching a corrupted plan element-by-element.
    Element,
    /// No legality work at all (residency faults still surface as
    /// [`DistError::Legality`] via the store's `owned ∪ ghosts` lookup).
    Off,
}

impl Default for LegalityMode {
    fn default() -> Self {
        if cfg!(debug_assertions) {
            LegalityMode::Element
        } else {
            LegalityMode::Plan
        }
    }
}

/// Distributed executor configuration.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Number of ranks (SPMD processes, modeled as threads with disjoint
    /// sharded stores).
    pub n_ranks: usize,
    /// How access legality is established (see [`LegalityMode`]).
    pub legality: LegalityMode,
    /// When set, mailboxes shuffle delivery order among ready messages and
    /// inject tiny receive-side delays, deterministically per seed —
    /// simulates an adversarially slow fabric so tests can pin that
    /// results stay bit-identical under any arrival schedule.
    pub chaos_seed: Option<u64>,
    /// Record a per-rank timeline span for every epoch phase (pack, send,
    /// recv-wait, unpack, interior/halo compute, merge), returned as
    /// [`DistOutcome::trace`] for Chrome-trace export and critical-path
    /// analysis. Off by default; when off the per-peer span clocks are
    /// never read.
    pub collect_timeline: bool,
    /// Fail the run with [`DistError::VolumeMismatch`] when the bytes any
    /// rank pair actually moved disagree with what the exchange plan
    /// predicts. A mismatch means the runtime and the constraint solution
    /// disagree about the communication footprint — a correctness smell,
    /// not a perf one.
    pub strict_volume: bool,
    /// Deterministic fabric/rank fault injection (message drops,
    /// duplication, whole-rank crash). Configuring a plan also enables
    /// survivor-side recovery: a lost rank's colors are evacuated to the
    /// survivors, state restores from the last consistent checkpoint (or
    /// the pristine input), and the run resumes bit-identical to the
    /// sequential interpreter.
    pub fault: Option<DistFaultPlan>,
    /// Epoch-interval checkpointing of each rank's owned shard, the
    /// restore points recovery rolls back to. Without a policy, recovery
    /// restarts from epoch 0.
    pub checkpoint: Option<CheckpointPolicy>,
    /// How solved colors map onto ranks: naive blocking (the default),
    /// cost-driven graph partitioning over the exchange plan's predicted
    /// pair volumes, or an explicit caller-supplied assignment. Also
    /// drives placement-aware crash recovery (the dead rank's colors are
    /// re-placed by communication gain instead of round-robin).
    pub placement: PlacementConfig,
    /// Plan-legality facts already proved for *this* exchange plan and
    /// partition set (e.g. by `partir-core`'s plan cache, which bundles
    /// the proof with the cached artifacts). When set and legality is not
    /// `Off`, the up-front `prove_plan_legality` pass is skipped and the
    /// count is reported as `plan_proved` unchanged. Callers own the
    /// invariant that the proof matches the plan they pass; recovery
    /// re-proves from scratch regardless, since evacuation rewrites the
    /// exchange plan.
    pub preproved: Option<u64>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            n_ranks: 4,
            legality: LegalityMode::default(),
            chaos_seed: None,
            collect_timeline: false,
            strict_volume: false,
            fault: None,
            checkpoint: None,
            placement: PlacementConfig::default(),
            preproved: None,
        }
    }
}

/// In-memory per-rank checkpoint store: snapshots of each rank's owned
/// shard, keyed by the epoch after which they were taken. Held by the
/// driver; ranks push into it at checkpoint boundaries, recovery restores
/// the newest epoch *every* spawned rank holds (the only globally
/// consistent cut — a laggard may not have reached the latest boundary
/// when its peer died).
pub(crate) struct CheckpointStore {
    slots: Mutex<Vec<Vec<(u64, OwnedShards)>>>,
}

impl CheckpointStore {
    fn new(n_ranks: usize) -> Self {
        CheckpointStore { slots: Mutex::new(vec![Vec::new(); n_ranks]) }
    }

    pub(crate) fn put(&self, rank: usize, epoch: u64, shards: OwnedShards) {
        self.slots.lock()[rank].push((epoch, shards));
    }

    /// The newest epoch for which every `spawned` rank holds a snapshot.
    fn consistent_epoch(&self, spawned: &[bool]) -> Option<u64> {
        let slots = self.slots.lock();
        let first = spawned.iter().position(|&a| a)?;
        let mut epochs: Vec<u64> = slots[first].iter().map(|&(e, _)| e).collect();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        epochs.into_iter().find(|&e| {
            spawned.iter().enumerate().all(|(r, &a)| !a || slots[r].iter().any(|(ee, _)| *ee == e))
        })
    }

    /// Installs every rank's `epoch` snapshot into `store` under the
    /// exchange plan the snapshots were taken with.
    fn restore_into(&self, store: &mut Store, xplan: &ExchangePlan, epoch: u64) {
        let slots = self.slots.lock();
        for (r, list) in slots.iter().enumerate() {
            if let Some((_, shards)) = list.iter().find(|(e, _)| *e == epoch) {
                RankStore::install_owned(store, xplan, r, shards.clone());
            }
        }
    }

    /// Drops all snapshots — they were taken under an owner assignment
    /// that no longer exists once recovery re-shards.
    fn clear(&self) {
        for l in self.slots.lock().iter_mut() {
            l.clear();
        }
    }
}

/// Distributed execution statistics: compute, communication volume, and
/// per-phase timings summed over ranks.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistReport {
    pub ranks: u64,
    pub tasks_run: u64,
    /// Coalesced messages actually sent (ghost + post).
    pub messages: u64,
    /// Payload bytes actually sent between ranks.
    pub bytes_sent: u64,
    /// Ghost elements resident across ranks (from the exchange plan).
    pub ghost_elements: u64,
    pub ghost_fetch_bytes: u64,
    pub write_back_bytes: u64,
    pub partial_bytes: u64,
    /// Bytes full replication would have moved — the baseline sharding
    /// beats (from the exchange plan).
    pub replication_bytes: u64,
    pub legality_checks: u64,
    /// Containment facts established by the plan-level legality proof
    /// (one per `(loop, access, color)`), 0 when the proof did not run.
    pub plan_proved: u64,
    pub buffer_bytes: u64,
    pub guard_hits: u64,
    pub guard_skips: u64,
    pub write_skips: u64,
    /// Summed per-rank phase timings (nanoseconds).
    pub pack_ns: u64,
    pub exchange_wait_ns: u64,
    pub unpack_ns: u64,
    pub compute_ns: u64,
    pub merge_ns: u64,
    /// Rank losses recovered from (each one re-sharded and resumed).
    pub recoveries: u64,
    /// Bytes of owned state the survivors adopted from lost ranks —
    /// recovery's minimality claim is `bytes_migrated ≤` the lost ranks'
    /// owned-shard size (nothing already owned by a survivor ever moves).
    pub bytes_migrated: u64,
    /// Driver time spent re-sharding + restoring checkpoints.
    pub recovery_ns: u64,
    /// Owned-shard checkpoints taken (final attempt), and their cost.
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub checkpoint_ns: u64,
    /// Send attempts the fault plan dropped in flight (sender retried).
    pub retransmits: u64,
    /// Duplicate copies the fault plan injected (receivers deduped them).
    pub duplicates: u64,
}

impl DistReport {
    /// Machine-readable form, for the JSON report envelopes.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("ranks", self.ranks)
            .with("tasks_run", self.tasks_run)
            .with("messages", self.messages)
            .with("bytes_sent", self.bytes_sent)
            .with("ghost_elements", self.ghost_elements)
            .with("ghost_fetch_bytes", self.ghost_fetch_bytes)
            .with("write_back_bytes", self.write_back_bytes)
            .with("partial_bytes", self.partial_bytes)
            .with("replication_bytes", self.replication_bytes)
            .with("legality_checks", self.legality_checks)
            .with("plan_proved", self.plan_proved)
            .with("buffer_bytes", self.buffer_bytes)
            .with("guard_hits", self.guard_hits)
            .with("guard_skips", self.guard_skips)
            .with("write_skips", self.write_skips)
            .with("pack_ns", self.pack_ns)
            .with("exchange_wait_ns", self.exchange_wait_ns)
            .with("unpack_ns", self.unpack_ns)
            .with("compute_ns", self.compute_ns)
            .with("merge_ns", self.merge_ns)
            .with("recoveries", self.recoveries)
            .with("bytes_migrated", self.bytes_migrated)
            .with("recovery_ns", self.recovery_ns)
            .with("checkpoints", self.checkpoints)
            .with("checkpoint_bytes", self.checkpoint_bytes)
            .with("checkpoint_ns", self.checkpoint_ns)
            .with("retransmits", self.retransmits)
            .with("duplicates", self.duplicates)
    }
}

/// Predicted vs measured traffic of one `(src, dst)` rank pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairDelta {
    pub src: usize,
    pub dst: usize,
    pub predicted_bytes: u64,
    pub measured_bytes: u64,
    pub predicted_messages: u64,
    pub measured_messages: u64,
}

impl PairDelta {
    /// Did the runtime move exactly what the plan predicted?
    pub fn is_clean(&self) -> bool {
        self.predicted_bytes == self.measured_bytes
            && self.predicted_messages == self.measured_messages
    }

    pub fn to_json(&self) -> Json {
        Json::object()
            .with("src", self.src)
            .with("dst", self.dst)
            .with("predicted_bytes", self.predicted_bytes)
            .with("measured_bytes", self.measured_bytes)
            .with("delta_bytes", self.measured_bytes as i64 - self.predicted_bytes as i64)
            .with("predicted_messages", self.predicted_messages)
            .with("measured_messages", self.measured_messages)
    }
}

/// Per-pair predicted-vs-measured communication accounting of one run:
/// predictions are computed statically from the exchange plan
/// ([`ExchangePlan::predicted_pair_volume`]), measurements at the mailbox
/// layer as messages arrive.
#[derive(Clone, Debug, Default)]
pub struct VolumeAccounting {
    /// Every pair with any predicted or measured traffic, ascending
    /// `(src, dst)`.
    pub pairs: Vec<PairDelta>,
}

impl VolumeAccounting {
    /// No pair deviated from its prediction.
    pub fn is_clean(&self) -> bool {
        self.pairs.iter().all(PairDelta::is_clean)
    }

    /// The first deviating pair, if any.
    pub fn first_mismatch(&self) -> Option<&PairDelta> {
        self.pairs.iter().find(|p| !p.is_clean())
    }

    /// The `pairs` report section: one object per traffic-bearing pair.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.pairs.iter().map(PairDelta::to_json).collect())
    }
}

/// Full result of a distributed run: the aggregate report plus the
/// cross-rank timeline (when collected) and the predicted-vs-measured
/// volume accounting.
#[derive(Debug)]
pub struct DistOutcome {
    pub report: DistReport,
    /// Per-rank timelines, present when [`DistOptions::collect_timeline`]
    /// was on.
    pub trace: Option<Trace>,
    pub volume: VolumeAccounting,
    /// Time spent in up-front plan validation (the explicit legality
    /// pass), nanoseconds.
    pub validate_ns: u64,
    /// Ranks declared lost and recovered from, in loss order.
    pub lost_ranks: Vec<usize>,
}

/// A distributed legality failure: which access of which loop, run by which
/// task on which rank, touched which element outside its subregion or
/// outside the rank's `owned ∪ ghosts` footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistViolation {
    pub rank: usize,
    /// Loop index in execution order.
    pub loop_id: usize,
    /// The task (color) whose access escaped.
    pub task: usize,
    pub region: RegionId,
    pub index: Idx,
    pub access: AccessId,
}

impl fmt::Display for DistViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} loop {} task {}: access {:?} touched element {} of region r{} outside its subregion or rank footprint",
            self.rank, self.loop_id, self.task, self.access, self.index, self.region.0
        )
    }
}

/// Distributed execution failure.
#[derive(Debug)]
pub enum DistError {
    /// Communication-set derivation failed.
    Exchange(ExchangeError),
    /// The plan's partitions do not have the shape execution relies on.
    Shape(ShapeError),
    /// An access escaped its subregion or its rank's footprint.
    Legality(DistViolation),
    /// The plan-level legality proof failed: some `(loop, access, color)`
    /// can reach an element outside its rank's `owned ∪ ghosts` footprint.
    PlanIllegal(PlanLegalityError),
    /// A rank thread panicked (a genuine bug, not a legality report).
    RankPanic { rank: usize, message: String },
    /// A peer's mailbox hung up mid-run.
    Disconnected { rank: usize },
    /// A rank was declared lost at `epoch` — it crashed (detected by a
    /// crash notice or an epoch-deadline expiry) or stopped acknowledging
    /// sends past the retransmit bound. With recovery enabled the driver
    /// handles this internally; it surfaces only when recovery is off or
    /// no survivors remain.
    RankLost { rank: usize, epoch: u64 },
    /// This rank stopped because another rank failed first (the first
    /// failure carries the real error).
    Aborted,
    /// Strict volume accounting found a rank pair whose measured traffic
    /// disagrees with the exchange plan's prediction.
    VolumeMismatch { src: usize, dst: usize, predicted_bytes: u64, measured_bytes: u64 },
    /// Executor bookkeeping failure.
    Internal(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Exchange(e) => write!(f, "exchange derivation failed: {e}"),
            DistError::Shape(e) => write!(f, "{e}"),
            DistError::Legality(v) => write!(f, "distributed legality violation: {v}"),
            DistError::PlanIllegal(e) => write!(f, "plan-level legality proof failed: {e}"),
            DistError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            DistError::Disconnected { rank } => {
                write!(f, "rank {rank} hung up mid-run")
            }
            DistError::RankLost { rank, epoch } => {
                write!(f, "rank {rank} lost at epoch {epoch}")
            }
            DistError::Aborted => write!(f, "aborted after another rank's failure"),
            DistError::VolumeMismatch { src, dst, predicted_bytes, measured_bytes } => {
                write!(
                    f,
                    "rank pair ({src} -> {dst}): plan predicts {predicted_bytes} bytes but the runtime moved {measured_bytes}"
                )
            }
            DistError::Internal(m) => write!(f, "internal distributed-executor error: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<ExchangeError> for DistError {
    fn from(e: ExchangeError) -> Self {
        DistError::Exchange(e)
    }
}

/// Executes every loop of `program` in SPMD fashion over the ranks of the
/// exchange plan `xplan` and gathers the owned shards back into `store`.
/// Results are bit-identical to the sequential interpreter.
///
/// `parts` must be `plan.evaluate(...)` output, exactly as for the
/// threaded executor, and `xplan` must be derived from them (it depends
/// only on the partitions, the rank count and the placement, so repeated
/// executions reuse it).
pub fn execute_with_exchange_full(
    program: &[Loop],
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    xplan: &ExchangePlan,
    store: &mut Store,
    fns: &FnTable,
    opts: &DistOptions,
) -> Result<DistOutcome, DistError> {
    let vt = Instant::now();
    {
        let vspan = partir_obs::span("dist.validate");
        validate_shape(program, plan, parts, store.schema(), opts.legality != LegalityMode::Off)
            .map_err(DistError::Shape)?;
        drop(vspan);
    }
    let validate_ns = vt.elapsed().as_nanos() as u64;
    let setups: Vec<LoopSetup> = plan.loops.iter().map(|l| LoopSetup::resolve(l, parts)).collect();
    // Plan-level legality: prove `accessed ⊆ owned ∪ ghosts` once, by
    // interval set-containment, instead of re-deriving it per element on
    // the hot path. Element mode proves too — the per-element checks then
    // double as the negative test's corruption detector.
    let mut plan_proved = if opts.legality != LegalityMode::Off {
        match opts.preproved {
            // A cached proof for this exact (xplan, parts) pair: skip the
            // containment pass, keep the fact count in the report.
            Some(facts) => facts,
            None => {
                let proof = prove_plan_legality(xplan, plan, parts, store.schema())
                    .map_err(DistError::PlanIllegal)?;
                proof.facts
            }
        }
    } else {
        0
    };
    let n_ranks = xplan.n_ranks;
    let span = partir_obs::span_with(
        "dist.execute",
        vec![("ranks", n_ranks.into()), ("loops", program.len().into())],
    );
    let schema = store.schema().clone();

    // Fault plane. A configured fault plan (or checkpoint policy) enables
    // survivor-side recovery, which needs the pristine input state as the
    // epoch-0 restore point.
    let fault = opts.fault;
    let policy = opts.checkpoint;
    let recovery_enabled = fault.is_some() || policy.is_some();
    let initial: Option<Store> = recovery_enabled.then(|| store.clone());
    let ckpts = CheckpointStore::new(n_ranks);

    let mut alive = vec![true; n_ranks];
    let mut cur_xplan: Cow<'_, ExchangePlan> = Cow::Borrowed(xplan);
    let mut first_epoch = 0usize;
    let mut restored: Option<Store> = None;
    let mut lost_ranks: Vec<usize> = Vec::new();
    let mut recoveries = 0u64;
    let mut bytes_migrated = 0u64;
    let mut recovery_ns = 0u64;
    // `(ns, bytes)` of the recovery that launched the current attempt, so
    // its survivors' timelines carry a Recovery span.
    let mut last_recovery: Option<(u64, u64)> = None;

    let outcomes = loop {
        let base_store: &Store = restored.as_ref().unwrap_or(store);
        let attempt = run_attempt(
            program,
            &setups,
            &cur_xplan,
            base_store,
            &schema,
            fns,
            opts,
            &alive,
            first_epoch,
            fault.as_ref(),
            policy.as_ref().map(|p| (p, &ckpts)),
            last_recovery,
        )?;
        if let Some(v) = attempt.violation {
            return Err(DistError::Legality(v));
        }
        // The crash slot is ground truth; a peer's RankLost (from a notice,
        // a deadline expiry, or retransmit exhaustion) is the fallback.
        let dead = attempt.lost.map(|(r, _)| r).or(match &attempt.error {
            Some(DistError::RankLost { rank, .. }) => Some(*rank),
            _ => None,
        });
        match (dead, attempt.error) {
            (Some(dead), err) if recovery_enabled && alive[dead] => {
                // Survivor-side recovery: evacuate the dead rank's colors,
                // re-derive + re-prove the exchange plan, restore the last
                // consistent checkpoint, resume on the survivors.
                let t = Instant::now();
                recoveries += 1;
                lost_ranks.push(dead);
                let spawned = alive.clone();
                alive[dead] = false;
                if !alive.iter().any(|&a| a) {
                    return Err(err.unwrap_or(DistError::RankLost { rank: dead, epoch: 0 }));
                }
                let assignment = evacuate_placement(
                    plan,
                    parts,
                    &schema,
                    cur_xplan.owner_assignment(),
                    dead,
                    n_ranks,
                    &opts.placement,
                )?;
                let nx = derive_exchange_with(plan, parts, &schema, n_ranks, &assignment)?;
                if opts.legality != LegalityMode::Off {
                    plan_proved = prove_plan_legality(&nx, plan, parts, &schema)
                        .map_err(DistError::PlanIllegal)?
                        .facts;
                }
                // Minimal migration: survivors keep every color they had,
                // so the only owned bytes that move are the dead rank's.
                let migrated: u64 = (0..n_ranks)
                    .filter(|&r| alive[r])
                    .map(|r| {
                        nx.owned_field_bytes(&schema, r)
                            .saturating_sub(cur_xplan.owned_field_bytes(&schema, r))
                    })
                    .sum();
                bytes_migrated += migrated;
                let mut base = initial.clone().expect("recovery implies a saved initial store");
                first_epoch = match ckpts.consistent_epoch(&spawned) {
                    Some(ce) => {
                        ckpts.restore_into(&mut base, &cur_xplan, ce);
                        (ce + 1) as usize
                    }
                    None => 0,
                };
                ckpts.clear();
                restored = Some(base);
                cur_xplan = Cow::Owned(nx);
                let d = t.elapsed().as_nanos() as u64;
                recovery_ns += d;
                last_recovery = Some((d, migrated));
                continue;
            }
            (_, Some(e)) => return Err(e),
            (Some(dead), None) => {
                // A crash was observed but recovery is impossible (e.g.
                // every peer finished before needing the dead rank and
                // recovery is disabled) — never silently return results
                // missing the dead rank's epochs.
                let epoch = attempt.lost.map(|(_, e)| e).unwrap_or(0);
                return Err(DistError::RankLost { rank: dead, epoch });
            }
            (None, None) => break attempt.outcomes,
        }
    };

    // Gather: install every surviving rank's owned shards into the
    // caller's store. Under the final (possibly evacuated) owner
    // assignment the survivors' shards cover every region completely.
    let xp: &ExchangePlan = &cur_xplan;
    let mut report = DistReport {
        ranks: n_ranks as u64,
        plan_proved,
        ghost_elements: xp.stats.ghost_elements,
        ghost_fetch_bytes: xp.stats.ghost_fetch_bytes,
        write_back_bytes: xp.stats.write_back_bytes,
        partial_bytes: xp.stats.partial_bytes,
        replication_bytes: xp.stats.replication_bytes,
        recoveries,
        bytes_migrated,
        recovery_ns,
        ..DistReport::default()
    };
    // measured[src][dst]: what dst's mailbox metered against src.
    let mut measured = vec![vec![(0u64, 0u64); n_ranks]; n_ranks];
    let mut done_tracers: Vec<RankTracer> = Vec::new();
    for (r, out) in outcomes.into_iter().enumerate() {
        let Some((owned, rstats, tracer)) = out else {
            if alive[r] {
                return Err(DistError::Internal(format!("rank {r} produced no result")));
            }
            continue;
        };
        RankStore::install_owned(store, xp, r, owned);
        report.tasks_run += rstats.tasks_run;
        report.messages += rstats.messages_sent;
        report.bytes_sent += rstats.bytes_sent;
        report.legality_checks += rstats.legality_checks;
        report.buffer_bytes += rstats.buffer_bytes;
        report.guard_hits += rstats.guard_hits;
        report.guard_skips += rstats.guard_skips;
        report.write_skips += rstats.write_skips;
        report.pack_ns += rstats.pack_ns;
        report.exchange_wait_ns += rstats.exchange_wait_ns;
        report.unpack_ns += rstats.unpack_ns;
        report.compute_ns += rstats.compute_ns;
        report.merge_ns += rstats.merge_ns;
        report.retransmits += rstats.retransmits;
        report.duplicates += rstats.duplicates_sent;
        report.checkpoints += rstats.checkpoints;
        report.checkpoint_bytes += rstats.checkpoint_bytes;
        report.checkpoint_ns += rstats.checkpoint_ns;
        for (src, &cell) in rstats.recv_by_src.iter().enumerate() {
            measured[src][r] = cell;
        }
        done_tracers.extend(tracer);
    }

    // Predicted-vs-measured accounting per (src, dst) pair. A recovered
    // run predicts only the epochs it actually re-executed; duplicate
    // deliveries and crash notices were metered separately by the
    // mailboxes and never pollute these pairs.
    let predicted = xp.predicted_pair_volume_from(first_epoch);
    let mut pairs = Vec::new();
    for src in 0..n_ranks {
        for dst in 0..n_ranks {
            let p = predicted[src][dst];
            let (m_bytes, m_msgs) = measured[src][dst];
            if p.bytes == 0 && p.messages == 0 && m_bytes == 0 && m_msgs == 0 {
                continue;
            }
            pairs.push(PairDelta {
                src,
                dst,
                predicted_bytes: p.bytes,
                measured_bytes: m_bytes,
                predicted_messages: p.messages,
                measured_messages: m_msgs,
            });
        }
    }
    let volume = VolumeAccounting { pairs };
    if opts.strict_volume {
        if let Some(d) = volume.first_mismatch() {
            return Err(DistError::VolumeMismatch {
                src: d.src,
                dst: d.dst,
                predicted_bytes: d.predicted_bytes,
                measured_bytes: d.measured_bytes,
            });
        }
    }
    let trace = opts.collect_timeline.then(|| {
        let mut t = Trace::from_rank_tracers(n_ranks, done_tracers);
        t.first_epoch = first_epoch;
        t.lost_ranks = lost_ranks.clone();
        t
    });

    partir_obs::counter("dist.tasks_run", report.tasks_run);
    partir_obs::counter("dist.messages", report.messages);
    partir_obs::counter("dist.bytes_sent", report.bytes_sent);
    partir_obs::counter("dist.ghost_elements", report.ghost_elements);
    partir_obs::counter("dist.legality_checks", report.legality_checks);
    if report.recoveries > 0 {
        partir_obs::counter("dist.recovery_count", report.recoveries);
        partir_obs::counter("dist.recovery_bytes_migrated", report.bytes_migrated);
    }
    if report.checkpoints > 0 {
        partir_obs::counter("dist.checkpoints", report.checkpoints);
        partir_obs::counter("dist.checkpoint_bytes", report.checkpoint_bytes);
    }
    partir_obs::flush_counters();
    span.close_with(vec![
        ("messages", report.messages.into()),
        ("bytes_sent", report.bytes_sent.into()),
    ]);
    Ok(DistOutcome { report, trace, volume, validate_ns, lost_ranks })
}

/// One rank's gathered result: owned shards, stats, and its timeline.
type RankOutcome = (OwnedShards, RankStats, Option<RankTracer>);

/// Everything one SPMD attempt produced, success or not.
struct AttemptResult {
    /// Per-rank outcomes; `None` for ranks that were not spawned (already
    /// dead) or did not finish.
    outcomes: Vec<Option<RankOutcome>>,
    /// The first hard error any rank hit (secondary aborts excluded).
    error: Option<DistError>,
    violation: Option<DistViolation>,
    /// Injected-crash ground truth: `(rank, epoch)` of the victim.
    lost: Option<(usize, u64)>,
}

/// Runs one SPMD attempt over the currently-alive ranks, resuming at
/// `first_epoch`. Returns `Err` only for driver-level failures (a scope
/// panic); rank-level failures come back inside [`AttemptResult`] so the
/// caller can decide between recovery and propagation.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    program: &[Loop],
    setups: &[LoopSetup<'_>],
    xplan: &ExchangePlan,
    base_store: &Store,
    schema: &Schema,
    fns: &FnTable,
    opts: &DistOptions,
    alive: &[bool],
    first_epoch: usize,
    fault: Option<&DistFaultPlan>,
    ckpt: Option<(&CheckpointPolicy, &CheckpointStore)>,
    recovery: Option<(u64, u64)>,
) -> Result<AttemptResult, DistError> {
    let n_ranks = xplan.n_ranks;
    let abort = Arc::new(AtomicBool::new(false));
    let (senders, mut mailboxes) = build_fabric(n_ranks, &abort);
    if let Some(seed) = opts.chaos_seed {
        for (r, mb) in mailboxes.iter_mut().enumerate() {
            // Per-rank decorrelated streams from one user seed.
            mb.set_chaos(seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
    if fault.is_some_and(|f| f.crash.is_some()) {
        for mb in mailboxes.iter_mut() {
            mb.set_deadline(EPOCH_DEADLINE);
        }
    }
    let shards: Vec<Option<RankStore>> =
        (0..n_ranks).map(|r| alive[r].then(|| RankStore::shard(base_store, xplan, r))).collect();

    // One shared time base, taken before any rank spawns, so spans of
    // different ranks land on the same clock. Survivors of a recovery
    // open their timeline with a Recovery span covering the re-shard +
    // restore the driver just performed on their behalf.
    let base = Instant::now();
    let tracers: Vec<Option<RankTracer>> = (0..n_ranks)
        .map(|r| {
            (opts.collect_timeline && alive[r]).then(|| {
                let mut tr = RankTracer::new(r, base);
                if let Some((ns, bytes)) = recovery {
                    tr.record(SpanKind::Recovery, first_epoch, base, ns, bytes, None);
                }
                tr
            })
        })
        .collect();

    let violation: Mutex<Option<DistViolation>> = Mutex::new(None);
    let first_error: Mutex<Option<DistError>> = Mutex::new(None);
    let lost: Mutex<Option<(usize, u64)>> = Mutex::new(None);
    let outcomes: Mutex<Vec<Option<RankOutcome>>> =
        Mutex::new((0..n_ranks).map(|_| None).collect());

    let check = opts.legality == LegalityMode::Element;
    let scope_result = crossbeam::scope(|s| {
        for (r, ((mut mailbox, rstore), tracer)) in
            mailboxes.into_iter().zip(shards).zip(tracers).enumerate()
        {
            let Some(rstore) = rstore else { continue };
            let senders = senders.clone();
            let abort = Arc::clone(&abort);
            let (violation, first_error, outcomes, lost) =
                (&violation, &first_error, &outcomes, &lost);
            s.spawn(move |_| {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    rank::rank_main(
                        r,
                        program,
                        setups,
                        xplan,
                        schema,
                        fns,
                        rstore,
                        &senders,
                        &mut mailbox,
                        check,
                        &abort,
                        violation,
                        tracer,
                        first_epoch,
                        fault,
                        ckpt,
                        lost,
                    )
                }));
                match result {
                    Ok(Ok(out)) => outcomes.lock()[r] = Some(out),
                    // A secondary failure; the first failure has the cause.
                    Ok(Err(DistError::Aborted)) => {}
                    Ok(Err(e)) => {
                        let mut slot = first_error.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        drop(slot);
                        abort.store(true, Ordering::Relaxed);
                    }
                    Err(p) => {
                        // Legality panics already recorded their structured
                        // violation; anything else is a genuine bug.
                        if violation.lock().is_none() {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(DistError::RankPanic {
                                    rank: r,
                                    message: panic_message(p),
                                });
                            }
                        }
                        abort.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    if let Err(p) = scope_result {
        return Err(DistError::Internal(panic_message(p)));
    }
    Ok(AttemptResult {
        outcomes: outcomes.into_inner(),
        error: first_error.into_inner(),
        violation: violation.into_inner(),
        lost: lost.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_core::eval::ExtBindings;
    use partir_core::pipeline::{auto_parallelize, Hints, Options};
    use partir_core::placement::place;
    use partir_dpl::func::{FnDef, FnTable, IndexFn};
    use partir_dpl::region::{FieldId, FieldKind, Schema};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};
    use partir_ir::interp::run_program_seq;

    /// 1-D periodic stencil with a second reduction loop gathering row sums
    /// through a pointer field — exercises ghosts, write-backs, and
    /// two-step reductions at once.
    fn stencil_program(n: u64) -> (Vec<Loop>, FnTable, Schema, Store) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", n);
        let fin = schema.add_field(r, "in", FieldKind::F64);
        let fout = schema.add_field(r, "out", FieldKind::F64);
        let mut fns = FnTable::new();
        let left =
            fns.add("left", r, r, FnDef::Index(IndexFn::AffineMod { mul: 1, add: -1, modulus: n }));
        let right =
            fns.add("right", r, r, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n }));
        let mut b = LoopBuilder::new("stencil", r);
        let i = b.loop_var();
        let li = b.idx_apply(left, i);
        let ri = b.idx_apply(right, i);
        let lv = b.val_read(r, fin, li);
        let rv = b.val_read(r, fin, ri);
        b.val_write(r, fout, i, VExpr::add(VExpr::var(lv), VExpr::var(rv)));
        let stencil = b.finish();

        let mut b2 = LoopBuilder::new("scatter", r);
        let i2 = b2.loop_var();
        let l2 = b2.idx_apply(left, i2);
        let v = b2.val_read(r, fout, i2);
        b2.val_reduce(r, fin, l2, ReduceOp::Add, VExpr::var(v));
        let scatter = b2.finish();

        let mut store = Store::new(schema.clone());
        for i in 0..n as usize {
            store.f64s_mut(fin)[i] = (i as f64).sin() * 3.25 + 0.125;
        }
        (vec![stencil, scatter], fns, schema, store)
    }

    /// Places the colors per `opts.placement` and runs on the result.
    fn run(
        program: &[Loop],
        plan: &ParallelPlan,
        parts: &[Arc<Partition>],
        store: &mut Store,
        fns: &FnTable,
        opts: &DistOptions,
    ) -> DistOutcome {
        let placed = place(plan, parts, store.schema(), opts.n_ranks, &opts.placement).unwrap();
        execute_with_exchange_full(program, plan, parts, &placed.xplan, store, fns, opts).unwrap()
    }

    #[test]
    fn dist_matches_sequential_bit_for_bit() {
        for ranks in [1usize, 2, 3, 4, 8] {
            let n = 48u64;
            let (program, fns, schema, seed) = stencil_program(n);
            let mut seq = seed.clone();
            run_program_seq(&program, &mut seq, &fns);

            let plan = auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default())
                .unwrap();
            let mut dist = seed.clone();
            let parts = plan.evaluate(&dist, &fns, ranks.max(2), &ExtBindings::new());
            let opts = DistOptions { n_ranks: ranks, ..DistOptions::default() };
            let report = run(&program, &plan, &parts, &mut dist, &fns, &opts).report;
            assert_eq!(report.ranks, ranks as u64);
            for fi in 0..schema.num_fields() {
                let f = FieldId(fi as u32);
                assert_eq!(
                    seq.field_data(f),
                    dist.field_data(f),
                    "field {f:?} differs at {ranks} ranks"
                );
            }
        }
    }

    #[test]
    fn ghost_bytes_beat_replication() {
        let (program, fns, schema, seed) = stencil_program(64);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let mut store = seed.clone();
        let parts = plan.evaluate(&store, &fns, 4, &ExtBindings::new());
        let opts = DistOptions { n_ranks: 4, ..DistOptions::default() };
        let report = run(&program, &plan, &parts, &mut store, &fns, &opts).report;
        assert!(report.bytes_sent > 0);
        assert!(
            report.bytes_sent < report.replication_bytes,
            "ghost exchange ({}) must move less than replication ({})",
            report.bytes_sent,
            report.replication_bytes
        );
    }

    #[test]
    fn full_outcome_has_clean_volume_and_valid_timeline() {
        let (program, fns, schema, seed) = stencil_program(64);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let mut store = seed.clone();
        let parts = plan.evaluate(&store, &fns, 4, &ExtBindings::new());
        let opts = DistOptions {
            n_ranks: 4,
            collect_timeline: true,
            strict_volume: true,
            ..DistOptions::default()
        };
        let outcome = run(&program, &plan, &parts, &mut store, &fns, &opts);
        // Strict mode passed, so every pair is clean — and there is real
        // traffic to account for.
        assert!(!outcome.volume.pairs.is_empty());
        assert!(outcome.volume.is_clean());
        let measured: u64 = outcome.volume.pairs.iter().map(|p| p.measured_bytes).sum();
        assert_eq!(measured, outcome.report.bytes_sent, "mailbox meter matches sender stats");

        let trace = outcome.trace.expect("timeline was requested");
        trace.validate().expect("well-formed cross-rank timeline");
        assert_eq!(trace.n_epochs(), program.len(), "one epoch per loop");
        // Every rank recorded communication spans with byte payloads.
        for rank in 0..4 {
            assert!(trace.rank_spans(rank).any(|s| s.bytes > 0 && s.peer.is_some()));
        }
        // The profile attributes the whole wall-clock by construction.
        let prof = partir_obs::profile::DistProfile::from_trace(&trace);
        assert_eq!(prof.epochs.len(), program.len());
        assert!((prof.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_off_run_has_no_trace_but_still_accounts_volume() {
        let (program, fns, schema, seed) = stencil_program(48);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let mut store = seed.clone();
        let parts = plan.evaluate(&store, &fns, 2, &ExtBindings::new());
        let opts = DistOptions { n_ranks: 2, ..DistOptions::default() };
        let outcome = run(&program, &plan, &parts, &mut store, &fns, &opts);
        assert!(outcome.trace.is_none());
        assert!(outcome.volume.is_clean());
        assert!(!outcome.volume.pairs.is_empty());
    }
}
