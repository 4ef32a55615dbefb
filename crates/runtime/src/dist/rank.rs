//! Per-rank SPMD execution: the epoch protocol and the rank data context.
//!
//! Every rank runs the same program over its own color block, one *epoch*
//! per loop:
//!
//! 1. **push ghosts** — pack owner-fresh values of every `ghost_fetch`
//!    set destined to a peer and send them (one coalesced message per
//!    destination);
//! 2. **interior compute** — run the colors whose accesses stay inside the
//!    rank's owned sets, overlapping with the ghost traffic in flight;
//! 3. **pull ghosts** — receive and install the rank's own ghost values;
//! 4. **boundary compute** — run the remaining colors;
//! 5. **post** — send in-place write-backs (installed verbatim by the
//!    owner) and partial-reduction buffer slices (with per-color presence
//!    flags) to the owners; receive the same, then merge partials in
//!    ascending global color order — reproducing the threaded executor's
//!    deterministic merge bit-for-bit.
//!
//! The rank data context applies the same per-loop setup as `exec::TaskCtx`
//! (guards, write ownership, buffered modes — see [`crate::setup`]), with
//! one addition: a global index that has no slot in the rank's sharded
//! store *is* a distributed legality violation — the access escaped
//! `owned ∪ ghosts`.

use super::fault::{CheckpointPolicy, DistFaultPlan, MAX_SEND_ATTEMPTS};
use super::mailbox::{Mailbox, MailboxError, Msg, MsgKind};
use super::store::RankStore;
use super::{CheckpointStore, DistError, DistViolation};
use crate::setup::{LoopSetup, Mode};
use parking_lot::Mutex;
use partir_core::exchange::{ExchangePlan, LoopExchange};
use partir_dpl::func::{FnId, FnTable, IndexSource};
use partir_dpl::index_set::{Idx, IndexSet};
use partir_dpl::region::{FieldId, Schema};
use partir_ir::ast::{AccessId, Loop, ReduceOp};
use partir_ir::interp::{eval_fn, eval_multi, run_loop_over, DataCtx};
use partir_obs::trace::{RankTracer, SpanKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// A rank's gathered result: its owned shard of every F64 field, ready to
/// be written back into the caller's unified store.
pub(crate) type OwnedShards = Vec<(FieldId, Vec<f64>)>;

/// Per-rank execution statistics, aggregated into the caller's report.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankStats {
    pub tasks_run: u64,
    pub legality_checks: u64,
    pub guard_hits: u64,
    pub guard_skips: u64,
    pub write_skips: u64,
    pub buffer_bytes: u64,
    pub bytes_sent: u64,
    pub messages_sent: u64,
    pub pack_ns: u64,
    pub exchange_wait_ns: u64,
    pub unpack_ns: u64,
    pub compute_ns: u64,
    pub merge_ns: u64,
    /// Send attempts the fault plan dropped in flight (each one slept a
    /// seeded backoff and was retried).
    pub retransmits: u64,
    /// Extra copies the fault plan injected (the receiver dedups them).
    pub duplicates_sent: u64,
    /// Owned-shard checkpoints taken, and their cost.
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub checkpoint_ns: u64,
    /// Measured `(bytes, messages)` received, indexed by source rank —
    /// copied from the mailbox meter at the end of the run for the
    /// predicted-vs-measured accounting.
    pub recv_by_src: Vec<(u64, u64)>,
    /// Measured out-of-plan `(bytes, messages)` — deduplicated duplicate
    /// deliveries and crash notices — kept out of `recv_by_src` so strict
    /// volume accounting still balances under fault injection.
    pub recv_aux_by_src: Vec<(u64, u64)>,
}

/// Records a completed communication span when timeline collection is on.
/// `start` is `None` exactly when the tracer is — the per-peer `Instant`s
/// are only taken under `tracer.is_some()`, so the tracing-off path costs
/// nothing beyond the phase-level stats timers that always ran.
#[inline]
fn rec(
    tracer: &mut Option<RankTracer>,
    kind: SpanKind,
    epoch: usize,
    start: Option<Instant>,
    dur_ns: u64,
    bytes: u64,
    peer: usize,
) {
    if let (Some(tr), Some(t0)) = (tracer.as_mut(), start) {
        tr.record(kind, epoch, t0, dur_ns, bytes, Some(peer));
    }
}

/// Everything one epoch's compute needs, bundled so color runs stay
/// borrow-friendly.
struct EpochEnv<'a> {
    rank: usize,
    lp: &'a Loop,
    setup: &'a LoopSetup<'a>,
    fns: &'a FnTable,
    schema: &'a Schema,
    check: bool,
    abort: &'a AtomicBool,
    violation: &'a Mutex<Option<DistViolation>>,
}

/// One rank's whole run: every loop in order, then the owned-shard gather.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_main(
    rank: usize,
    program: &[Loop],
    setups: &[LoopSetup<'_>],
    xplan: &ExchangePlan,
    schema: &Schema,
    fns: &FnTable,
    mut store: RankStore,
    senders: &[Sender<Msg>],
    mailbox: &mut Mailbox,
    check: bool,
    abort: &AtomicBool,
    violation: &Mutex<Option<DistViolation>>,
    mut tracer: Option<RankTracer>,
    first_epoch: usize,
    fault: Option<&DistFaultPlan>,
    ckpt: Option<(&CheckpointPolicy, &CheckpointStore)>,
    lost: &Mutex<Option<(usize, u64)>>,
) -> Result<(OwnedShards, RankStats, Option<RankTracer>), DistError> {
    let mut stats = RankStats::default();
    for (li, lp) in program.iter().enumerate().skip(first_epoch) {
        if abort.load(Ordering::Relaxed) {
            return Err(DistError::Aborted);
        }
        // Injected whole-rank crash: die at the top of the epoch, before
        // sending or computing anything for it. The shared `lost` slot is
        // the driver's ground truth; a loud crash also broadcasts notices
        // so peers detect the loss without waiting out their deadline.
        if let Some(crash) = fault.and_then(|f| f.crashes(rank, li as u64)) {
            let mut slot = lost.lock();
            if slot.is_none() {
                *slot = Some((rank, li as u64));
            }
            drop(slot);
            if !crash.silent {
                for (dst, tx) in senders.iter().enumerate() {
                    if dst != rank {
                        let _ = tx.send(Msg {
                            epoch: li as u64,
                            src: rank,
                            kind: MsgKind::Crash,
                            values: Vec::new(),
                            partials_present: Vec::new(),
                        });
                    }
                }
            }
            // Aborted is the "secondary casualty" error: the driver keeps
            // the peers' RankLost (or the ground-truth slot) as the cause.
            return Err(DistError::Aborted);
        }
        run_epoch(
            rank,
            li,
            lp,
            &setups[li],
            xplan,
            &xplan.loops[li],
            schema,
            fns,
            &mut store,
            senders,
            mailbox,
            check,
            abort,
            violation,
            &mut stats,
            &mut tracer,
            fault,
        )?;
        // Checkpoint hook: snapshot the owned shard (never ghosts) after
        // every `interval_epochs`-th completed epoch. Reuses the
        // contiguous-run `copy_from_slice` gather of `extract_owned`.
        if let Some((policy, ckpts)) = ckpt {
            if policy.due(li as u64) {
                let t = Instant::now();
                let shard = store.extract_owned(xplan, rank, schema);
                let bytes: u64 = shard.iter().map(|(_, v)| v.len() as u64 * 8).sum();
                ckpts.put(rank, li as u64, shard);
                let d = t.elapsed().as_nanos() as u64;
                stats.checkpoints += 1;
                stats.checkpoint_bytes += bytes;
                stats.checkpoint_ns += d;
                if let Some(tr) = tracer.as_mut() {
                    tr.record(SpanKind::Checkpoint, li, t, d, bytes, None);
                }
            }
        }
    }
    stats.recv_by_src = mailbox.measured().to_vec();
    stats.recv_aux_by_src = mailbox.measured_aux().to_vec();
    Ok((store.extract_owned(xplan, rank, schema), stats, tracer))
}

#[allow(clippy::too_many_arguments)]
fn run_epoch(
    rank: usize,
    li: usize,
    lp: &Loop,
    setup: &LoopSetup<'_>,
    xplan: &ExchangePlan,
    lx: &LoopExchange,
    schema: &Schema,
    fns: &FnTable,
    store: &mut RankStore,
    senders: &[Sender<Msg>],
    mailbox: &mut Mailbox,
    check: bool,
    abort: &AtomicBool,
    violation: &Mutex<Option<DistViolation>>,
    stats: &mut RankStats,
    tracer: &mut Option<RankTracer>,
    fault: Option<&DistFaultPlan>,
) -> Result<(), DistError> {
    let n_ranks = xplan.n_ranks;
    let n_colors = xplan.n_colors;
    let epoch = li as u64;
    // bufs[bi][color]: task-local partial buffers, lazily identity-filled.
    let mut bufs: Vec<Vec<Option<Vec<f64>>>> =
        setup.buf_sets.iter().map(|_| vec![None; n_colors]).collect();
    let env = EpochEnv { rank, lp, setup, fns, schema, check, abort, violation };

    // Phase 1: pack and push ghosts (owner-fresh loop-start values).
    let t = Instant::now();
    for dst in 0..n_ranks {
        if dst == rank {
            continue;
        }
        let sets = &lx.ghost_fetch[dst][rank];
        if sets.is_empty() {
            continue;
        }
        let t0 = tracer.is_some().then(Instant::now);
        let mut values = Vec::new();
        let packed = store.pack(sets, &mut values);
        let bytes = packed as u64 * 8;
        rec(tracer, SpanKind::Pack, li, t0, elapsed(t0), bytes, dst);
        stats.bytes_sent += bytes;
        stats.messages_sent += 1;
        let t1 = tracer.is_some().then(Instant::now);
        send_faulty(
            fault,
            senders,
            dst,
            Msg { epoch, src: rank, kind: MsgKind::Ghost, values, partials_present: Vec::new() },
            abort,
            stats,
        )?;
        rec(tracer, SpanKind::Send, li, t1, elapsed(t1), bytes, dst);
    }
    stats.pack_ns += t.elapsed().as_nanos() as u64;

    // Phase 2: interior compute, overlapping the ghost traffic in flight.
    let t = Instant::now();
    for &c in &lx.interior[rank] {
        run_color(&env, c, store, &mut bufs, stats);
    }
    let d = t.elapsed().as_nanos() as u64;
    stats.compute_ns += d;
    // Interior/halo/merge spans are recorded unconditionally (even with no
    // colors to run) so every epoch appears on every rank's timeline.
    if let Some(tr) = tracer.as_mut() {
        tr.record(SpanKind::InteriorCompute, li, t, d, 0, None);
    }

    // Phases 3+4: arrival-order halo install with dependency-driven
    // boundary compute. Ghost messages are taken as they land (whichever
    // peer is fastest first), and each boundary color runs as soon as the
    // peers *it* depends on (`boundary_deps`) have installed — the rank
    // waits only for the halos a color actually reads, never for the whole
    // exchange, and never in a fixed source order a slow peer could stall.
    let boundary = &lx.boundary[rank];
    let deps = &lx.boundary_deps[rank];
    let mut color_done = vec![false; boundary.len()];
    let mut installed = vec![false; n_ranks];
    installed[rank] = true;
    let mut wanted: Vec<usize> =
        (0..n_ranks).filter(|&src| src != rank && !lx.ghost_fetch[rank][src].is_empty()).collect();
    let mut halo_spans = 0usize;
    loop {
        // Run every boundary color whose halos are all resident.
        let t = Instant::now();
        let mut ran = false;
        for (k, &c) in boundary.iter().enumerate() {
            if color_done[k] || !deps[k].iter().all(|&s| installed[s]) {
                continue;
            }
            run_color(&env, c, store, &mut bufs, stats);
            color_done[k] = true;
            ran = true;
        }
        if ran {
            let d = t.elapsed().as_nanos() as u64;
            stats.compute_ns += d;
            halo_spans += 1;
            if let Some(tr) = tracer.as_mut() {
                tr.record(SpanKind::HaloCompute, li, t, d, 0, None);
            }
        }
        if wanted.is_empty() {
            break;
        }
        let t0 = Instant::now();
        let msg = mailbox
            .recv_any(epoch, MsgKind::Ghost, &mut wanted)
            .map_err(|e| mb_err(e, wanted.first().copied().unwrap_or(rank), epoch))?;
        let wait = t0.elapsed().as_nanos() as u64;
        stats.exchange_wait_ns += wait;
        let bytes = msg.values.len() as u64 * 8;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::RecvWait, li, t0, wait, bytes, Some(msg.src));
        }
        let t1 = Instant::now();
        let rest = store.unpack(&lx.ghost_fetch[rank][msg.src], &msg.values);
        debug_assert!(rest.is_empty(), "ghost message longer than its plan sets");
        let un = t1.elapsed().as_nanos() as u64;
        stats.unpack_ns += un;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::Unpack, li, t1, un, bytes, Some(msg.src));
        }
        installed[msg.src] = true;
    }
    debug_assert!(color_done.iter().all(|&d| d), "every boundary color ran");
    // Keep the halo phase visible on every rank's timeline even when the
    // epoch had no boundary colors.
    if halo_spans == 0 {
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::HaloCompute, li, Instant::now(), 0, 0, None);
        }
    }

    // Phase 5: post traffic out — write-backs first, then partial-buffer
    // slices (route-major, own-color-minor) with presence flags.
    let t = Instant::now();
    let my_colors = xplan.colors_of(rank);
    for dst in 0..n_ranks {
        if dst == rank {
            continue;
        }
        let t0 = tracer.is_some().then(Instant::now);
        let wb = &lx.write_back[rank][dst];
        let mut values = Vec::new();
        store.pack(wb, &mut values);
        let mut flags = Vec::new();
        for route in &lx.routes {
            let bi = setup.buffer_of(route.access).expect("route targets a buffered access");
            for &c in my_colors {
                let Some((_, set)) = route.by_color[c].iter().find(|(d, _)| *d == dst) else {
                    continue;
                };
                let present = bufs[bi][c].is_some();
                flags.push(present);
                if present {
                    let buf = bufs[bi][c].as_ref().expect("checked above");
                    let buf_set = &setup.buf_sets[bi][c];
                    values.extend(set.iter().map(|i| {
                        buf[buf_set.rank(i).expect("route slice within buffer set") as usize]
                    }));
                }
            }
        }
        if wb.is_empty() && flags.is_empty() {
            continue;
        }
        let bytes = values.len() as u64 * 8;
        rec(tracer, SpanKind::Pack, li, t0, elapsed(t0), bytes, dst);
        stats.bytes_sent += bytes;
        stats.messages_sent += 1;
        let t1 = tracer.is_some().then(Instant::now);
        send_faulty(
            fault,
            senders,
            dst,
            Msg { epoch, src: rank, kind: MsgKind::Post, values, partials_present: flags },
            abort,
            stats,
        )?;
        rec(tracer, SpanKind::Send, li, t1, elapsed(t1), bytes, dst);
    }
    stats.pack_ns += t.elapsed().as_nanos() as u64;

    // Phase 6: receive post traffic in arrival order — install write-backs
    // verbatim (disjoint per source, so order is immaterial), stash partial
    // slices per route and source color; the merge below re-sorts them into
    // the deterministic ascending-color order.
    let mut remote: Vec<Vec<(usize, Vec<f64>)>> = vec![Vec::new(); lx.routes.len()];
    let mut post_wanted: Vec<usize> = (0..n_ranks)
        .filter(|&src| {
            src != rank
                && (!lx.write_back[src][rank].is_empty()
                    || lx.routes.iter().any(|r| {
                        xplan
                            .colors_of(src)
                            .iter()
                            .any(|&c| r.by_color[c].iter().any(|(d, _)| *d == rank))
                    }))
        })
        .collect();
    while !post_wanted.is_empty() {
        let t0 = Instant::now();
        let msg = mailbox
            .recv_any(epoch, MsgKind::Post, &mut post_wanted)
            .map_err(|e| mb_err(e, post_wanted.first().copied().unwrap_or(rank), epoch))?;
        let src = msg.src;
        let wait = t0.elapsed().as_nanos() as u64;
        stats.exchange_wait_ns += wait;
        let bytes = msg.values.len() as u64 * 8;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::RecvWait, li, t0, wait, bytes, Some(src));
        }
        let t1 = Instant::now();
        let mut vals: &[f64] = store.unpack(&lx.write_back[src][rank], &msg.values);
        let mut fc = 0usize;
        for (ri, route) in lx.routes.iter().enumerate() {
            for &c in xplan.colors_of(src) {
                let Some((_, set)) = route.by_color[c].iter().find(|(d, _)| *d == rank) else {
                    continue;
                };
                let present = msg.partials_present[fc];
                fc += 1;
                if present {
                    let take = set.len() as usize;
                    remote[ri].push((c, vals[..take].to_vec()));
                    vals = &vals[take..];
                }
            }
        }
        debug_assert!(vals.is_empty(), "post message longer than its plan sets");
        let un = t1.elapsed().as_nanos() as u64;
        stats.unpack_ns += un;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::Unpack, li, t1, un, bytes, Some(src));
        }
    }

    // Owner merge of partial reductions: route order, ascending *global*
    // color order, skipping colors whose buffer was never allocated — the
    // threaded executor's merge, restricted to the elements this rank owns.
    let t = Instant::now();
    for (ri, route) in lx.routes.iter().enumerate() {
        let bi = setup.buffer_of(route.access).expect("route targets a buffered access");
        remote[ri].sort_by_key(|(c, _)| *c);
        for (c, slices) in route.by_color.iter().enumerate() {
            let Some((_, set)) = slices.iter().find(|(d, _)| *d == rank) else {
                continue;
            };
            if xplan.rank_of_color(c) == rank {
                let Some(buf) = bufs[bi][c].as_ref() else { continue };
                let buf_set = &setup.buf_sets[bi][c];
                for i in set.iter() {
                    let v = buf[buf_set.rank(i).expect("route slice within buffer set") as usize];
                    merge_apply(store, route.field, i, route.op, v);
                }
            } else if let Ok(pos) = remote[ri].binary_search_by_key(&c, |&(cc, _)| cc) {
                let (_, vals) = &remote[ri][pos];
                for (k, i) in set.iter().enumerate() {
                    merge_apply(store, route.field, i, route.op, vals[k]);
                }
            }
        }
    }
    let d = t.elapsed().as_nanos() as u64;
    stats.merge_ns += d;
    if let Some(tr) = tracer.as_mut() {
        tr.record(SpanKind::Merge, li, t, d, 0, None);
    }
    Ok(())
}

/// Elapsed nanoseconds of a gated instant (0 when tracing is off).
#[inline]
fn elapsed(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

fn merge_apply(store: &mut RankStore, field: FieldId, i: Idx, op: ReduceOp, v: f64) {
    let cur = store.try_read_f64(field, i).expect("owner merge target is resident");
    store.try_write_f64(field, i, op.apply(cur, v));
}

fn send(
    senders: &[Sender<Msg>],
    dst: usize,
    msg: Msg,
    abort: &AtomicBool,
) -> Result<(), DistError> {
    senders[dst].send(msg).map_err(|_| {
        if abort.load(Ordering::Relaxed) {
            DistError::Aborted
        } else {
            DistError::Disconnected { rank: dst }
        }
    })
}

/// Maps a mailbox failure to the typed distributed error. `suspect` is
/// the first source the receive was still waiting on — for a deadline
/// expiry that is the rank whose traffic never came, the silent-crash
/// detection heuristic.
fn mb_err(e: MailboxError, suspect: usize, epoch: u64) -> DistError {
    match e {
        MailboxError::Aborted => DistError::Aborted,
        MailboxError::Disconnected => DistError::Disconnected { rank: suspect },
        MailboxError::Lost { rank } => DistError::RankLost { rank, epoch },
        MailboxError::Deadline => DistError::RankLost { rank: suspect, epoch },
    }
}

/// [`send`] under the fault plan: seeded in-flight drops make the sender
/// retransmit with seeded backoff (bounded by [`MAX_SEND_ATTEMPTS`], after
/// which the destination is declared lost), and seeded duplication sends a
/// second copy the receiver must dedup. Dropped attempts never cross the
/// channel, so the receiver's protocol meter stays comparable to the
/// plan's predicted volume; duplicates are metered separately on arrival.
fn send_faulty(
    fault: Option<&DistFaultPlan>,
    senders: &[Sender<Msg>],
    dst: usize,
    msg: Msg,
    abort: &AtomicBool,
    stats: &mut RankStats,
) -> Result<(), DistError> {
    let Some(f) = fault.filter(|f| f.drop_rate > 0.0 || f.dup_rate > 0.0) else {
        return send(senders, dst, msg, abort);
    };
    let (epoch, src, kind) = (msg.epoch, msg.src, msg.kind.tag());
    let mut attempt = 0u32;
    while f.drops(epoch, src, dst, kind, attempt) {
        stats.retransmits += 1;
        attempt += 1;
        if attempt >= MAX_SEND_ATTEMPTS {
            return Err(DistError::RankLost { rank: dst, epoch });
        }
        if abort.load(Ordering::Relaxed) {
            return Err(DistError::Aborted);
        }
        std::thread::sleep(Duration::from_micros(f.backoff_us(epoch, src, dst, attempt)));
    }
    if f.duplicates(epoch, src, dst, kind) {
        stats.duplicates_sent += 1;
        // The real copy goes first: the receiver always waits for the
        // first arrival, so this send cannot race with its shutdown. The
        // trailing duplicate can — a receiver that already got everything
        // it wanted may exit before the extra copy lands, so a closed
        // channel there is a benign shutdown race, not a lost rank.
        send(senders, dst, msg.clone(), abort)?;
        let _ = send(senders, dst, msg, abort);
        return Ok(());
    }
    send(senders, dst, msg, abort)
}

/// Runs one color through the rank data context.
fn run_color(
    env: &EpochEnv<'_>,
    color: usize,
    store: &mut RankStore,
    bufs: &mut [Vec<Option<Vec<f64>>>],
    stats: &mut RankStats,
) {
    let mut ctx = RankCtx {
        rank: env.rank,
        store,
        fns: env.fns,
        schema: env.schema,
        setup: env.setup,
        color,
        write_own: env.setup.write_own.as_ref().map(|o| &o[color]),
        check: env.check,
        bufs,
        checks_done: 0,
        guard_hits: 0,
        guard_skips: 0,
        write_skips: 0,
        buffer_bytes: 0,
        abort: env.abort,
        violation: env.violation,
    };
    run_loop_over(env.lp, &mut ctx, env.setup.iter.subregion(color).iter());
    stats.tasks_run += 1;
    stats.legality_checks += ctx.checks_done;
    stats.guard_hits += ctx.guard_hits;
    stats.guard_skips += ctx.guard_skips;
    stats.write_skips += ctx.write_skips;
    stats.buffer_bytes += ctx.buffer_bytes;
}

/// Rank-local data context: `exec::TaskCtx` semantics over a sharded store.
struct RankCtx<'a> {
    rank: usize,
    store: &'a mut RankStore,
    fns: &'a FnTable,
    schema: &'a Schema,
    setup: &'a LoopSetup<'a>,
    color: usize,
    write_own: Option<&'a IndexSet>,
    check: bool,
    bufs: &'a mut [Vec<Option<Vec<f64>>>],
    checks_done: u64,
    guard_hits: u64,
    guard_skips: u64,
    write_skips: u64,
    buffer_bytes: u64,
    abort: &'a AtomicBool,
    violation: &'a Mutex<Option<DistViolation>>,
}

impl RankCtx<'_> {
    /// Records a violation (subregion escape or non-resident access — the
    /// distributed legality check) and aborts the rank.
    #[cold]
    fn fail(&self, a: AccessId, i: Idx) -> ! {
        let v = DistViolation {
            rank: self.rank,
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
        self.abort.store(true, Ordering::Relaxed);
        panic!("distributed legality violation: {v}");
    }

    #[inline]
    fn check_access(&mut self, a: AccessId, i: Idx) {
        if self.check {
            self.checks_done += 1;
            if !self.setup.subregion(a, self.color).contains(i) {
                self.fail(a, i);
            }
        }
    }

    #[inline]
    fn in_place(&mut self, a: AccessId, field: FieldId, i: Idx, op: ReduceOp, v: f64) {
        match self.store.try_read_f64(field, i) {
            Some(cur) => {
                self.store.try_write_f64(field, i, op.apply(cur, v));
            }
            None => self.fail(a, i),
        }
    }

    fn buffer_reduce(&mut self, a: AccessId, bi: usize, i: Idx, op: ReduceOp, v: f64) {
        let set = &self.setup.buf_sets[bi][self.color];
        let rank = match set.rank(i) {
            Some(r) => r as usize,
            None => self.fail(a, i),
        };
        if self.bufs[bi][self.color].is_none() {
            self.buffer_bytes += set.len() * 8;
            self.bufs[bi][self.color] = Some(vec![op.identity(); set.len() as usize]);
        }
        let buf = self.bufs[bi][self.color].as_mut().expect("allocated above");
        buf[rank] = op.apply(buf[rank], v);
    }
}

impl DataCtx for RankCtx<'_> {
    fn read_f64(&mut self, a: AccessId, field: FieldId, i: Idx) -> f64 {
        self.check_access(a, i);
        match self.store.try_read_f64(field, i) {
            Some(v) => v,
            None => self.fail(a, i),
        }
    }

    fn write_f64(&mut self, a: AccessId, field: FieldId, i: Idx, v: f64) {
        self.check_access(a, i);
        if let Some(own) = self.write_own {
            if !own.contains(i) {
                self.write_skips += 1;
                return;
            }
        }
        if !self.store.try_write_f64(field, i, v) {
            self.fail(a, i);
        }
    }

    fn reduce_f64(&mut self, a: AccessId, field: FieldId, i: Idx, op: ReduceOp, v: f64) {
        let setup = self.setup;
        match &setup.modes[a.0 as usize] {
            Mode::Plain => {
                self.check_access(a, i);
                self.in_place(a, field, i, op, v);
            }
            Mode::Guarded => {
                if self.setup.subregion(a, self.color).contains(i) {
                    self.guard_hits += 1;
                    self.in_place(a, field, i, op, v);
                } else {
                    self.guard_skips += 1;
                }
            }
            Mode::Buffered { buf } => {
                self.check_access(a, i);
                self.buffer_reduce(a, *buf, i, op, v);
            }
            Mode::BufferedPrivate { private, buf } => {
                self.check_access(a, i);
                if private.subregion(self.color).contains(i) {
                    self.in_place(a, field, i, op, v);
                } else {
                    self.buffer_reduce(a, *buf, i, op, v);
                }
            }
        }
    }

    fn read_ptr(&mut self, a: AccessId, field: FieldId, i: Idx) -> Idx {
        self.check_access(a, i);
        self.store.ptr(field, i).expect("ptr read out of bounds")
    }

    // Inlined into the interpreter loop: one call per neighbor index is
    // the stencil's hot path.
    #[inline]
    fn eval_fn(&mut self, f: FnId, i: Idx) -> Idx {
        eval_fn(self.fns, self.schema, &*self.store, f, i)
    }

    fn eval_multi(&mut self, a: AccessId, f: FnId, i: Idx, out: &mut Vec<Idx>) {
        self.check_access(a, i);
        eval_multi(self.fns, self.schema, &*self.store, f, i, out)
    }
}
