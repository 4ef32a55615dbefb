//! `serve-mixed`: a `Server` with two workers, driven in a closed loop by
//! two clients. Each client sends its next solve request only after the
//! previous reply. The seeded stream mixes the five applications: about
//! nine in ten requests pick from a hot set solved during set-up, one in
//! ten is a program of a size never requested before in the process.
//!
//! Every reply's fingerprint and hit/miss outcome is checked against the
//! stream, and a seeded sample of served plans is executed and compared
//! with the sequential interpreter after the window.
//!
//! Traced, the first half of the window runs through the server (queueing,
//! refusals, cache counters); the second half re-composes each request
//! from the calls `Partir::solve` makes — `solve_fingerprint`,
//! `PlanCache::get`, then `SolvedPlan::solve` and `PlanCache::insert` on a
//! miss — and probes `infer`, `unify` and `solve` on each miss's program.

use crate::metrics::Measurement;
use crate::spans::{Tracer, OP};
use crate::stats::{median, median_or_zero};
use crate::util::{identical, mix, process_cpu_s};
use crate::{Args, SETUP_REPS};
use partir::apps::circuit::{Circuit, CircuitParams};
use partir::apps::miniaero::{MiniAero, MiniAeroParams};
use partir::apps::pennant::{Pennant, PennantConfig, PennantParams};
use partir::apps::spmv::{Spmv, SpmvParams};
use partir::apps::stencil::{Stencil, StencilParams};
use partir::core::cache::SolvedPlan;
use partir::core::eval::ExtBindings;
use partir::core::fingerprint::{solve_fingerprint, Fingerprint};
use partir::core::infer::infer;
use partir::core::pipeline::{Hints, Options};
use partir::core::solve::solve;
use partir::core::unify::unify;
use partir::dpl::func::FnTable;
use partir::dpl::region::{Schema, Store};
use partir::ir::ast::Loop;
use partir::ir::interp::run_program_seq;
use partir::obs::json::Json;
use partir::obs::ObsConfig;
use partir::runtime::dist::LegalityMode;
use partir::{Backend, Error, Partir, Plan, PlanCache, Run, ServeConfig, Server};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const SERVE: ServeConfig =
    ServeConfig { workers: 2, queue_cap: 64, cache_bytes: 64 << 20, admission_budget: None };
/// One request in this many is a never-seen program.
const FRESH_EVERY: u64 = 10;
/// Never-seen requests use color counts from this base up, above the hot
/// set's 4 and 8, so a fresh request can never share a hot fingerprint.
const FRESH_COLORS: usize = 9;
/// Distinct fresh color counts; sizes advance once per cycle through them.
const FRESH_COLOR_SPAN: u64 = 32;
/// Served plans executed against the interpreter after the window, per
/// kind (hot, fresh).
const SAMPLES_PER_KIND: usize = 3;

/// A request, by the generator parameters that reproduce it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Desc {
    Spmv { rows: u64, halo: u64, colors: usize },
    Stencil { nx: u64, ny: u64, colors: usize },
    MiniAero { nx: u64, ny: u64, nz: u64, colors: usize },
    Circuit { wires: u64, nodes: u64, hinted: bool, colors: usize },
    Pennant { pieces: usize, zw: u64, zy: u64, config: PennantConfig, colors: usize },
}

/// The hot set: the five applications over varied sizes, colors and hint
/// set-ups.
const HOT: [Desc; 20] = [
    Desc::Spmv { rows: 1024, halo: 1, colors: 8 },
    Desc::Spmv { rows: 2048, halo: 2, colors: 4 },
    Desc::Spmv { rows: 4096, halo: 2, colors: 8 },
    Desc::Spmv { rows: 4096, halo: 3, colors: 8 },
    Desc::Stencil { nx: 32, ny: 32, colors: 8 },
    Desc::Stencil { nx: 64, ny: 64, colors: 4 },
    Desc::Stencil { nx: 64, ny: 64, colors: 8 },
    Desc::Stencil { nx: 96, ny: 64, colors: 8 },
    Desc::MiniAero { nx: 4, ny: 4, nz: 4, colors: 8 },
    Desc::MiniAero { nx: 5, ny: 5, nz: 5, colors: 4 },
    Desc::MiniAero { nx: 6, ny: 6, nz: 6, colors: 8 },
    Desc::Circuit { wires: 800, nodes: 200, hinted: false, colors: 8 },
    Desc::Circuit { wires: 1600, nodes: 400, hinted: false, colors: 8 },
    Desc::Circuit { wires: 800, nodes: 200, hinted: true, colors: 4 },
    Desc::Circuit { wires: 1600, nodes: 400, hinted: true, colors: 4 },
    Desc::Pennant { pieces: 4, zw: 4, zy: 4, config: PennantConfig::Auto, colors: 4 },
    Desc::Pennant { pieces: 4, zw: 4, zy: 4, config: PennantConfig::Hint1, colors: 4 },
    Desc::Pennant { pieces: 4, zw: 4, zy: 4, config: PennantConfig::Hint2, colors: 4 },
    Desc::Pennant { pieces: 4, zw: 6, zy: 4, config: PennantConfig::Hint2, colors: 4 },
    Desc::Pennant { pieces: 4, zw: 4, zy: 4, config: PennantConfig::Auto, colors: 8 },
];

/// The `k`-th never-seen request. The application cycles with `k`; within
/// one application, `(size, colors)` is a one-to-one function of `k / 5`,
/// and every size parameter enters the schema's region sizes, so no two
/// fresh requests share a fingerprint.
fn fresh_desc(seed: u64, k: u64) -> Desc {
    let j = k / 5 + mix(seed, 0xF2E5) % 256;
    let colors = FRESH_COLORS + (j % FRESH_COLOR_SPAN) as usize;
    let s = j / FRESH_COLOR_SPAN;
    match k % 5 {
        0 => Desc::Spmv { rows: 5000 + s, halo: 1 + s % 3, colors },
        1 => Desc::Stencil { nx: 8 + s % 64, ny: 8 + s / 64, colors },
        2 => Desc::MiniAero { nx: 3, ny: 3, nz: 2 + s, colors },
        3 => Desc::Circuit { wires: 100 + s, nodes: 100, hinted: false, colors },
        _ => Desc::Pennant { pieces: 2, zw: 2, zy: 1 + s, config: PennantConfig::Auto, colors },
    }
}

/// Which request stream index `i` sends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pick {
    Hot(usize),
    Fresh,
}

fn pick(seed: u64, i: u64) -> Pick {
    let r = mix(seed ^ 0x5E7E, i);
    if r.is_multiple_of(FRESH_EVERY) {
        Pick::Fresh
    } else {
        Pick::Hot(((r / FRESH_EVERY) % HOT.len() as u64) as usize)
    }
}

/// A request's solve inputs, plus a store to execute its plan on.
#[derive(Clone)]
struct Request {
    desc: Desc,
    program: Vec<Loop>,
    fns: FnTable,
    schema: Schema,
    hints: Hints,
    exts: ExtBindings,
    colors: usize,
    store: Store,
}

impl Request {
    fn build(desc: Desc) -> Request {
        let plain = |program, fns, store: Store, colors| Request {
            desc,
            program,
            fns,
            schema: store.schema().clone(),
            hints: Hints::new(),
            exts: ExtBindings::new(),
            colors,
            store,
        };
        match desc {
            Desc::Spmv { rows, halo, colors } => {
                let a = Spmv::generate(&SpmvParams { rows, halo, band_shift: 0 });
                plain(a.program, a.fns, a.store, colors)
            }
            Desc::Stencil { nx, ny, colors } => {
                let a = Stencil::generate(&StencilParams { nx, ny });
                plain(a.program, a.fns, a.store, colors)
            }
            Desc::MiniAero { nx, ny, nz, colors } => {
                let a = MiniAero::generate(&MiniAeroParams { nx, ny, nz });
                plain(a.program, a.fns, a.store, colors)
            }
            Desc::Circuit { wires, nodes, hinted, colors } => {
                // Hinted requests bind one external piece per cluster, so
                // their color count is the cluster count (4).
                let clusters = 4;
                let a = Circuit::generate(&CircuitParams {
                    clusters,
                    nodes_per_cluster: nodes,
                    wires_per_cluster: wires,
                    cross_fraction: 0.2,
                    cross_stride: None,
                    seed: 7,
                });
                let (hints, exts) =
                    if hinted { a.hint_setup(clusters) } else { Default::default() };
                Request { hints, exts, ..plain(a.program, a.fns, a.store, colors) }
            }
            Desc::Pennant { pieces, zw, zy, config, colors } => {
                let a = Pennant::generate(&PennantParams { pieces, zw, zy });
                let (hints, exts) = a.hint_setup(config);
                Request { hints, exts, ..plain(a.program, a.fns, a.store, colors) }
            }
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        solve_fingerprint(
            &self.program,
            &self.fns,
            &self.schema,
            &self.hints,
            &Options::default(),
            &self.exts,
            self.colors,
        )
    }

    fn partir(&self) -> Partir {
        Partir::new(self.program.clone(), self.fns.clone(), self.schema.clone())
            .colors(self.colors)
            .hints(self.hints.clone())
            .externals(self.exts.clone())
    }
}

/// Set-up state shared by the clients.
struct Ctx {
    seed: u64,
    hot: Vec<Request>,
    hot_fp: Vec<Fingerprint>,
    /// Stream indices whose served plans are executed after the window.
    sample: Vec<u64>,
    next: AtomicU64,
    next_fresh: AtomicU64,
}

impl Ctx {
    fn new(seed: u64) -> Ctx {
        let hot: Vec<Request> = HOT.iter().map(|&d| Request::build(d)).collect();
        let hot_fp = hot.iter().map(Request::fingerprint).collect();
        let first = mix(seed, 0x5A) % 100;
        let (fresh, hot_picks): (Vec<u64>, Vec<u64>) =
            (first..first + 1000).partition(|&i| pick(seed, i) == Pick::Fresh);
        let sample = fresh
            .into_iter()
            .take(SAMPLES_PER_KIND)
            .chain(hot_picks.into_iter().take(SAMPLES_PER_KIND))
            .collect();
        Ctx { seed, hot, hot_fp, sample, next: AtomicU64::new(0), next_fresh: AtomicU64::new(0) }
    }

    /// The next request of the stream: its inputs (owned or a hot
    /// template), expected fingerprint and whether it should hit.
    fn next_request(&self) -> (u64, Prepared<'_>) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let prepared = match pick(self.seed, i) {
            Pick::Hot(h) => {
                Prepared { req: Cow::Borrowed(&self.hot[h]), fp: self.hot_fp[h], hit: true }
            }
            Pick::Fresh => {
                let k = self.next_fresh.fetch_add(1, Ordering::Relaxed);
                let req = Request::build(fresh_desc(self.seed, k));
                Prepared { fp: req.fingerprint(), req: Cow::Owned(req), hit: false }
            }
        };
        (i, prepared)
    }
}

struct Prepared<'a> {
    req: Cow<'a, Request>,
    fp: Fingerprint,
    hit: bool,
}

/// What one client measured.
#[derive(Default)]
struct ClientOut {
    lat_ns: Vec<u64>,
    /// `ServeReply.solve_ns` of each successful request (server path).
    solve_ns: Vec<u64>,
    /// Untraced `Partir::solve` latency on the re-composed path's cache.
    facade_ns: Vec<u64>,
    miss_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    kept: Vec<(Desc, Plan)>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl ClientOut {
    fn fail(&mut self, i: u64, why: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: request {i} failed: {why}");
    }

    fn absorb(&mut self, o: ClientOut) {
        self.lat_ns.extend(o.lat_ns);
        self.solve_ns.extend(o.solve_ns);
        self.facade_ns.extend(o.facade_ns);
        self.miss_ns.extend(o.miss_ns);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.refused += o.refused;
        self.kept.extend(o.kept);
        for (k, v) in o.counts {
            self.counts.entry(k).or_default().extend(v);
        }
    }
}

/// One client of the server path, from `start` until `deadline`.
fn server_client(ctx: &Ctx, server: &Server, deadline: Instant) -> ClientOut {
    let mut out = ClientOut::default();
    while Instant::now() < deadline {
        let (i, p) = ctx.next_request();
        let partir = p.req.partir();
        let t0 = Instant::now();
        let reply = server.submit(partir).and_then(|t| t.wait());
        let lat = t0.elapsed().as_nanos() as u64;
        out.attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                if matches!(e.error_code(), "serve.queue_full" | "serve.over_budget") {
                    out.refused += 1;
                }
                out.fail(i, e);
                continue;
            }
        };
        if reply.plan.fingerprint() != p.fp || reply.plan.cache_hit() != p.hit {
            out.fail(
                i,
                format!(
                    "expected fp {} hit {}, got {} hit {}",
                    p.fp,
                    p.hit,
                    reply.plan.fingerprint(),
                    reply.plan.cache_hit()
                ),
            );
            continue;
        }
        out.lat_ns.push(lat);
        out.solve_ns.push(reply.solve_ns);
        if !p.hit {
            out.miss_ns.push(lat);
        }
        if ctx.sample.contains(&i) {
            out.kept.push((p.req.desc, reply.plan));
        }
    }
    out
}

/// One client solving against `cache` on its own thread: even requests
/// call `Partir::solve` untraced, odd ones re-compose it, traced.
fn recomposed_client(
    ctx: &Ctx,
    cache: &PlanCache,
    deadline: Instant,
    tr: &mut Tracer,
) -> ClientOut {
    let mut out = ClientOut::default();
    while Instant::now() < deadline {
        let (i, p) = ctx.next_request();
        let r = &p.req;
        if i % 2 == 0 {
            let partir = r.partir().cache(cache);
            let t0 = Instant::now();
            let plan = partir.solve();
            let dt = t0.elapsed().as_nanos() as u64;
            out.attempted += 1;
            match plan {
                Ok(plan) if plan.fingerprint() == p.fp && plan.cache_hit() == p.hit => {
                    out.facade_ns.push(dt)
                }
                Ok(plan) => {
                    out.fail(i, format!("expected hit {}, got {}", p.hit, plan.cache_hit()))
                }
                Err(e) => out.fail(i, e),
            }
            continue;
        }
        let (program, fns, schema) = (r.program.clone(), r.fns.clone(), r.schema.clone());
        let (hints, exts, colors) = (r.hints.clone(), r.exts.clone(), r.colors);
        let opts = Options::default();
        let root = tr.open(OP, i, None);
        let fp = tr.scope("fingerprint.solve", i, Some(root), || {
            solve_fingerprint(&program, &fns, &schema, &hints, &opts, &exts, colors)
        });
        let got = tr.scope("cache.get", i, Some(root), || cache.get(fp));
        let result: Result<(Arc<SolvedPlan>, bool), Error> = match got {
            Ok(Some(plan)) => {
                // `Partir::solve` drops its inputs on a hit, inside the call.
                drop((program, fns, schema, hints, exts));
                Ok((plan, true))
            }
            Ok(None) => tr
                .scope("pipeline", i, Some(root), || {
                    SolvedPlan::solve(program, fns, schema, &hints, opts, exts, colors)
                })
                .map_err(Error::from)
                .and_then(|solved| {
                    let solved = Arc::new(solved);
                    tr.scope("cache.insert", i, Some(root), || cache.insert(Arc::clone(&solved)))?;
                    Ok((solved, false))
                }),
            Err(e) => Err(e.into()),
        };
        tr.close(root);
        out.attempted += 1;
        let (plan, hit) = match result {
            Ok(x) => x,
            Err(e) => {
                out.fail(i, e);
                continue;
            }
        };
        if fp != p.fp || plan.fingerprint() != p.fp || hit != p.hit {
            out.fail(i, format!("expected fp {} hit {}, got {fp} hit {hit}", p.fp, p.hit));
            continue;
        }
        if !hit {
            let pp = plan.plan();
            for (name, v) in [
                ("solver.nodes_explored", pp.solution.stats.nodes_explored),
                ("solver.backtracks", pp.solution.stats.backtracks),
                ("unify.candidates", pp.unified.stats.candidates_considered),
            ] {
                out.counts.entry(name).or_default().push(v as f64);
            }
            // Probes: the pipeline's phases, called once each on the miss's
            // program.
            match tr.scope("pipeline.infer", i, None, || infer(&r.program, &r.fns, &r.schema)) {
                Ok(inf) => {
                    let u = tr.scope("pipeline.unify", i, None, || unify(&inf, &r.fns));
                    let s = tr.scope("pipeline.solve", i, None, || solve(&u.system, &r.fns));
                    drop(black_box(s));
                }
                Err(e) => out.fail(i, e),
            }
        }
    }
    out
}

/// Runs `CLIENTS` closed-loop clients for `seconds`; returns their merged
/// output and spans, and the window's wall time.
fn drive<F>(seconds: f64, client: F) -> (ClientOut, Tracer, f64)
where
    F: Fn(Instant, &mut Tracer) -> ClientOut + Sync,
{
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = Tracer::new(start);
                    (client(deadline, &mut tr), tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let window = start.elapsed().as_secs_f64();
    let mut merged = ClientOut::default();
    let mut tr = Tracer::new(start);
    for (o, t) in outs {
        merged.absorb(o);
        tr.absorb(t);
    }
    (merged, tr, window)
}

/// Executes the kept served plans on the rank backend and compares each
/// store with the sequential interpreter. Every sampled request that was
/// not kept (never reached, or failed) counts as a failed op, so the
/// oracle cannot pass by checking fewer plans. Returns the plans executed.
fn check_samples(kept: &[(Desc, Plan)], out: &mut ClientOut) -> usize {
    let run = Run::new()
        .backend(Backend::Ranks(2))
        .legality_mode(LegalityMode::Plan)
        .obs(ObsConfig::disabled());
    for (k, (desc, plan)) in kept.iter().enumerate() {
        let req = Request::build(*desc);
        let mut store = req.store.clone();
        let mut reference = req.store;
        run_program_seq(plan.program(), &mut reference, plan.fns());
        out.attempted += 1;
        match run.run(plan, &mut store) {
            Err(e) => out.fail(k as u64, format!("sample {desc:?}: {e}")),
            Ok(_) if !identical(&store, &reference) => out
                .fail(k as u64, format!("sample {desc:?} differs from the sequential interpreter")),
            Ok(_) => {}
        }
    }
    let missing = (2 * SAMPLES_PER_KIND).saturating_sub(kept.len());
    for k in 0..missing {
        out.attempted += 1;
        out.fail((kept.len() + k) as u64, "sampled request was not served in the window");
    }
    kept.len()
}

/// Set-up: builds the hot set, starts a server and solves the hot set
/// through it; traced, also warms a plan cache for the re-composed path.
fn setup(seed: u64, traced: bool) -> (Ctx, Server, PlanCache, u64) {
    let ctx = Ctx::new(seed);
    let server = Server::new(SERVE);
    let cache = PlanCache::new(SERVE.cache_bytes);
    let mut failed = 0;
    for (r, fp) in ctx.hot.iter().zip(&ctx.hot_fp) {
        match server.solve(r.partir()) {
            Ok(reply) if reply.plan.fingerprint() == *fp && !reply.plan.cache_hit() => {
                if traced {
                    let _ = cache.insert(Arc::clone(reply.plan.solved()));
                }
            }
            Ok(_) => failed += 1,
            Err(e) => {
                eprintln!("perfbench: hot request {:?} failed: {e}", r.desc);
                failed += 1;
            }
        }
    }
    (ctx, server, cache, failed)
}

pub fn measure(args: &Args) -> Measurement {
    let mut m = Measurement::default();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let c0 = process_cpu_s();
        let (ctx, server, cache, failed) = setup(args.seed, args.trace);
        m.setup_wall_s.push(t.elapsed().as_secs_f64());
        m.setup_cpu_s.push(process_cpu_s() - c0);
        m.attempted += HOT.len() as u64;
        m.failed += failed;
        state = Some((ctx, server, cache));
    }
    let (ctx, server, cache) = state.expect("at least one set-up");
    m.config = Some(
        Json::object()
            .with("serve", format!("{SERVE:?}"))
            .with("clients", CLIENTS)
            .with("loop", "closed")
            .with("hot_set", HOT.len())
            .with("fresh_every", FRESH_EVERY)
            .with("solve_options", format!("{:?}", Options::default()))
            .with("sample_backend", "Ranks(2)"),
    );

    let server_secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    m.first_op_s = args.started.elapsed().as_secs_f64();
    let before = server.cache_stats().expect("cache is healthy");
    let c0 = process_cpu_s();
    let (mut out, _, window) =
        drive(server_secs, |deadline, _| server_client(&ctx, &server, deadline));
    m.op_cpu_ms = vec![(process_cpu_s() - c0) * 1e3 / out.lat_ns.len().max(1) as f64];
    let after = server.cache_stats().expect("cache is healthy");
    let kept = std::mem::take(&mut out.kept);
    m.plans_checked = check_samples(&kept, &mut out);
    m.window_s = window;
    m.op_ms = out.lat_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    m.miss_ms = out.miss_ns.iter().map(|&ns| ns as f64 / 1e6).collect();

    if args.trace {
        let queue: Vec<f64> = out
            .lat_ns
            .iter()
            .zip(&out.solve_ns)
            .map(|(&l, &s)| l.saturating_sub(s) as f64)
            .collect();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let l = &mut m.layers;
        l.insert("serve.queue_ns", median_or_zero(&queue));
        l.insert("serve.refused", out.refused as f64);
        l.insert("cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        l.insert("cache.evictions", (after.evictions - before.evictions) as f64);

        let (traced, tr, _) =
            drive(args.seconds / 2.0, |deadline, tr| recomposed_client(&ctx, &cache, deadline, tr));
        m.layers.extend(tr.layer_medians(&[
            ("fingerprint.solve", "fingerprint.solve_ns"),
            ("cache.get", "cache.get_ns"),
            ("pipeline.infer", "pipeline.infer_ns"),
            ("pipeline.unify", "pipeline.unify_ns"),
            ("pipeline.solve", "pipeline.solve_ns"),
        ]));
        for (name, v) in &traced.counts {
            m.layers.insert(name, median(v));
        }
        let facade_ns: Vec<f64> = traced.facade_ns.iter().map(|&n| n as f64).collect();
        m.layers.extend(tr.op_metrics(median_or_zero(&facade_ns)));
        m.spans_file = crate::runs::write_spans(args, &tr);
        out.absorb(traced);
    }
    m.attempted += out.attempted;
    m.failed += out.failed;
    drop(server);
    m
}
