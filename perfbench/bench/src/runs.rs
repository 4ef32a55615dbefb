//! The three run workloads. Each op is one `Run::run` of a solved plan on
//! a seeded input; its output is checked bit-for-bit against the
//! sequential interpreter on the same input, outside the timed interval.
//!
//! A traced op makes the calls `Run::run` makes — `dist_artifacts` then
//! `execute_with_exchange_full` on the rank backend, `parts_for` then
//! `execute_program` on the threads backend — with a span around each,
//! then probes the layers below them on the same input.

use crate::metrics::Measurement;
use crate::spans::{Tracer, OP};
use crate::stats::{median, median_or_zero};
use crate::util::{identical, mix, process_cpu_s, Rng};
use crate::{Args, MAX_WINDOW, MIN_OPS, SETUP_REPS};
use partir::apps::circuit::{Circuit, CircuitParams};
use partir::apps::spmv::{Spmv, SpmvParams};
use partir::apps::stencil::{Stencil, StencilParams};
use partir::core::cache::DistArtifacts;
use partir::core::exchange::{derive_exchange_with, prove_plan_legality, ExchangePlan};
use partir::core::fingerprint::store_index_fingerprint;
use partir::core::placement::{place, PlacementConfig};
use partir::dpl::func::FnTable;
use partir::dpl::partition::Partition;
use partir::dpl::region::{FieldKind, Store};
use partir::ir::ast::Loop;
use partir::ir::interp::run_program_seq;
use partir::obs::json::Json;
use partir::obs::ObsConfig;
use partir::runtime::dist::{execute_with_exchange_full, DistOptions, LegalityMode, RankStore};
use partir::runtime::exec::{execute_program, ExecOptions};
use partir::runtime::fault::RetryPolicy;
use partir::{Backend, Partir, Plan, Run};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `fig_dist`'s SpMV size: a banded CSR matrix, 100k rows, halo 2.
const SPMV: SpmvParams = SpmvParams { rows: 100_000, halo: 2, band_shift: 0 };
const STENCIL: StencilParams = StencilParams { nx: 512, ny: 512 };
const CIRCUIT_CLUSTERS: usize = 8;
const CIRCUIT_NODES: u64 = 1000;
const CIRCUIT_WIRES: u64 = 4000;
/// Seeded payload variants over the one fixed structure (SpMV, stencil).
const PAYLOADS: usize = 2;
/// Untimed ops each set-up runs, so memos and allocators are warm.
const WARMUP_OPS: u64 = 2;
/// Netlist indices at or above this are set-up's, never a measured op's.
const WARMUP_BASE: u64 = 1 << 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Spmv,
    Stencil,
    Circuit,
}

/// Where a workload's inputs come from.
enum Inputs {
    /// A few seeded payloads over one fixed structure, each with its
    /// reference output computed during set-up.
    Payloads(Vec<(Store, Arc<Store>)>),
    /// A fresh seeded netlist per op, with its reference computed per op.
    Netlists { seed: u64 },
}

struct Case {
    app: App,
    plan: Plan,
    run: Run,
    width: usize,
    placement: PlacementConfig,
    legality: LegalityMode,
    inputs: Inputs,
    config: Json,
}

fn circuit(seed: u64) -> Circuit {
    Circuit::generate(&CircuitParams {
        clusters: CIRCUIT_CLUSTERS,
        nodes_per_cluster: CIRCUIT_NODES,
        wires_per_cluster: CIRCUIT_WIRES,
        cross_fraction: 0.2,
        cross_stride: None,
        seed,
    })
}

fn reference(program: &[Loop], fns: &FnTable, input: &Store) -> Store {
    let mut r = input.clone();
    run_program_seq(program, &mut r, fns);
    r
}

/// Bytes one rank's shard copies: its footprint of every value field plus
/// the full index fields.
fn shard_bytes(store: &Store, xplan: &ExchangePlan, rank: usize) -> u64 {
    let schema = store.schema();
    (0..schema.num_fields())
        .map(|f| {
            let decl = schema.field(partir::dpl::region::FieldId(f as u32));
            let n = schema.region_size(decl.region);
            match decl.kind {
                FieldKind::F64 => 8 * xplan.local(decl.region, rank).len(),
                FieldKind::Ptr(_) => 8 * n,
                FieldKind::Range(_) => 16 * n,
            }
        })
        .sum()
}

impl App {
    pub fn backend(self) -> Backend {
        match self {
            App::Spmv | App::Circuit => Backend::Ranks(2),
            App::Stencil => Backend::Threads(2),
        }
    }

    fn colors(self) -> usize {
        match self {
            App::Spmv | App::Stencil => 4,
            App::Circuit => 16,
        }
    }

    fn placement(self) -> PlacementConfig {
        match self {
            App::Circuit => PlacementConfig::cost_driven(),
            App::Spmv | App::Stencil => PlacementConfig::default(),
        }
    }
}

/// `PAYLOADS` seeded copies of `base` (values set by `fill`), each with
/// its reference output.
fn payloads(
    program: &[Loop],
    fns: &FnTable,
    base: &Store,
    seed: u64,
    fill: impl Fn(&mut Store, &mut Rng),
) -> Inputs {
    Inputs::Payloads(
        (0..PAYLOADS as u64)
            .map(|v| {
                let mut s = base.clone();
                fill(&mut s, &mut Rng::new(mix(seed, v)));
                let r = reference(program, fns, &s);
                (s, Arc::new(r))
            })
            .collect(),
    )
}

impl Case {
    /// Builds inputs and references, solves the plan and warms its memos
    /// with a few checked ops. Returns the case and the failed warm-ups.
    fn setup(app: App, seed: u64) -> (Case, u64) {
        let (program, fns, store, inputs, params) = match app {
            App::Spmv => {
                let a = Spmv::generate(&SPMV);
                let mval = a.store.schema().field_by_name(a.mat, "val").expect("Mat.val exists");
                let inputs = payloads(&a.program, &a.fns, &a.store, seed, |s, rng| {
                    s.f64s_mut(a.xv).iter_mut().for_each(|x| *x = rng.f64_in(-1.0, 1.0));
                    s.f64s_mut(mval).iter_mut().for_each(|x| *x = rng.f64_in(0.5, 1.5));
                });
                let params = format!("rows={} halo={}", SPMV.rows, SPMV.halo);
                (a.program, a.fns, a.store, inputs, params)
            }
            App::Stencil => {
                let a = Stencil::generate(&STENCIL);
                let inputs = payloads(&a.program, &a.fns, &a.store, seed, |s, rng| {
                    s.f64s_mut(a.f_in).iter_mut().for_each(|x| *x = rng.f64_in(-1.0, 1.0));
                });
                let params = format!("nx={} ny={}", STENCIL.nx, STENCIL.ny);
                (a.program, a.fns, a.store, inputs, params)
            }
            App::Circuit => {
                // Netlists differ only in their pointer fields and values;
                // the program, functions and schema are the generator's.
                let a = circuit(mix(seed, u64::MAX));
                let params = format!(
                    "clusters={CIRCUIT_CLUSTERS} nodes_per_cluster={CIRCUIT_NODES} \
                     wires_per_cluster={CIRCUIT_WIRES} cross_fraction=0.2"
                );
                (a.program, a.fns, a.store, Inputs::Netlists { seed }, params)
            }
        };
        let (backend, colors, placement) = (app.backend(), app.colors(), app.placement());
        let schema = store.schema().clone();
        let plan =
            Partir::new(program, fns, schema).colors(colors).solve().expect("workload solves");
        let legality = LegalityMode::Plan;
        let obs = ObsConfig::disabled();
        let retry = RetryPolicy::default();
        let run = Run::new()
            .backend(backend)
            .legality_mode(legality)
            .obs(obs)
            .placement_config(placement.clone())
            .retry(retry);
        let width = match backend {
            Backend::Ranks(n) | Backend::Threads(n) => n,
        };
        let config = Json::object()
            .with("app", params)
            .with("backend", format!("{backend:?}"))
            .with("colors", colors)
            .with("legality", format!("{legality:?}"))
            .with("obs", format!("{obs:?}"))
            .with("placement", format!("{placement:?}"))
            .with("retry", format!("{retry:?}"))
            .with("chaos_seed", Json::Null)
            .with("fault", "none")
            .with("dist_fault", "none")
            .with("checkpoint", "none")
            .with("plan_fingerprint", plan.fingerprint().to_string());
        let case = Case { app, plan, run, width, placement, legality, inputs, config };
        let failed = (0..WARMUP_OPS)
            .filter(|&k| {
                let (mut store, reference) = case.input(WARMUP_BASE + k);
                case.run.run(&case.plan, &mut store).is_err() || !identical(&store, &reference)
            })
            .count() as u64;
        (case, failed)
    }

    /// Op `i`'s input and its reference output.
    fn input(&self, i: u64) -> (Store, Arc<Store>) {
        match &self.inputs {
            Inputs::Payloads(p) => {
                let (s, r) = &p[(i % p.len() as u64) as usize];
                (s.clone(), Arc::clone(r))
            }
            Inputs::Netlists { seed } => {
                let store = circuit(mix(*seed, i)).store;
                let r = reference(self.plan.program(), self.plan.fns(), &store);
                (store, Arc::new(r))
            }
        }
    }
}

/// Per-layer values collected from traced ops.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, Vec<f64>>,
    memo_lookups: u64,
    memo_hits: u64,
    /// Live memo results seen so far: a lookup hit when it returns one.
    seen_dist: Vec<Arc<DistArtifacts>>,
    seen_parts: Vec<Arc<Vec<Arc<Partition>>>>,
}

impl Layers {
    fn push(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    fn memo<T>(seen: &mut Vec<Arc<T>>, got: &Arc<T>) -> bool {
        let hit = seen.iter().any(|a| Arc::ptr_eq(a, got));
        if !hit {
            if seen.len() >= 16 {
                seen.remove(0);
            }
            seen.push(Arc::clone(got));
        }
        hit
    }
}

impl Case {
    /// Records the memo entry set-up left behind, so the first traced
    /// lookup that returns it counts as the hit it is.
    fn prime(&self, layers: &mut Layers) {
        let (store, _) = self.input(WARMUP_BASE);
        let solved = self.plan.solved();
        if self.app == App::Stencil {
            layers.seen_parts.push(solved.parts_for(&store));
        } else if let Ok(a) = solved.dist_artifacts(&store, self.width, &self.placement) {
            layers.seen_dist.push(a);
        }
    }

    /// One re-composed, traced op on `store`, then probes of the layers
    /// below it on `pristine` (a copy of the op's input).
    fn traced_op(
        &self,
        tr: &mut Tracer,
        op: u64,
        store: &mut Store,
        pristine: &Store,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let plan = &self.plan;
        let root = tr.open(OP, op, None);
        let dist = if self.app == App::Stencil {
            let parts = tr.scope("cache.memo", op, Some(root), || plan.solved().parts_for(store));
            let opts = ExecOptions {
                n_threads: self.width,
                check_legality: self.legality != LegalityMode::Off,
                fault: None,
                retry: RetryPolicy::default(),
            };
            let rep = tr.scope("exec", op, Some(root), || {
                execute_program(
                    plan.program(),
                    plan.parallel_plan(),
                    &parts,
                    store,
                    plan.fns(),
                    &opts,
                )
            });
            tr.close(root);
            let rep = rep.map_err(|e| e.to_string())?;
            layers.memo_lookups += 1;
            layers.memo_hits += u64::from(Layers::memo(&mut layers.seen_parts, &parts));
            layers.push("exec.buffer_bytes", rep.buffer_bytes as f64);
            layers.push("exec.legality_checks", rep.legality_checks as f64);
            None
        } else {
            let arts = tr.scope("cache.memo", op, Some(root), || {
                plan.solved().dist_artifacts(store, self.width, &self.placement)
            });
            let arts = match arts {
                Ok(a) => a,
                Err(e) => {
                    tr.close(root);
                    return Err(e.to_string());
                }
            };
            let opts = DistOptions {
                n_ranks: self.width,
                legality: self.legality,
                chaos_seed: None,
                collect_timeline: false,
                strict_volume: false,
                fault: None,
                checkpoint: None,
                placement: self.placement.clone(),
                preproved: arts.proof_facts,
            };
            let out = tr.scope("dist.exec", op, Some(root), || {
                execute_with_exchange_full(
                    plan.program(),
                    plan.parallel_plan(),
                    &arts.parts,
                    &arts.placement.xplan,
                    store,
                    plan.fns(),
                    &opts,
                )
            });
            tr.close(root);
            let r = out.map_err(|e| e.to_string())?.report;
            layers.memo_lookups += 1;
            layers.memo_hits += u64::from(Layers::memo(&mut layers.seen_dist, &arts));
            for (name, v) in [
                ("dist.compute_ns", r.compute_ns),
                ("dist.pack_ns", r.pack_ns),
                ("dist.wait_ns", r.exchange_wait_ns),
                ("dist.unpack_ns", r.unpack_ns),
                ("dist.merge_ns", r.merge_ns),
                ("dist.messages", r.messages),
                ("placement.cut_bytes", arts.placement.report.cut_bytes),
                ("exchange.predicted_bytes", arts.placement.report.predicted_bytes),
            ] {
                layers.push(name, v as f64);
            }
            Some(arts)
        };

        // Probes: the layers under the op, called again on the same input.
        tr.scope("fingerprint.store", op, None, || black_box(store_index_fingerprint(pristine)));
        if let Some(arts) = &dist {
            let x = &arts.placement.xplan;
            let mut bytes = 0;
            for r in 0..self.width {
                let shard = tr.scope("dist.shard", op, None, || RankStore::shard(pristine, x, r));
                drop(black_box(shard));
                bytes += shard_bytes(pristine, x, r);
            }
            layers.push("dist.shard_bytes", bytes as f64);
        }
        if self.app == App::Circuit {
            // Every circuit op misses the memo, so `dist_artifacts` pays
            // evaluation, placement, exchange derivation and the proof.
            let pp = plan.parallel_plan();
            let (parts, st) = tr.scope("eval", op, None, || {
                pp.evaluate_with_stats(
                    pristine,
                    plan.fns(),
                    plan.colors(),
                    plan.solved().externals(),
                )
            });
            layers.push("eval.partitions_built", st.partitions_built as f64);
            let placed = tr
                .scope("placement", op, None, || {
                    place(pp, &parts, plan.schema(), self.width, &self.placement)
                })
                .map_err(|e| e.to_string())?;
            let derived = tr.scope("exchange.derive", op, None, || {
                derive_exchange_with(pp, &parts, plan.schema(), self.width, &placed.assignment)
            });
            drop(black_box(derived.map_err(|e| e.to_string())?));
            let proof = tr.scope("exchange.prove", op, None, || {
                prove_plan_legality(&placed.xplan, pp, &parts, plan.schema())
            });
            proof.map_err(|e| e.to_string())?;
        }
        let mut seq = pristine.clone();
        tr.scope("interp.seq", op, None, || run_program_seq(plan.program(), &mut seq, plan.fns()));
        Ok(())
    }
}

/// Span name → the per-layer metric its per-op self time reports.
const SPAN_METRICS: [(&str, &str); 10] = [
    ("cache.memo", "cache.memo_ns"),
    ("dist.exec", "dist.exec_ns"),
    ("exec", "exec.ns"),
    ("fingerprint.store", "fingerprint.store_ns"),
    ("dist.shard", "dist.shard_ns"),
    ("eval", "eval.ns"),
    ("placement", "placement.ns"),
    ("exchange.derive", "exchange.derive_ns"),
    ("exchange.prove", "exchange.prove_ns"),
    ("interp.seq", "interp.seq_ns"),
];

pub fn measure(args: &Args, app: App) -> Measurement {
    let mut m = Measurement::default();
    let mut case = None;
    for _ in 0..SETUP_REPS {
        drop(case.take());
        let t = Instant::now();
        let c0 = process_cpu_s();
        let (c, warm_failed) = Case::setup(app, args.seed);
        m.setup_wall_s.push(t.elapsed().as_secs_f64());
        m.setup_cpu_s.push(process_cpu_s() - c0);
        m.attempted += WARMUP_OPS;
        m.failed += warm_failed;
        case = Some(c);
    }
    let case = case.expect("at least one set-up");

    let mut layers = Layers::default();
    if args.trace {
        case.prime(&mut layers);
    }
    m.first_op_s = args.started.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut tr = Tracer::new(start);
    let mut i = 0u64;
    loop {
        let elapsed = start.elapsed();
        let done = elapsed.as_secs_f64() >= args.seconds && m.op_ms.len() >= MIN_OPS;
        if done || elapsed >= MAX_WINDOW {
            break;
        }
        let (mut store, reference) = case.input(i);
        let result = if args.trace && i % 2 == 1 {
            let pristine = store.clone();
            case.traced_op(&mut tr, i, &mut store, &pristine, &mut layers)
        } else {
            let t = Instant::now();
            let c0 = process_cpu_s();
            let out = case.run.run(&case.plan, &mut store);
            let dt = t.elapsed();
            let cpu = process_cpu_s() - c0;
            out.map(|o| {
                m.op_ms.push(dt.as_secs_f64() * 1e3);
                m.op_cpu_ms.push(cpu * 1e3);
                if let Some(r) = o.report.as_ranks() {
                    m.comm_bytes.push(r.bytes_sent as f64);
                }
            })
            .map_err(|e| e.to_string())
        };
        m.attempted += 1;
        match result {
            Err(e) => {
                m.failed += 1;
                eprintln!("perfbench: op {i} failed: {e}");
            }
            Ok(()) if !identical(&store, &reference) => {
                m.failed += 1;
                eprintln!("perfbench: op {i} differs from the sequential interpreter");
            }
            Ok(()) => {}
        }
        i += 1;
    }
    m.window_s = start.elapsed().as_secs_f64();
    m.config = Some(case.config.clone());
    if args.trace {
        summarize_trace(args, &tr, &layers, &mut m);
    }
    m
}

fn summarize_trace(args: &Args, tr: &Tracer, layers: &Layers, m: &mut Measurement) {
    m.layers.extend(tr.layer_medians(&SPAN_METRICS));
    for (name, v) in &layers.values {
        m.layers.insert(name, median(v));
    }
    if layers.memo_lookups > 0 {
        m.layers
            .insert("cache.memo_hit_ratio", layers.memo_hits as f64 / layers.memo_lookups as f64);
    }
    let untraced_ns = median_or_zero(&m.op_ms) * 1e6;
    if untraced_ns > 0.0 {
        if let Some(&seq) = m.layers.get("interp.seq_ns") {
            m.layers.insert("interp.seq_over_run", seq / untraced_ns);
        }
    }
    m.layers.extend(tr.op_metrics(untraced_ns));
    m.spans_file = write_spans(args, tr);
}

/// Where traced runs write their spans, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

/// Writes the spans next to the other benchmark outputs; returns the path.
pub fn write_spans(args: &Args, tr: &Tracer) -> Option<String> {
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}.jsonl", args.workload.name));
    let header = Json::object().with("workload", args.workload.name).with("seed", args.seed);
    match tr.write_jsonl(&path, header) {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            None
        }
    }
}
