//! The metric registry and the pure step from raw measurements to the
//! printed metrics, so the output's shape is testable without running a
//! workload.

use crate::runs::App;
use crate::stats::{median_or_zero, tail};
use partir::obs::json::Json;
use partir::Backend;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Each op is one `Run::run` of a solved plan of this app.
    Run(App),
    /// Each op is one solve request to a `Server`.
    Serve,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The percentile the tail latency targets (see `stats::tail_percentile`).
    pub tail_target: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "spmv-ranks", kind: Kind::Run(App::Spmv), tail_target: 90.0 },
    Workload { name: "stencil-threads", kind: Kind::Run(App::Stencil), tail_target: 90.0 },
    Workload { name: "circuit-fresh", kind: Kind::Run(App::Circuit), tail_target: 90.0 },
    Workload { name: "serve-mixed", kind: Kind::Serve, tail_target: 99.0 },
];

impl Workload {
    /// Runs on the rank backend, so each run ships bytes between ranks.
    pub fn ranks(&self) -> bool {
        matches!(self.kind, Kind::Run(app) if matches!(app.backend(), Backend::Ranks(_)))
    }
}

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// End-to-end metrics printed for every workload (untraced). An op is a
/// run on the run workloads and a solve request on `serve-mixed`. Times are
/// process CPU time, every thread included: on a shared virtual machine
/// wall time moves with the CPU the hypervisor takes away, CPU time much
/// less. Wall latency and throughput are in the record (`named_for`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_cpu_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics printed for every workload (traced). A layer that
/// is not on a workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("fingerprint.store_ns", "ns"),
    ("fingerprint.solve_ns", "ns"),
    ("cache.memo_ns", "ns"),
    ("cache.memo_hit_ratio", "ratio"),
    ("cache.get_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("pipeline.infer_ns", "ns"),
    ("pipeline.unify_ns", "ns"),
    ("pipeline.solve_ns", "ns"),
    ("solver.nodes_explored", "count"),
    ("solver.backtracks", "count"),
    ("unify.candidates", "count"),
    ("eval.ns", "ns"),
    ("eval.partitions_built", "count"),
    ("placement.ns", "ns"),
    ("placement.cut_bytes", "B"),
    ("exchange.derive_ns", "ns"),
    ("exchange.prove_ns", "ns"),
    ("exchange.predicted_bytes", "B"),
    ("dist.shard_ns", "ns"),
    ("dist.shard_bytes", "B"),
    ("dist.exec_ns", "ns"),
    ("dist.compute_ns", "ns"),
    ("dist.pack_ns", "ns"),
    ("dist.wait_ns", "ns"),
    ("dist.unpack_ns", "ns"),
    ("dist.merge_ns", "ns"),
    ("dist.messages", "count"),
    ("exec.ns", "ns"),
    ("exec.buffer_bytes", "B"),
    ("exec.legality_checks", "count"),
    ("interp.seq_ns", "ns"),
    ("interp.seq_over_run", "ratio"),
    ("serve.queue_ns", "ns"),
    ("serve.refused", "count"),
    ("op.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The end-to-end metrics under their workload-specific names, as the
/// record line reports them.
pub fn named_for(w: &Workload) -> Vec<(&'static str, &'static str)> {
    let mut out = match w.kind {
        Kind::Run(_) => vec![("run_p50_ms", "ms"), ("run_p90_ms", "ms"), ("runs_per_s", "1/s")],
        Kind::Serve => vec![
            ("req_p50_ms", "ms"),
            ("req_p99_ms", "ms"),
            ("reqs_per_s", "1/s"),
            ("miss_p50_ms", "ms"),
        ],
    };
    if w.ranks() {
        out.push(("comm_bytes_per_run", "B"));
    }
    out.extend([
        ("op_cpu_ms", "ms"),
        ("peak_rss_mb", "MiB"),
        ("setup_s", "s"),
        ("error_rate", "fraction"),
    ]);
    out
}

/// What one workload process measured.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Wall time of each set-up repetition.
    pub setup_wall_s: Vec<f64>,
    /// Process CPU time of each set-up repetition.
    pub setup_cpu_s: Vec<f64>,
    /// Process CPU time of each successful untraced run, or of the serve
    /// window divided by its completed requests (one value).
    pub op_cpu_ms: Vec<f64>,
    /// From process start to the first measured op.
    pub first_op_s: f64,
    /// Latency of each successful untraced op.
    pub op_ms: Vec<f64>,
    /// Wall time of the measuring window the ops ran in.
    pub window_s: f64,
    /// Latency of each request that missed the plan cache (serve only).
    pub miss_ms: Vec<f64>,
    /// `DistReport.bytes_sent` of each run (rank workloads only).
    pub comm_bytes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Per-layer values from a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// The resolved configuration the program ran with.
    pub config: Option<Json>,
    /// Served plans executed against the interpreter (serve only).
    pub plans_checked: usize,
    /// Where the spans were written, if traced.
    pub spans_file: Option<String>,
}

pub type Values = Vec<(&'static str, f64, &'static str)>;

/// The printed metrics: end-to-end (unified names), end-to-end (the
/// workload's own names), and per-layer.
pub struct Output {
    pub e2e: Values,
    pub named: Values,
    pub layers: Values,
    pub tail_p: f64,
}

pub fn build(w: &Workload, m: &Measurement) -> Output {
    let (tail, tail_p) = tail(&m.op_ms, w.tail_target).unwrap_or((0.0, 0.0));
    let p50 = median_or_zero(&m.op_ms);
    let ops_per_s = match w.kind {
        // Completed runs per second of run wall time.
        Kind::Run(_) => m.op_ms.len() as f64 / (m.op_ms.iter().sum::<f64>() / 1e3),
        // Completed requests per second of closed-loop window.
        Kind::Serve => m.op_ms.len() as f64 / m.window_s,
    };
    let error_rate = if m.attempted == 0 { 1.0 } else { m.failed as f64 / m.attempted as f64 };
    let value = |name: &str| -> f64 {
        match name {
            "run_p50_ms" | "req_p50_ms" => p50,
            "run_p90_ms" | "req_p99_ms" => tail,
            "runs_per_s" | "reqs_per_s" => ops_per_s,
            "op_cpu_ms" => median_or_zero(&m.op_cpu_ms),
            "miss_p50_ms" => median_or_zero(&m.miss_ms),
            "comm_bytes_per_run" => median_or_zero(&m.comm_bytes),
            "peak_rss_mb" => m.peak_rss_mb,
            "setup_s" => median_or_zero(&m.setup_cpu_s),
            "error_rate" => error_rate,
            other => unreachable!("unregistered metric {other}"),
        }
    };
    let e2e = END_TO_END.iter().map(|&(n, u)| (n, value(n), u)).collect();
    let named = named_for(w).into_iter().map(|(n, u)| (n, value(n), u)).collect();
    let layers =
        PER_LAYER.iter().map(|&(n, u)| (n, m.layers.get(n).copied().unwrap_or(0.0), u)).collect();
    Output { e2e, named, layers, tail_p }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn to_json(values: &Values) -> Json {
    values.iter().fold(Json::object(), |o, &(n, v, u)| {
        o.with(n, Json::object().with("value", v).with("unit", u))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(w: &Workload) -> Measurement {
        let mut m = Measurement {
            setup_wall_s: vec![0.9, 0.8, 1.0],
            setup_cpu_s: vec![0.5, 0.4, 0.6],
            op_ms: (1..=300).map(f64::from).collect(),
            op_cpu_ms: vec![2.0, 3.0, 1.0],
            window_s: 10.0,
            attempted: 300,
            peak_rss_mb: 100.0,
            ..Measurement::default()
        };
        if w.kind == Kind::Serve {
            m.miss_ms = vec![0.3, 0.4];
        }
        if w.ranks() {
            m.comm_bytes = vec![32.0; 300];
        }
        m.layers.insert("op.coverage", 0.99);
        m
    }

    #[test]
    fn every_metric_appears_with_its_unit_on_every_workload() {
        for w in &WORKLOADS {
            let out = build(w, &synthetic(w));
            let e2e: Vec<_> = out.e2e.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(e2e, END_TO_END.to_vec(), "{}", w.name);
            assert!(out.e2e.iter().all(|&(_, v, _)| v > 0.0), "{}: e2e never 0", w.name);
            let layers: Vec<_> = out.layers.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(layers, PER_LAYER.to_vec(), "{}", w.name);
            let named: Vec<_> = out.named.iter().map(|&(n, _, _)| n).collect();
            let want: &[&str] = match (w.kind, w.ranks()) {
                (Kind::Run(_), true) => &[
                    "run_p50_ms",
                    "run_p90_ms",
                    "runs_per_s",
                    "comm_bytes_per_run",
                    "op_cpu_ms",
                    "peak_rss_mb",
                    "setup_s",
                    "error_rate",
                ],
                (Kind::Run(_), false) => &[
                    "run_p50_ms",
                    "run_p90_ms",
                    "runs_per_s",
                    "op_cpu_ms",
                    "peak_rss_mb",
                    "setup_s",
                    "error_rate",
                ],
                (Kind::Serve, _) => &[
                    "req_p50_ms",
                    "req_p99_ms",
                    "reqs_per_s",
                    "miss_p50_ms",
                    "op_cpu_ms",
                    "peak_rss_mb",
                    "setup_s",
                    "error_rate",
                ],
            };
            assert_eq!(named, want, "{}", w.name);
        }
    }

    #[test]
    fn values_follow_their_definitions() {
        let run = workload("spmv-ranks").unwrap();
        let out = build(&run, &synthetic(&run));
        let get = |vals: &Values, name: &str| vals.iter().find(|v| v.0 == name).unwrap().1;
        // Set-up and op cost are CPU time; latency is wall time.
        assert_eq!(get(&out.e2e, "setup_s"), 0.5);
        assert_eq!(get(&out.e2e, "op_cpu_ms"), 2.0);
        assert_eq!(get(&out.named, "run_p50_ms"), 150.5);
        assert_eq!(get(&out.named, "run_p90_ms"), 270.0);
        assert_eq!(out.tail_p, 90.0);
        // 300 runs over 45150 ms of run wall time.
        assert!((get(&out.named, "runs_per_s") - 300.0 / 45.15).abs() < 1e-9);
        assert_eq!(get(&out.named, "comm_bytes_per_run"), 32.0);
        assert_eq!(get(&out.named, "error_rate"), 0.0);
        assert_eq!(get(&out.layers, "op.coverage"), 0.99);
        assert_eq!(get(&out.layers, "eval.ns"), 0.0);

        let serve = workload("serve-mixed").unwrap();
        let out = build(&serve, &synthetic(&serve));
        assert_eq!(get(&out.named, "reqs_per_s"), 30.0);
        assert!((get(&out.named, "miss_p50_ms") - 0.35).abs() < 1e-12);
        // 300 requests leave only 3 beyond p99: the tail steps down.
        assert_eq!(out.tail_p, 95.0);
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        let want: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names, want);
    }
}
