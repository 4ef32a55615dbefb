//! partir's benchmark: one workload per process.
//!
//! ```text
//! partir-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it drives the workload through the public API
//! for `--seconds` and prints the end-to-end metrics. Traced (`--trace 1`),
//! it interleaves plain ops with ops re-composed from the calls the facade
//! makes, each wrapped in a span, and prints the per-layer metrics. Every
//! op's output is checked against the sequential interpreter.
//!
//! The second-to-last stdout line is the run's record (configuration,
//! sample counts, the workload's own metric names); the last line is the
//! result: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/run.py` builds this package and runs it; see
//! `perfbench/README.md`.

mod metrics;
mod runs;
mod serve;
mod spans;
mod stats;
mod util;

use metrics::{Kind, Workload};
use partir::obs::json::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per process; `setup_s` is the median.
pub const SETUP_REPS: usize = 11;
/// Fewest measured ops per process, so the tail rule can hold.
pub const MIN_OPS: usize = 40;
/// The window never stretches past this, whatever `MIN_OPS` asks.
pub const MAX_WINDOW: Duration = Duration::from_secs(90);

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started measuring anything.
    pub started: Instant,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(metrics::workload(&v).ok_or_else(|| {
                    let names: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        started: Instant::now(),
    })
}

fn list(values: &[f64]) -> Vec<Json> {
    values.iter().map(|&v| Json::from(v)).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program falls back to `PARTIR_*` variables for settings a run
    // leaves unset (faults, checkpoints, placement, obs); refuse to measure
    // a program a stray variable could reconfigure.
    let stray: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("PARTIR_")).collect();
    if !stray.is_empty() {
        eprintln!("perfbench: refusing to run with {} set; run.py clears them", stray.join(", "));
        return ExitCode::from(2);
    }

    let mut m = match args.workload.kind {
        Kind::Run(app) => runs::measure(&args, app),
        Kind::Serve => serve::measure(&args),
    };
    m.peak_rss_mb = util::peak_rss_mb();
    let out = metrics::build(&args.workload, &m);

    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let samples = Json::object()
        .with("ops", m.op_ms.len())
        .with("misses", m.miss_ms.len())
        .with("comm", m.comm_bytes.len())
        .with("plans_checked", m.plans_checked)
        .with("op_cpu", m.op_cpu_ms.len())
        .with("setup", m.setup_cpu_s.len());
    let record = Json::object()
        .with("workload", args.workload.name)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("nproc", nproc)
        .with("build_profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .with("samples", samples)
        .with("tail_percentile", out.tail_p)
        .with("window_s", m.window_s)
        .with("setup_wall_reps_s", list(&m.setup_wall_s))
        .with("setup_cpu_reps_s", list(&m.setup_cpu_s))
        .with("start_to_first_op_s", m.first_op_s)
        .with("end_to_end_named", metrics::to_json(&out.named))
        .with("config", m.config.clone().unwrap_or(Json::Null))
        .with("spans_file", m.spans_file.clone().map(Json::from).unwrap_or(Json::Null));
    println!("{}", Json::object().with("perfbench_record", record));

    let shown = if args.trace { &out.layers } else { &out.e2e };
    let result = Json::object()
        .with("correct", m.failed == 0)
        .with("attempted", m.attempted)
        .with("failed", m.failed)
        .with("metrics", metrics::to_json(shown));
    println!("{result}");
    ExitCode::SUCCESS
}
