//! In-memory spans recorded around calls into partir's public API.
//!
//! The benchmark never instruments the program: a traced op re-composes
//! the calls the facade makes and wraps each in a span here. Spans are
//! kept in memory and written out once, after measuring.

use crate::stats::{median, median_or_zero};
use partir::obs::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: its layer name, the op it belongs to, the span that
/// caused it (`None` for an op root or a probe), and its interval in
/// nanoseconds since the tracer's base instant.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Name of every op's root span; layer spans are its children.
pub const OP: &str = "op";

pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(base: Instant) -> Tracer {
        Tracer { base, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns: t, end_ns: t });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another tracer's spans (same base instant), rebasing their
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Per-op self time of each layer: spans of one name within one op are
    /// summed (e.g. one shard call per rank), then listed per op.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *per.entry((s.name, s.op)).or_default() += ns;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per {
            out.entry(name).or_default().push(ns as f64);
        }
        out
    }

    /// Wall time of every op root span.
    pub fn op_ns(&self) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == OP).map(|s| s.dur_ns() as f64).collect()
    }

    /// Share of each op's wall time covered by its child (layer) spans.
    pub fn coverage(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .filter(|(s, _)| s.name == OP && s.dur_ns() > 0)
            .map(|(s, c)| c as f64 / s.dur_ns() as f64)
            .collect()
    }

    /// The median per-op self time of each span name in `table`, under
    /// the metric name `table` maps it to.
    pub fn layer_medians(&self, table: &[(&str, &'static str)]) -> Vec<(&'static str, f64)> {
        let self_times = self.self_times();
        table
            .iter()
            .filter_map(|&(span, metric)| self_times.get(span).map(|v| (metric, median(v))))
            .collect()
    }

    /// `op.coverage`, and `trace.overhead_pct`: the traced ops' median wall
    /// time over `untraced_ns`, the same op's untraced median.
    pub fn op_metrics(&self, untraced_ns: f64) -> Vec<(&'static str, f64)> {
        let mut out = vec![("op.coverage", median_or_zero(&self.coverage()))];
        let ops = self.op_ns();
        if untraced_ns > 0.0 && !ops.is_empty() {
            out.push(("trace.overhead_pct", (median(&ops) - untraced_ns) / untraced_ns * 100.0));
        }
        out
    }

    /// Writes `header` and then every span, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{}", header.with("spans", self.spans.len()))?;
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::object()
                .with("id", i)
                .with("name", s.name)
                .with("op", s.op)
                .with("parent", s.parent.map(Json::from).unwrap_or(Json::Null))
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span { name, op, parent, start_ns: s, end_ns: e }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_per_op() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span(OP, 0, None, 0, 100),
            span("memo", 0, Some(0), 0, 20),
            span("exec", 0, Some(0), 20, 90),
            span("shard", 0, None, 100, 110),
            span("shard", 0, None, 110, 125),
        ];
        let st = t.self_times();
        assert_eq!(st[OP], vec![10.0]);
        assert_eq!(st["memo"], vec![20.0]);
        assert_eq!(st["shard"], vec![25.0]);
        assert_eq!(t.coverage(), vec![0.9]);
        assert_eq!(t.op_ns(), vec![100.0]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(Instant::now());
        a.spans = vec![span(OP, 0, None, 0, 10)];
        let mut b = Tracer::new(Instant::now());
        b.spans = vec![span(OP, 1, None, 0, 10), span("get", 1, Some(0), 0, 4)];
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.coverage(), vec![0.0, 0.4]);
    }
}
