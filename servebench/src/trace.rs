//! Spans for the traced run.
//!
//! A span has a name, start, end, parent and op id; the spans of one op
//! share the id. Spans stay in memory and are written out at the end.
//!
//! The replayed layer calls of an op run right after its HTTP request,
//! on the same inputs, so their parent is the span of the work that
//! contains them on the server (`http.answer` contains the decode, the
//! registry call and the encode; `registry.answer` contains the
//! resolve, the engine and the wire conversion). Containment is causal,
//! not temporal, and a span's self time is its duration minus the
//! durations of its children. The self time of `http.answer` is thus
//! whatever the replays leave over, so accounting leaves it out and
//! times the wire separately (`http.healthz`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, op: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(op, parent, name);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Self time (µs) of every span: duration minus its children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Per op id whose root span is named `root`: the duration (µs) of
    /// the root's child named `child`.
    pub fn child_durations_us(&self, root: &str, child: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == child && s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|s| (s.op, s.dur_us()))
            .collect()
    }

    /// Per op id whose root span is named `root`: the summed self time
    /// (µs) of each layer among the descendants of the root's child
    /// named `subtree` (the child itself excluded), keyed by
    /// [`layer_of`].
    pub fn layer_self_times(
        &self,
        root: &str,
        subtree: &str,
    ) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let own = self.self_times_us();
        // Whether each span is the subtree's top span or below it.
        let mut top = vec![false; self.spans.len()];
        let mut below = vec![false; self.spans.len()];
        let mut per_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede children in the span list.
            let Some(p) = s.parent else { continue };
            top[i] = s.name == subtree && self.spans[p].name == root;
            below[i] = top[p] || below[p];
            if below[i] {
                *per_op
                    .entry(s.op)
                    .or_default()
                    .entry(layer_of(s.name))
                    .or_insert(0.0) += own[i];
            }
        }
        per_op
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times_us();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {i}, "op": {}, "name": "{}", "layer": "{}", "parent": {parent}, "start_ns": {}, "end_ns": {}, "self_us": {}}}"#,
                s.op,
                s.name,
                layer_of(s.name),
                s.start_ns,
                s.end_ns,
                own[i],
            )?;
        }
        out.flush()
    }
}

/// The program layer (module) a span name times.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or_default() {
        "http" => "serve::http",
        "protocol" => "serve::protocol",
        "registry" | "cache" => "serve::registry",
        "engine" => "engine",
        "retrieve" => "serve::retrieve",
        "mutation" => "serve::mutation",
        "wal" => "kg::store::wal",
        "replication" => "serve::replication",
        _ => "benchmark",
    }
}
