//! In-memory spans for the traced run, the self-time rollup, and the
//! `podium.bench-trace/1` JSONL writer.
//!
//! A span is opened before a call into a layer and closed after it; spans
//! live in memory until the run ends. A span's self time is its duration
//! minus the part of its interval that its child spans cover (children
//! may run on other threads, e.g. inside an executor worker).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

use crate::stats::Summary;

/// Schema tag of every trace and rollup line.
pub const SCHEMA: &str = "podium.bench-trace/1";

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u32,
    /// Id of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to.
    pub req: u64,
    /// `layer.call`, e.g. `wal.append`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    req: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The span, ended at `end` (ns since the tracer's origin).
    pub fn ended(self, end: u64) -> Span {
        Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            start: self.start,
            end,
        }
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, req: u64, parent: Option<u32>) -> Open {
        self.open_at(name, req, parent, self.now())
    }

    /// Opens a span that started at `start` (ns since origin).
    pub fn open_at(&self, name: &'static str, req: u64, parent: Option<u32>, start: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start,
        }
    }

    /// Closes `open` now and keeps it.
    pub fn close(&self, open: Open) {
        self.push(open.ended(self.now()));
    }

    /// Keeps an already closed span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no tracing thread panics while holding the span list")
            .push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no tracing thread panics while holding the span list"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, ns, in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration().saturating_sub(covered(s.start, s.end, kids)))
        .collect()
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-call totals of one span name.
#[derive(Debug, Clone)]
pub struct CallRollup {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed self time, µs.
    pub self_us: f64,
    /// Duration distribution, µs.
    pub duration: Summary,
}

/// Per-call and per-layer totals of a run's spans.
#[derive(Debug, Clone)]
pub struct Rollup {
    /// One entry per span name, sorted by name.
    pub calls: Vec<CallRollup>,
    /// Summed self time per layer, µs, sorted by layer.
    pub layer_self_us: BTreeMap<&'static str, f64>,
}

impl Rollup {
    /// Rolls `spans` up by name and by layer.
    pub fn of(spans: &[Span]) -> Rollup {
        let selfs = self_times(spans);
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        let mut layer_self_us: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.duration() as f64 / 1e3);
            entry.1 += own as f64 / 1e3;
            *layer_self_us.entry(s.layer()).or_default() += own as f64 / 1e3;
        }
        let calls = by_name
            .into_iter()
            .map(|(name, (mut durations, self_us))| CallRollup {
                name,
                count: durations.len() as u64,
                total_us: durations.iter().sum(),
                self_us,
                duration: Summary::of(&mut durations),
            })
            .collect();
        Rollup {
            calls,
            layer_self_us,
        }
    }

    /// The rollup of one span name, if any span had it.
    pub fn call(&self, name: &str) -> Option<&CallRollup> {
        self.calls.iter().find(|c| c.name == name)
    }

    /// Self time summed over every layer, µs.
    pub fn total_self_us(&self) -> f64 {
        self.layer_self_us.values().sum()
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(x: f64) -> Value {
    Value::Number(serde_json::Number::Float(x))
}

fn int(n: u64) -> Value {
    Value::Number(serde_json::Number::PosInt(n))
}

fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

/// Writes the run's spans to `trace_path` and its rollup to `rollup_path`,
/// both JSONL tagged [`SCHEMA`]. To bound the file, only spans of requests
/// whose id is a multiple of `sample_every` are written; the rollup always
/// covers every span.
pub fn write_files(
    trace_path: &Path,
    rollup_path: &Path,
    header: Vec<(&str, Value)>,
    spans: &[Span],
    rollup: &Rollup,
    sample_every: u64,
) -> std::io::Result<()> {
    let line = |v: Value| serde_json::to_string(&v).expect("plain JSON values serialize");
    let mut head = vec![("schema", text(SCHEMA)), ("kind", text("header"))];
    head.extend(header);
    head.push(("sample_every", int(sample_every)));
    let head = line(obj(head));

    let mut out = std::io::BufWriter::new(std::fs::File::create(trace_path)?);
    writeln!(out, "{head}")?;
    for s in spans.iter().filter(|s| s.req % sample_every.max(1) == 0) {
        let parent = s.parent.map_or(Value::Null, |p| int(u64::from(p)));
        let v = obj(vec![
            ("schema", text(SCHEMA)),
            ("kind", text("span")),
            ("id", int(u64::from(s.id))),
            ("parent", parent),
            ("req", int(s.req)),
            ("name", text(s.name)),
            ("start_ns", int(s.start)),
            ("end_ns", int(s.end)),
        ]);
        writeln!(out, "{}", line(v))?;
    }
    out.flush()?;

    let mut out = std::io::BufWriter::new(std::fs::File::create(rollup_path)?);
    writeln!(out, "{head}")?;
    let total = rollup.total_self_us();
    for (layer, self_us) in &rollup.layer_self_us {
        let v = obj(vec![
            ("schema", text(SCHEMA)),
            ("kind", text("layer")),
            ("layer", text(layer)),
            ("self_us", num(*self_us)),
            (
                "self_share",
                num(if total > 0.0 { self_us / total } else { 0.0 }),
            ),
        ]);
        writeln!(out, "{}", line(v))?;
    }
    for c in &rollup.calls {
        let v = obj(vec![
            ("schema", text(SCHEMA)),
            ("kind", text("call")),
            ("name", text(c.name)),
            ("count", int(c.count)),
            ("total_us", num(c.total_us)),
            ("self_us", num(c.self_us)),
            ("p50_us", num(c.duration.p50)),
            ("p99_us", num(c.duration.p99)),
        ]);
        writeln!(out, "{}", line(v))?;
    }
    out.flush()
}
