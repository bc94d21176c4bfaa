//! Per-layer metrics of a traced run, from its spans and its boundary
//! counts. Layers are named after the serving crate's modules.

use std::sync::atomic::Ordering;

use serde_json::Value;

use crate::common::Oracle;
use crate::stack::Shared;
use crate::stats::{Metric, Summary};
use crate::trace::{write_files, Rollup};
use crate::workloads::{RunConfig, RunResult};

/// Layers whose self-time share is reported, in report order. `bench` is
/// the benchmark's own request handling around the layer calls.
pub const LAYERS: [&str; 9] = [
    "bench", "tcp", "protocol", "executor", "snapshot", "engine", "wal", "recovery", "session",
];

/// Spans written to the trace file, at most (a request sample; the rollup
/// covers every span).
const TRACE_FILE_SPANS: usize = 20_000;

/// What a workload hands over for its per-layer report.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// Spans and counts of the traced pass.
    pub shared: &'a Shared,
    /// Median bucketing time of the set-ups, s.
    pub setup_bucketing_s: f64,
    /// Median service construction time of the set-ups, s.
    pub setup_service_s: f64,
    /// The oracle, with its group and CSR build times.
    pub oracle: &'a Oracle,
    /// CPU time per request of the untraced pass, µs.
    pub cpu_us_per_op: f64,
    /// Requests that CPU time is divided by.
    pub ops_for_cpu: u64,
    /// Traced op p50 over untraced op p50, minus one.
    pub overhead_share: f64,
    /// Epochs published by the traced pass's writer.
    pub publishes: u64,
    /// Of which patched in place.
    pub patched: u64,
    /// Memo entries dropped by those publishes.
    pub invalidated: u64,
    /// Memo entries carried by those publishes.
    pub carried: u64,
    /// Epochs that existed during the traced pass (publishes plus epoch 0).
    pub epochs: u64,
    /// Timed cold recovery: `(seconds, frames replayed)`.
    pub recovery: Option<(f64, u64)>,
    /// Ack latency from due time of every update of the traced pass, µs,
    /// indexed by script position (which is the update's request id).
    pub update_latency_us: &'a [f64],
}

/// Fills `res.layers` (the gated per-layer list, every metric on every
/// workload) and `res.layer_detail` (timings of the calls that ran), and
/// writes the trace and rollup files.
pub fn layer_metrics(res: &mut RunResult, cfg: &RunConfig, inp: LayerInputs<'_>) {
    let spans = inp.shared.tracer.take();
    let rollup = Rollup::of(&spans);
    let c = &inp.shared.counts;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let call_p50 = |name: &str| rollup.call(name).map_or(0.0, |r| r.duration.p50);
    let pairs = inp
        .shared
        .kernel_pairs
        .lock()
        .expect("kernel sample lock")
        .clone();
    let selects = load(&c.selects);
    let hits = load(&c.memo_hits);
    let misses = selects - hits;
    let responses = load(&c.responses);
    let updates = load(&c.updates);
    let refines = load(&c.refines);
    let total_self = rollup.total_self_us();

    let mut layers = vec![
        Metric::new("setup.bucketing_s", "s", inp.setup_bucketing_s, 1),
        Metric::new("setup.groups_s", "s", inp.oracle.groups_s, 1),
        Metric::new("setup.csr_s", "s", inp.oracle.csr_s, 1),
        Metric::new("setup.service_s", "s", inp.setup_service_s, 1),
        Metric::ratio(
            "process.cpu_us_per_op",
            "us",
            inp.cpu_us_per_op * inp.ops_for_cpu as f64,
            inp.ops_for_cpu,
            "requests",
        ),
        Metric::new("trace.overhead_share", "ratio", inp.overhead_share, 1),
        Metric::new(
            "trace.spans",
            "count",
            spans.len() as f64,
            spans.len() as u64,
        ),
        Metric::new(
            "protocol.parse_us.p50",
            "us",
            call_p50("protocol.parse"),
            rollup.call("protocol.parse").map_or(0, |r| r.count),
        ),
        Metric::new(
            "protocol.encode_us.p50",
            "us",
            call_p50("protocol.encode"),
            rollup.call("protocol.encode").map_or(0, |r| r.count),
        ),
        Metric::ratio(
            "protocol.response_bytes.mean",
            "bytes",
            load(&c.response_bytes) as f64,
            responses,
            "responses",
        ),
    ];
    for layer in LAYERS {
        let own = rollup.layer_self_us.get(layer).copied().unwrap_or(0.0);
        let share = if total_self > 0.0 {
            own / total_self
        } else {
            0.0
        };
        let mut m = Metric::new(
            format!("{layer}.self_share"),
            "ratio",
            share,
            spans.len() as u64,
        );
        m.base = Some((total_self.round() as u64, "us of self time, all layers"));
        layers.push(m);
    }
    let kernel_ns: u64 = pairs.iter().map(|p| p.1).sum();
    let miss_ns: u64 = pairs.iter().map(|p| p.0).sum();
    layers.extend([
        Metric::new(
            "executor.queue_depth.max",
            "count",
            load(&c.queue_depth_max) as f64,
            selects,
        ),
        Metric::new(
            "executor.rejected",
            "count",
            load(&c.rejected) as f64,
            selects,
        ),
        Metric::ratio(
            "snapshot.memo_hit_ratio",
            "ratio",
            hits as f64,
            selects,
            "selects",
        ),
        Metric::ratio(
            "snapshot.misses_per_epoch",
            "ratio",
            misses as f64,
            inp.epochs,
            "epochs",
        ),
        Metric::ratio(
            "snapshot.dup_miss_ratio",
            "ratio",
            load(&c.dup_misses) as f64,
            misses,
            "misses",
        ),
        Metric::ratio(
            "snapshot.patched_ratio",
            "ratio",
            inp.patched as f64,
            inp.publishes,
            "publishes",
        ),
        Metric::ratio(
            "snapshot.memos_invalidated_per_publish",
            "ratio",
            inp.invalidated as f64,
            inp.publishes,
            "publishes",
        ),
        Metric::ratio(
            "snapshot.memos_carried_per_publish",
            "ratio",
            inp.carried as f64,
            inp.publishes,
            "publishes",
        ),
        Metric::ratio(
            "engine.kernel_share",
            "ratio",
            kernel_ns as f64,
            miss_ns,
            "ns of sampled misses",
        ),
        Metric::ratio(
            "wal.bytes_per_update",
            "bytes",
            load(&c.wal_bytes) as f64,
            updates,
            "updates",
        ),
        Metric::new(
            "recovery.replayed_frames",
            "count",
            inp.recovery.map_or(0.0, |r| r.1 as f64),
            1,
        ),
        Metric::ratio(
            "session.pool_size.mean",
            "count",
            load(&c.pool_size_sum) as f64,
            refines,
            "refines",
        ),
    ]);
    res.layers = layers;

    // Timings of every call that ran, by the call's name.
    let mut detail = Vec::new();
    for call in &rollup.calls {
        let n = call.count;
        detail.push(Metric::new(
            format!("{}_us.p50", call.name),
            "us",
            call.duration.p50,
            n,
        ));
        detail.push(Metric::new(
            format!("{}_us.p99", call.name),
            "us",
            call.duration.p99,
            n,
        ));
        res.notes.push(format!(
            "span {}: {}",
            call.name,
            call.duration.describe("us")
        ));
    }
    for (layer, own) in &rollup.layer_self_us {
        detail.push(Metric::new(format!("{layer}.self_us"), "us", *own, 1));
    }
    if let (Some(tcp), Some(req)) = (rollup.call("tcp.call"), rollup.call("bench.request")) {
        detail.push(Metric::new(
            "tcp.overhead_us.p50",
            "us",
            tcp.duration.p50 - req.duration.p50,
            tcp.count,
        ));
    }
    if !pairs.is_empty() {
        let mut miss: Vec<f64> = pairs.iter().map(|p| p.0 as f64 / 1e3).collect();
        let mut kernel: Vec<f64> = pairs.iter().map(|p| p.1 as f64 / 1e3).collect();
        let (miss, kernel) = (Summary::of(&mut miss), Summary::of(&mut kernel));
        detail.push(Metric::new(
            "snapshot.miss_overhead_us.p50",
            "us",
            miss.p50 - kernel.p50,
            pairs.len() as u64,
        ));
        detail.push(Metric::new(
            "engine.celf_us.p99",
            "us",
            kernel.p99,
            kernel.n as u64,
        ));
        for b in [8usize, 64] {
            let mut at: Vec<f64> = pairs
                .iter()
                .filter(|p| p.2 == b)
                .map(|p| p.1 as f64 / 1e3)
                .collect();
            if !at.is_empty() {
                let s = Summary::of(&mut at);
                detail.push(Metric::new(
                    format!("engine.celf_us.b{b}.p50"),
                    "us",
                    s.p50,
                    s.n as u64,
                ));
            }
        }
    }
    if let Some((secs, frames)) = inp.recovery {
        detail.push(Metric::new("recovery.recover_s", "s", secs, frames));
    }
    let checkpoints = inp
        .shared
        .checkpoint_reqs
        .lock()
        .expect("checkpoint list lock")
        .clone();
    if !checkpoints.is_empty() && !inp.update_latency_us.is_empty() {
        let mut all = inp.update_latency_us.to_vec();
        let all = Summary::of(&mut all);
        let mut stalled: Vec<f64> = checkpoints
            .iter()
            .filter_map(|&r| inp.update_latency_us.get(r as usize).copied())
            .collect();
        let stalled = Summary::of(&mut stalled);
        detail.push(Metric::new(
            "recovery.checkpoint_stall_us.p50",
            "us",
            stalled.p50 - all.p50,
            stalled.n as u64,
        ));
    }
    detail.push(Metric::new(
        "engine.replays_skipped",
        "count",
        load(&c.replays_skipped) as f64,
        pairs.len() as u64,
    ));
    res.layer_detail = detail;

    let stem = cfg.workload.name();
    let sample_every = (spans.len() / TRACE_FILE_SPANS).max(1) as u64;
    let header = vec![
        ("workload", Value::String(cfg.workload.name().to_owned())),
        ("seed", Value::Number(serde_json::Number::PosInt(cfg.seed))),
    ];
    let trace_path = cfg.out_dir.join(format!("trace-{stem}.jsonl"));
    let rollup_path = cfg.out_dir.join(format!("rollup-{stem}.jsonl"));
    match write_files(
        &trace_path,
        &rollup_path,
        header,
        &spans,
        &rollup,
        sample_every,
    ) {
        Ok(()) => res.notes.push(format!(
            "trace written to {} (1 request in {sample_every}), rollup to {}",
            trace_path.display(),
            rollup_path.display()
        )),
        Err(e) => res.notes.push(format!("trace files not written: {e}")),
    }
}
