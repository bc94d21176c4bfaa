//! The four workloads. Each builds its inputs from the seed, times its
//! set-up, runs its load for the given seconds while checking every
//! answer, and checks the final state against the oracle. With tracing on,
//! the run is split in two halves: the plain service path first (the
//! untraced reference numbers), then the same script through the traced
//! path of [`crate::stack`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use podium_core::bucket::PropertyBuckets;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use podium_service::bench::synthetic_repository;
use podium_service::protocol::{encode_request, Request};
use podium_service::recovery::{self, DurabilityOptions};
use podium_service::snapshot::PublishMode;
use podium_service::{
    ClientConfig, FsyncPolicy, PodiumClient, PodiumService, TcpServer, TcpServerConfig,
};
use serde_json::Value;

use crate::common::{
    answer, median, ok, parse, replay, select_client, service_config, timed_setup, user_index,
    Call, Check, Fail, Oracle, Tally, WORKERS,
};
use crate::layers::{layer_metrics, LayerInputs};
use crate::openloop::{due_times, run_open_loop, OpenLoopTally};
use crate::procfs::{cpu_time_us, dir_bytes, peak_rss_mb};
use crate::script::{
    read_params, select_line, select_order, session_scripts, update_script, SessionScript,
    Template, REFINES, SESSION_BUDGET,
};
use crate::stack::Stack;
use crate::stats::{Metric, Summary};
use crate::trace::Tracer;

/// Seed of both repositories. The repositories are fixed, so every run
/// serves the same instance; `--seed` draws the request scripts.
pub const INSTANCE_SEED: u64 = 0x5EED_0001;
/// Users of the synthetic repository (the ROADMAP baseline instance).
pub const USERS: usize = 10_000;
/// Properties of the synthetic repository.
pub const PROPERTIES: usize = 32;
/// Scores per synthetic user.
pub const SCORES_PER_USER: usize = 6;
/// Closed-loop clients of the two-client workloads.
pub const CLIENTS: usize = 2;
/// Offered update rate of `read-drift`.
pub const DRIFT_HZ: f64 = 500.0;
/// Paced rate of `read-drift`'s select client. A closed loop would spin on
/// memo hits whenever the writer stalls, and the share of hits, not the
/// program, would then set the median; at a fixed pace hits stay as rare
/// as writer stalls.
pub const DRIFT_READ_HZ: f64 = 100.0;
/// Offered update rate of `write-durable`.
pub const DURABLE_HZ: f64 = 400.0;
/// Cold recoveries timed after `write-durable`; `recovery_s` is their median.
pub const RECOVERY_REPS: usize = 3;
/// Distinct scripted sessions per `session-refine` client (cycled).
pub const SESSIONS_PER_CLIENT: usize = 128;
/// Passes over the eight read parameter sets in each client's script.
const ORDER_CYCLES: usize = 512;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memo-hit selects over loopback TCP.
    ReadHot,
    /// In-process selects under a 500 Hz open-loop update stream.
    ReadDrift,
    /// 400 Hz open-loop durable updates, then cold recovery.
    WriteDurable,
    /// Customization sessions over a TripAdvisor-like repository.
    SessionRefine,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::ReadDrift,
        Workload::WriteDurable,
        Workload::SessionRefine,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::ReadDrift => "read-drift",
            Workload::WriteDurable => "write-durable",
            Workload::SessionRefine => "session-refine",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where trace files and data directories go.
    pub out_dir: PathBuf,
}

/// What a run measured and whether every check passed.
#[derive(Debug, Default)]
pub struct RunResult {
    /// No wrong answer and every final check passed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Errors, refusals, unsent due requests and wrong answers.
    pub failed: u64,
    /// The end-to-end metrics `BENCHMARK.json` lists.
    pub e2e: Vec<Metric>,
    /// The workload's end-to-end metrics under their own names.
    pub detail: Vec<Metric>,
    /// The per-layer metrics `BENCHMARK.json` lists (traced run only).
    pub layers: Vec<Metric>,
    /// Per-layer timings of the layers that did work (traced run only).
    pub layer_detail: Vec<Metric>,
    /// Timing distributions and other report lines.
    pub notes: Vec<String>,
}

impl RunResult {
    fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.errors + tally.wrong;
        if tally.wrong > 0 {
            self.correct = false;
        }
        for m in &tally.messages {
            self.notes.push(format!("failure: {m}"));
        }
    }

    fn check(&mut self, what: &str, passed: bool) {
        if !passed {
            self.correct = false;
        }
        self.notes.push(format!(
            "check {what}: {}",
            if passed { "passed" } else { "FAILED" }
        ));
    }

    fn timing(&mut self, name: &str, summary: &Summary) {
        self.notes
            .push(format!("{name}: {}", summary.describe("us")));
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    match cfg.workload {
        Workload::ReadHot => read_hot(cfg, &mut res),
        Workload::ReadDrift => read_drift(cfg, &mut res),
        Workload::WriteDurable => write_durable(cfg, &mut res),
        Workload::SessionRefine => session_refine(cfg, &mut res),
    }
    let frac = res.failed as f64;
    res.detail.push(Metric::ratio(
        "failed_frac",
        "ratio",
        frac,
        res.attempted,
        "requests attempted",
    ));
    res
}

/// Seconds of the untraced pass: all of them, or half in a traced run.
fn plain_seconds(cfg: &RunConfig) -> f64 {
    if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    }
}

/// The gated end-to-end metrics, shared by every workload, for a pass that
/// used `cpu_us` of CPU for `attempted` requests; with the summary of
/// `lat_us`, the primary operation's send-to-answer latencies.
fn e2e_metrics(
    setup_total: &[f64],
    lat_us: &[f64],
    cpu_us: f64,
    attempted: u64,
) -> (Vec<Metric>, Summary) {
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(setup_total),
            setup_total.len() as u64,
        ),
        Metric::ratio("cpu_us_per_op", "us", cpu_us, attempted, "requests"),
        Metric::new("rss_peak_mb", "MB", peak_rss_mb(), 1),
    ];
    (metrics, Summary::of(&mut lat_us.to_vec()))
}

/// A traced pass's op latency against the untraced one's, as a share.
fn overhead_share(traced: &Summary, plain: &Summary) -> f64 {
    traced.p50 / plain.p50 - 1.0
}

/// Request-id spaces: updates use their script index, client `c` starts at
/// `(c + 1) << 32`.
fn client_base(client: usize) -> u64 {
    (client as u64 + 1) << 32
}

/// Runs one select client per order in parallel until `seconds` pass.
/// Returns the merged tally and the wall time until every client stopped.
fn select_clients<'a>(
    orders: &[Vec<usize>],
    lines: &[String],
    seconds: f64,
    make_call: &(dyn Fn(usize) -> Box<Call<'a>> + Sync),
    check: &Check<'_>,
) -> (Tally, f64) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(c, order)| {
                s.spawn(move || {
                    let mut call = make_call(c);
                    select_client(order, lines, stop, client_base(c), &mut *call, check)
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("select client panicked"));
        }
    });
    (total, start.elapsed().as_secs_f64())
}

/// A TCP select client's sender, optionally tracing each call.
fn tcp_call<'a>(addr: SocketAddr, tracer: Option<&'a Tracer>) -> Box<Call<'a>> {
    let mut client = PodiumClient::new(addr, ClientConfig::default());
    Box::new(move |line: &str, req: u64| {
        let span = tracer.map(|t| t.open("tcp.call", req, None));
        let resp = client.call(line).map_err(|e| e.to_string());
        if let (Some(t), Some(span)) = (tracer, span) {
            t.close(span);
        }
        resp
    })
}

fn read_hot(cfg: &RunConfig, res: &mut RunResult) {
    let repo = synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, INSTANCE_SEED);
    let params = read_params();
    let lines: Vec<String> = params.iter().map(select_line).collect();
    let orders: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| select_order(cfg.seed, c as u64, params.len(), ORDER_CYCLES))
        .collect();
    let setup = timed_setup(&repo, |copy, buckets, _| {
        let service = Arc::new(PodiumService::new(copy, buckets, service_config()));
        let server = TcpServer::bind(
            Arc::clone(&service),
            "127.0.0.1:0",
            TcpServerConfig::default(),
        )
        .expect("bind a loopback port");
        (service, server)
    });
    let (service, server) = &setup.kept;
    let oracle = Oracle::new(&repo, &setup.buckets);
    let expected = oracle.answers(&repo, &params);

    // Warm the epoch-0 memo with all eight parameter sets.
    let warm_ok = lines.iter().enumerate().all(|(p, line)| {
        matches!(parse(&service.handle_line(line)).map_err(Fail::Error).and_then(|v| answer(&v)),
                 Ok((0, users)) if users == expected[p])
    });
    res.check("warm-up answers equal the reference", warm_ok);
    let check = |p: usize, epoch: u64, users: &[String]| -> Result<(), String> {
        if epoch != 0 {
            Err(format!("answer from epoch {epoch} of a static repository"))
        } else if users != expected[p].as_slice() {
            Err(format!("select {} differs from the reference", lines[p]))
        } else {
            Ok(())
        }
    };

    let addr = server.local_addr();
    let cpu0 = cpu_time_us();
    let (tally, elapsed) = select_clients(
        &orders,
        &lines,
        plain_seconds(cfg),
        &|_| tcp_call(addr, None),
        &check,
    );
    let cpu_us = cpu_time_us() - cpu0;
    res.count(&tally);
    let (e2e, op) = e2e_metrics(
        &setup.total_s,
        tally.latency_us.values(),
        cpu_us,
        tally.attempted,
    );
    res.e2e = e2e;
    res.timing("select latency", &op);
    res.detail.extend([
        Metric::new("select_rps", "1/s", tally.ops as f64 / elapsed, tally.ops),
        Metric::new("select_p50_us", "us", op.p50, op.n as u64),
        Metric::new("select_p99_us", "us", op.p99, op.n as u64),
    ]);
    if !cfg.trace {
        return;
    }

    // Traced half: a quarter over TCP with a span around each call, a
    // quarter through the assembled path with a span around each layer.
    let mut stack = Stack::new(repo.clone(), &setup.buckets, WORKERS, None)
        .expect("a volatile stack cannot fail to build");
    for line in &lines {
        let _ = stack.handle(line, 0);
    }
    stack.restart_trace();
    let tracer = &stack.shared.tracer;
    let (tcp_tally, _) = select_clients(
        &orders,
        &lines,
        cfg.seconds / 4.0,
        &|_| tcp_call(addr, Some(tracer)),
        &check,
    );
    res.count(&tcp_tally);
    let (stack_tally, _) = select_clients(
        &orders,
        &lines,
        cfg.seconds / 4.0,
        &|_| Box::new(|line: &str, req: u64| parse(&stack.handle(line, req))),
        &check,
    );
    res.count(&stack_tally);
    let mut traced = tcp_tally.latency_us.values().to_vec();
    let traced = Summary::of(&mut traced);
    let (publishes, patched, invalidated, carried) = stack.publish_counts();
    layer_metrics(
        res,
        cfg,
        LayerInputs {
            shared: &stack.shared,
            setup_bucketing_s: median(&setup.bucketing_s),
            setup_service_s: median(&setup.build_s),
            oracle: &oracle,
            cpu_us_per_op: cpu_us / tally.attempted.max(1) as f64,
            ops_for_cpu: tally.attempted,
            overhead_share: overhead_share(&traced, &op),
            publishes,
            patched,
            invalidated,
            carried,
            epochs: stack.store.epoch() + 1,
            recovery: None,
            update_latency_us: &[],
        },
    );
}

/// What the open-loop writer saw.
#[derive(Debug, Default)]
struct Writes {
    open: OpenLoopTally,
    applied: Vec<bool>,
    last_epoch: u64,
    tally: Tally,
}

/// Sends `lines[i]` at each due time until `stop`, open loop.
fn writer(
    lines: &[String],
    due: &[Duration],
    start: Instant,
    stop: Instant,
    handle: &(dyn Fn(&str, u64) -> String + Sync),
) -> Writes {
    let mut w = Writes {
        applied: vec![false; lines.len()],
        ..Writes::default()
    };
    let (applied, last_epoch, tally) = (&mut w.applied, &mut w.last_epoch, &mut w.tally);
    w.open = run_open_loop(start, due, stop, |i| {
        tally.attempted += 1;
        let acked = parse(&handle(&lines[i], i as u64))
            .map_err(Fail::Error)
            .and_then(|v| {
                ok(&v)?;
                v.get("epoch")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| Fail::Wrong("update ack without an epoch".into()))
            })
            .and_then(|epoch| {
                // Immediate publish: every acked update is its own epoch.
                if epoch == *last_epoch + 1 {
                    Ok(epoch)
                } else {
                    Err(Fail::Wrong(format!(
                        "ack epoch {epoch} after {}",
                        *last_epoch
                    )))
                }
            });
        match acked {
            Ok(epoch) => {
                applied[i] = true;
                *last_epoch = epoch;
                tally.ops += 1;
                true
            }
            Err(f) => {
                tally.fail(f);
                false
            }
        }
    });
    w
}

/// Counts a writer's outcome and reports its generator accounting.
fn report_writes(res: &mut RunResult, w: &Writes) {
    res.count(&w.tally);
    // Updates still unsent when the run ended were due and never served.
    res.attempted += w.open.unsent;
    res.failed += w.open.unsent;
    let mut lateness = w.open.lateness_us.clone();
    let lateness = Summary::of(&mut lateness);
    let mut lat = w.open.latency_us.clone();
    let lat = Summary::of(&mut lat);
    res.timing("update ack latency from due time", &lat);
    res.timing("generator lateness", &lateness);
    res.detail.extend([
        Metric::new("update_p50_us", "us", lat.p50, lat.n as u64),
        Metric::new("update_p99_us", "us", lat.p99, lat.n as u64),
        Metric::new(
            "generator_lateness_p99_us",
            "us",
            lateness.p99,
            lateness.n as u64,
        ),
        Metric::new(
            "generator_lateness_max_us",
            "us",
            lateness.max,
            lateness.n as u64,
        ),
        Metric::new("updates_due", "count", w.open.due as f64, w.open.due),
        Metric::ratio(
            "updates_applied",
            "ratio",
            w.open.applied as f64,
            w.open.due,
            "updates due",
        ),
    ]);
}

/// Compares the eight final selects of `handle` with the oracle's answers
/// on `repo` and checks they come from `epoch`.
fn final_selects_match(
    handle: &dyn Fn(&str) -> String,
    repo: &UserRepository,
    buckets: &PropertyBuckets,
    epoch: u64,
) -> bool {
    let params = read_params();
    let expected = Oracle::new(repo, buckets).answers(repo, &params);
    params.iter().zip(&expected).all(|(p, want)| {
        matches!(parse(&handle(&select_line(p))).map_err(Fail::Error).and_then(|v| answer(&v)),
                 Ok((e, users)) if e == epoch && &users == want)
    })
}

/// One `read-drift` pass: a closed-loop select client and the open-loop
/// writer against `handle`.
fn drift_pass(
    handle: &(dyn Fn(&str, u64) -> String + Sync),
    newest: &(dyn Fn() -> u64 + Sync),
    order: &[usize],
    lines: &[String],
    updates: &crate::script::UpdateScript,
    seconds: f64,
) -> (Tally, Writes, f64) {
    let params = read_params();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let (reads, writes) = std::thread::scope(|s| {
        let reads = s.spawn(|| {
            let mut tally = Tally::default();
            let mut last_epoch = 0;
            let due = due_times(DRIFT_READ_HZ, seconds);
            let paced = run_open_loop(start, &due, stop, |i| {
                let p = order[i % order.len()];
                tally.attempted += 1;
                let checked = parse(&handle(&lines[p], client_base(0) + i as u64))
                    .map_err(Fail::Error)
                    .and_then(|v| answer(&v))
                    .and_then(|(epoch, users)| {
                        if epoch < last_epoch {
                            Err(Fail::Wrong(format!(
                                "epoch went back from {last_epoch} to {epoch}"
                            )))
                        } else if users.len() != params[p].budget {
                            Err(Fail::Wrong(format!(
                                "{} users for budget {}",
                                users.len(),
                                params[p].budget
                            )))
                        } else {
                            Ok(epoch)
                        }
                    });
                match checked {
                    Ok(epoch) => {
                        tally.staleness.push(newest().saturating_sub(epoch) as f64);
                        last_epoch = epoch;
                        true
                    }
                    Err(f) => {
                        tally.fail(f);
                        false
                    }
                }
            });
            for us in paced.service_us() {
                tally.latency_us.push(us);
            }
            tally.ops = paced.applied;
            // Reads still unsent at the end were due and never served.
            tally.attempted += paced.unsent;
            tally.errors += paced.unsent;
            tally
        });
        let writes = writer(&updates.lines, &updates.due, start, stop, handle);
        (reads.join().expect("select client panicked"), writes)
    });
    (reads, writes, start.elapsed().as_secs_f64())
}

fn read_drift(cfg: &RunConfig, res: &mut RunResult) {
    let repo = synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, INSTANCE_SEED);
    let params = read_params();
    let lines: Vec<String> = params.iter().map(select_line).collect();
    let order = select_order(cfg.seed, 0, params.len(), ORDER_CYCLES);
    let updates = update_script(cfg.seed, USERS, PROPERTIES, DRIFT_HZ, cfg.seconds);
    let setup = timed_setup(&repo, |copy, buckets, _| {
        PodiumService::new(copy, buckets, service_config())
    });
    let service = &setup.kept;
    let oracle = Oracle::new(&repo, &setup.buckets);

    let cpu0 = cpu_time_us();
    let (reads, writes, elapsed) = drift_pass(
        &|line, _| service.handle_line(line),
        &|| service.store().epoch(),
        &order,
        &lines,
        &updates,
        plain_seconds(cfg),
    );
    let cpu_us = cpu_time_us() - cpu0;
    res.count(&reads);
    let (e2e, op) = e2e_metrics(
        &setup.total_s,
        reads.latency_us.values(),
        cpu_us,
        reads.attempted + writes.tally.attempted,
    );
    res.e2e = e2e;
    res.timing("select latency", &op);
    let staleness_mean = reads.staleness.iter().sum::<f64>() / reads.staleness.len().max(1) as f64;
    res.detail.extend([
        Metric::new("select_rps", "1/s", reads.ops as f64 / elapsed, reads.ops),
        Metric::new("select_p50_us", "us", op.p50, op.n as u64),
        Metric::new("select_p99_us", "us", op.p99, op.n as u64),
        Metric::new(
            "select_staleness_mean",
            "epochs",
            staleness_mean,
            reads.staleness.len() as u64,
        ),
    ]);
    report_writes(res, &writes);
    let replayed = replay(&repo, &updates.updates, &writes.applied);
    let matches = final_selects_match(
        &|line| service.handle_line(line),
        &replayed,
        &setup.buckets,
        writes.last_epoch,
    );
    res.check(
        "final selects equal the reference on the replayed script",
        matches,
    );
    if !cfg.trace {
        return;
    }

    let stack = Stack::new(repo.clone(), &setup.buckets, WORKERS, None)
        .expect("a volatile stack cannot fail to build");
    let (t_reads, t_writes, _) = drift_pass(
        &|line, req| stack.handle(line, req),
        &|| stack.store.epoch(),
        &order,
        &lines,
        &updates,
        cfg.seconds / 2.0,
    );
    res.count(&t_reads);
    res.count(&t_writes.tally);
    let replayed = replay(&repo, &updates.updates, &t_writes.applied);
    let matches = final_selects_match(
        &|line| stack.handle(line, 0),
        &replayed,
        &setup.buckets,
        t_writes.last_epoch,
    );
    res.check("traced final selects equal the reference", matches);
    let mut traced = t_reads.latency_us.values().to_vec();
    let traced = Summary::of(&mut traced);
    let (publishes, patched, invalidated, carried) = stack.publish_counts();
    layer_metrics(
        res,
        cfg,
        LayerInputs {
            shared: &stack.shared,
            setup_bucketing_s: median(&setup.bucketing_s),
            setup_service_s: median(&setup.build_s),
            oracle: &oracle,
            cpu_us_per_op: cpu_us / (reads.attempted + writes.tally.attempted).max(1) as f64,
            ops_for_cpu: reads.attempted + writes.tally.attempted,
            overhead_share: overhead_share(&traced, &op),
            publishes,
            patched,
            invalidated,
            carried,
            epochs: stack.store.epoch() + 1,
            recovery: None,
            update_latency_us: &t_writes.open.latency_us,
        },
    );
}

/// Durability options of the benchmark: fsync on every append, the
/// default checkpoint interval.
fn durable_opts(dir: &Path) -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Always,
        ..DurabilityOptions::new(dir)
    }
}

fn write_durable(cfg: &RunConfig, res: &mut RunResult) {
    let repo = synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, INSTANCE_SEED);
    let updates = update_script(cfg.seed, USERS, PROPERTIES, DURABLE_HZ, cfg.seconds);
    let base = cfg
        .out_dir
        .join(format!("data-{}-{}", cfg.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir_of = |rep: usize| base.join(format!("setup-{rep}"));
    let setup = timed_setup(&repo, |copy, buckets, rep| {
        PodiumService::with_durability(copy, buckets, service_config(), durable_opts(&dir_of(rep)))
            .expect("a fresh data directory opens")
            .0
    });
    let dir = dir_of(setup.total_s.len() - 1);
    let oracle = Oracle::new(&repo, &setup.buckets);
    let buckets = setup.buckets.clone();

    let cpu0 = cpu_time_us();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(plain_seconds(cfg));
    let service = &setup.kept;
    let writes = writer(&updates.lines, &updates.due, start, stop, &|line, _| {
        service.handle_line(line)
    });
    let cpu_us = cpu_time_us() - cpu0;
    let data_dir_mb = dir_bytes(&dir) as f64 / (1024.0 * 1024.0);
    let setup_s = (
        setup.total_s.clone(),
        setup.bucketing_s.clone(),
        setup.build_s.clone(),
    );
    drop(setup);

    report_writes(res, &writes);
    let (e2e, op) = e2e_metrics(
        &setup_s.0,
        &writes.open.service_us(),
        cpu_us,
        writes.tally.attempted,
    );
    res.e2e = e2e;
    res.timing("update latency from send", &op);
    res.detail
        .push(Metric::new("data_dir_mb", "MB", data_dir_mb, 1));

    // Cold recoveries of the run's data directory.
    let mut recovery_s = Vec::new();
    let mut recovered = None;
    let mut epochs_ok = true;
    for _ in 0..RECOVERY_REPS {
        let genesis = repo.clone();
        let t0 = Instant::now();
        let (svc, report) =
            PodiumService::with_durability(genesis, &buckets, service_config(), durable_opts(&dir))
                .expect("the run's data directory recovers");
        recovery_s.push(t0.elapsed().as_secs_f64());
        epochs_ok &= report.recovered_epoch == writes.last_epoch;
        drop(recovered.replace(svc));
    }
    res.check("recovery lands on the last acked epoch", epochs_ok);
    let replayed = replay(&repo, &updates.updates, &writes.applied);
    let svc = recovered.expect("at least one recovery");
    let matches = final_selects_match(
        &|line| svc.handle_line(line),
        &replayed,
        &buckets,
        writes.last_epoch,
    );
    drop(svc);
    res.check(
        "recovered selects equal the reference on the replayed script",
        matches,
    );
    res.detail.push(Metric::new(
        "recovery_s",
        "s",
        median(&recovery_s),
        RECOVERY_REPS as u64,
    ));
    if cfg.trace {
        let trace_dir = base.join("traced");
        let stack = Stack::new(
            repo.clone(),
            &buckets,
            WORKERS,
            Some(&durable_opts(&trace_dir)),
        )
        .expect("a fresh data directory opens");
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(cfg.seconds / 2.0);
        let t_writes = writer(&updates.lines, &updates.due, start, stop, &|line, req| {
            stack.handle(line, req)
        });
        res.count(&t_writes.tally);
        let (publishes, patched, invalidated, carried) = stack.publish_counts();
        let shared = Arc::clone(&stack.shared);
        drop(stack);
        let tracer = &shared.tracer;
        let span = tracer.open("recovery.recover", u64::MAX, None);
        let t0 = Instant::now();
        let recovered =
            recovery::recover(&trace_dir, repo.clone(), &buckets, PublishMode::Incremental)
                .expect("the traced run's data directory recovers");
        let recover_s = t0.elapsed().as_secs_f64();
        tracer.close(span);
        let report = recovered.2;
        res.check(
            "traced recovery lands on the last acked epoch",
            report.recovered_epoch == t_writes.last_epoch,
        );
        let traced = Summary::of(&mut t_writes.open.service_us());
        layer_metrics(
            res,
            cfg,
            LayerInputs {
                shared: &shared,
                setup_bucketing_s: median(&setup_s.1),
                setup_service_s: median(&setup_s.2),
                oracle: &oracle,
                cpu_us_per_op: cpu_us / writes.tally.attempted.max(1) as f64,
                ops_for_cpu: writes.tally.attempted,
                overhead_share: overhead_share(&traced, &op),
                publishes,
                patched,
                invalidated,
                carried,
                epochs: t_writes.last_epoch + 1,
                recovery: Some((recover_s, report.replayed_frames)),
                update_latency_us: &t_writes.open.latency_us,
            },
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// One `session-refine` client: runs scripted sessions back to back until
/// `stop`. Refine latency is the primary operation.
fn session_client(
    scripts: &[SessionScript],
    stop: Instant,
    req_base: u64,
    handle: &(dyn Fn(&str, u64) -> String + Sync),
    users: &HashMap<String, UserId>,
    groups: &GroupSet,
) -> Tally {
    let open_line = encode_request(&Request::OpenSession);
    let close = Template::close();
    let mut t = Tally::default();
    let mut req = req_base;
    let mut send = |t: &mut Tally, line: &str| -> Result<Value, Fail> {
        t.attempted += 1;
        req += 1;
        parse(&handle(line, req)).map_err(Fail::Error)
    };
    let resolve = |names: &[String]| -> Option<Vec<UserId>> {
        names.iter().map(|n| users.get(n).copied()).collect()
    };
    let mut k = 0usize;
    while Instant::now() < stop {
        let s = &scripts[k % scripts.len()];
        k += 1;
        let id = match send(&mut t, &open_line).and_then(|v| {
            ok(&v)?;
            v.get("session")
                .and_then(Value::as_u64)
                .ok_or_else(|| Fail::Wrong("open-session without an id".into()))
        }) {
            Ok(id) => id,
            Err(f) => {
                t.fail(f);
                continue;
            }
        };
        let mut clean = true;
        let selected = send(&mut t, &s.select.with(id)).and_then(|v| answer(&v));
        let verdict = selected.and_then(|(_, names)| {
            let ids = resolve(&names).ok_or_else(|| Fail::Wrong("unknown user".into()))?;
            let mut counts = vec![0u32; groups.len()];
            for u in &ids {
                for g in groups.groups_of(*u) {
                    counts[g.index()] += 1;
                }
            }
            if ids.len() != SESSION_BUDGET {
                Err(Fail::Wrong(format!(
                    "{} users for budget {SESSION_BUDGET}",
                    ids.len()
                )))
            } else if !s.quotas.satisfied_by(&counts) {
                Err(Fail::Wrong("constrained answer breaks its quotas".into()))
            } else {
                Ok(())
            }
        });
        if let Err(f) = verdict {
            t.fail(f);
            clean = false;
        }
        for j in 0..REFINES {
            let started = Instant::now();
            let resp = send(&mut t, &s.refines[j].with(id));
            let us = started.elapsed().as_secs_f64() * 1e6;
            let verdict = resp.and_then(|v| answer(&v)).and_then(|(_, names)| {
                let ids = resolve(&names).ok_or_else(|| Fail::Wrong("unknown user".into()))?;
                if ids.iter().all(|u| s.pools[j][u.index()]) {
                    Ok(())
                } else {
                    Err(Fail::Wrong("refine answer outside the refined pool".into()))
                }
            });
            match verdict {
                Ok(()) => {
                    t.record(us);
                }
                Err(f) => {
                    t.fail(f);
                    clean = false;
                }
            }
        }
        match send(&mut t, &close.with(id)).and_then(|v| ok(&v)) {
            Ok(()) if clean => t.sessions += 1,
            Ok(()) => {}
            Err(f) => t.fail(f),
        }
    }
    t
}

/// Runs one session client per script list in parallel for `seconds`.
fn session_pass(
    handle: &(dyn Fn(&str, u64) -> String + Sync),
    scripts: &[Vec<SessionScript>],
    users: &HashMap<String, UserId>,
    groups: &GroupSet,
    seconds: f64,
) -> (Tally, f64) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, list)| {
                s.spawn(move || session_client(list, stop, client_base(c), handle, users, groups))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("session client panicked"));
        }
    });
    (total, start.elapsed().as_secs_f64())
}

fn session_refine(cfg: &RunConfig, res: &mut RunResult) {
    let repo = podium_data::synth::tripadvisor(1.0, INSTANCE_SEED)
        .generate()
        .repo;
    let setup = timed_setup(&repo, |copy, buckets, _| {
        PodiumService::new(copy, buckets, service_config())
    });
    let service = &setup.kept;
    let oracle = Oracle::new(&repo, &setup.buckets);
    // Answers are checked against the oracle's group ids, so they must be
    // the served epoch's.
    let same_groups = {
        let snapshot = service.store().load();
        snapshot.groups().len() == oracle.groups.len()
            && snapshot
                .groups()
                .iter()
                .zip(oracle.groups.iter())
                .all(|((_, a), (_, b))| a == b)
    };
    res.check("served groups equal GroupSet::build", same_groups);
    let drawn = Instant::now();
    let scripts: Vec<Vec<SessionScript>> = (0..CLIENTS)
        .map(|c| {
            session_scripts(
                cfg.seed,
                c as u64,
                SESSIONS_PER_CLIENT,
                &oracle.groups,
                &oracle.csr,
            )
        })
        .collect();
    res.notes.push(format!(
        "{} session scripts drawn in {:.2} s (untimed)",
        CLIENTS * SESSIONS_PER_CLIENT,
        drawn.elapsed().as_secs_f64()
    ));
    let users = user_index(&repo);

    let cpu0 = cpu_time_us();
    let (tally, elapsed) = session_pass(
        &|line, _| service.handle_line(line),
        &scripts,
        &users,
        &oracle.groups,
        plain_seconds(cfg),
    );
    let cpu_us = cpu_time_us() - cpu0;
    res.count(&tally);
    let (e2e, op) = e2e_metrics(
        &setup.total_s,
        tally.latency_us.values(),
        cpu_us,
        tally.attempted,
    );
    res.e2e = e2e;
    res.timing("refine latency", &op);
    res.detail.extend([
        Metric::new("refine_p50_us", "us", op.p50, op.n as u64),
        Metric::new("refine_p99_us", "us", op.p99, op.n as u64),
        Metric::new(
            "session_rps",
            "1/s",
            tally.sessions as f64 / elapsed,
            tally.sessions,
        ),
    ]);
    if !cfg.trace {
        return;
    }

    let stack = Stack::new(repo.clone(), &setup.buckets, WORKERS, None)
        .expect("a volatile stack cannot fail to build");
    let (t_tally, _) = session_pass(
        &|line, req| stack.handle(line, req),
        &scripts,
        &users,
        &oracle.groups,
        cfg.seconds / 2.0,
    );
    res.count(&t_tally);
    let mut traced = t_tally.latency_us.values().to_vec();
    let traced = Summary::of(&mut traced);
    let (publishes, patched, invalidated, carried) = stack.publish_counts();
    layer_metrics(
        res,
        cfg,
        LayerInputs {
            shared: &stack.shared,
            setup_bucketing_s: median(&setup.bucketing_s),
            setup_service_s: median(&setup.build_s),
            oracle: &oracle,
            cpu_us_per_op: cpu_us / tally.attempted.max(1) as f64,
            ops_for_cpu: tally.attempted,
            overhead_share: overhead_share(&traced, &op),
            publishes,
            patched,
            invalidated,
            carried,
            epochs: stack.store.epoch() + 1,
            recovery: None,
            update_latency_us: &[],
        },
    );
}
