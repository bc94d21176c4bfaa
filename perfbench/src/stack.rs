//! The traced service path: the same request handling `PodiumService`
//! performs, assembled from the serving crate's public pieces
//! (`SnapshotStore`/`RepositoryWriter`, `QueryExecutor`, `WalWriter`,
//! `SessionManager`, `parse_request`/`ok_response`) with a span around each
//! call into a layer. Spans are recorded by the benchmark only; the
//! program's own code is unchanged.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use podium_core::bucket::PropertyBuckets;
use podium_core::engine::{anneal_refine, constrained_lazy_select, lazy_select_csr, QuotaSet};
use podium_core::instance::DiversificationInstance;
use podium_core::profile::UserRepository;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_service::executor::{ExecutorConfig, QueryExecutor};
use podium_service::protocol::{
    error_response, num_f64, num_u64, ok_response, parse_request, string, string_array, Request,
};
use podium_service::recovery::{self, DurabilityOptions};
use podium_service::session::SessionManager;
use podium_service::snapshot::{
    PublishMode, RepositoryWriter, SelectConstraints, SelectOutcome, SelectParams, Snapshot,
    SnapshotStore,
};
use podium_service::wal::WalWriter;
use podium_service::ServiceError;
use serde_json::Value;

use crate::trace::Tracer;

/// Replay the engine kernel on one in this many memo misses (and one in
/// this many constrained selects).
pub const KERNEL_SAMPLE_EVERY: u64 = 4;

/// The WAL and checkpoint state the service keeps under its durability
/// handle.
#[derive(Debug)]
struct Durable {
    wal: WalWriter,
    dir: PathBuf,
    checkpoint_every: u64,
    frames_since_checkpoint: u64,
}

/// Counts recorded at the layer boundaries, beside the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Unpinned selects answered.
    pub selects: AtomicU64,
    /// Of which served from the epoch memo.
    pub memo_hits: AtomicU64,
    /// Memo misses that repeated an earlier miss on the same epoch and params.
    pub dup_misses: AtomicU64,
    /// Largest executor queue depth seen at submit.
    pub queue_depth_max: AtomicU64,
    /// Requests the executor refused.
    pub rejected: AtomicU64,
    /// Response lines encoded, and their summed length.
    pub responses: AtomicU64,
    /// Summed response bytes.
    pub response_bytes: AtomicU64,
    /// Kernel replays skipped because a newer epoch was already published.
    pub replays_skipped: AtomicU64,
    /// Refines answered, and their summed pool size.
    pub refines: AtomicU64,
    /// Summed refine pool size.
    pub pool_size_sum: AtomicU64,
    /// WAL bytes appended by this run.
    pub wal_bytes: AtomicU64,
    /// Updates acknowledged.
    pub updates: AtomicU64,
}

/// Shared between the request thread and executor workers.
#[derive(Debug, Default)]
pub struct Shared {
    /// Spans of the run.
    pub tracer: Tracer,
    /// Counts of the run.
    pub counts: Counts,
    /// `(select miss ns, kernel replay ns, budget)` per sampled miss.
    pub kernel_pairs: Mutex<Vec<(u64, u64, usize)>>,
    /// `(epoch, params)` pairs that have missed, for the duplicate count.
    missed: Mutex<HashSet<(u64, ParamsKey)>>,
    /// Request ids of updates that wrote a checkpoint.
    pub checkpoint_reqs: Mutex<Vec<u64>>,
}

/// The assembled, traced serving path.
#[derive(Debug)]
pub struct Stack {
    /// Published snapshots.
    pub store: Arc<SnapshotStore>,
    writer: Mutex<RepositoryWriter>,
    executor: QueryExecutor,
    sessions: SessionManager,
    durable: Option<Mutex<Durable>>,
    default_deadline: Duration,
    /// Spans and counts.
    pub shared: Arc<Shared>,
}

impl Stack {
    /// Builds the path the way `PodiumService::new` does (and, with
    /// `durability`, the way `PodiumService::with_durability` does on an
    /// empty data directory).
    pub fn new(
        repo: UserRepository,
        buckets: &PropertyBuckets,
        workers: usize,
        durability: Option<&DurabilityOptions>,
    ) -> Result<Stack, ServiceError> {
        let (store, writer, durable) = match durability {
            None => {
                let (store, writer) =
                    RepositoryWriter::with_mode(repo, buckets, PublishMode::Incremental);
                (store, writer, None)
            }
            Some(opts) => {
                let (store, writer, report) =
                    recovery::recover(&opts.data_dir, repo, buckets, PublishMode::Incremental)?;
                let wal = WalWriter::open(
                    &opts.data_dir,
                    opts.fsync,
                    report.next_seq,
                    report.wal_bytes,
                )?;
                let durable = Durable {
                    wal,
                    dir: opts.data_dir.clone(),
                    checkpoint_every: opts.checkpoint_every,
                    frames_since_checkpoint: 0,
                };
                (store, writer, Some(Mutex::new(durable)))
            }
        };
        let config = ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        };
        Ok(Stack {
            executor: QueryExecutor::new(Arc::clone(&store), config),
            default_deadline: config.default_deadline,
            store,
            writer: Mutex::new(writer),
            sessions: SessionManager::new(),
            durable,
            shared: Arc::new(Shared::default()),
        })
    }

    /// Drops the spans and counts recorded so far (e.g. by a warm-up).
    /// Call only while no request is in flight.
    pub fn restart_trace(&mut self) {
        self.shared = Arc::new(Shared::default());
    }

    /// `(publishes, patched publishes, memos invalidated, memos carried)`.
    pub fn publish_counts(&self) -> (u64, u64, u64, u64) {
        let w = self.writer.lock().expect("writer lock");
        let s = w.publish_stats();
        (
            s.publishes,
            s.patched_publishes,
            s.memos_invalidated,
            s.memos_carried,
        )
    }

    /// Handles one request line as `PodiumService::handle_line` would,
    /// tracing each layer call under request id `req`.
    pub fn handle(&self, line: &str, req: u64) -> String {
        let tr = &self.shared.tracer;
        let root = tr.open("bench.request", req, None);
        let parse = tr.open("protocol.parse", req, Some(root.id()));
        let parsed = parse_request(line);
        tr.close(parse);
        let fields = parsed.and_then(|r| self.dispatch(r, req, root.id()));
        let encode = tr.open("protocol.encode", req, Some(root.id()));
        let out = match fields {
            Ok(fields) => ok_response(fields),
            Err(e) => error_response(&e),
        };
        tr.close(encode);
        tr.close(root);
        let counts = &self.shared.counts;
        counts.responses.fetch_add(1, Ordering::Relaxed);
        counts
            .response_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn dispatch(
        &self,
        request: Request,
        req: u64,
        root: u32,
    ) -> Result<Vec<(&'static str, Value)>, ServiceError> {
        match request {
            Request::Select {
                params,
                constraints,
                session: Some(id),
                ..
            } => self.pinned_select(id, params, constraints, req, root),
            Request::Select {
                params,
                constraints: None,
                session: None,
                deadline_ms,
                stale_ok,
            } => self.select(params, deadline_ms, stale_ok, req, root),
            Request::OpenSession => {
                let span = self.shared.tracer.open("session.open", req, Some(root));
                let (id, epoch) = self.sessions.open(&self.store);
                self.shared.tracer.close(span);
                Ok(vec![("session", num_u64(id)), ("epoch", num_u64(epoch))])
            }
            Request::CloseSession { session } => {
                let span = self.shared.tracer.open("session.close", req, Some(root));
                let closed = self.sessions.close(session);
                self.shared.tracer.close(span);
                closed?;
                Ok(vec![("closed", num_u64(session))])
            }
            Request::Refine {
                session,
                delta,
                params,
            } => {
                let tr = &self.shared.tracer;
                let called = tr.now();
                let counts = &self.shared.counts;
                self.sessions.with_session(session, |s| {
                    let entered = tr.now();
                    tr.push(
                        tr.open_at("session.lock_wait", req, Some(root), called)
                            .ended(entered),
                    );
                    let span = tr.open("session.refine", req, Some(root));
                    let custom = s.refine(&delta, params.weight, params.cov, params.budget);
                    tr.close(span);
                    let custom = custom?;
                    counts.refines.fetch_add(1, Ordering::Relaxed);
                    counts
                        .pool_size_sum
                        .fetch_add(custom.pool_size as u64, Ordering::Relaxed);
                    Ok(vec![
                        ("epoch", num_u64(s.snapshot().epoch())),
                        ("session", num_u64(session)),
                        (
                            "users",
                            string_array(&s.snapshot().user_names(custom.users())),
                        ),
                        ("priority_score", num_f64(custom.priority_score())),
                        ("standard_score", num_f64(custom.standard_score())),
                        ("pool_size", num_u64(custom.pool_size as u64)),
                        (
                            "feedback_group_coverage",
                            num_f64(custom.feedback_group_coverage),
                        ),
                    ])
                })
            }
            Request::UpdateProfile { update } => self.update(update, req, root),
            _ => Err(ServiceError::BadRequest(
                "the traced path serves only the benchmark's request kinds".into(),
            )),
        }
    }

    fn select(
        &self,
        params: SelectParams,
        deadline_ms: Option<u64>,
        stale_ok: bool,
        req: u64,
        root: u32,
    ) -> Result<Vec<(&'static str, Value)>, ServiceError> {
        let started = Instant::now();
        let shared = &self.shared;
        let tr = &shared.tracer;
        let counts = &shared.counts;
        let deadline =
            Instant::now() + deadline_ms.map_or(self.default_deadline, Duration::from_millis);
        let depth = self.executor.queue_depth() as u64;
        counts.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        let run = tr.open("executor.run", req, Some(root));
        let (tx, rx) = mpsc::channel();
        let job_shared = Arc::clone(shared);
        let store = Arc::clone(&self.store);
        let submitted = tr.now();
        let run_id = run.id();
        // `QueryExecutor::run` is `submit` plus this channel; submitting
        // directly lets the kernel replay start after the answer is
        // handed back, so it never delays the request being traced.
        let accepted = self.executor.submit(move |snapshot: Arc<Snapshot>| {
            let tr = &job_shared.tracer;
            let began = tr.now();
            tr.push(
                tr.open_at("executor.queue_wait", req, Some(run_id), submitted)
                    .ended(began),
            );
            let span = tr.open("snapshot.select", req, Some(run_id));
            let outcome = snapshot.select_with(&params, Some(deadline), stale_ok);
            let miss_ns = tr.now().saturating_sub(began);
            tr.close(span);
            let miss = matches!(&outcome, Ok(o) if !o.cache_hit);
            let _ = tx.send(outcome);
            if miss {
                replay_kernel(&job_shared, &store, &snapshot, &params, req, miss_ns);
            }
        });
        if let Err(e) = accepted {
            tr.close(run);
            if matches!(e, ServiceError::Overloaded) {
                counts.rejected.fetch_add(1, Ordering::Relaxed);
            }
            return Err(e);
        }
        let outcome: Result<SelectOutcome, ServiceError> = rx
            .recv()
            .map_err(|_| ServiceError::BadRequest("worker dropped the response channel".into()))?;
        tr.close(run);
        let outcome = outcome?;
        counts.selects.fetch_add(1, Ordering::Relaxed);
        if outcome.cache_hit {
            counts.memo_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            let key = (outcome.epoch, params_key(&params));
            let fresh = shared.missed.lock().expect("miss set lock").insert(key);
            if !fresh {
                counts.dup_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(vec![
            ("epoch", num_u64(outcome.epoch)),
            ("users", string_array(&outcome.names)),
            ("score", num_f64(outcome.selection.score)),
            ("elapsed_us", num_u64(started.elapsed().as_micros() as u64)),
        ])
    }

    fn pinned_select(
        &self,
        session: u64,
        params: SelectParams,
        constraints: Option<SelectConstraints>,
        req: u64,
        root: u32,
    ) -> Result<Vec<(&'static str, Value)>, ServiceError> {
        let started = Instant::now();
        let tr = &self.shared.tracer;
        let deadline = Instant::now() + self.default_deadline;
        let called = tr.now();
        let outcome = self.sessions.with_session(session, |s| {
            let entered = tr.now();
            tr.push(
                tr.open_at("session.lock_wait", req, Some(root), called)
                    .ended(entered),
            );
            let span = tr.open("snapshot.pinned_select", req, Some(root));
            let out = match &constraints {
                Some(c) => s
                    .snapshot()
                    .select_constrained(&params, c, Some(deadline), false),
                None => s.snapshot().select(&params, Some(deadline)),
            };
            tr.close(span);
            out
        })?;
        if let Some(c) = &constraints {
            if req.is_multiple_of(KERNEL_SAMPLE_EVERY) {
                self.replay_constrained(&params, c, req)?;
            }
        }
        Ok(vec![
            ("epoch", num_u64(outcome.epoch)),
            ("users", string_array(&outcome.names)),
            ("score", num_f64(outcome.selection.score)),
            ("elapsed_us", num_u64(started.elapsed().as_micros() as u64)),
        ])
    }

    /// Times the constrained greedy and the anneal pass of a pinned select
    /// on their own, against the current (static) snapshot.
    fn replay_constrained(
        &self,
        params: &SelectParams,
        c: &SelectConstraints,
        req: u64,
    ) -> Result<(), ServiceError> {
        let tr = &self.shared.tracer;
        let snapshot = self.store.load();
        let quotas = QuotaSet::build(c.quotas.clone(), snapshot.groups().len(), params.budget)
            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let weights = params.weight.weights(snapshot.groups());
        let covs = params.cov.cov(snapshot.groups(), params.budget);
        let inst = DiversificationInstance::new(snapshot.groups(), weights, covs);
        let span = tr.open("engine.constrained", req, None);
        let greedy = constrained_lazy_select(&inst, snapshot.csr(), params.budget, &quotas);
        tr.close(span);
        let greedy = greedy.map_err(|e| ServiceError::Infeasible {
            group: e.group,
            reason: e.reason,
        })?;
        if let Some(schedule) = &c.anneal {
            let span = tr.open("engine.anneal", req, None);
            std::hint::black_box(anneal_refine(
                &inst,
                snapshot.csr(),
                &quotas,
                &greedy,
                schedule,
            ));
            tr.close(span);
        }
        Ok(())
    }

    fn update(
        &self,
        update: podium_service::ProfileUpdate,
        req: u64,
        root: u32,
    ) -> Result<Vec<(&'static str, Value)>, ServiceError> {
        let tr = &self.shared.tracer;
        let mut writer = self.writer.lock().expect("writer lock");
        if let Some(durable) = &self.durable {
            let span = tr.open("snapshot.validate", req, Some(root));
            let valid = writer.validate(&update);
            tr.close(span);
            valid?;
            let mut d = durable.lock().expect("durability lock");
            let before = d.wal.bytes_written();
            let span = tr.open("wal.append", req, Some(root));
            let appended = d
                .wal
                .append(writer.epoch().saturating_add(1), vec![update.clone()]);
            tr.close(span);
            appended?;
            d.frames_since_checkpoint += 1;
            let written = d.wal.bytes_written().saturating_sub(before);
            self.shared
                .counts
                .wal_bytes
                .fetch_add(written, Ordering::Relaxed);
        }
        let span = tr.open("snapshot.apply", req, Some(root));
        let outcome = writer.apply(&update);
        tr.close(span);
        let outcome = outcome?;
        let span = tr.open("snapshot.publish", req, Some(root));
        let epoch = writer.publish();
        tr.close(span);
        if let Some(durable) = &self.durable {
            let mut d = durable.lock().expect("durability lock");
            if d.checkpoint_every > 0 && d.frames_since_checkpoint >= d.checkpoint_every {
                let span = tr.open("recovery.checkpoint", req, Some(root));
                d.wal.sync()?;
                let profiles = podium_data::json::profiles_to_json(writer.repo())
                    .map_err(|e| ServiceError::Durability(format!("serialize checkpoint: {e}")))?;
                let seq = d.wal.next_seq().saturating_sub(1);
                recovery::write_checkpoint(&d.dir, seq, writer.epoch(), &profiles)?;
                d.frames_since_checkpoint = 0;
                tr.close(span);
                self.shared
                    .checkpoint_reqs
                    .lock()
                    .expect("checkpoint list lock")
                    .push(req);
            }
        }
        self.shared.counts.updates.fetch_add(1, Ordering::Relaxed);
        Ok(vec![
            ("epoch", num_u64(epoch)),
            ("user", string(update.user)),
            ("created_user", Value::Bool(outcome.created_user)),
            ("regrouped", Value::Bool(outcome.regrouped)),
        ])
    }
}

/// The epoch-free part of a select memo key: budget, Identical weights,
/// Proportional coverage, quota hash.
type ParamsKey = (usize, bool, bool, u64);

/// The memo key of `p`, without its epoch.
fn params_key(p: &SelectParams) -> ParamsKey {
    (
        p.budget,
        matches!(p.weight, WeightScheme::Identical),
        matches!(p.cov, CovScheme::Proportional),
        p.quota_hash,
    )
}

/// Re-runs the CELF kernel (`engine::lazy_select_csr`) of a sampled miss on
/// the served epoch's CSR, after its answer was handed back. Skipped when a
/// newer epoch is already published, so the replay never keeps a snapshot
/// alive past its epoch.
fn replay_kernel(
    shared: &Shared,
    store: &SnapshotStore,
    snapshot: &Snapshot,
    params: &SelectParams,
    req: u64,
    miss_ns: u64,
) {
    if !req.is_multiple_of(KERNEL_SAMPLE_EVERY) {
        return;
    }
    if store.epoch() != snapshot.epoch() {
        shared
            .counts
            .replays_skipped
            .fetch_add(1, Ordering::Relaxed);
        return;
    }
    let tr = &shared.tracer;
    let weights = params.weight.weights(snapshot.groups());
    let covs = params.cov.cov(snapshot.groups(), params.budget);
    let inst = DiversificationInstance::new(snapshot.groups(), weights, covs);
    let span = tr.open("engine.celf", req, None);
    let started = tr.now();
    std::hint::black_box(lazy_select_csr(&inst, snapshot.csr(), params.budget, None));
    let kernel_ns = tr.now().saturating_sub(started);
    tr.close(span);
    shared
        .kernel_pairs
        .lock()
        .expect("kernel sample lock")
        .push((miss_ns, kernel_ns, params.budget));
}
