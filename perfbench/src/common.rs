//! Pieces every workload shares: set-up timing, the correctness oracle,
//! response checks, and the closed-loop select client.

use std::collections::HashMap;
use std::time::Instant;

use podium_core::bucket::{BucketingConfig, PropertyBuckets};
use podium_core::engine::{lazy_select_csr, CsrGraph};
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::profile::UserRepository;
use podium_service::snapshot::{ProfileUpdate, SelectParams};
use podium_service::ServiceConfig;
use serde_json::Value;

use crate::stats::Reservoir;

/// Executor workers of every workload's service.
pub const WORKERS: usize = 2;

/// Latency samples each client keeps.
pub const SAMPLE_CAP: usize = 50_000;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Cheap set-ups repeat until they have taken this long in all (at most
/// [`SETUP_REPS_MAX`] times), so a median of milliseconds rests on more
/// samples.
const SETUP_BUDGET_S: f64 = 0.5;

/// Most set-ups per run.
const SETUP_REPS_MAX: usize = 40;

/// The service configuration every workload runs: 2 workers, `Immediate`
/// publish, `Incremental` publish mode (the defaults for the latter two).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

/// Median of a small sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    crate::stats::percentile(&v, 50.0)
}

/// Timed set-ups; the last one is kept.
#[derive(Debug)]
pub struct Setup<S> {
    /// The kept set-up.
    pub kept: S,
    /// Its bucket fit.
    pub buckets: PropertyBuckets,
    /// Bucketing plus `build`, per repetition, s.
    pub total_s: Vec<f64>,
    /// Bucketing alone, per repetition, s.
    pub bucketing_s: Vec<f64>,
    /// `build` alone, per repetition, s.
    pub build_s: Vec<f64>,
}

/// Times at least [`SETUP_REPS`] set-ups: fit the paper-default buckets on
/// a copy of `repo` (the copy is made before the clock starts), then
/// `build(copy, buckets, rep)`. Earlier set-ups are dropped once the next
/// one is timed.
pub fn timed_setup<S>(
    repo: &UserRepository,
    mut build: impl FnMut(UserRepository, &PropertyBuckets, usize) -> S,
) -> Setup<S> {
    let mut total_s = Vec::new();
    let mut bucketing_s = Vec::new();
    let mut build_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS_MAX {
        if rep >= SETUP_REPS && total_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        let copy = repo.clone();
        let t0 = Instant::now();
        let buckets = BucketingConfig::paper_default().bucketize(&copy);
        let t1 = Instant::now();
        let built = build(copy, &buckets, rep);
        let t2 = Instant::now();
        total_s.push((t2 - t0).as_secs_f64());
        bucketing_s.push((t1 - t0).as_secs_f64());
        build_s.push((t2 - t1).as_secs_f64());
        drop(kept.replace((built, buckets)));
    }
    let (kept, buckets) = kept.expect("at least one set-up");
    Setup {
        kept,
        buckets,
        total_s,
        bucketing_s,
        build_s,
    }
}

/// The oracle's structures for one repository state, with their build
/// times.
#[derive(Debug)]
pub struct Oracle {
    /// `GroupSet::build` of the state.
    pub groups: GroupSet,
    /// `CsrGraph::from_group_set` of those groups.
    pub csr: CsrGraph,
    /// Seconds `GroupSet::build` took.
    pub groups_s: f64,
    /// Seconds `CsrGraph::from_group_set` took.
    pub csr_s: f64,
}

impl Oracle {
    /// Builds the groups and CSR graph of `repo` under `buckets`.
    pub fn new(repo: &UserRepository, buckets: &PropertyBuckets) -> Oracle {
        let t0 = Instant::now();
        let groups = GroupSet::build(repo, buckets);
        let t1 = Instant::now();
        let csr = CsrGraph::from_group_set(&groups);
        Oracle {
            groups,
            csr,
            groups_s: (t1 - t0).as_secs_f64(),
            csr_s: t1.elapsed().as_secs_f64(),
        }
    }

    /// The single-threaded reference answer (user names in selection
    /// order) for each of `params`, computed with `lazy_select_csr`.
    pub fn answers(&self, repo: &UserRepository, params: &[SelectParams]) -> Vec<Vec<String>> {
        params
            .iter()
            .map(|p| {
                let weights = p.weight.weights(&self.groups);
                let covs = p.cov.cov(&self.groups, p.budget);
                let inst = DiversificationInstance::new(&self.groups, weights, covs);
                lazy_select_csr(&inst, &self.csr, p.budget, None)
                    .users
                    .iter()
                    .map(|&u| repo.user_name(u).expect("selected users exist").to_owned())
                    .collect()
            })
            .collect()
    }
}

/// Each user's id, by name.
pub fn user_index(repo: &UserRepository) -> HashMap<String, UserId> {
    repo.users()
        .map(|u| (repo.user_name(u).expect("listed users exist").to_owned(), u))
        .collect()
}

/// `genesis` with every update marked applied replayed on top, in order.
pub fn replay(
    genesis: &UserRepository,
    updates: &[ProfileUpdate],
    applied: &[bool],
) -> UserRepository {
    let mut repo = genesis.clone();
    let users = user_index(genesis);
    for (update, _) in updates.iter().zip(applied).filter(|(_, &ok)| ok) {
        let user = *users
            .get(&update.user)
            .expect("scripted updates name existing users");
        let property = repo
            .property_id(&update.property)
            .expect("scripted updates name existing properties");
        match update.score {
            Some(score) => repo
                .set_score(user, property, score)
                .expect("scripted scores are in range"),
            None => {
                repo.remove_score(user, property)
                    .expect("scripted updates name existing users");
            }
        }
    }
    repo
}

/// Why a request did not count as a verified answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fail {
    /// An error or refusal from the service or the transport.
    Error(String),
    /// An answer that fails the correctness check.
    Wrong(String),
}

/// A success response's `epoch` and `users`, or the failure it reports.
pub fn answer(resp: &Value) -> Result<(u64, Vec<String>), Fail> {
    ok(resp)?;
    let epoch = resp
        .get("epoch")
        .and_then(Value::as_u64)
        .ok_or_else(|| Fail::Wrong("answer without an epoch".into()))?;
    let users = resp
        .get("users")
        .and_then(Value::as_array)
        .ok_or_else(|| Fail::Wrong("answer without users".into()))?
        .iter()
        .map(|u| u.as_str().map(str::to_owned))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| Fail::Wrong("non-string user name".into()))?;
    Ok((epoch, users))
}

/// `Ok` for an `"ok": true` response, else the error it carries.
pub fn ok(resp: &Value) -> Result<(), Fail> {
    if resp.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        let code = resp
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("malformed");
        let msg = resp.get("message").and_then(Value::as_str).unwrap_or("");
        Err(Fail::Error(format!("{code}: {msg}")))
    }
}

/// Parses a response line.
pub fn parse(line: &str) -> Result<Value, String> {
    serde_json::from_str(line).map_err(|e| format!("unparseable response: {e}"))
}

/// What one client (or the writer) saw.
#[derive(Debug)]
pub struct Tally {
    /// Latency of the verified primary operations, µs (a uniform sample).
    pub latency_us: Reservoir,
    /// Requests sent.
    pub attempted: u64,
    /// Verified primary operations.
    pub ops: u64,
    /// Errors and refusals.
    pub errors: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Newest published epoch minus the answer's epoch, per answer.
    pub staleness: Vec<f64>,
    /// Completed sessions.
    pub sessions: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            latency_us: Reservoir::new(SAMPLE_CAP, 0x5A3B_1E00),
            attempted: 0,
            ops: 0,
            errors: 0,
            wrong: 0,
            messages: Vec::new(),
            staleness: Vec::new(),
            sessions: 0,
        }
    }
}

impl Tally {
    /// Counts one verified primary operation that took `us` µs.
    pub fn record(&mut self, us: f64) {
        self.ops += 1;
        self.latency_us.push(us);
    }

    /// Counts `fail`, keeping its message if it is among the first few.
    pub fn fail(&mut self, fail: Fail) {
        let msg = match fail {
            Fail::Error(m) => {
                self.errors += 1;
                m
            }
            Fail::Wrong(m) => {
                self.wrong += 1;
                format!("wrong answer: {m}")
            }
        };
        if self.messages.len() < 5 {
            self.messages.push(msg);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.latency_us.absorb(other.latency_us);
        self.attempted += other.attempted;
        self.ops += other.ops;
        self.errors += other.errors;
        self.wrong += other.wrong;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
        self.staleness.extend(other.staleness);
        self.sessions += other.sessions;
    }
}

/// An answer check: parameter set, epoch and users in; what is wrong with
/// the answer, if anything, out.
pub type Check<'a> = dyn Fn(usize, u64, &[String]) -> Result<(), String> + Sync + 'a;

/// A request sender: the request line and its request id in, the parsed
/// response (or a transport error) out.
pub type Call<'a> = dyn FnMut(&str, u64) -> Result<Value, String> + 'a;

/// A closed-loop select client: sends `lines[order[i]]` one after another
/// until `stop`; `check(param, epoch, users)` judges each answer.
pub fn select_client(
    order: &[usize],
    lines: &[String],
    stop: Instant,
    req_base: u64,
    call: &mut Call<'_>,
    check: &Check<'_>,
) -> Tally {
    let mut tally = Tally::default();
    let mut i = 0usize;
    while Instant::now() < stop {
        let p = order[i % order.len()];
        let req = req_base + i as u64;
        i += 1;
        tally.attempted += 1;
        let started = Instant::now();
        let resp = call(&lines[p], req);
        let us = started.elapsed().as_secs_f64() * 1e6;
        match resp.map_err(Fail::Error).and_then(|v| answer(&v)) {
            Ok((epoch, users)) => match check(p, epoch, &users) {
                Ok(()) => tally.record(us),
                Err(m) => tally.fail(Fail::Wrong(m)),
            },
            Err(f) => tally.fail(f),
        }
    }
    tally
}
