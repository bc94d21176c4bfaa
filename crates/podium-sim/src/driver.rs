//! The simulation loop.
//!
//! [`run_sim`] pops events off the virtual-clock heap, turns them into
//! real protocol requests against a real [`PodiumService`], and records
//! three artifacts:
//!
//! * an **event trace** (`podium.sim-trace/1` JSONL) — virtual time,
//!   event kind, and the exact request line. A pure function of
//!   `(seed, scenario)` for healthy transports, so two runs with the
//!   same seed produce *byte-identical* traces;
//! * a **request log** (`podium.sim-requests/1` JSONL) — per-request
//!   wall latency, outcome tag, response epoch, and epoch staleness
//!   (how far the answering snapshot lagged the newest epoch the
//!   driver has observed);
//! * a **rollup** (`podium.sim-rollup/1` JSON) — deterministic
//!   counters only (no wall-clock fields), byte-identical per seed for
//!   healthy runs.
//!
//! Wall-clock performance numbers (req/s, percentiles) go to the human
//! summary and the dashboard, never into the trace or rollup.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use podium_core::weights::{CovScheme, WeightScheme};
use podium_service::protocol::{encode_request, num_u64, Request};
use podium_service::service::{PodiumService, ServiceConfig};
use podium_service::session::FeedbackDelta;
use podium_service::snapshot::{ProfileUpdate, SelectConstraints, SelectParams};
use serde_json::Value;

use crate::events::{Event, EventQueue};
use crate::population::{assigned_property, bucket_score, Population, SimUser};
use crate::rng::SimRng;
use crate::scenario::Scenario;
use crate::transport::{outcome_tag, Transport, TransportSpec};
use crate::SimError;

/// Schema tag of event-trace rows.
pub const TRACE_SCHEMA: &str = "podium.sim-trace/1";
/// Schema tag of request-log rows.
pub const REQUESTS_SCHEMA: &str = "podium.sim-requests/1";
/// Schema tag of the deterministic rollup document.
pub const ROLLUP_SCHEMA: &str = "podium.sim-rollup/1";

/// Everything that parameterizes a run besides the scenario.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
    /// How requests reach the service.
    pub transport: TransportSpec,
}

/// The three artifacts of a run plus a human summary.
#[derive(Debug)]
pub struct SimOutput {
    /// Event-trace JSONL (deterministic).
    pub trace: String,
    /// Request-log JSONL (wall-clock latencies).
    pub requests: String,
    /// Deterministic rollup document.
    pub rollup: Value,
    /// Wall-clock summary for stdout.
    pub human: String,
}

/// Stream keys for [`SimRng::derive`]; fixed so adding a process never
/// reseeds the others.
mod streams {
    pub const POPULATION: u64 = 1;
    pub const ARRIVAL: u64 = 2;
    pub const CHURN: u64 = 3;
    pub const DRIFT: u64 = 4;
    pub const SESSION: u64 = 5;
}

struct SessionState {
    server_id: u64,
    selects_left: usize,
    refines_left: usize,
}

/// The mutable heart of a run.
struct Driver {
    scenario: Scenario,
    transport: Transport,
    arrival_rng: SimRng,
    churn_rng: SimRng,
    drift_rng: SimRng,
    session_rng: SimRng,
    population: Population,
    sessions: BTreeMap<u64, SessionState>,
    next_sid: u64,
    group_count: u64,
    max_epoch: u64,
    // Artifacts under construction.
    trace: String,
    trace_seq: u64,
    requests: String,
    request_seq: u64,
    // Deterministic counters.
    events_processed: u64,
    by_op: BTreeMap<&'static str, u64>,
    outcomes: BTreeMap<String, u64>,
    latencies_us: BTreeMap<&'static str, Vec<u64>>,
    users_created: u64,
    users_churned: u64,
    drift_steps: u64,
    drift_moves: u64,
    sessions_opened: u64,
    sessions_completed: u64,
    max_staleness: u64,
    staleness_sum: u64,
}

/// Runs one simulation to completion.
pub fn run_sim(scenario: &Scenario, options: &SimOptions) -> Result<SimOutput, SimError> {
    let root = SimRng::new(options.seed);
    let mut pop_rng = root.derive(streams::POPULATION);
    let (repo, buckets, population) = crate::population::build_initial(scenario, &mut pop_rng);
    let service = Arc::new(PodiumService::new(
        repo,
        &buckets,
        ServiceConfig {
            workers: scenario.service.workers,
            queue_capacity: scenario.service.queue_capacity,
            default_deadline_ms: scenario.service.deadline_ms,
            ..ServiceConfig::default()
        },
    ));
    let transport = match &options.transport {
        TransportSpec::Inproc => Transport::inproc(service),
        TransportSpec::Unix => Transport::unix(service, &format!("s{}", options.seed))?,
        TransportSpec::Tcp { chaos } => {
            Transport::tcp(service, *chaos, scenario.service.deadline_ms, options.seed)?
        }
    };

    let mut driver = Driver {
        scenario: scenario.clone(),
        transport,
        arrival_rng: root.derive(streams::ARRIVAL),
        churn_rng: root.derive(streams::CHURN),
        drift_rng: root.derive(streams::DRIFT),
        session_rng: root.derive(streams::SESSION),
        population,
        sessions: BTreeMap::new(),
        next_sid: 0,
        group_count: 0,
        max_epoch: 0,
        trace: String::new(),
        trace_seq: 0,
        requests: String::new(),
        request_seq: 0,
        events_processed: 0,
        by_op: BTreeMap::new(),
        outcomes: BTreeMap::new(),
        latencies_us: BTreeMap::new(),
        users_created: 0,
        users_churned: 0,
        drift_steps: 0,
        drift_moves: 0,
        sessions_opened: 0,
        sessions_completed: 0,
        max_staleness: 0,
        staleness_sum: 0,
    };

    let end_us = duration_us(scenario.duration_s);
    let mut queue = EventQueue::new();
    // The observer polls first (at t=0) so the driver knows the group
    // count and starting epoch before any session asks for refinements.
    queue.schedule(0, Event::Observer);
    let first_arrival = driver.arrival_rng.exp_gap_us(scenario.arrival_rate_hz);
    schedule_before(&mut queue, first_arrival, end_us, Event::Arrival);
    let first_churn = driver.churn_rng.exp_gap_us(scenario.churn_rate_hz);
    schedule_before(&mut queue, first_churn, end_us, Event::Churn);
    let first_drift = driver.drift_rng.exp_gap_us(scenario.drift.rate_hz);
    schedule_before(&mut queue, first_drift, end_us, Event::Drift);
    let first_session = driver.session_rng.exp_gap_us(scenario.session.rate_hz);
    schedule_before(&mut queue, first_session, end_us, Event::OpenSession);
    queue.schedule(end_us, Event::End);

    // podium-lint: allow(determinism-hygiene) — wall clock measures run duration for the human summary only; it never feeds the trace
    let wall_start = Instant::now();
    while let Some(scheduled) = queue.pop() {
        if matches!(scheduled.event, Event::End) {
            break;
        }
        driver.events_processed += 1;
        driver.dispatch(&mut queue, scheduled.at_us, end_us, &scheduled.event);
    }
    // Drain: close whatever sessions are still open, in sid order, at
    // the horizon.
    let open: Vec<u64> = driver.sessions.keys().copied().collect();
    for sid in open {
        driver.close_session(end_us, sid);
    }
    let wall_s = wall_start.elapsed().as_secs_f64();

    let rollup = driver.rollup(options);
    let human = driver.human_summary(options, wall_s);
    Ok(SimOutput {
        trace: driver.trace,
        requests: driver.requests,
        rollup,
        human,
    })
}

/// `duration_s` in virtual microseconds, saturating.
fn duration_us(duration_s: f64) -> u64 {
    let us = duration_s * 1_000_000.0;
    if us >= 9.0e18 {
        u64::MAX
    } else {
        // podium-lint: allow(as-cast) — bounded by the 9e18 guard, non-negative by scenario validation
        us as u64
    }
}

/// Schedules `event` at absolute `at_us` unless it lies at/past the
/// horizon (or the gap overflowed to "never").
fn schedule_before(queue: &mut EventQueue, at_us: u64, end_us: u64, event: Event) {
    if at_us < end_us {
        queue.schedule(at_us, event);
    }
}

impl Driver {
    fn dispatch(&mut self, queue: &mut EventQueue, now_us: u64, end_us: u64, event: &Event) {
        match event {
            Event::Arrival => {
                self.arrival(now_us);
                let gap = self.arrival_rng.exp_gap_us(self.scenario.arrival_rate_hz);
                schedule_before(queue, now_us.saturating_add(gap), end_us, Event::Arrival);
            }
            Event::Churn => {
                self.churn(now_us);
                let gap = self.churn_rng.exp_gap_us(self.scenario.churn_rate_hz);
                schedule_before(queue, now_us.saturating_add(gap), end_us, Event::Churn);
            }
            Event::Drift => {
                self.drift(now_us);
                let gap = self.drift_rng.exp_gap_us(self.scenario.drift.rate_hz);
                schedule_before(queue, now_us.saturating_add(gap), end_us, Event::Drift);
            }
            Event::OpenSession => {
                self.open_session(queue, now_us, end_us);
                let gap = self.session_rng.exp_gap_us(self.scenario.session.rate_hz);
                schedule_before(
                    queue,
                    now_us.saturating_add(gap),
                    end_us,
                    Event::OpenSession,
                );
            }
            Event::SessionStep { sid } => self.session_step(queue, now_us, end_us, *sid),
            Event::Observer => {
                self.observe(now_us);
                let next = observer_gap_us(self.scenario.observer_rate_hz);
                if next < u64::MAX {
                    schedule_before(queue, now_us.saturating_add(next), end_us, Event::Observer);
                }
            }
            Event::End => {}
        }
    }

    /// One user joins: create the mirror record and stream its scores.
    fn arrival(&mut self, now_us: u64) {
        let ordinal = self.population.users.len();
        let spu = self.scenario.population.scores_per_user;
        let properties = self.scenario.population.properties;
        let buckets = self.scenario.drift.bucket_scores.len();
        let mut user = SimUser {
            name: format!("sim-user-{ordinal}"),
            props: Vec::with_capacity(spu),
            alive: true,
        };
        // Draw all randomness up front so the stream is independent of
        // transport outcomes.
        let mut writes = Vec::with_capacity(spu);
        for slot in 0..spu {
            let p = assigned_property(ordinal, slot, properties, spu);
            // podium-lint: allow(as-cast) — bucket count is a small scenario constant
            let bucket = self.arrival_rng.below(buckets as u64) as usize;
            user.props.push((p, bucket));
            writes.push((p, bucket_score(&self.scenario, bucket)));
        }
        let name = user.name.clone();
        self.population.push(user);
        self.users_created += 1;
        for (p, score) in writes {
            let request = Request::UpdateProfile {
                update: ProfileUpdate {
                    user: name.clone(),
                    property: format!("topic-{p}"),
                    score: Some(score),
                },
            };
            self.emit(now_us, "arrival", Some(&name), &request);
        }
    }

    /// One user leaves: retract every score and deactivate the mirror.
    fn churn(&mut self, now_us: u64) {
        let Some(user_idx) = self.population.pick_active(&mut self.churn_rng) else {
            return;
        };
        let Some(user) = self.population.users.get(user_idx) else {
            return;
        };
        let name = user.name.clone();
        let props: Vec<usize> = user.props.iter().map(|(p, _)| *p).collect();
        self.population.deactivate(user_idx);
        self.users_churned += 1;
        for p in props {
            let request = Request::UpdateProfile {
                update: ProfileUpdate {
                    user: name.clone(),
                    property: format!("topic-{p}"),
                    score: None,
                },
            };
            self.emit(now_us, "churn", Some(&name), &request);
        }
    }

    /// A batch of Markov drift steps; only bucket *changes* emit
    /// protocol traffic (same-bucket steps are free).
    fn drift(&mut self, now_us: u64) {
        for _ in 0..self.scenario.drift.batch {
            let Some(user_idx) = self.population.pick_active(&mut self.drift_rng) else {
                return;
            };
            let Some(user) = self.population.users.get(user_idx) else {
                return;
            };
            let slot = self.drift_rng.below(user.props.len() as u64);
            // podium-lint: allow(as-cast) — slot < props.len() by construction
            let Some(&(prop, bucket)) = user.props.get(slot as usize) else {
                continue;
            };
            self.drift_steps += 1;
            let row = self
                .scenario
                .drift
                .matrix
                .get(bucket)
                .cloned()
                .unwrap_or_default();
            let next = self.drift_rng.pick_row(&row);
            if next == bucket {
                continue;
            }
            self.drift_moves += 1;
            let name = {
                let Some(user) = self.population.users.get_mut(user_idx) else {
                    continue;
                };
                // podium-lint: allow(as-cast) — slot < props.len() by construction
                if let Some(entry) = user.props.get_mut(slot as usize) {
                    entry.1 = next;
                }
                user.name.clone()
            };
            let request = Request::UpdateProfile {
                update: ProfileUpdate {
                    user: name.clone(),
                    property: format!("topic-{prop}"),
                    score: Some(bucket_score(&self.scenario, next)),
                },
            };
            self.emit(now_us, "drift", Some(&name), &request);
        }
    }

    /// Opens a customization session and schedules its first step.
    fn open_session(&mut self, queue: &mut EventQueue, now_us: u64, end_us: u64) {
        let sid = self.next_sid;
        self.next_sid += 1;
        let response = self.emit(now_us, "open-session", None, &Request::OpenSession);
        let Some(response) = response else { return };
        let Some(server_id) = response.get("session").and_then(Value::as_u64) else {
            return;
        };
        self.sessions.insert(
            sid,
            SessionState {
                server_id,
                selects_left: self.scenario.session.selects,
                refines_left: self.scenario.session.refines,
            },
        );
        self.sessions_opened += 1;
        let think = self.scenario.session.think_ms.saturating_mul(1_000);
        schedule_before(
            queue,
            now_us.saturating_add(think),
            end_us,
            Event::SessionStep { sid },
        );
    }

    /// Advances one session: select → refine → close.
    fn session_step(&mut self, queue: &mut EventQueue, now_us: u64, end_us: u64, sid: u64) {
        let Some(state) = self.sessions.get(&sid) else {
            return;
        };
        let server_id = state.server_id;
        let params = SelectParams {
            budget: self.scenario.session.budget,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let mut reschedule = true;
        if state.selects_left > 0 {
            // Draw before sending so the stream shape is outcome-free.
            let stale_ok = self.session_rng.unit() < self.scenario.session.stale_ok_prob;
            // Constrained-select draw: fixed count (one draw whenever the
            // scenario has a constraints section), outcome-free.
            let constraints = match &self.scenario.constraints {
                Some(spec) if self.session_rng.unit() < spec.select_prob => {
                    Some(SelectConstraints {
                        quotas: spec.quotas.clone(),
                        anneal: spec.anneal,
                    })
                }
                Some(_) => None,
                None => None,
            };
            if let Some(s) = self.sessions.get_mut(&sid) {
                s.selects_left -= 1;
            }
            let request = Request::Select {
                params: SelectParams {
                    quota_hash: constraints
                        .as_ref()
                        .map_or(0, SelectConstraints::fingerprint),
                    ..params
                },
                constraints,
                session: None,
                deadline_ms: None,
                stale_ok,
            };
            self.emit(now_us, "select", None, &request);
        } else if state.refines_left > 0 {
            let (must_have, must_not) = self.draw_feedback();
            if let Some(s) = self.sessions.get_mut(&sid) {
                s.refines_left -= 1;
            }
            let request = Request::Refine {
                session: server_id,
                delta: FeedbackDelta {
                    must_have,
                    must_not,
                    priority: Vec::new(),
                    standard: None,
                    reset: false,
                },
                params,
            };
            let response = self.emit(now_us, "refine", None, &request);
            // A dead server-side session cannot progress: abandon it.
            if let Some(r) = &response {
                let tag = outcome_tag(r);
                if tag == "unknown_session" || tag == "session_retired" {
                    self.sessions.remove(&sid);
                    reschedule = false;
                }
            }
        } else {
            self.close_session(now_us, sid);
            self.sessions_completed += 1;
            reschedule = false;
        }
        if reschedule {
            let think = self.scenario.session.think_ms.saturating_mul(1_000);
            schedule_before(
                queue,
                now_us.saturating_add(think),
                end_us,
                Event::SessionStep { sid },
            );
        }
    }

    /// Draws refine feedback group ids from the last observed group
    /// count. Empty when the observer has not yet seen any groups.
    fn draw_feedback(&mut self) -> (Vec<u32>, Vec<u32>) {
        if self.group_count == 0 {
            // Keep the draw count fixed regardless of group knowledge,
            // so later observer timing never shifts the stream.
            let _ = self.session_rng.next_u64();
            let _ = self.session_rng.next_u64();
            return (Vec::new(), Vec::new());
        }
        let a = self.session_rng.below(self.group_count);
        let b = self.session_rng.below(self.group_count);
        // podium-lint: allow(as-cast) — group ids are u32 by the dense-id construction
        let must_have = vec![a as u32];
        let must_not = if b == a {
            Vec::new()
        } else {
            // podium-lint: allow(as-cast) — group ids are u32 by the dense-id construction
            vec![b as u32]
        };
        (must_have, must_not)
    }

    fn close_session(&mut self, now_us: u64, sid: u64) {
        let Some(state) = self.sessions.remove(&sid) else {
            return;
        };
        let request = Request::CloseSession {
            session: state.server_id,
        };
        self.emit(now_us, "close-session", None, &request);
    }

    /// Monitoring poll: refreshes the driver's epoch and group count.
    fn observe(&mut self, now_us: u64) {
        let response = self.emit(now_us, "observer", None, &Request::Stats);
        if let Some(r) = response {
            if let Some(groups) = r.get("groups").and_then(Value::as_u64) {
                self.group_count = groups;
            }
        }
    }

    /// Emits one request: trace row → transport call → request-log row.
    /// Returns the response object when the transport delivered one
    /// (even an `"ok":false` one).
    fn emit(
        &mut self,
        vt_us: u64,
        event: &str,
        user: Option<&str>,
        request: &Request,
    ) -> Option<Value> {
        let line = encode_request(request);
        let op = op_tag(request);
        // Trace row: deterministic fields only.
        let mut trace_pairs = vec![
            ("schema".to_owned(), Value::String(TRACE_SCHEMA.to_owned())),
            ("seq".to_owned(), num_u64(self.trace_seq)),
            ("vt_us".to_owned(), num_u64(vt_us)),
            ("event".to_owned(), Value::String(event.to_owned())),
        ];
        if let Some(u) = user {
            trace_pairs.push(("user".to_owned(), Value::String(u.to_owned())));
        }
        trace_pairs.push(("request".to_owned(), Value::String(line.clone())));
        self.push_row(true, Value::Object(trace_pairs));
        self.trace_seq += 1;

        // podium-lint: allow(determinism-hygiene) — wall-clock latency segregates into requests.jsonl latency fields, excluded from the replay diff
        let started = Instant::now();
        let result = self.transport.call(&line);
        let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

        let (outcome, response) = match result {
            Ok(value) => (outcome_tag(&value), Some(value)),
            Err(e) => (e.tag().to_owned(), None),
        };
        *self.by_op.entry(op).or_insert(0) += 1;
        *self.outcomes.entry(outcome.clone()).or_insert(0) += 1;
        self.latencies_us.entry(op).or_default().push(latency_us);

        let mut request_pairs = vec![
            (
                "schema".to_owned(),
                Value::String(REQUESTS_SCHEMA.to_owned()),
            ),
            ("seq".to_owned(), num_u64(self.request_seq)),
            ("vt_us".to_owned(), num_u64(vt_us)),
            ("op".to_owned(), Value::String(op.to_owned())),
            ("outcome".to_owned(), Value::String(outcome)),
            ("latency_us".to_owned(), num_u64(latency_us)),
        ];
        if let Some(epoch) = response
            .as_ref()
            .and_then(|r| r.get("epoch"))
            .and_then(Value::as_u64)
        {
            // Staleness: how far this answer's snapshot lags the newest
            // epoch the driver has seen so far (before merging this one).
            let staleness = self.max_epoch.saturating_sub(epoch);
            self.max_epoch = self.max_epoch.max(epoch);
            request_pairs.push(("epoch".to_owned(), num_u64(epoch)));
            if matches!(op, "select" | "refine") {
                request_pairs.push(("staleness".to_owned(), num_u64(staleness)));
                self.max_staleness = self.max_staleness.max(staleness);
                self.staleness_sum += staleness;
            }
        }
        self.push_row(false, Value::Object(request_pairs));
        self.request_seq += 1;
        response
    }

    fn push_row(&mut self, trace: bool, row: Value) {
        // podium-lint: allow(expect) — value trees built from plain strings/numbers cannot fail to serialize
        let line = serde_json::to_string(&row).expect("row serialization is infallible");
        let sink = if trace {
            &mut self.trace
        } else {
            &mut self.requests
        };
        sink.push_str(&line);
        sink.push('\n');
    }

    /// The deterministic rollup: counters only, no wall-clock fields.
    fn rollup(&self, options: &SimOptions) -> Value {
        let by_op: Vec<(String, Value)> = self
            .by_op
            .iter()
            .map(|(op, n)| ((*op).to_owned(), num_u64(*n)))
            .collect();
        let outcomes: Vec<(String, Value)> = self
            .outcomes
            .iter()
            .map(|(tag, n)| (tag.clone(), num_u64(*n)))
            .collect();
        Value::Object(vec![
            ("schema".to_owned(), Value::String(ROLLUP_SCHEMA.to_owned())),
            (
                "scenario".to_owned(),
                Value::String(self.scenario.name.clone()),
            ),
            ("seed".to_owned(), num_u64(options.seed)),
            (
                "transport".to_owned(),
                Value::String(options.transport.tag().to_owned()),
            ),
            (
                "virtual_duration_s".to_owned(),
                Value::Number(serde_json::Number::Float(self.scenario.duration_s)),
            ),
            ("events".to_owned(), num_u64(self.events_processed)),
            ("requests".to_owned(), num_u64(self.request_seq)),
            ("requests_by_op".to_owned(), Value::Object(by_op)),
            ("outcomes".to_owned(), Value::Object(outcomes)),
            ("users_created".to_owned(), num_u64(self.users_created)),
            ("users_churned".to_owned(), num_u64(self.users_churned)),
            ("drift_steps".to_owned(), num_u64(self.drift_steps)),
            ("drift_moves".to_owned(), num_u64(self.drift_moves)),
            ("sessions_opened".to_owned(), num_u64(self.sessions_opened)),
            (
                "sessions_completed".to_owned(),
                num_u64(self.sessions_completed),
            ),
            ("final_epoch".to_owned(), num_u64(self.max_epoch)),
            ("max_staleness".to_owned(), num_u64(self.max_staleness)),
            ("staleness_sum".to_owned(), num_u64(self.staleness_sum)),
        ])
    }

    /// Wall-clock summary for stdout; never part of the rollup.
    fn human_summary(&self, options: &SimOptions, wall_s: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sim '{}' seed {} transport {}: {} events, {} requests in {:.2}s wall ({:.0} req/s)",
            self.scenario.name,
            options.seed,
            options.transport.tag(),
            self.events_processed,
            self.request_seq,
            wall_s,
            // podium-lint: allow(as-cast) — request counts are far below 2^53
            if wall_s > 0.0 {
                self.request_seq as f64 / wall_s
            } else {
                0.0
            },
        );
        for (op, lats) in &self.latencies_us {
            let (p50, p99) = percentiles(lats);
            let _ = writeln!(
                out,
                "  {op:<15} n={:<6} p50={p50}us p99={p99}us",
                lats.len()
            );
        }
        let outcomes: Vec<String> = self
            .outcomes
            .iter()
            .map(|(tag, n)| format!("{tag} {n}"))
            .collect();
        let _ = writeln!(out, "  outcomes: {}", outcomes.join(", "));
        let _ = writeln!(
            out,
            "  epoch {} | max staleness {} | sessions {}/{} completed | users +{} -{}",
            self.max_epoch,
            self.max_staleness,
            self.sessions_completed,
            self.sessions_opened,
            self.users_created,
            self.users_churned,
        );
        out
    }
}

/// The fixed observer period (regular, not Poisson: monitoring is a
/// cron job, not a user).
fn observer_gap_us(rate_hz: f64) -> u64 {
    if rate_hz.is_nan() || rate_hz <= 0.0 {
        return u64::MAX;
    }
    let us = 1_000_000.0 / rate_hz;
    if us >= 9.0e18 {
        u64::MAX
    } else {
        // podium-lint: allow(as-cast) — bounded by the 9e18 guard, positive by the rate check
        (us as u64).max(1)
    }
}

/// `(p50, p99)` of a latency sample by nearest-rank.
pub fn percentiles(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |q: usize| -> u64 {
        let idx = (sorted.len().saturating_sub(1)) * q / 100;
        sorted.get(idx).copied().unwrap_or(0)
    };
    (rank(50), rank(99))
}

fn op_tag(request: &Request) -> &'static str {
    match request {
        Request::Select { .. } => "select",
        Request::Explain { .. } => "explain",
        Request::OpenSession => "open-session",
        Request::CloseSession { .. } => "close-session",
        Request::Refine { .. } => "refine",
        Request::UpdateProfile { .. } => "update-profile",
        Request::Stats => "stats",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parse_scenario;

    const SCENARIO: &str = r#"{
        "schema": "podium.scenario/1",
        "name": "unit",
        "duration_s": 2.0,
        "population": {"users": 40, "properties": 8, "scores_per_user": 3},
        "arrival": {"rate_hz": 4.0},
        "churn": {"rate_hz": 2.0},
        "drift": {"rate_hz": 30.0, "batch": 2},
        "session": {"rate_hz": 6.0, "selects": 2, "refines": 1, "budget": 5,
                    "think_ms": 20, "stale_ok_prob": 0.3},
        "observer": {"rate_hz": 4.0},
        "service": {"workers": 2, "queue_capacity": 64, "deadline_ms": 2000}
    }"#;

    fn run(seed: u64) -> SimOutput {
        let scenario = parse_scenario(SCENARIO).unwrap();
        run_sim(
            &scenario,
            &SimOptions {
                seed,
                transport: TransportSpec::Inproc,
            },
        )
        .unwrap()
    }

    #[test]
    fn healthy_inproc_run_is_all_ok_and_busy() {
        let out = run(7);
        assert!(out.trace.lines().count() > 50, "trace too small");
        assert_eq!(out.trace.lines().count(), out.requests.lines().count());
        let outcomes = out.rollup.get("outcomes").unwrap();
        let ok = outcomes.get("ok").and_then(Value::as_u64).unwrap_or(0);
        let total = out
            .rollup
            .get("requests")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert_eq!(ok, total, "healthy inproc run must be all-ok: {outcomes:?}");
        assert!(out.rollup.get("final_epoch").unwrap().as_u64().unwrap() > 0);
        assert!(out.rollup.get("sessions_opened").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn every_trace_row_is_schema_tagged_with_monotone_seq() {
        let out = run(7);
        let mut expect = 0u64;
        for line in out.trace.lines() {
            let row: Value = serde_json::from_str(line).unwrap();
            assert_eq!(
                row.get("schema").and_then(Value::as_str),
                Some(TRACE_SCHEMA)
            );
            assert_eq!(row.get("seq").and_then(Value::as_u64), Some(expect));
            expect += 1;
        }
        assert!(expect > 0);
    }

    #[test]
    fn request_rows_carry_latency_outcome_epoch() {
        let out = run(7);
        let mut saw_staleness_field = false;
        for line in out.requests.lines() {
            let row: Value = serde_json::from_str(line).unwrap();
            assert_eq!(
                row.get("schema").and_then(Value::as_str),
                Some(REQUESTS_SCHEMA)
            );
            assert!(row.get("latency_us").and_then(Value::as_u64).is_some());
            assert!(row.get("outcome").and_then(Value::as_str).is_some());
            if row.get("staleness").is_some() {
                saw_staleness_field = true;
            }
        }
        assert!(saw_staleness_field, "selects must report staleness");
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentiles(&[]), (0, 0));
        assert_eq!(percentiles(&[5]), (5, 5));
        let many: Vec<u64> = (1..=100).collect();
        let (p50, p99) = percentiles(&many);
        assert_eq!(p50, 50);
        assert_eq!(p99, 99);
    }
}
