//! Seeded request scripts. Everything a workload sends is generated here
//! from `--seed` before timing starts; the service only ever sees the
//! resulting request lines.

use std::time::Duration;

use podium_core::customize::{refine_pool, Feedback};
use podium_core::engine::{
    constrained_lazy_select, splitmix64, AnnealSchedule, CsrGraph, Quota, QuotaBound, QuotaSet,
};
use podium_core::group::GroupSet;
use podium_core::ids::GroupId;
use podium_core::instance::DiversificationInstance;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_service::protocol::{encode_request, Request};
use podium_service::session::FeedbackDelta;
use podium_service::snapshot::{ProfileUpdate, SelectConstraints, SelectParams};

use crate::openloop::due_times;

/// A splitmix64 stream derived from the run seed and a stream label, so
/// every script draws from its own independent sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut state);
        Rng(state)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The eight read parameter sets: b ∈ {8, 16, 32, 64} × {LBS, Identical},
/// single coverage. They fit the 16-entry per-epoch memo together.
pub fn read_params() -> Vec<SelectParams> {
    [8, 16, 32, 64]
        .into_iter()
        .flat_map(|budget| {
            [WeightScheme::LinearBySize, WeightScheme::Identical].map(|weight| SelectParams {
                budget,
                weight,
                cov: CovScheme::Single,
                quota_hash: 0,
            })
        })
        .collect()
}

/// The protocol line of a plain (unpinned, unconstrained) select.
pub fn select_line(params: &SelectParams) -> String {
    encode_request(&Request::Select {
        params: *params,
        constraints: None,
        session: None,
        deadline_ms: None,
        stale_ok: false,
    })
}

/// A client's order of parameter indices: `cycles` passes over all of
/// `count` indices, each pass in its own seeded order.
pub fn select_order(seed: u64, client: u64, count: usize, cycles: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x5E1E_C700 + client);
    let mut order = Vec::with_capacity(count * cycles);
    for _ in 0..cycles {
        let mut pass: Vec<usize> = (0..count).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order
}

/// An open-loop stream of `update-profile` requests.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateScript {
    /// Due time of each update, from the start of the run.
    pub due: Vec<Duration>,
    /// The updates, in send order.
    pub updates: Vec<ProfileUpdate>,
    /// Their protocol lines.
    pub lines: Vec<String>,
}

/// `rate_hz` updates per second for `seconds`, each setting a random
/// existing user's score on a random existing property. Names follow
/// `podium_service::bench::synthetic_repository` (`user-i`, `topic-p`).
pub fn update_script(
    seed: u64,
    users: usize,
    properties: usize,
    rate_hz: f64,
    seconds: f64,
) -> UpdateScript {
    let due = due_times(rate_hz, seconds);
    let mut rng = Rng::new(seed, 0x0DA7_E000);
    let updates: Vec<ProfileUpdate> = due
        .iter()
        .map(|_| ProfileUpdate {
            user: format!("user-{}", rng.below(users)),
            property: format!("topic-{}", rng.below(properties)),
            // Four decimals keep the line short and the value exact.
            score: Some((rng.unit() * 1e4).round() / 1e4),
        })
        .collect();
    let lines = updates
        .iter()
        .map(|u| encode_request(&Request::UpdateProfile { update: u.clone() }))
        .collect();
    UpdateScript {
        due,
        updates,
        lines,
    }
}

/// A request line with the session id still to be filled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    prefix: String,
    suffix: String,
}

/// Stand-in session id the templates are cut at.
const SESSION_MARK: u64 = 9_876_543_210_123;

impl Template {
    fn of(request: &Request) -> Template {
        let line = encode_request(request);
        let mark = SESSION_MARK.to_string();
        let at = line
            .find(&mark)
            .expect("encoded request carries the session id");
        Template {
            prefix: line[..at].to_owned(),
            suffix: line[at + mark.len()..].to_owned(),
        }
    }

    /// The `close-session` template.
    pub fn close() -> Template {
        Template::of(&Request::CloseSession {
            session: SESSION_MARK,
        })
    }

    /// The line for session `id`.
    pub fn with(&self, id: u64) -> String {
        format!("{}{id}{}", self.prefix, self.suffix)
    }
}

/// Budget of every session select and refine.
pub const SESSION_BUDGET: usize = 16;

/// Anneal steps of every session select.
pub const ANNEAL_STEPS: u32 = 64;

/// Refine calls per session.
pub const REFINES: usize = 3;

/// The select and refine parameters of a session.
pub fn session_params(quota_hash: u64) -> SelectParams {
    SelectParams {
        budget: SESSION_BUDGET,
        weight: WeightScheme::LinearBySize,
        cov: CovScheme::Single,
        quota_hash,
    }
}

/// One scripted customization session: a pinned constrained select, then
/// [`REFINES`] refines, each with the refined pool the answer must lie in.
#[derive(Debug, Clone)]
pub struct SessionScript {
    /// Resolved quota windows, to check the select's answer against.
    pub quotas: QuotaSet,
    /// The pinned select line.
    pub select: Template,
    /// The refine lines, one feedback delta each.
    pub refines: Vec<Template>,
    /// Per refine: the eligibility mask of the pool the session's
    /// accumulated feedback leaves (`customize::refine_pool`).
    pub pools: Vec<Vec<bool>>,
}

/// Draws `count` feasible session scripts for `client` over `groups`:
/// 2–3 quota windows the constrained selector can meet, and three deltas
/// (G+, G−, Gd in a seeded order) that keep the pool at least the budget.
pub fn session_scripts(
    seed: u64,
    client: u64,
    count: usize,
    groups: &GroupSet,
    csr: &CsrGraph,
) -> Vec<SessionScript> {
    let mut rng = Rng::new(seed, 0x5E55_1000 + client);
    let sized = |min: usize| -> Vec<u32> {
        groups
            .iter()
            .filter(|(_, g)| g.size() >= min)
            .map(|(id, _)| id.0)
            .collect()
    };
    let quota_groups = sized(40);
    let feedback_groups = sized(2 * SESSION_BUDGET);
    assert!(
        quota_groups.len() >= 3 && feedback_groups.len() >= 3,
        "repository too small for session scripts"
    );
    let weights = WeightScheme::LinearBySize.weights(groups);
    let covs = CovScheme::Single.cov(groups, SESSION_BUDGET);
    let inst = DiversificationInstance::new(groups, weights, covs);
    let mut scripts = Vec::with_capacity(count);
    while scripts.len() < count {
        if let Some(s) = draw_session(
            &mut rng,
            groups,
            csr,
            &inst,
            &quota_groups,
            &feedback_groups,
        ) {
            scripts.push(s);
        }
    }
    scripts
}

fn draw_session(
    rng: &mut Rng,
    groups: &GroupSet,
    csr: &CsrGraph,
    inst: &DiversificationInstance<'_, f64>,
    quota_groups: &[u32],
    feedback_groups: &[u32],
) -> Option<SessionScript> {
    let windows = 2 + rng.below(2);
    let mut quotas: Vec<Quota> = Vec::with_capacity(windows);
    while quotas.len() < windows {
        let group = quota_groups[rng.below(quota_groups.len())];
        if quotas.iter().any(|q| q.group == group) {
            continue;
        }
        let min = 1 + rng.below(2) as u32;
        let max = min + 2 + rng.below(4) as u32;
        quotas.push(Quota {
            group,
            min: QuotaBound::Count(min),
            max: Some(QuotaBound::Count(max)),
        });
    }
    let resolved = QuotaSet::build(quotas.clone(), groups.len(), SESSION_BUDGET).ok()?;
    // The selector returns fewer than `b` users when ceilings leave too
    // few candidates; keep only windows that admit a full slate.
    let greedy = constrained_lazy_select(inst, csr, SESSION_BUDGET, &resolved).ok()?;
    if greedy.users.len() != SESSION_BUDGET {
        return None;
    }
    let constraints = SelectConstraints {
        quotas,
        anneal: Some(AnnealSchedule {
            seed: rng.next_u64(),
            steps: ANNEAL_STEPS,
            t0: 0.5,
            cooling: 0.95,
        }),
    };
    let params = session_params(constraints.fingerprint());
    let select = Template::of(&Request::Select {
        params,
        constraints: Some(constraints),
        session: Some(SESSION_MARK),
        deadline_ms: None,
        stale_ok: false,
    });

    let mut kinds = [0usize, 1, 2];
    rng.shuffle(&mut kinds);
    let mut feedback = Feedback::default();
    let mut refines = Vec::with_capacity(REFINES);
    let mut pools = Vec::with_capacity(REFINES);
    for kind in kinds {
        let g = feedback_groups[rng.below(feedback_groups.len())];
        let mut delta = FeedbackDelta::default();
        match kind {
            0 => delta.must_have.push(g),
            1 => delta.must_not.push(g),
            _ => {
                delta.priority.push(g);
                delta
                    .priority
                    .push(feedback_groups[rng.below(feedback_groups.len())]);
            }
        }
        // Mirror the session's merge: append, then sort and dedup.
        feedback
            .must_have
            .extend(delta.must_have.iter().map(|&g| GroupId(g)));
        feedback
            .must_not
            .extend(delta.must_not.iter().map(|&g| GroupId(g)));
        feedback
            .priority
            .extend(delta.priority.iter().map(|&g| GroupId(g)));
        for list in [
            &mut feedback.must_have,
            &mut feedback.must_not,
            &mut feedback.priority,
        ] {
            list.sort();
            list.dedup();
        }
        let pool = refine_pool(groups, &feedback).ok()?;
        if pool.iter().filter(|&&e| e).count() < SESSION_BUDGET {
            return None;
        }
        refines.push(Template::of(&Request::Refine {
            session: SESSION_MARK,
            delta,
            params: session_params(0),
        }));
        pools.push(pool);
    }
    Some(SessionScript {
        quotas: resolved,
        select,
        refines,
        pools,
    })
}
