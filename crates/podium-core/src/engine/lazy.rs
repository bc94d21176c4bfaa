//! Heap-based lazy greedy (CELF) over CSR storage.
//!
//! A max-heap holds one entry per candidate, each carrying the marginal
//! gain computed in some earlier round. Submodularity makes every stale
//! entry an *upper bound* on the candidate's current marginal, which gives
//! the heap invariant this module relies on:
//!
//! > If the entry at the top of the heap was computed in the current round
//! > (is *fresh*), it is the exact argmax — every other entry's bound,
//! > and hence its true marginal, orders at or below it.
//!
//! Ties order by smaller user id (see [`HeapEntry`]'s `Ord`), matching the
//! eager algorithm's first-index argmax, so under exact `ScoreValue`
//! arithmetic (integer-valued `f64` weights, `u64`, `EbsValue`,
//! `LexPair` of these) the lazy selection is bit-identical to the eager
//! one: same users, gains, score, and covered counts.
//!
//! Stale tops are refreshed in *bursts*: up to [`super::par::refresh_burst_cap`]
//! consecutive stale entries are popped together and re-evaluated through
//! [`super::par::map_gains`], which chunks them across scoped threads when
//! the `parallel` feature is on and the burst is large. With the feature
//! off — or on a single-worker machine, where batching cannot pay for the
//! extra refreshes — the cap is 1: the classic one-at-a-time CELF refresh.
//! The burst size never affects the selected sequence (bounds only
//! tighten), so every cap yields the same bit-identical result.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::greedy::Selection;
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

use super::csr::CsrGraph;
use super::par;

/// A (possibly stale) upper bound on one candidate's marginal gain.
/// Shared with the quota-constrained variant (`super::constrained`) so
/// both loops order ties identically.
pub(super) struct HeapEntry<W> {
    pub(super) gain: W,
    pub(super) user: u32,
    /// Selection round in which `gain` was computed.
    pub(super) round: u32,
}

impl<W: ScoreValue> PartialEq for HeapEntry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<W: ScoreValue> Eq for HeapEntry<W> {}
impl<W: ScoreValue> PartialOrd for HeapEntry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W: ScoreValue> Ord for HeapEntry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .expect("score values must be totally ordered (no NaN)")
            // Tie-break toward the smaller user id, matching the eager
            // algorithm's deterministic FirstUser policy.
            .then_with(|| other.user.cmp(&self.user))
    }
}

/// Sequential CELF: one-at-a-time refresh, single-threaded initial gains.
pub(super) fn lazy_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
) -> Selection<W> {
    lazy_core(
        inst,
        csr,
        b,
        eligible,
        1,
        |candidates: &[u32], eval: &(dyn Fn(u32) -> W + Sync)| {
            candidates.iter().map(|&u| eval(u)).collect()
        },
    )
}

/// Parallel-capable CELF: initial gains and large refresh bursts are
/// chunked across scoped threads when the `parallel` feature is enabled;
/// otherwise the evaluation strategy degrades to a sequential map and the
/// refresh burst cap drops to 1. Selections are identical either way.
pub(super) fn lazy_select_parallel<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
) -> Selection<W> {
    lazy_core(
        inst,
        csr,
        b,
        eligible,
        par::refresh_burst_cap(),
        |ids: &[u32], eval: &(dyn Fn(u32) -> W + Sync)| par::map_gains(ids, eval),
    )
}

/// The shared CELF loop, generic over the batch evaluation strategy.
///
/// `evaluate(candidates, eval)` must return `eval(u)` for every candidate
/// in input order; the sequential and scoped-thread strategies only differ
/// in scheduling.
fn lazy_core<W, E>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
    burst_cap: usize,
    evaluate: E,
) -> Selection<W>
where
    W: ScoreValue,
    E: Fn(&[u32], &(dyn Fn(u32) -> W + Sync)) -> Vec<W>,
{
    let n = csr.user_count();
    if let Some(e) = eligible {
        assert_eq!(e.len(), n, "one eligibility flag per user");
    }
    let weights = inst.weights();
    let mut cov_rem: Vec<u32> = inst.covs().to_vec();
    let burst_cap = burst_cap.max(1);

    // The current marginal of `u` given the remaining coverages. Skipping
    // zero-weight groups mirrors the eager initialization ("remove links",
    // §4); it never changes the sum.
    let fresh_gain = |u: u32, cov_rem: &[u32]| -> W {
        let mut gain = W::zero();
        for &g in csr.groups_of(u as usize) {
            let gi = g as usize;
            if cov_rem[gi] > 0 && !weights[gi].is_zero() {
                gain.add_assign(&weights[gi]);
            }
        }
        gain
    };

    // Round-0 bounds: the exact initial marginals — the one full scan
    // this algorithm performs, and the main parallelization target.
    let candidates: Vec<u32> = (0..n as u32)
        .filter(|&u| eligible.is_none_or(|e| e[u as usize]))
        .collect();
    let initial = evaluate(&candidates, &|u| fresh_gain(u, &cov_rem));
    let mut heap: BinaryHeap<HeapEntry<W>> = candidates
        .iter()
        .zip(initial)
        .map(|(&user, gain)| HeapEntry {
            gain,
            user,
            round: 0,
        })
        .collect();

    let mut users = Vec::with_capacity(b.min(n));
    let mut gains = Vec::with_capacity(b.min(n));
    let mut score = W::zero();
    let mut covered_counts = vec![0u32; csr.group_count()];
    let mut round = 0u32;

    while users.len() < b {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Fresh top entry: by the heap invariant it is the true argmax.
            score.add_assign(&top.gain);
            gains.push(top.gain);
            users.push(UserId(top.user));
            for &g in csr.groups_of(top.user as usize) {
                let gi = g as usize;
                covered_counts[gi] += 1;
                if cov_rem[gi] > 0 {
                    cov_rem[gi] -= 1;
                }
            }
            round += 1;
            continue;
        }
        // Stale upper bound: refresh and reinsert. The classic cap-1 CELF
        // refresh stays allocation-free — it runs tens of thousands of
        // times per selection.
        if burst_cap == 1 {
            let gain = fresh_gain(top.user, &cov_rem);
            heap.push(HeapEntry {
                gain,
                user: top.user,
                round,
            });
            continue;
        }
        // Gather a burst of consecutive stale tops, refresh them all
        // through the batch evaluator, and reinsert. Refreshing extra
        // entries is wasted work at worst — bounds only tighten, never
        // loosen — so the invariant (and the selected sequence) is
        // unaffected.
        let mut batch = vec![top];
        while batch.len() < burst_cap {
            match heap.peek() {
                Some(e) if e.round != round => {
                    batch.push(heap.pop().expect("peeked entry exists"));
                }
                _ => break,
            }
        }
        let ids: Vec<u32> = batch.iter().map(|e| e.user).collect();
        let refreshed = evaluate(&ids, &|u| fresh_gain(u, &cov_rem));
        for (user, gain) in ids.into_iter().zip(refreshed) {
            heap.push(HeapEntry { gain, user, round });
        }
    }

    Selection::from_parts(users, gains, score, covered_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupSet;
    use crate::weights::{CovScheme, WeightScheme};

    /// Any burst cap must select the identical sequence: extra refreshes
    /// only tighten bounds.
    #[test]
    fn burst_cap_never_changes_the_selection() {
        let mut state = 11u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m as u64) as usize
        };
        let users = 40;
        let memberships: Vec<Vec<UserId>> = (0..55)
            .map(|_| {
                (0..1 + next(9))
                    .map(|_| UserId(next(users) as u32))
                    .collect()
            })
            .collect();
        let groups = GroupSet::from_memberships(users, memberships);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Proportional,
            10,
        );
        let csr = CsrGraph::from_group_set(&groups);
        let seq = |ids: &[u32], eval: &(dyn Fn(u32) -> f64 + Sync)| -> Vec<f64> {
            ids.iter().map(|&u| eval(u)).collect()
        };
        let reference = lazy_core(&inst, &csr, 10, None, 1, seq);
        for cap in [2usize, 3, 7, 64, 4096] {
            let sel = lazy_core(&inst, &csr, 10, None, cap, seq);
            assert_eq!(sel.users, reference.users, "cap {cap}");
            assert_eq!(sel.gains, reference.gains, "cap {cap}");
            assert_eq!(sel.score, reference.score, "cap {cap}");
            assert_eq!(sel.covered_counts, reference.covered_counts, "cap {cap}");
        }
    }
}
