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
//! Stale tops are refreshed one at a time (the classic CELF refresh) and
//! reinserted with the current round's gain.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::greedy::Selection;
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

use super::csr::CsrGraph;

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

/// CELF lazy greedy: round-0 bounds are the exact initial marginals, and
/// every stale top is refreshed and reinserted until a fresh one surfaces.
pub(super) fn lazy_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
) -> Selection<W> {
    let n = csr.user_count();
    if let Some(e) = eligible {
        assert_eq!(e.len(), n, "one eligibility flag per user");
    }
    let weights = inst.weights();
    let mut cov_rem: Vec<u32> = inst.covs().to_vec();

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
    // this algorithm performs.
    let mut heap: BinaryHeap<HeapEntry<W>> = (0..n as u32)
        .filter(|&u| eligible.is_none_or(|e| e[u as usize]))
        .map(|user| HeapEntry {
            gain: fresh_gain(user, &cov_rem),
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
        // Stale upper bound: refresh and reinsert.
        let gain = fresh_gain(top.user, &cov_rem);
        heap.push(HeapEntry {
            gain,
            user: top.user,
            round,
        });
    }

    Selection::from_parts(users, gains, score, covered_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_select;
    use crate::group::GroupSet;
    use crate::weights::{CovScheme, WeightScheme};

    fn celf(inst: &DiversificationInstance<'_, f64>, b: usize) -> Selection<f64> {
        lazy_select(inst, &CsrGraph::from_group_set(inst.groups()), b, None)
    }

    fn random_instance(seed: u64, users: usize, groups: usize) -> GroupSet {
        // Tiny deterministic LCG so this test needs no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let memberships: Vec<Vec<UserId>> = (0..groups)
            .map(|_| {
                let size = 1 + next() % users;
                let mut m: Vec<UserId> = (0..size)
                    .map(|_| UserId::from_index(next() % users))
                    .collect();
                m.sort();
                m.dedup();
                m
            })
            .collect();
        GroupSet::from_memberships(users, memberships)
    }

    #[test]
    fn matches_eager_on_random_instances() {
        for seed in 0..20 {
            let g = random_instance(seed, 12, 25);
            let inst = DiversificationInstance::from_schemes(
                &g,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                4,
            );
            let eager = greedy_select(&inst, 4);
            let lazy = celf(&inst, 4);
            assert_eq!(lazy, eager, "seed {seed}: CELF must equal eager greedy");
            assert_eq!(lazy.score, inst.score_of(&lazy.users), "seed {seed}");
        }
    }

    #[test]
    fn identical_selection_under_unique_maxima() {
        let g = GroupSet::from_memberships(
            3,
            vec![vec![UserId(0)], vec![UserId(0), UserId(1)], vec![UserId(2)]],
        );
        let inst = DiversificationInstance::new(&g, vec![4.0, 2.0, 3.0], vec![1; 3]);
        let eager = greedy_select(&inst, 2);
        let lazy = celf(&inst, 2);
        assert_eq!(eager.users, lazy.users);
        assert_eq!(eager.gains, lazy.gains);
    }

    #[test]
    fn respects_budget_and_pool() {
        let g = random_instance(3, 6, 10);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            10,
        );
        let sel = celf(&inst, 10);
        assert_eq!(sel.users.len(), 6, "pool exhausted");
        let mut sorted = sel.users.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "no duplicates");
    }

    #[test]
    fn eligibility_filter() {
        let g =
            GroupSet::from_memberships(3, vec![vec![UserId(0)], vec![UserId(1)], vec![UserId(2)]]);
        let inst = DiversificationInstance::new(&g, vec![9.0, 1.0, 2.0], vec![1; 3]);
        let csr = CsrGraph::from_group_set(&g);
        let sel = lazy_select(&inst, &csr, 1, Some(&[false, true, true]));
        assert_eq!(sel.users, vec![UserId(2)]);
    }

    #[test]
    fn proportional_coverage() {
        let g = GroupSet::from_memberships(3, vec![vec![UserId(0), UserId(1), UserId(2)]]);
        let inst = DiversificationInstance::new(&g, vec![1.0], vec![2]);
        assert_eq!(celf(&inst, 3).score, 2.0);
    }
}
