//! The selection engine: CSR group storage and the greedy kernels that
//! walk it. Each algorithm has one public entry point:
//!
//! | Algorithm | Entry point |
//! |---|---|
//! | Alg. 1, one-shot | [`crate::greedy::greedy_select`], [`crate::greedy::greedy_select_opts`] |
//! | Alg. 1, prebuilt CSR | [`eager_select_deadline`] |
//! | CELF reference | [`lazy_select_csr`] |
//! | Stochastic | [`crate::stochastic_greedy::stochastic_greedy_select`] |
//! | Quota-constrained | [`constrained_lazy_select`] |
//! | Exact | [`crate::exact::exact_select`] |
//!
//! [`CsrGraph`] is the flat bipartite user ↔ group adjacency, built once
//! from a [`crate::group::GroupSet`] in `O(|V| + |E|)`; the prebuilt-CSR
//! entry points let callers that select repeatedly from one group set
//! (the serving snapshots) skip that rebuild. The one-shot entry points
//! build it per call.
//!
//! Complexity: eager greedy is `O(|E| + B·n + Σ_{covered G} |G|)`, where
//! the `B·n` argmax scans are ceiling-bounded — a round whose maximum
//! equals the previous one stops at the first user reaching it, so
//! tie-heavy and post-saturation rounds end after a few users. The lazy heap
//! replaces the argmax scans and the member-side updates with `O(|E|)`
//! heapify plus `O(r·(log n + deg))` for the `r` entries it actually
//! refreshes. `r ≪ n` when bounds separate (the CELF effect); when many
//! near-tied bounds crowd the heap top, `r` grows to thousands per round
//! and the eager kernel wins — which is why [`eager_select_deadline`]
//! serves selects and [`lazy_select_csr`] stays the reference. Under the
//! `FirstUser` tie-break and exact score arithmetic the two return
//! bit-identical selections.

pub mod anneal;
pub mod constrained;
pub mod csr;
mod eager;
mod lazy;
mod stochastic;

pub use anneal::{anneal_refine, splitmix64, AnnealSchedule};
pub use constrained::{
    constrained_lazy_select, constraint_fingerprint, feasible_by_brute_force, Infeasible, Quota,
    QuotaBound, QuotaError, QuotaSet,
};
pub use csr::CsrGraph;
pub(crate) use eager::eager_select;
pub(crate) use stochastic::stochastic_select;

use crate::greedy::{Selection, TieBreak};
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

/// CELF lazy greedy (`FirstUser` ties) against a prebuilt CSR graph — the
/// bit-identity reference for the eager kernel, with an optional
/// per-user eligibility filter.
///
/// `csr` must have been built from `inst.groups()` (or an equivalent
/// member-list ordering); this is checked under debug assertions.
pub fn lazy_select_csr<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
) -> Selection<W> {
    debug_assert_eq!(csr.user_count(), inst.user_count(), "csr/instance users");
    debug_assert_eq!(
        csr.group_count(),
        inst.groups().len(),
        "csr/instance groups"
    );
    lazy::lazy_select(inst, csr, b, eligible)
}

/// Eager greedy (Algorithm 1, `FirstUser` ties) against a prebuilt CSR
/// graph, with a deadline hook: `should_stop(selected)` is polled before
/// the initial candidate scan and after every committed greedy round, with
/// the number of users selected so far. Returning `true` stops the run;
/// the returned flag is `false` iff that happened.
///
/// An interrupted selection is still exactly the greedy *prefix* of the
/// full run — submodularity gives it the usual `(1 − 1/e)` guarantee for
/// its own (smaller) budget — so serving callers can either return the
/// partial result marked as truncated or map it to a deadline error.
/// Under exact score arithmetic the selection is bit-identical to
/// [`lazy_select_csr`].
pub fn eager_select_deadline<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    should_stop: &mut dyn FnMut(usize) -> bool,
) -> (Selection<W>, bool) {
    debug_assert_eq!(csr.user_count(), inst.user_count(), "csr/instance users");
    debug_assert_eq!(
        csr.group_count(),
        inst.groups().len(),
        "csr/instance groups"
    );
    eager::eager_select(inst, csr, b, None, TieBreak::FirstUser, should_stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_select, greedy_select_opts};
    use crate::group::GroupSet;
    use crate::ids::UserId;
    use crate::weights::{CovScheme, WeightScheme};

    fn random_groups(seed: u64, users: usize, groups: usize) -> GroupSet {
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

    fn assert_same<W: ScoreValue + PartialEq>(a: &Selection<W>, b: &Selection<W>, ctx: &str) {
        assert_eq!(a.users, b.users, "{ctx}");
        assert_eq!(a.gains, b.gains, "{ctx}");
        assert_eq!(a.score, b.score, "{ctx}");
        assert_eq!(a.covered_counts, b.covered_counts, "{ctx}");
    }

    /// The ceiling-bounded eager kernel equals CELF bit for bit: both
    /// weight schemes (`Identical` makes ties the rule), budgets past
    /// saturation up to the whole population, and eligibility masks.
    #[test]
    fn all_entry_points_agree_exactly() {
        let n = 30;
        for seed in 0..12 {
            let g = random_groups(seed, n, 45);
            let csr = CsrGraph::from_group_set(&g);
            for (w, c) in [
                (WeightScheme::LinearBySize, CovScheme::Proportional),
                (WeightScheme::LinearBySize, CovScheme::Single),
                (WeightScheme::Identical, CovScheme::Single),
                (WeightScheme::Identical, CovScheme::Proportional),
            ] {
                for b in [1, 6, 15, n, n + 3] {
                    let inst = DiversificationInstance::from_schemes(&g, w, c, b);
                    let lazy = lazy_select_csr(&inst, &csr, b, None);
                    let ctx = format!("seed {seed} {w:?}/{c:?} b={b}");
                    assert_same(&greedy_select(&inst, b), &lazy, &format!("{ctx} one-shot"));
                    let (served, completed) = eager_select_deadline(&inst, &csr, b, &mut |_| false);
                    assert!(completed);
                    assert_same(&served, &lazy, &format!("{ctx} deadline"));
                    let mask: Vec<bool> = (0..n)
                        .map(|u| !(u * 7 + seed as usize).is_multiple_of(3))
                        .collect();
                    let eager = greedy_select_opts(&inst, b, Some(&mask), TieBreak::FirstUser);
                    let lazy = lazy_select_csr(&inst, &csr, b, Some(&mask));
                    assert_same(&eager, &lazy, &format!("{ctx} masked"));
                    assert!(eager.users.iter().all(|u| mask[u.index()]), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn one_shot_entry_points_match_prebuilt_csr() {
        let g = random_groups(5, 20, 30);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            5,
        );
        let csr = CsrGraph::from_group_set(&g);
        let (served, _) = eager_select_deadline(&inst, &csr, 5, &mut |_| false);
        assert_eq!(greedy_select(&inst, 5), served);
        let one_shot = crate::stochastic_greedy::stochastic_greedy_select(&inst, 5, 0.2, 9);
        assert_eq!(stochastic_select(&inst, &csr, 5, 0.2, 9), one_shot);
    }

    #[test]
    fn eligibility_respected_by_eager_and_celf() {
        let g = random_groups(2, 10, 15);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            3,
        );
        let mut eligible = vec![true; 10];
        eligible[0] = false;
        eligible[4] = false;
        let eager = greedy_select_opts(&inst, 3, Some(&eligible), TieBreak::FirstUser);
        let csr = CsrGraph::from_group_set(&g);
        let lazy = lazy_select_csr(&inst, &csr, 3, Some(&eligible));
        assert_eq!(eager.users, lazy.users);
        for sel in [&eager, &lazy] {
            assert!(!sel.contains(UserId(0)));
            assert!(!sel.contains(UserId(4)));
        }
    }

    #[test]
    fn csr_entry_points_match_one_shot_greedy() {
        let g = random_groups(7, 25, 40);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            6,
        );
        let one_shot = greedy_select(&inst, 6);
        let csr = CsrGraph::from_group_set(&g);
        assert_eq!(lazy_select_csr(&inst, &csr, 6, None), one_shot);
        let (complete, finished) = eager_select_deadline(&inst, &csr, 6, &mut |_| false);
        assert!(finished);
        assert_eq!(complete, one_shot);
        let (truncated, finished) = eager_select_deadline(&inst, &csr, 6, &mut |k| k >= 2);
        assert!(!finished);
        assert_eq!(truncated.users, one_shot.users[..2]);
    }

    /// Interrupting after `k` committed rounds must yield exactly the
    /// uninterrupted selection's length-`k` greedy prefix.
    #[test]
    fn interrupt_yields_exact_greedy_prefix() {
        let users = 25;
        let memberships: Vec<Vec<UserId>> = (0..30)
            .map(|g| {
                (0..users)
                    .filter(|u| (u * 7 + g * 3) % 5 == 0)
                    .map(|u| UserId(u as u32))
                    .collect()
            })
            .collect();
        let groups = GroupSet::from_memberships(users, memberships);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            8,
        );
        let csr = CsrGraph::from_group_set(&groups);
        let full = lazy_select_csr(&inst, &csr, 8, None);
        for k in 0..full.users.len() {
            let (partial, completed) = eager_select_deadline(&inst, &csr, 8, &mut |done| done >= k);
            assert!(!completed, "stop at {k} must report incompletion");
            assert_eq!(partial.users, full.users[..k], "prefix at {k}");
            assert_eq!(partial.gains, full.gains[..k], "gains at {k}");
        }
        let (all, completed) = eager_select_deadline(&inst, &csr, 8, &mut |_| false);
        assert!(completed);
        assert_eq!(all.users, full.users);
        assert_eq!(all.score, full.score);
        assert_eq!(all.covered_counts, full.covered_counts);
    }
}
