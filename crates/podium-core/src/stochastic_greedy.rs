//! Stochastic greedy selection (Mirzasoleiman et al., AAAI 2015).
//!
//! A third engine for BASE-DIVERSITY, in the spirit of the paper's §10
//! future-work direction of injecting randomness into the selection. Each
//! round evaluates only a random sample of `⌈(n/B)·ln(1/ε)⌉` candidates
//! instead of all of them, yielding a `(1 − 1/e − ε)` approximation *in
//! expectation* at a fraction of the marginal evaluations. Randomness is
//! fully determined by the seed.
//!
//! Compared here mainly as an ablation: on Podium-sized budgets the exact
//! greedy is already fast, but on very large repositories the sampling
//! variant trades a provably small amount of score for near-constant
//! per-round work.

use crate::greedy::Selection;
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

/// Runs stochastic greedy with accuracy parameter `epsilon ∈ (0, 1)`.
///
/// Smaller `epsilon` means larger per-round samples (more work, better
/// score). `epsilon = 0` degenerates to full scans (exact greedy behavior
/// up to tie-breaking). The sampling loop runs in [`crate::engine`] over
/// CSR adjacency; the RNG stream and hence the selections are unchanged.
pub fn stochastic_greedy_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    b: usize,
    epsilon: f64,
    seed: u64,
) -> Selection<W> {
    crate::engine::stochastic_select(inst, inst.groups().csr(), b, epsilon, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_select;
    use crate::group::GroupSet;
    use crate::ids::UserId;
    use crate::weights::{CovScheme, WeightScheme};

    fn random_instance(seed: u64, users: usize, groups: usize) -> GroupSet {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            (state >> 33) as usize
        };
        let memberships: Vec<Vec<UserId>> = (0..groups)
            .map(|_| {
                let size = 1 + next() % (users / 2 + 1);
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
    fn epsilon_zero_is_a_full_scan_greedy() {
        // With ε = 0 every round scans all candidates, so each accepted gain
        // is a true argmax; the total score matches the deterministic greedy
        // up to tie-breaking (ties can steer greedy to different — rarely
        // slightly different-scoring — optima, so compare within 2%).
        for seed in 0..10 {
            let g = random_instance(seed, 20, 30);
            let inst = DiversificationInstance::from_schemes(
                &g,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                5,
            );
            let exact = greedy_select(&inst, 5);
            let stoch = stochastic_greedy_select(&inst, 5, 0.0, seed);
            assert!(
                (stoch.score - exact.score).abs() <= 0.02 * exact.score,
                "seed {seed}: {} vs {}",
                stoch.score,
                exact.score
            );
            // First gain must be the global argmax — identical by definition.
            assert_eq!(stoch.gains[0], exact.gains[0], "seed {seed}");
        }
    }

    #[test]
    fn small_epsilon_stays_close_to_greedy() {
        let mut total_exact = 0.0;
        let mut total_stoch = 0.0;
        for seed in 0..20 {
            let g = random_instance(seed + 100, 40, 60);
            let inst = DiversificationInstance::from_schemes(
                &g,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                6,
            );
            total_exact += greedy_select(&inst, 6).score;
            total_stoch += stochastic_greedy_select(&inst, 6, 0.1, seed).score;
        }
        assert!(
            total_stoch >= 0.85 * total_exact,
            "stochastic {total_stoch} vs exact {total_exact}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = random_instance(7, 25, 40);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            5,
        );
        let a = stochastic_greedy_select(&inst, 5, 0.2, 9);
        let b = stochastic_greedy_select(&inst, 5, 0.2, 9);
        assert_eq!(a.users, b.users);
        assert_eq!(a.score, b.score);
    }

    #[test]
    fn no_duplicates_within_budget() {
        let g = random_instance(3, 15, 20);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            20,
        );
        let sel = stochastic_greedy_select(&inst, 20, 0.3, 1);
        let mut sorted = sel.users.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), sel.users.len());
        assert_eq!(sel.users.len(), 15, "pool exhausted");
    }

    #[test]
    fn score_matches_recomputation() {
        let g = random_instance(11, 30, 45);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Proportional,
            6,
        );
        let sel = stochastic_greedy_select(&inst, 6, 0.25, 4);
        assert!((sel.score - inst.score_of(&sel.users)).abs() < 1e-9);
    }

    #[test]
    fn zero_budget() {
        let g = random_instance(1, 5, 5);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            1,
        );
        let sel = stochastic_greedy_select(&inst, 0, 0.1, 0);
        assert!(sel.users.is_empty());
    }
}
