//! Stochastic greedy (Mirzasoleiman et al., AAAI 2015) over CSR storage.
//!
//! Same sampling scheme, RNG stream, and edge order as the historical
//! nested-`Vec` implementation, so selections are unchanged for a fixed
//! seed. [`crate::stochastic_greedy::stochastic_greedy_select`] is its
//! entry point.

use crate::greedy::Selection;
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

use super::anneal::splitmix64;
use super::csr::CsrGraph;

/// Stochastic greedy with accuracy parameter `epsilon ∈ (0, 1)`; each round
/// evaluates a fresh random sample of `⌈(n/B)·ln(1/ε)⌉` candidates.
pub(crate) fn stochastic_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    epsilon: f64,
    seed: u64,
) -> Selection<W> {
    let n = csr.user_count();
    let b_eff = b.min(n);
    if b_eff == 0 {
        return Selection::from_parts(
            Vec::new(),
            Vec::new(),
            W::zero(),
            vec![0; csr.group_count()],
        );
    }
    let weights = inst.weights();

    // Sample size per round: ⌈(n/B) · ln(1/ε)⌉, clamped to [1, n].
    let sample_size = if epsilon <= 0.0 {
        n
    } else {
        let s = (n as f64 / b_eff as f64) * (1.0 / epsilon).ln();
        (s.ceil() as usize).clamp(1, n)
    };

    let mut cov_rem: Vec<u32> = inst.covs().to_vec();
    let mut available: Vec<u32> = (0..n as u32).collect();
    let mut rng_state = seed ^ 0x5851_F42D_4C95_7F2D;
    let mut next_u64 = move || splitmix64(&mut rng_state);

    let gain_of = |u: u32, cov_rem: &[u32]| -> W {
        let mut gain = W::zero();
        for &g in csr.groups_of(u as usize) {
            let gi = g.index();
            if cov_rem[gi] > 0 {
                gain.add_assign(&weights[gi]);
            }
        }
        gain
    };

    let mut users = Vec::with_capacity(b_eff);
    let mut gains = Vec::with_capacity(b_eff);
    let mut score = W::zero();
    let mut covered_counts = vec![0u32; csr.group_count()];

    for _ in 0..b_eff {
        if available.is_empty() {
            break;
        }
        // Partial Fisher–Yates: move a fresh random sample to the front.
        let k = sample_size.min(available.len());
        for i in 0..k {
            let j = i + (next_u64() as usize) % (available.len() - i);
            available.swap(i, j);
        }
        // Best of the sample.
        let mut best_idx = 0usize;
        let mut best_gain = gain_of(available[0], &cov_rem);
        for (i, &u) in available.iter().enumerate().take(k).skip(1) {
            let gain = gain_of(u, &cov_rem);
            if gain
                .partial_cmp(&best_gain)
                .is_some_and(|o| o == std::cmp::Ordering::Greater)
            {
                best_gain = gain;
                best_idx = i;
            }
        }
        let u = available.swap_remove(best_idx);
        score.add_assign(&best_gain);
        gains.push(best_gain);
        users.push(UserId(u));
        for &g in csr.groups_of(u as usize) {
            let gi = g.index();
            covered_counts[gi] += 1;
            if cov_rem[gi] > 0 {
                cov_rem[gi] -= 1;
            }
        }
    }

    Selection::from_parts(users, gains, score, covered_counts)
}
