//! Algorithm 1 (eager greedy) over CSR storage.
//!
//! Logic and edge order are identical to the historical nested-`Vec`
//! implementation; only the adjacency representation changed, so
//! selections — users, gains, score, covered counts — are bit-for-bit the
//! same. [`crate::greedy::greedy_select_opts`] and
//! [`super::eager_select_deadline`] are its entry points.
//!
//! The `FirstUser` argmax is *ceiling-bounded*: marginals only ever
//! decrease, so the previous round's maximum bounds every current
//! marginal from above, and the first available user reaching it is the
//! first-index argmax. Tie-heavy and post-saturation rounds stop after a
//! few users instead of scanning all `n`; the selected sequence is that of
//! the full scan.
//!
//! An [`Admission`] filter restricts each round's argmax to the candidates
//! it admits; the quota-constrained kernel
//! ([`super::constrained_eager_select`]) is this loop under the quota
//! filter, and every other entry point passes [`Unfiltered`].

use crate::greedy::{Selection, TieBreak};
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

use super::anneal::splitmix64;
use super::csr::CsrGraph;

/// What a round's argmax may do with one available candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The candidate may be committed this round.
    Admit,
    /// Not this round; the candidate stays available.
    Skip,
    /// Never again: the candidate leaves the pool for good.
    Drop,
}

/// A per-round candidate filter of the eager loop.
///
/// Contract: verdicts are *monotone* — a candidate refused (`Skip` or
/// `Drop`) in one round is refused in every later round. The
/// ceiling-bounded argmax relies on it: every admissible candidate was
/// admissible in the previous round too, so its marginal is bounded by
/// that round's committed gain.
pub(crate) trait Admission {
    /// The verdict on committing user `u` next, with `budget_left` picks
    /// remaining (this one included).
    fn verdict(&mut self, u: usize, budget_left: usize) -> Verdict;
    /// Records that `u` was committed; verdicts may change.
    fn commit(&mut self, u: usize);
}

/// The filter that admits every candidate (plain Algorithm 1).
pub(crate) struct Unfiltered;

impl Admission for Unfiltered {
    #[inline(always)]
    fn verdict(&mut self, _u: usize, _budget_left: usize) -> Verdict {
        Verdict::Admit
    }
    #[inline(always)]
    fn commit(&mut self, _u: usize) {}
}

/// Eager greedy selection of at most `b` users, maintaining every
/// candidate's marginal contribution decrementally (lines 2–10 of
/// Algorithm 1). Each round commits the argmax over the available users
/// that `admission` admits; the run ends early when it admits none.
///
/// `should_stop(selected)` is polled before the initial scan and after
/// every committed round that leaves the budget unfilled; a `true` return
/// ends the run, and the flag returned beside the selection is `false`
/// iff that happened. The partial selection is exactly the greedy prefix
/// of the full run.
pub(crate) fn eager_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
    tie_break: TieBreak,
    admission: &mut impl Admission,
    should_stop: &mut dyn FnMut(usize) -> bool,
) -> (Selection<W>, bool) {
    let n = csr.user_count();
    if let Some(e) = eligible {
        assert_eq!(e.len(), n, "one eligibility flag per user");
    }
    if should_stop(0) {
        let empty = Selection::from_parts(
            Vec::new(),
            Vec::new(),
            W::zero(),
            vec![0u32; csr.group_count()],
        );
        return (empty, false);
    }
    let weights = inst.weights();

    // Line 2: marg_{u,𝒰} = Σ_{G ∋ u} wei(G) for eligible users. Groups with
    // zero weight or zero coverage are skipped up front (the "remove links"
    // optimization of §4).
    let mut available: Vec<bool> = (0..n).map(|u| eligible.is_none_or(|e| e[u])).collect();
    let mut cov_rem: Vec<u32> = inst.covs().to_vec();
    let mut marg: Vec<W> = vec![W::zero(); n];
    for u in 0..n {
        if !available[u] {
            continue;
        }
        for &g in csr.groups_of(u) {
            let gi = g.index();
            if cov_rem[gi] > 0 && !weights[gi].is_zero() {
                marg[u].add_assign(&weights[gi]);
            }
        }
    }

    let mut rng_state = match tie_break {
        TieBreak::Seeded(seed) => seed ^ 0x9E37_79B9_7F4A_7C15,
        TieBreak::FirstUser => 0,
    };
    let mut users = Vec::with_capacity(b.min(n));
    let mut gains = Vec::with_capacity(b.min(n));
    let mut score = W::zero();
    let mut covered_counts = vec![0u32; csr.group_count()];
    let mut completed = true;

    // Lines 3–10.
    for _ in 0..b {
        // Line 5: argmax over admitted users, bounded by the last gain.
        let mut admit = |u: usize| admission.verdict(u, b - users.len());
        let best = match tie_break {
            TieBreak::FirstUser => argmax_first(&marg, &mut available, gains.last(), &mut admit),
            TieBreak::Seeded(_) => argmax_seeded(&marg, &mut available, &mut admit, &mut rng_state),
        };
        let Some(u) = best else { break }; // line 4: pool exhausted

        // Line 6: move u from 𝒰 to U.
        available[u] = false;
        admission.commit(u);
        score.add_assign(&marg[u]);
        gains.push(marg[u].clone());
        users.push(UserId::from_index(u));

        // Lines 7–10: update coverage and the marginal contributions.
        for &g in csr.groups_of(u) {
            let gi = g.index();
            covered_counts[gi] += 1;
            if cov_rem[gi] == 0 {
                continue; // group was already fully covered
            }
            cov_rem[gi] -= 1;
            if cov_rem[gi] == 0 && !weights[gi].is_zero() {
                // Group newly fully covered: it no longer contributes to any
                // other member's marginal contribution (line 10).
                for &m in csr.members_of(gi) {
                    let mi = m.index();
                    if available[mi] {
                        marg[mi].sub_assign(&weights[gi]);
                    }
                }
            }
        }
        if users.len() < b && should_stop(users.len()) {
            completed = false;
            break;
        }
    }

    (
        Selection::from_parts(users, gains, score, covered_counts),
        completed,
    )
}

/// Whether available user `u` competes in this round's argmax; a
/// [`Verdict::Drop`] clears its availability.
#[inline(always)]
fn admitted(u: usize, available: &mut bool, admit: &mut impl FnMut(usize) -> Verdict) -> bool {
    if !*available {
        return false;
    }
    match admit(u) {
        Verdict::Admit => true,
        Verdict::Skip => false,
        Verdict::Drop => {
            *available = false;
            false
        }
    }
}

/// First-index argmax over the admitted users: ties go to the smallest
/// user id (strictly-greater replacement test, so `a > b` — i.e.
/// `partial_cmp == Some(Greater)` — is the exact replacement condition).
///
/// `ceiling` is the previous round's maximum. No admitted marginal
/// exceeds it (see [`Admission`]), so the first admitted user at or above
/// it (`partial_cmp` is `Equal` or `Greater`) is the answer and the scan
/// stops there; incomparable values keep scanning.
fn argmax_first<W: ScoreValue>(
    marg: &[W],
    available: &mut [bool],
    ceiling: Option<&W>,
    admit: &mut impl FnMut(usize) -> Verdict,
) -> Option<usize> {
    let mut best: Option<(usize, &W)> = None;
    for (u, (m, ok)) in marg.iter().zip(available).enumerate() {
        if !admitted(u, ok, admit) {
            continue;
        }
        if ceiling.is_some_and(|c| m >= c) {
            return Some(u);
        }
        let replace = match best {
            None => true,
            Some((_, bm)) => m.partial_cmp(bm) == Some(std::cmp::Ordering::Greater),
        };
        if replace {
            best = Some((u, m));
        }
    }
    best.map(|(u, _)| u)
}

/// Reservoir-samples uniformly among the admitted argmax users with a
/// splitmix64 stream, so runs are reproducible for a fixed seed.
fn argmax_seeded<W: ScoreValue>(
    marg: &[W],
    available: &mut [bool],
    admit: &mut impl FnMut(usize) -> Verdict,
    state: &mut u64,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut ties = 0u64;
    for u in 0..marg.len() {
        if !admitted(u, &mut available[u], admit) {
            continue;
        }
        let ord = match best {
            None => std::cmp::Ordering::Greater,
            Some(b) => marg[u]
                .partial_cmp(&marg[b])
                .unwrap_or(std::cmp::Ordering::Less),
        };
        match ord {
            std::cmp::Ordering::Greater => {
                best = Some(u);
                ties = 1;
            }
            std::cmp::Ordering::Equal => {
                ties += 1;
                if splitmix64(state).is_multiple_of(ties) {
                    best = Some(u);
                }
            }
            std::cmp::Ordering::Less => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Any valid ceiling (at or above the available maximum) leaves the
    /// first-index argmax unchanged, ties and all.
    #[test]
    fn ceiling_never_changes_the_argmax() {
        let mut state = 5u64;
        for _ in 0..500 {
            let len = 1 + (splitmix64(&mut state) % 40) as usize;
            let marg: Vec<f64> = (0..len)
                .map(|_| (splitmix64(&mut state) % 4) as f64)
                .collect();
            let mut available: Vec<bool> = (0..len)
                .map(|_| !splitmix64(&mut state).is_multiple_of(4))
                .collect();
            let admit = &mut |_| Verdict::Admit;
            let full = argmax_first(&marg, &mut available, None, admit);
            let max = full.map_or(0.0, |u| marg[u]);
            for ceiling in [max, max + 1.0] {
                assert_eq!(
                    argmax_first(&marg, &mut available, Some(&ceiling), admit),
                    full
                );
            }
        }
    }
}
