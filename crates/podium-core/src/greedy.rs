//! Greedy user selection — Algorithm 1 of the paper (§4).
//!
//! The algorithm maintains, for every unselected user, the *marginal
//! contribution* `marg_{u,U}` they would add to the total score. Each of the
//! `B` iterations selects the user with the greatest marginal contribution,
//! decrements the remaining coverage of every group they belong to, and —
//! when a group becomes fully covered — subtracts that group's weight from
//! the marginal contribution of its other members (the bidirectional
//! user ↔ group links make this `O(|G|)` per newly-covered group).
//!
//! Because `score_𝒢` is monotone submodular and non-negative for every
//! choice of `wei`/`cov` (Proposition 4.4), this greedy achieves a
//! `(1 − 1/e)` approximation of the optimal budgeted score (Nemhauser,
//! Wolsey & Fisher 1978). Total time is
//! `O(B · max_G |G| · max_u |{G | u ∈ G}|)`.
//!
//! The traversal itself runs in [`crate::engine`] over compressed
//! sparse-row (CSR) adjacency; this module holds the one-shot entry points
//! and the [`Selection`]/[`TieBreak`] types.

//! ```
//! use podium_core::prelude::*;
//!
//! // Three users over two groups; user 1 belongs to both.
//! let groups = GroupSet::from_memberships(
//!     3,
//!     vec![vec![UserId(0), UserId(1)], vec![UserId(1), UserId(2)]],
//! );
//! let inst = DiversificationInstance::new(&groups, vec![2.0, 3.0], vec![1, 1]);
//! let sel = greedy_select(&inst, 1);
//! assert_eq!(sel.users, vec![UserId(1)]); // covers both groups at once
//! assert_eq!(sel.score, 5.0);
//! ```

use crate::engine::{eager_select, Unfiltered};
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

/// The result of a selection run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Selection<W> {
    /// Selected users, in selection order.
    pub users: Vec<UserId>,
    /// Marginal gain realized at each selection step (same order).
    pub gains: Vec<W>,
    /// Total score `score_𝒢(U)` of the selected subset.
    pub score: W,
    /// `|U ∩ G|` for every group, indexed by group id — feeds the
    /// subset-group explanations of §5.
    pub covered_counts: Vec<u32>,
    /// Sorted copy of `users` backing O(log B) membership tests — the
    /// why-not explanations of §5 probe every unselected user, which was
    /// quadratic with the old linear scan.
    #[serde(skip)]
    membership: Vec<u32>,
}

impl<W: ScoreValue> Selection<W> {
    /// Assembles a selection, building the sorted membership index.
    pub fn from_parts(
        users: Vec<UserId>,
        gains: Vec<W>,
        score: W,
        covered_counts: Vec<u32>,
    ) -> Self {
        let mut membership: Vec<u32> = users.iter().map(|u| u.index() as u32).collect();
        membership.sort_unstable();
        Self {
            users,
            gains,
            score,
            covered_counts,
            membership,
        }
    }

    /// Whether user `u` was selected (binary search over the sorted
    /// membership index).
    pub fn contains(&self, u: UserId) -> bool {
        self.membership.binary_search(&(u.index() as u32)).is_ok()
    }
}

/// Tie-breaking policy when several users share the maximal marginal
/// contribution. The paper breaks ties arbitrarily and notes (§10) that its
/// implementation randomizes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Deterministic: the smallest user id wins. Default.
    FirstUser,
    /// Seeded pseudo-random choice among the tied users (splitmix64 stream).
    Seeded(u64),
}

/// Runs Algorithm 1: greedy selection of at most `b` users.
pub fn greedy_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    b: usize,
) -> Selection<W> {
    greedy_select_opts(inst, b, None, TieBreak::FirstUser)
}

/// Runs Algorithm 1 with an eligibility filter and tie-break policy.
///
/// `eligible`, when given, restricts the candidate pool (used by the
/// customization refinement `𝒰'` of §6); it must have one entry per user.
///
/// Walks the instance's group-set link graph in place. Under debug
/// assertions the instance is structurally validated
/// ([`DiversificationInstance::validate`]) first.
pub fn greedy_select_opts<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    b: usize,
    eligible: Option<&[bool]>,
    tie_break: TieBreak,
) -> Selection<W> {
    debug_assert!(
        inst.validate().is_ok(),
        "invalid instance: {}",
        inst.validate().unwrap_err()
    );
    let (selection, _) = eager_select(
        inst,
        inst.groups().csr(),
        b,
        eligible,
        tie_break,
        &mut Unfiltered,
        &mut |_| false,
    );
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupSet;
    use crate::ids::GroupId;
    use crate::weights::{CovScheme, WeightScheme};

    /// The paper's Example 4.3 instance: Table 2 with LBS weights and Single
    /// coverage. Users: Alice(0) Bob(1) Carol(2) David(3) Eve(4).
    fn example_43() -> GroupSet {
        // Groups and LBS weights (superscripts of Table 2):
        //  g0 livesIn Tokyo       {A, D}      w=2
        //  g1 livesIn NYC         {B}         w=1
        //  g2 livesIn Bali        {C}         w=1
        //  g3 livesIn Paris       {E}         w=1
        //  g4 ageGroup 50-64      {A, C}      w=2
        //  g5 avgMex high         {A, D, E}   w=3
        //  g6 avgMex low          {B}         w=1
        //  g7 visitMex high       {A}         w=1
        //  g8 visitMex low        {B}         w=1
        //  g9 visitMex med        {D, E}      w=2
        // g10 avgCheap low        {A}         w=1
        // g11 avgCheap high       {B}         w=1
        // g12 avgCheap med        {C, E}      w=2
        // g13 visitCheap med      {A}         w=1
        // g14 visitCheap high     {B}         w=1
        // g15 visitCheap low      {C, E}      w=2
        let (a, b, c, d, e) = (UserId(0), UserId(1), UserId(2), UserId(3), UserId(4));
        GroupSet::from_memberships(
            5,
            vec![
                vec![a, d],
                vec![b],
                vec![c],
                vec![e],
                vec![a, c],
                vec![a, d, e],
                vec![b],
                vec![a],
                vec![b],
                vec![d, e],
                vec![a],
                vec![b],
                vec![c, e],
                vec![a],
                vec![b],
                vec![c, e],
            ],
        )
    }

    #[test]
    fn example_43_initial_marginals_and_outcome() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        // Initial marginal contributions: 10, 5, 7, 7, 10. Example 4.3 prints
        // David's as 6, but its own update step (reduced by 2+3 to reach 2)
        // confirms 7: Tokyo(2) + avgMex high(3) + visitMex medium(2).
        for (u, expect) in [(0u32, 10.0), (1, 5.0), (2, 7.0), (3, 7.0), (4, 10.0)] {
            assert_eq!(
                inst.marginal_gain(&[], UserId(u)),
                expect,
                "initial marg of user {u}"
            );
        }
        let sel = greedy_select(&inst, 2);
        // Tie between Alice and Eve broken to Alice (FirstUser); Eve follows.
        assert_eq!(sel.users, vec![UserId(0), UserId(4)]);
        assert_eq!(sel.gains, vec![10.0, 7.0]);
        assert_eq!(sel.score, 17.0, "total score 17 (Example 3.8)");
    }

    #[test]
    fn example_38_iden_selects_alice_and_bob() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            2,
        );
        let sel = greedy_select(&inst, 2);
        assert_eq!(sel.users, vec![UserId(0), UserId(1)]);
        assert_eq!(sel.score, 11.0, "11 represented groups (Example 3.8)");
    }

    #[test]
    fn selection_score_matches_direct_evaluation() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            3,
        );
        let sel = greedy_select(&inst, 3);
        assert_eq!(sel.score, inst.score_of(&sel.users));
    }

    #[test]
    fn covered_counts_reported() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        let sel = greedy_select(&inst, 2);
        // g5 avgMex high contains Alice and Eve -> count 2 (over-covered).
        assert_eq!(sel.covered_counts[5], 2);
        assert_eq!(sel.covered_counts[1], 0); // Bob's NYC group uncovered
    }

    #[test]
    fn budget_larger_than_population() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            99,
        );
        let sel = greedy_select(&inst, 99);
        assert_eq!(sel.users.len(), 5, "stops when 𝒰 is exhausted (line 4)");
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            0,
        );
        let sel = greedy_select(&inst, 0);
        assert!(sel.users.is_empty());
        assert_eq!(sel.score, 0.0);
    }

    #[test]
    fn eligibility_filter_respected() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        // Exclude Alice: Eve must come first now.
        let eligible = vec![false, true, true, true, true];
        let sel = greedy_select_opts(&inst, 2, Some(&eligible), TieBreak::FirstUser);
        assert!(!sel.contains(UserId(0)));
        assert_eq!(sel.users[0], UserId(4));
    }

    #[test]
    fn proportional_coverage_changes_updates() {
        // With cov=2 on a shared group, selecting one member must NOT remove
        // the group from the other members' marginals.
        let g = GroupSet::from_memberships(3, vec![vec![UserId(0), UserId(1), UserId(2)]]);
        let inst = DiversificationInstance::new(&g, vec![1.0], vec![2]);
        let sel = greedy_select(&inst, 2);
        assert_eq!(sel.score, 2.0, "two representatives both rewarded");
        let inst1 = DiversificationInstance::new(&g, vec![1.0], vec![1]);
        let sel1 = greedy_select(&inst1, 2);
        assert_eq!(sel1.score, 1.0, "second representative adds nothing");
    }

    #[test]
    fn zero_weight_groups_ignored() {
        let g = GroupSet::from_memberships(2, vec![vec![UserId(0)], vec![UserId(1)]]);
        let inst = DiversificationInstance::new(&g, vec![0.0, 5.0], vec![1, 1]);
        let sel = greedy_select(&inst, 1);
        assert_eq!(sel.users, vec![UserId(1)]);
    }

    #[test]
    fn seeded_tie_break_is_reproducible_and_varies() {
        let g = example_43();
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        let a = greedy_select_opts(&inst, 2, None, TieBreak::Seeded(7));
        let b = greedy_select_opts(&inst, 2, None, TieBreak::Seeded(7));
        assert_eq!(a.users, b.users, "same seed, same outcome");
        assert_eq!(a.score, 17.0, "ties only between equal-score optima here");
        // Some seed picks Eve first (Alice/Eve tie); scores must match anyway.
        let mut saw_eve_first = false;
        for seed in 0..32 {
            let s = greedy_select_opts(&inst, 2, None, TieBreak::Seeded(seed));
            assert_eq!(s.score, 17.0);
            if s.users[0] == UserId(4) {
                saw_eve_first = true;
            }
        }
        assert!(
            saw_eve_first,
            "random tie-breaking should sometimes pick Eve"
        );
    }

    #[test]
    fn approximation_bound_on_small_instances() {
        // Greedy score ≥ (1 - 1/e) · optimal on an instance with a known
        // optimum: classic set-cover-ish trap.
        let g = GroupSet::from_memberships(
            4,
            vec![
                vec![UserId(0), UserId(1)],
                vec![UserId(0), UserId(2)],
                vec![UserId(1)],
                vec![UserId(2)],
                vec![UserId(3)],
            ],
        );
        let inst = DiversificationInstance::new(&g, vec![2.0, 2.0, 1.5, 1.5, 1.0], vec![1; 5]);
        let sel = greedy_select(&inst, 2);
        let opt = crate::exact::exact_select(&inst, 2, 1 << 20).unwrap();
        assert!(sel.score >= (1.0 - 1.0 / std::f64::consts::E) * opt.score);
    }

    #[test]
    fn ebs_greedy_prefers_largest_groups() {
        // Larger groups always covered first under EBS.
        let g = GroupSet::from_memberships(
            4,
            vec![
                vec![UserId(0)],                       // size 1
                vec![UserId(1), UserId(2)],            // size 2
                vec![UserId(1), UserId(2), UserId(3)], // size 3
            ],
        );
        let inst = DiversificationInstance::ebs(&g, CovScheme::Single, 1);
        let sel = greedy_select(&inst, 1);
        // Users 1/2 cover the two largest groups; user 1 wins the tie.
        assert_eq!(sel.users, vec![UserId(1)]);
        let _ = GroupId(0);
    }
}
