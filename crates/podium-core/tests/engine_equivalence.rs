//! Cross-algorithm equivalence: eager greedy (one-shot and over a prebuilt
//! CSR graph) and CELF must produce *bit-identical* selections — same `users`, same
//! per-round `gains`, same `score`, same `covered_counts` — on randomized
//! instances with varying weights, coverage requirements above one, and
//! heavily overlapping groups.
//!
//! The guarantee holds under exact score arithmetic (integer-valued `f64`
//! weights as produced by every built-in scheme, `u64`, EBS) and the
//! `FirstUser` tie-break; see `crates/podium-core/src/engine/lazy.rs` for
//! the heap-invariant argument.

use podium_core::engine::{eager_select_deadline, lazy_select_csr, CsrGraph};
use podium_core::greedy::{greedy_select_opts, Selection, TieBreak};
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::score::ScoreValue;
use podium_core::weights::{CovScheme, WeightScheme};

/// Tiny deterministic LCG so instances are reproducible without dev-deps.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random overlapping group structure: `groups` groups over `users` users,
/// sizes in `[1, max_size]`, duplicates deduplicated by `from_memberships`.
fn random_groups(seed: u64, users: usize, groups: usize, max_size: usize) -> GroupSet {
    let mut rng = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
    let memberships: Vec<Vec<UserId>> = (0..groups)
        .map(|_| {
            let size = 1 + rng.below(max_size);
            (0..size).map(|_| UserId(rng.below(users) as u32)).collect()
        })
        .collect();
    GroupSet::from_memberships(users, memberships)
}

/// Asserts CELF — and, without an eligibility filter, the prebuilt-CSR
/// eager kernel — return the exact same selection as one-shot eager greedy.
fn assert_all_entry_points_identical<W: ScoreValue + PartialEq>(
    inst: &DiversificationInstance<W>,
    b: usize,
    eligible: Option<&[bool]>,
    context: &str,
) {
    let csr = CsrGraph::from_group_set(inst.groups());
    let reference = greedy_select_opts(inst, b, eligible, TieBreak::FirstUser);
    let mut candidates: Vec<(&str, Selection<W>)> =
        vec![("lazy_select_csr", lazy_select_csr(inst, &csr, b, eligible))];
    if eligible.is_none() {
        let (served, completed) = eager_select_deadline(inst, &csr, b, &mut |_| false);
        assert!(completed, "{context}: eager_select_deadline completes");
        candidates.push(("eager_select_deadline", served));
    }
    for (label, sel) in candidates {
        assert_eq!(sel.users, reference.users, "{context}: {label} users");
        assert_eq!(sel.gains, reference.gains, "{context}: {label} gains");
        assert_eq!(sel.score, reference.score, "{context}: {label} score");
        assert_eq!(
            sel.covered_counts, reference.covered_counts,
            "{context}: {label} covered_counts"
        );
    }
}

#[test]
fn builtin_schemes_agree_on_random_instances() {
    for seed in 0..20u64 {
        let users = 20 + (seed as usize % 7) * 13;
        let groups = random_groups(seed, users, 30 + seed as usize * 3, 9);
        for weight in [WeightScheme::Identical, WeightScheme::LinearBySize] {
            for cov in [CovScheme::Single, CovScheme::Proportional] {
                for b in [1usize, 4, 9] {
                    let inst = DiversificationInstance::from_schemes(&groups, weight, cov, b);
                    let ctx = format!("seed={seed} {weight:?}/{cov:?} b={b}");
                    assert_all_entry_points_identical(&inst, b, None, &ctx);
                }
            }
        }
    }
}

#[test]
fn custom_integer_valued_f64_weights_and_cov_above_one() {
    for seed in 30..42u64 {
        let groups = random_groups(seed, 60, 80, 12);
        let mut rng = Lcg(seed);
        // Integer-valued f64 weights (exact arithmetic), incl. zero weights,
        // and coverage requirements up to 4.
        let weights: Vec<f64> = (0..groups.len()).map(|_| rng.below(17) as f64).collect();
        let cov: Vec<u32> = (0..groups.len()).map(|_| 1 + rng.below(4) as u32).collect();
        let inst = DiversificationInstance::new(&groups, weights, cov);
        assert_all_entry_points_identical(&inst, 8, None, &format!("f64 seed={seed}"));
    }
}

#[test]
fn u64_weights_agree() {
    for seed in 50..60u64 {
        let groups = random_groups(seed, 45, 70, 8);
        let mut rng = Lcg(seed.wrapping_mul(3));
        let weights: Vec<u64> = (0..groups.len()).map(|_| rng.next() % 1000).collect();
        let cov: Vec<u32> = (0..groups.len()).map(|_| 1 + rng.below(3) as u32).collect();
        let inst = DiversificationInstance::new(&groups, weights, cov);
        assert_all_entry_points_identical(&inst, 6, None, &format!("u64 seed={seed}"));
    }
}

#[test]
fn ebs_weights_agree() {
    for seed in 70..76u64 {
        let groups = random_groups(seed, 40, 50, 7);
        let inst = DiversificationInstance::ebs(&groups, CovScheme::Proportional, 5);
        assert_all_entry_points_identical(&inst, 5, None, &format!("ebs seed={seed}"));
    }
}

#[test]
fn eligibility_filters_agree() {
    for seed in 80..90u64 {
        let users = 50;
        let groups = random_groups(seed, users, 60, 10);
        let mut rng = Lcg(seed ^ 0xDEAD_BEEF);
        let eligible: Vec<bool> = (0..users).map(|_| rng.below(4) != 0).collect();
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            7,
        );
        let ctx = format!("eligible seed={seed}");
        assert_all_entry_points_identical(&inst, 7, Some(&eligible), &ctx);
    }
}

#[test]
fn budget_exceeding_population_agrees() {
    let groups = random_groups(99, 12, 25, 6);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        40,
    );
    assert_all_entry_points_identical(&inst, 40, None, "budget > population");
}

#[test]
fn contains_matches_linear_scan_on_engine_output() {
    let groups = random_groups(7, 64, 90, 11);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Proportional,
        10,
    );
    let csr = CsrGraph::from_group_set(&groups);
    let sel = lazy_select_csr(&inst, &csr, 10, None);
    for u in 0..64u32 {
        let u = UserId(u);
        assert_eq!(sel.contains(u), sel.users.contains(&u), "user {u:?}");
    }
}
