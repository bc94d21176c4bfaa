//! Intrinsic diversity metrics (§8.2): how well the selected subset
//! represents the source population, judged from profiles alone.

use podium_core::group::{Group, GroupSet};
use podium_core::ids::{GroupId, UserId};
use podium_core::instance::DiversificationInstance;
use podium_core::score::ScoreValue;

use crate::cdsim::cd_sim;

/// The intrinsic metric bundle reported in Figures 3a/3c.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntrinsicMetrics {
    /// Selection total score (Definition 3.3) under the evaluation instance.
    pub total_score: f64,
    /// Fraction of the `k` largest groups with a selected representative
    /// (the paper uses k = 200).
    pub top_k_coverage: f64,
    /// Fraction of large *intersections* of simple groups covered.
    pub intersected_coverage: f64,
    /// Group-bucket distribution similarity (top-20 CD-sim average).
    pub distribution_similarity: f64,
}

impl IntrinsicMetrics {
    /// Evaluates all four metrics for one selection.
    pub fn evaluate<W: ScoreValue>(
        inst: &DiversificationInstance<'_, W>,
        selection: &[UserId],
        top_k: usize,
    ) -> Self {
        let groups = inst.groups();
        Self {
            total_score: inst.score_of(selection).as_f64(),
            top_k_coverage: top_k_coverage(groups, selection, top_k),
            intersected_coverage: intersected_coverage(groups, selection, top_k),
            distribution_similarity: distribution_similarity(groups, selection, 20),
        }
    }
}

fn selected_mask(groups: &GroupSet, selection: &[UserId]) -> Vec<bool> {
    let mut mask = vec![false; groups.user_count()];
    for &u in selection {
        if u.index() < mask.len() {
            mask[u.index()] = true;
        }
    }
    mask
}

fn covered(group: Group<'_>, mask: &[bool]) -> bool {
    group.members.iter().any(|&u| mask[u.index()])
}

fn selected_count(group: Group<'_>, mask: &[bool]) -> usize {
    group.members.iter().filter(|&&u| mask[u.index()]).count()
}

/// Group ids sorted by decreasing size (ties by id for determinism).
fn groups_by_size(groups: &GroupSet) -> Vec<GroupId> {
    let mut ids: Vec<GroupId> = groups.ids().collect();
    ids.sort_by_key(|&g| {
        (
            std::cmp::Reverse(groups.group(g).map(|gr| gr.size()).unwrap_or(0)),
            g,
        )
    });
    ids
}

/// *Top-k groups coverage*: the fraction of the `k` largest groups that have
/// at least one selected representative.
pub fn top_k_coverage(groups: &GroupSet, selection: &[UserId], k: usize) -> f64 {
    if groups.is_empty() || k == 0 {
        return 0.0;
    }
    let mask = selected_mask(groups, selection);
    let ids = groups_by_size(groups);
    let k = k.min(ids.len());
    let covered_count = ids[..k]
        .iter()
        .filter(|&&g| covered(groups.group(g).expect("listed id"), &mask))
        .count();
    covered_count as f64 / k as f64
}

/// *Intersected-property coverage*: like top-k coverage, but over pairwise
/// intersections of simple groups that are at least as large as the k-th
/// largest simple group. Captures complex groups ("Tokyo residents who are
/// also Mexican food lovers") that no algorithm targets explicitly.
pub fn intersected_coverage(groups: &GroupSet, selection: &[UserId], k: usize) -> f64 {
    if groups.is_empty() || k == 0 {
        return 0.0;
    }
    let ids = groups_by_size(groups);
    let k_idx = k.min(ids.len()) - 1;
    let threshold = groups
        .group(ids[k_idx])
        .map(|g| g.size())
        .unwrap_or(1)
        .max(1);

    // Only groups of size >= threshold can intersect to >= threshold.
    let candidates: Vec<GroupId> = ids
        .iter()
        .copied()
        .take_while(|&g| groups.group(g).map(|gr| gr.size()).unwrap_or(0) >= threshold)
        .collect();
    let mask = selected_mask(groups, selection);
    let mut total = 0usize;
    let mut hit = 0usize;
    for i in 0..candidates.len() {
        let gi = groups.group(candidates[i]).expect("listed id");
        for gj_id in &candidates[(i + 1)..] {
            let gj = groups.group(*gj_id).expect("listed id");
            let inter = podium_core::group::intersect_sorted(gi.members, gj.members);
            if inter.len() < threshold {
                continue;
            }
            total += 1;
            if inter.iter().any(|&u| mask[u.index()]) {
                hit += 1;
            }
        }
    }
    if total == 0 {
        // No large intersections exist; vacuous full coverage.
        1.0
    } else {
        hit as f64 / total as f64
    }
}

/// *Group-bucket distribution similarity*: for each property underlying the
/// `top` largest groups, compare the population's bucket distribution with
/// the subset's via CD-sim (weights = group sizes, i.e. LBS), then average.
pub fn distribution_similarity(groups: &GroupSet, selection: &[UserId], top: usize) -> f64 {
    if groups.is_empty() || top == 0 {
        return 0.0;
    }
    let mask = selected_mask(groups, selection);
    // Properties of the `top` largest simple groups, deduplicated, in order.
    let mut properties: Vec<podium_core::ids::PropertyId> = Vec::new();
    for g in groups_by_size(groups).into_iter().take(top) {
        if let podium_core::group::GroupKind::Simple { property, .. } =
            &groups.group(g).expect("listed id").kind
        {
            if !properties.contains(property) {
                properties.push(*property);
            }
        }
    }
    if properties.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut counted = 0usize;
    for p in properties {
        let prop_groups = groups.groups_of_property(p);
        if prop_groups.is_empty() {
            continue;
        }
        let sizes: Vec<f64> = prop_groups
            .iter()
            .map(|&g| groups.group(g).expect("listed id").size() as f64)
            .collect();
        let sel_sizes: Vec<f64> = prop_groups
            .iter()
            .map(|&g| selected_count(groups.group(g).expect("listed id"), &mask) as f64)
            .collect();
        let pop_total: f64 = sizes.iter().sum();
        let sel_total: f64 = sel_sizes.iter().sum();
        if pop_total == 0.0 {
            continue;
        }
        let f_all: Vec<f64> = sizes.iter().map(|s| s / pop_total).collect();
        let f_sub: Vec<f64> = if sel_total == 0.0 {
            vec![0.0; sel_sizes.len()]
        } else {
            sel_sizes.iter().map(|s| s / sel_total).collect()
        };
        sum += cd_sim(&f_sub, &f_all);
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        sum / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use podium_core::bucket::BucketingConfig;
    use podium_core::weights::{CovScheme, WeightScheme};

    fn table2_groups() -> (podium_core::profile::UserRepository, GroupSet) {
        let repo = podium_data::table2::table2();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let groups = GroupSet::build(&repo, &buckets);
        (repo, groups)
    }

    #[test]
    fn top_k_coverage_on_table2() {
        let (_, groups) = table2_groups();
        // Alice+Eve cover: Tokyo, Paris, age?, avgMex high, visitMex high/med,
        // avgCheap low/med, visitCheap med/low. Largest 3 groups have sizes
        // 3,2,2,...; with k=3 check coverage of the top-3 by size.
        let alice_eve = vec![UserId(0), UserId(4)];
        let cov = top_k_coverage(&groups, &alice_eve, 3);
        assert!(cov > 0.6, "top-3 mostly covered: {cov}");
        let nobody: Vec<UserId> = vec![];
        assert_eq!(top_k_coverage(&groups, &nobody, 3), 0.0);
        let everyone: Vec<UserId> = (0..5).map(UserId::from_index).collect();
        assert_eq!(top_k_coverage(&groups, &everyone, 200), 1.0);
    }

    #[test]
    fn intersected_coverage_counts_complex_groups() {
        let (_, groups) = table2_groups();
        // Threshold = size of 16th largest group = 1 -> all non-empty
        // pairwise intersections count.
        let everyone: Vec<UserId> = (0..5).map(UserId::from_index).collect();
        assert_eq!(intersected_coverage(&groups, &everyone, 16), 1.0);
        let nobody: Vec<UserId> = vec![];
        assert_eq!(intersected_coverage(&groups, &nobody, 16), 0.0);
        // Alice alone covers exactly the intersections containing her.
        let alice = vec![UserId(0)];
        let c = intersected_coverage(&groups, &alice, 16);
        assert!(c > 0.0 && c < 1.0, "{c}");
    }

    #[test]
    fn intersected_coverage_vacuous_when_no_large_intersections() {
        // Two disjoint groups: no intersections at threshold 2.
        let groups = GroupSet::from_memberships(
            4,
            vec![vec![UserId(0), UserId(1)], vec![UserId(2), UserId(3)]],
        );
        assert_eq!(intersected_coverage(&groups, &[UserId(0)], 2), 1.0);
    }

    #[test]
    fn distribution_similarity_perfect_for_full_selection() {
        let (_, groups) = table2_groups();
        let everyone: Vec<UserId> = (0..5).map(UserId::from_index).collect();
        let d = distribution_similarity(&groups, &everyone, 20);
        assert!(
            (d - 1.0).abs() < 1e-12,
            "full selection matches exactly: {d}"
        );
    }

    #[test]
    fn distribution_similarity_penalizes_skew() {
        let (_, groups) = table2_groups();
        let balanced: Vec<UserId> = vec![UserId(0), UserId(4)]; // Alice, Eve
        let skewed: Vec<UserId> = vec![UserId(1)]; // Bob only (eccentric)
        let db = distribution_similarity(&groups, &balanced, 20);
        let ds = distribution_similarity(&groups, &skewed, 20);
        assert!(db > ds, "balanced {db} > skewed {ds}");
    }

    #[test]
    fn evaluate_bundle() {
        let (_, groups) = table2_groups();
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        let sel = podium_core::greedy::greedy_select(&inst, 2);
        let m = IntrinsicMetrics::evaluate(&inst, &sel.users, 200);
        assert_eq!(m.total_score, 17.0);
        assert!(m.top_k_coverage > 0.0 && m.top_k_coverage <= 1.0);
        assert!(m.intersected_coverage > 0.0 && m.intersected_coverage <= 1.0);
        assert!(m.distribution_similarity > 0.0 && m.distribution_similarity <= 1.0);
    }

    #[test]
    fn empty_group_set_is_safe() {
        let groups = GroupSet::from_memberships(3, vec![]);
        assert_eq!(top_k_coverage(&groups, &[UserId(0)], 5), 0.0);
        assert_eq!(intersected_coverage(&groups, &[UserId(0)], 5), 0.0);
        assert_eq!(distribution_similarity(&groups, &[UserId(0)], 5), 0.0);
    }
}
