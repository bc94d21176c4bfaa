//! Podium itself as a [`Selector`], plus the standard comparator lineup.

use podium_baselines::prelude::*;
use podium_core::bucket::BucketingConfig;
use podium_core::greedy::greedy_select;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::profile::UserRepository;
use podium_core::weights::{CovScheme, WeightScheme};

/// Podium's greedy coverage-based selection wrapped as a [`Selector`]. By
/// default this matches the paper's experimental configuration: no
/// customization feedback, LBS weights, Single coverage (§8.3).
#[derive(Debug, Clone)]
pub struct PodiumSelector {
    /// Bucketing configuration for group construction.
    pub bucketing: BucketingConfig,
    /// Weight scheme.
    pub weight: WeightScheme,
    /// Coverage scheme.
    pub cov: CovScheme,
}

impl PodiumSelector {
    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        Self {
            bucketing: BucketingConfig::adaptive_default(),
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
        }
    }

    /// Overrides the bucketing configuration.
    pub fn with_bucketing(mut self, b: BucketingConfig) -> Self {
        self.bucketing = b;
        self
    }
}

impl Selector for PodiumSelector {
    fn name(&self) -> &str {
        "Podium"
    }

    fn select(&self, repo: &UserRepository, b: usize) -> Vec<UserId> {
        if b == 0 || repo.user_count() == 0 {
            return Vec::new();
        }
        let buckets = self.bucketing.bucketize(repo);
        let groups = GroupSet::build(repo, &buckets);
        let inst = DiversificationInstance::from_schemes(&groups, self.weight, self.cov, b);
        greedy_select(&inst, b).users
    }
}

/// The standard §8.3 comparator lineup: Podium, Random, Clustering,
/// Distance.
pub fn standard_lineup(seed: u64) -> Vec<Box<dyn Selector>> {
    vec![
        Box::new(PodiumSelector::paper_default()),
        Box::new(RandomSelector::new(seed)),
        Box::new(KMeansSelector::new(seed)),
        Box::new(DistanceSelector::new(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn podium_selector_on_table2() {
        let repo = podium_data::table2::table2();
        let sel = PodiumSelector::paper_default()
            .with_bucketing(BucketingConfig::paper_default())
            .select(&repo, 2);
        let names: Vec<&str> = sel.iter().map(|&u| repo.user_name(u).unwrap()).collect();
        assert_eq!(names, vec!["Alice", "Eve"]);
    }

    #[test]
    fn lineup_has_four_distinct_names() {
        let lineup = standard_lineup(1);
        let names: Vec<&str> = lineup.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["Podium", "Random", "Clustering", "Distance"]);
    }
}
