//! The common interface of all user-selection algorithms.

use podium_core::ids::UserId;
use podium_core::profile::UserRepository;

/// A budgeted user-selection algorithm: pick at most `b` users from the
/// repository.
///
/// `Send + Sync` so experiment harnesses can evaluate selectors across
/// worker threads (selectors are plain configuration data).
pub trait Selector: Send + Sync {
    /// A short display name for reports (e.g. `"Random"`).
    fn name(&self) -> &str;

    /// Selects at most `b` users. Implementations must be deterministic for
    /// a fixed construction (seeds are constructor parameters).
    fn select(&self, repo: &UserRepository, b: usize) -> Vec<UserId>;

    /// Like [`Self::select`] but asserts the [`check_selection`]
    /// postconditions in debug builds (zero cost in release). Harnesses
    /// should prefer this entry point when comparing selectors.
    ///
    /// Greedy-backed selectors get instance- and CSR-level checks for free
    /// on this path: under debug assertions `greedy_select_opts` runs
    /// `DiversificationInstance::validate()`, and the group set's CSR graph
    /// self-checked its structure when it was built, so `select_checked`
    /// vets both the input instance and the output selection.
    fn select_checked(&self, repo: &UserRepository, b: usize) -> Vec<UserId> {
        let selection = self.select(repo, b);
        debug_assert!(
            check_selection(repo, b, &selection),
            "selector `{}` violated selection postconditions",
            self.name()
        );
        selection
    }
}

/// Validates common postconditions (used in tests and debug assertions):
/// within budget, no duplicates, ids in range.
pub fn check_selection(repo: &UserRepository, b: usize, selection: &[UserId]) -> bool {
    if selection.len() > b {
        return false;
    }
    let mut seen = std::collections::HashSet::new();
    selection
        .iter()
        .all(|u| u.index() < repo.user_count() && seen.insert(*u))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_selection_rules() {
        let mut repo = UserRepository::new();
        for i in 0..3 {
            repo.add_user(format!("u{i}"));
        }
        assert!(check_selection(&repo, 2, &[UserId(0), UserId(2)]));
        assert!(
            !check_selection(&repo, 1, &[UserId(0), UserId(2)]),
            "budget"
        );
        assert!(!check_selection(&repo, 3, &[UserId(0), UserId(0)]), "dupes");
        assert!(!check_selection(&repo, 3, &[UserId(9)]), "range");
    }

    #[test]
    fn select_checked_passes_through_valid_selections() {
        struct TakeFirst;
        impl Selector for TakeFirst {
            fn name(&self) -> &str {
                "TakeFirst"
            }
            fn select(&self, repo: &UserRepository, b: usize) -> Vec<UserId> {
                (0..repo.user_count().min(b) as u32).map(UserId).collect()
            }
        }
        let mut repo = UserRepository::new();
        for i in 0..4 {
            repo.add_user(format!("u{i}"));
        }
        assert_eq!(
            TakeFirst.select_checked(&repo, 2),
            vec![UserId(0), UserId(1)]
        );
    }
}
