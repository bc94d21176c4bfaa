//! The synthetic repository shared by the serving tests, examples and
//! the benchmark in `perfbench/`: `users` users with uniform scores over
//! `topic-p` properties, drawn from a seeded splitmix64 stream.

use podium_core::engine::splitmix64;
use podium_core::profile::UserRepository;

fn unit_float(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Builds the synthetic benchmark repository: `users` users, each with
/// `scores_per_user` scores over `properties` properties, uniform in
/// `[0, 1)`.
pub fn synthetic_repository(
    users: usize,
    properties: usize,
    scores_per_user: usize,
    seed: u64,
) -> UserRepository {
    let mut repo = UserRepository::new();
    let props: Vec<_> = (0..properties)
        .map(|p| repo.intern_property(format!("topic-{p}")))
        .collect();
    let mut rng = seed;
    for i in 0..users {
        let u = repo.add_user(format!("user-{i}"));
        for s in 0..scores_per_user.min(properties) {
            // Rotate the property window per user so every property ends
            // up populated.
            let p = props[(i + s * (properties / scores_per_user.max(1)).max(1)) % properties];
            repo.set_score(u, p, unit_float(&mut rng))
                .expect("synthetic scores are in range");
        }
    }
    repo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_repository_is_deterministic() {
        let a = synthetic_repository(50, 8, 3, 42);
        let b = synthetic_repository(50, 8, 3, 42);
        assert_eq!(a.user_count(), 50);
        assert_eq!(a.property_count(), 8);
        for u in a.users() {
            assert_eq!(a.profile(u).unwrap(), b.profile(u).unwrap());
        }
    }
}
