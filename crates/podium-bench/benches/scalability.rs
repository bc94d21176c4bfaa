//! Criterion bench behind Figures 5 and 6: end-to-end selection time of
//! Podium vs. the Clustering and Distance baselines as the population and
//! the profile size grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use podium_baselines::prelude::*;
use podium_bench::selectors::PodiumSelector;
use podium_core::engine::{lazy_select_csr, CsrGraph};
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::profile::UserRepository;
use podium_data::synth::tripadvisor;

/// [`PodiumSelector::select`] with CELF ([`lazy_select_csr`]) in place of
/// eager greedy: same grouping, same selection.
fn podium_celf(podium: &PodiumSelector, repo: &UserRepository, b: usize) -> Vec<UserId> {
    let groups = GroupSet::build(repo, &podium.bucketing.bucketize(repo));
    let inst = DiversificationInstance::from_schemes(&groups, podium.weight, podium.cov, b);
    let csr = CsrGraph::from_group_set(&groups);
    lazy_select_csr(&inst, &csr, b, None).users
}

fn bench_users_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_users_sweep");
    group.sample_size(10);
    for &users in &[250usize, 500, 1000] {
        let dataset = tripadvisor(users as f64 / 4475.0, 5).generate();
        let repo = &dataset.repo;
        let clustering = KMeansSelector::new(5);
        let distance = DistanceSelector::new(5);
        let podium = PodiumSelector::paper_default();
        group.bench_with_input(BenchmarkId::new("podium_eager", users), repo, |b, r| {
            b.iter(|| podium.select(std::hint::black_box(r), 8));
        });
        group.bench_with_input(BenchmarkId::new("podium_lazy_heap", users), repo, |b, r| {
            b.iter(|| podium_celf(&podium, std::hint::black_box(r), 8));
        });
        group.bench_with_input(BenchmarkId::new("clustering", users), repo, |b, r| {
            b.iter(|| clustering.select(std::hint::black_box(r), 8));
        });
        group.bench_with_input(BenchmarkId::new("distance", users), repo, |b, r| {
            b.iter(|| distance.select(std::hint::black_box(r), 8));
        });
    }
    group.finish();
}

fn bench_profile_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_profile_sweep");
    group.sample_size(10);
    for &leaves in &[3usize, 6, 12] {
        let mut cfg = tripadvisor(0.07, 6);
        cfg.leaves_per_region = leaves;
        let dataset = cfg.generate();
        let repo = &dataset.repo;
        let podium = PodiumSelector::paper_default();
        let label = format!("{:.0}props", repo.mean_profile_size());
        group.bench_with_input(BenchmarkId::new("podium", label), repo, |b, r| {
            b.iter(|| podium.select(std::hint::black_box(r), 8));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_users_sweep, bench_profile_sweep);
criterion_main!(benches);
