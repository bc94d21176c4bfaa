//! Criterion bench: design-choice ablations — eager vs. lazy (CELF) greedy,
//! and the cost of each weight scheme (f64 LBS vs. exact big-integer EBS).

use criterion::{criterion_group, criterion_main, Criterion};
use podium_core::bucket::BucketingConfig;
use podium_core::engine::lazy_select_csr;
use podium_core::greedy::greedy_select;
use podium_core::group::GroupSet;
use podium_core::instance::DiversificationInstance;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::synth::tripadvisor;

fn bench_eager_vs_lazy(c: &mut Criterion) {
    let dataset = tripadvisor(0.1, 8).generate();
    let buckets = BucketingConfig::adaptive_default().bucketize(&dataset.repo);
    let groups = GroupSet::build(&dataset.repo, &buckets);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        8,
    );
    // Both sides walk the group set's own CSR graph, as the one-shot
    // `greedy_select` does.
    let celf = |b: usize| lazy_select_csr(&inst, inst.groups().csr(), b, None);
    let mut g = c.benchmark_group("eager_vs_lazy");
    g.bench_function("eager_b8", |b| {
        b.iter(|| greedy_select(std::hint::black_box(&inst), 8));
    });
    g.bench_function("lazy_b8", |b| {
        b.iter(|| celf(std::hint::black_box(8)));
    });
    g.bench_function("eager_b64", |b| {
        b.iter(|| greedy_select(std::hint::black_box(&inst), 64));
    });
    g.bench_function("lazy_b64", |b| {
        b.iter(|| celf(std::hint::black_box(64)));
    });
    g.finish();
}

fn bench_weight_schemes(c: &mut Criterion) {
    let dataset = tripadvisor(0.1, 8).generate();
    let buckets = BucketingConfig::adaptive_default().bucketize(&dataset.repo);
    let groups = GroupSet::build(&dataset.repo, &buckets);
    let mut g = c.benchmark_group("weight_schemes");
    let lbs = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        8,
    );
    g.bench_function("lbs_f64", |b| {
        b.iter(|| greedy_select(std::hint::black_box(&lbs), 8));
    });
    let ebs = DiversificationInstance::ebs(&groups, CovScheme::Single, 8);
    g.bench_function("ebs_exact", |b| {
        b.iter(|| greedy_select(std::hint::black_box(&ebs), 8));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_eager_vs_lazy, bench_weight_schemes
}
criterion_main!(benches);
