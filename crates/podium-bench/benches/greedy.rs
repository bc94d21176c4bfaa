//! Criterion bench: the greedy selection core (Algorithm 1) across
//! population sizes — the microbenchmark behind Figure 5's Podium series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use podium_core::bucket::BucketingConfig;
use podium_core::engine::{eager_select_deadline, lazy_select_csr};
use podium_core::greedy::greedy_select;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::score::ScoreValue;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::synth::tripadvisor;

/// Deterministic synthetic group structure for engine throughput runs:
/// `n / 2` overlapping groups of 3–18 users (the scale a property bucket
/// reaches on the paper's review datasets), so every kernel sees the same
/// instance without paying dataset bucketing costs.
fn synthetic_groups(n: usize) -> GroupSet {
    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ n as u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let memberships: Vec<Vec<UserId>> = (0..n / 2)
        .map(|_| {
            let size = 3 + next() % 16;
            (0..size).map(|_| UserId((next() % n) as u32)).collect()
        })
        .collect();
    GroupSet::from_memberships(n, memberships)
}

/// The greedy loop exactly as it existed before the selection engine:
/// nested-Vec adjacency through `GroupSet`, full argmax scan per round,
/// decremental marginal maintenance, identical bookkeeping — and generic
/// over `W: ScoreValue`, like the original (a concrete `f64` copy optimizes
/// very differently and would not be a faithful baseline). Kept here so the
/// engine speedups are measured against the historical code path.
#[allow(clippy::needless_range_loop)] // verbatim historical loop shape
fn seed_eager<W: ScoreValue>(inst: &DiversificationInstance<W>, b: usize) -> (Vec<UserId>, W) {
    let groups = inst.groups();
    let n = groups.user_count();
    let mut available = vec![true; n];
    let mut cov_rem: Vec<u32> = groups.ids().map(|g| inst.cov(g)).collect();
    let mut marg: Vec<W> = vec![W::zero(); n];
    for u in 0..n {
        for &g in groups.groups_of(UserId(u as u32)) {
            if cov_rem[g.index()] > 0 && !inst.weight(g).is_zero() {
                marg[u].add_assign(inst.weight(g));
            }
        }
    }
    let mut users = Vec::with_capacity(b.min(n));
    let mut gains = Vec::with_capacity(b.min(n));
    let mut score = W::zero();
    let mut covered_counts = vec![0u32; groups.len()];
    for _ in 0..b {
        let mut best: Option<usize> = None;
        for u in 0..n {
            if !available[u] {
                continue;
            }
            match best {
                None => best = Some(u),
                Some(bu) => {
                    if marg[u]
                        .partial_cmp(&marg[bu])
                        .is_some_and(|o| o == std::cmp::Ordering::Greater)
                    {
                        best = Some(u);
                    }
                }
            }
        }
        let Some(u) = best else { break };
        available[u] = false;
        let uid = UserId(u as u32);
        score.add_assign(&marg[u]);
        gains.push(marg[u].clone());
        users.push(uid);
        for &g in groups.groups_of(uid) {
            let gi = g.index();
            covered_counts[gi] += 1;
            if cov_rem[gi] == 0 {
                continue;
            }
            cov_rem[gi] -= 1;
            if cov_rem[gi] == 0 && !inst.weight(g).is_zero() {
                let w = inst.weight(g).clone();
                for &m in groups.group(g).expect("group id from iterator").members {
                    if available[m.index()] {
                        marg[m.index()].sub_assign(&w);
                    }
                }
            }
        }
    }
    (users, score)
}

fn bench_engine_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_variants");
    group.sample_size(10);
    for &n in &[2_000usize, 10_000] {
        let groups = synthetic_groups(n);
        for &budget in &[8usize, 64, 256] {
            let inst = DiversificationInstance::from_schemes(
                &groups,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                budget,
            );
            // Eager (Alg. 1) and CELF over one prebuilt CSR graph.
            let csr = groups.csr();
            let id = BenchmarkId::new("eager", format!("n{n}/b{budget}"));
            group.bench_with_input(id, csr, |b, csr| {
                b.iter(|| {
                    eager_select_deadline(&inst, std::hint::black_box(csr), budget, &mut |_| false)
                });
            });
            let id = BenchmarkId::new("lazy_heap", format!("n{n}/b{budget}"));
            group.bench_with_input(id, csr, |b, csr| {
                b.iter(|| lazy_select_csr(&inst, std::hint::black_box(csr), budget, None));
            });
            // The public one-shot API (walks the group set's own CSR).
            let id = BenchmarkId::new("eager_one_shot", format!("n{n}/b{budget}"));
            group.bench_with_input(id, &inst, |b, inst| {
                b.iter(|| greedy_select(std::hint::black_box(inst), budget));
            });
            // The pre-engine implementation, for before/after comparison.
            let id = BenchmarkId::new("seed_eager", format!("n{n}/b{budget}"));
            group.bench_with_input(id, &inst, |b, inst| {
                b.iter(|| seed_eager(std::hint::black_box(inst), budget));
            });
        }
    }
    group.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_select");
    for &users in &[200usize, 400, 800] {
        let scale = users as f64 / 4475.0;
        let dataset = tripadvisor(scale, 7).generate();
        let buckets = BucketingConfig::adaptive_default().bucketize(&dataset.repo);
        let groups = GroupSet::build(&dataset.repo, &buckets);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            8,
        );
        group.bench_with_input(BenchmarkId::new("users", users), &inst, |b, inst| {
            b.iter(|| greedy_select(std::hint::black_box(inst), 8));
        });
    }
    group.finish();
}

fn bench_group_build(c: &mut Criterion) {
    let dataset = tripadvisor(0.1, 7).generate();
    let buckets = BucketingConfig::adaptive_default().bucketize(&dataset.repo);
    c.bench_function("group_set_build", |b| {
        b.iter(|| GroupSet::build(std::hint::black_box(&dataset.repo), &buckets));
    });
}

fn bench_incremental_updates(c: &mut Criterion) {
    use podium_core::incremental::IncrementalGroups;
    let dataset = tripadvisor(0.05, 7).generate();
    let buckets = BucketingConfig::adaptive_default().bucketize(&dataset.repo);
    let inc = IncrementalGroups::build(&dataset.repo, &buckets);
    let prop = podium_core::ids::PropertyId(0);
    let mut g = c.benchmark_group("incremental");
    // One point update vs a full rebuild of the same structure.
    g.bench_function("point_update", |b| {
        b.iter_batched(
            || inc.clone(),
            |mut inc| {
                inc.update_score(podium_core::ids::UserId(0), prop, Some(0.9));
                inc
            },
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("full_rebuild", |b| {
        b.iter(|| GroupSet::build(std::hint::black_box(&dataset.repo), &buckets));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_greedy, bench_engine_variants, bench_group_build, bench_incremental_updates
}
criterion_main!(benches);
