//! The benchmark's own rules: seeded scripts repeat byte for byte, the
//! percentile rule, ratios carry their base, open-loop latency is charged
//! from the due time, and span self time.

use std::time::{Duration, Instant};

use podium_core::bucket::BucketingConfig;
use podium_core::engine::CsrGraph;
use podium_core::group::GroupSet;
use podium_perfbench::openloop::{due_times, run_open_loop};
use podium_perfbench::script::{select_order, session_scripts, update_script};
use podium_perfbench::stats::{percentile, tail_percentile, Metric, Reservoir, Summary};
use podium_perfbench::trace::{self_times, Rollup, Span};
use podium_service::bench::synthetic_repository;

#[test]
fn same_seed_gives_byte_identical_scripts_and_due_times() {
    let a = update_script(7, 500, 16, 500.0, 2.0);
    let b = update_script(7, 500, 16, 500.0, 2.0);
    assert_eq!(a.lines, b.lines);
    assert_eq!(a.due, b.due);
    assert_eq!(a.lines.len(), 1000);
    assert_ne!(a.lines, update_script(8, 500, 16, 500.0, 2.0).lines);

    assert_eq!(select_order(7, 0, 8, 64), select_order(7, 0, 8, 64));
    assert_ne!(select_order(7, 0, 8, 64), select_order(7, 1, 8, 64));

    let repo = synthetic_repository(600, 8, 4, 3);
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    let groups = GroupSet::build(&repo, &buckets);
    let csr = CsrGraph::from_group_set(&groups);
    let lines = |seed| -> Vec<String> {
        session_scripts(seed, 0, 6, &groups, &csr)
            .iter()
            .flat_map(|s| {
                let mut l = vec![s.select.with(42)];
                l.extend(s.refines.iter().map(|r| r.with(42)));
                l
            })
            .collect()
    };
    assert_eq!(lines(11), lines(11));
    assert_ne!(lines(11), lines(12));
}

#[test]
fn due_times_are_evenly_spaced_from_zero() {
    let due = due_times(400.0, 1.0);
    assert_eq!(due.len(), 400);
    assert_eq!(due[0], Duration::ZERO);
    assert_eq!(due[1], Duration::from_micros(2500));
    assert_eq!(due[399], Duration::from_secs_f64(399.0 / 400.0));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));

    let mut samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
    let s = Summary::of(&mut samples);
    assert_eq!((s.n, s.p50, s.p99, s.max), (1_000, 500.0, 990.0, 1_000.0));
    assert_eq!(s.tail, Some((99.0, 990.0)));
    assert!(s.describe("us").contains("(n=1000)"));
    assert!(percentile(&[], 50.0).is_nan());
}

#[test]
fn reservoir_keeps_a_fixed_size_sample() {
    let mut r = Reservoir::new(100, 1);
    for i in 0..10_000 {
        r.push(f64::from(i));
    }
    assert_eq!(r.values().len(), 100);
    // A uniform sample of 0..10000 has its median near 5000.
    let mut v = r.values().to_vec();
    let s = Summary::of(&mut v);
    assert!((3_000.0..7_000.0).contains(&s.p50), "{}", s.p50);
    let mut small = Reservoir::new(100, 1);
    small.push(1.0);
    assert_eq!(small.values(), &[1.0]);
}

#[test]
fn every_ratio_prints_its_base() {
    let m = Metric::ratio("snapshot.memo_hit_ratio", "ratio", 99.0, 100, "selects");
    assert_eq!(m.value, 0.99);
    assert!(m.line().contains("(base: 100 selects)"), "{}", m.line());
    let empty = Metric::ratio("snapshot.patched_ratio", "ratio", 0.0, 0, "publishes");
    assert_eq!(empty.value, 0.0);
    assert!(empty.line().contains("(base: 0 publishes)"));
    assert!(Metric::new("op_p50_us", "us", 1.0, 7)
        .line()
        .contains("(n=7)"));
}

#[test]
fn open_loop_charges_a_stall_to_every_request_behind_it() {
    // 200 requests at 1 kHz; request 20 stalls the target for 50 ms.
    let due = due_times(1_000.0, 0.2);
    let stall = Duration::from_millis(50);
    let start = Instant::now();
    let tally = run_open_loop(start, &due, start + Duration::from_millis(200), |i| {
        if i == 20 {
            std::thread::sleep(stall);
        }
        true
    });
    assert_eq!((tally.due, tally.applied, tally.unsent), (200, 200, 0));
    // The stalled request and the ones queued behind it are late by about
    // the stall, counted from when each was due, not when it was sent.
    assert!(tally.latency_us[20] >= 49_000.0, "{}", tally.latency_us[20]);
    assert!(tally.latency_us[21] >= 47_000.0, "{}", tally.latency_us[21]);
    assert!(tally.lateness_us[21] >= 47_000.0);
    let max_late = tally.lateness_us.iter().cloned().fold(0.0, f64::max);
    assert!(max_late >= 47_000.0);
    // The backlog drains, so requests well after the stall are on time
    // again: the offered rate did not depend on the target's speed.
    assert!(
        tally.latency_us[199] < 20_000.0,
        "{}",
        tally.latency_us[199]
    );
    // A closed loop would have been charged only the 50 ms once; here
    // ~47 requests each carry part of it.
    let late: usize = tally.latency_us.iter().filter(|&&l| l > 10_000.0).count();
    assert!(late >= 30, "{late} requests late");
}

fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        req: 1,
        name,
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    let spans = [
        span(1, None, "bench.request", 0, 100),
        span(2, Some(1), "protocol.parse", 0, 10),
        // Two overlapping children on different threads cover 20..60 once.
        span(3, Some(1), "executor.run", 20, 50),
        span(4, Some(1), "executor.queue_wait", 30, 60),
        // A child running past its parent's end only counts inside it.
        span(5, Some(1), "protocol.encode", 90, 120),
        span(6, Some(3), "snapshot.select", 25, 45),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs, vec![100 - 10 - 40 - 10, 10, 10, 30, 30, 20]);
    let rollup = Rollup::of(&spans);
    let layer = |l| rollup.layer_self_us[l] * 1e3;
    assert!((layer("bench") - 40.0).abs() < 1e-9);
    assert!((layer("executor") - 40.0).abs() < 1e-9);
    assert!((layer("protocol") - 40.0).abs() < 1e-9);
    assert_eq!(rollup.call("executor.run").map(|c| c.count), Some(1));
}
