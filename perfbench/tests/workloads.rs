//! Each workload, traced for a short run, does the work it was chosen for
//! and passes its correctness gate.

use std::path::PathBuf;

use podium_perfbench::stats::Metric;
use podium_perfbench::workloads::{run, RunConfig, RunResult, Workload};

fn traced(workload: Workload) -> RunResult {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name());
    std::fs::create_dir_all(&out_dir).expect("test output directory");
    let res = run(&RunConfig {
        workload,
        seed: 5,
        seconds: 2.0,
        trace: true,
        out_dir: out_dir.clone(),
    });
    assert!(res.correct, "{:#?}", res.notes);
    assert!(res.attempted > 0);
    assert!(
        out_dir
            .join(format!("trace-{}.jsonl", workload.name()))
            .exists()
            && out_dir
                .join(format!("rollup-{}.jsonl", workload.name()))
                .exists()
    );
    res
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn has(metrics: &[Metric], name: &str) -> bool {
    metrics.iter().any(|m| m.name == name)
}

#[test]
fn read_hot_is_served_from_the_memo_with_no_kernel_time() {
    let res = traced(Workload::ReadHot);
    assert!(value(&res.layers, "snapshot.memo_hit_ratio") >= 0.99);
    assert_eq!(value(&res.layers, "engine.self_share"), 0.0);
    assert!(!has(&res.layer_detail, "engine.celf_us.p50"));
    assert!(has(&res.layer_detail, "tcp.call_us.p50"));
}

#[test]
fn read_drift_is_miss_dominated_and_reports_the_kernel_share() {
    let res = traced(Workload::ReadDrift);
    assert!(value(&res.layers, "snapshot.memo_hit_ratio") < 0.5);
    assert!(value(&res.layers, "engine.kernel_share") > 0.0);
    assert!(value(&res.layers, "snapshot.patched_ratio") > 0.0);
}

#[test]
fn write_durable_times_wal_appends_and_recovery() {
    let res = traced(Workload::WriteDurable);
    assert!(has(&res.layer_detail, "wal.append_us.p50"));
    assert!(has(&res.layer_detail, "recovery.recover_s"));
    assert!(value(&res.layers, "wal.bytes_per_update") > 0.0);
    assert!(has(&res.detail, "recovery_s") && has(&res.detail, "data_dir_mb"));
}

#[test]
fn session_refine_times_refines_and_constrained_selects() {
    let res = traced(Workload::SessionRefine);
    assert!(has(&res.layer_detail, "session.refine_us.p50"));
    assert!(has(&res.layer_detail, "snapshot.pinned_select_us.p50"));
    assert!(value(&res.layers, "session.pool_size.mean") >= 16.0);
}
