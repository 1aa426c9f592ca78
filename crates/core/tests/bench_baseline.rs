//! `BENCH_mmgbench.json` is the baseline CI's perf gate compares every
//! mmgbench run with: the result line of each workload's seed-42 run
//! plus the traced suite-cold run (`suite-cold-trace`). The gate fails
//! on a figure missing from either side, so the baseline must carry a
//! throughput for every workload and a wall time for exactly the
//! experiments `repro all` runs. A change that adds or removes an
//! experiment re-records the baseline.

use mmg_core::ExperimentId;
use serde_json::Value;

/// The median of `metric` in one recorded run.
fn metric(run: &Value, metric: &str) -> Option<f64> {
    run.field("metrics")?.field(metric)?.field("value")?.as_f64()
}

#[test]
fn baseline_covers_every_workload_and_experiment() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mmgbench.json");
    let text = std::fs::read_to_string(path).expect("BENCH_mmgbench.json is readable");
    let baseline: Value = serde_json::from_str(&text).expect("BENCH_mmgbench.json is JSON");
    let run = |name: &str| {
        let run = baseline.field(name).unwrap_or_else(|| panic!("no {name} run"));
        assert_eq!(run.field("correct"), Some(&Value::Bool(true)), "{name} run was not correct");
        run
    };

    for workload in ["suite-cold", "serve-stream", "fleet-fifo", "token-kv"] {
        let work_per_s = metric(run(workload), "work_per_s");
        assert!(work_per_s.is_some_and(|v| v > 0.0), "{workload}: work_per_s {work_per_s:?}");
    }

    let traced = run("suite-cold-trace");
    for id in ExperimentId::ALL {
        let name = format!("core.exp.{id}_s");
        let wall_s = metric(traced, &name);
        assert!(wall_s.is_some_and(|s| s >= 0.0), "{name}: {wall_s:?}");
    }
    let Some(Value::Object(metrics)) = traced.field("metrics") else {
        panic!("suite-cold-trace has no metrics object");
    };
    let timed = metrics.iter().filter(|(name, _)| name.starts_with("core.exp.")).count();
    assert_eq!(timed, ExperimentId::ALL.len(), "experiments in the baseline but not the suite");
}
