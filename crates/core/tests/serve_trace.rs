//! End-to-end checks of the serving flight recorder's CLI surface:
//! `repro serve --trace-out` must emit a Perfetto-loadable trace whose
//! bytes depend only on the scenario seed (never on `--jobs`).

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn trace_to(path: &str, jobs: &str, seed: &str) -> String {
    let out = repro(&[
        "serve",
        "--duration-s",
        "20",
        "--seed",
        seed,
        "--jobs",
        jobs,
        "--trace-out",
        path,
    ]);
    assert!(
        out.status.success(),
        "repro serve --trace-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(path).expect("trace file written")
}

#[test]
fn trace_bytes_are_jobs_invariant_and_seed_sensitive() {
    let dir = std::env::temp_dir();
    let a = dir.join("mmg_trace_j1.json");
    let b = dir.join("mmg_trace_j4.json");
    let c = dir.join("mmg_trace_seed9.json");
    let t1 = trace_to(a.to_str().unwrap(), "1", "42");
    let t4 = trace_to(b.to_str().unwrap(), "4", "42");
    assert_eq!(t1, t4, "--jobs changed the flight trace bytes");
    let t9 = trace_to(c.to_str().unwrap(), "1", "9");
    assert_ne!(t1, t9, "different seeds must produce different traces");
}

#[test]
fn trace_has_the_perfetto_surface() {
    let dir = std::env::temp_dir();
    let path = dir.join("mmg_trace_surface.json");
    let body = trace_to(path.to_str().unwrap(), "1", "42");
    let v: serde_json::Value = serde_json::from_str(&body).expect("trace parses as JSON");
    assert_eq!(v.field("displayTimeUnit").and_then(serde_json::Value::as_str), Some("us"));
    let events =
        v.field("traceEvents").and_then(serde_json::Value::as_array).expect("traceEvents");
    let phase = |e: &serde_json::Value| {
        e.field("ph").and_then(serde_json::Value::as_str).map(str::to_string)
    };
    let name = |e: &serde_json::Value| {
        e.field("name").and_then(serde_json::Value::as_str).map(str::to_string)
    };
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("X")), "batch spans");
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("i")), "scheduler instants");
    let counters: std::collections::BTreeSet<String> = events
        .iter()
        .filter(|e| phase(e).as_deref() == Some("C"))
        .filter_map(&name)
        .collect();
    assert!(counters.len() >= 4, "want >= 4 counter tracks, got {counters:?}");
    // Per-GPU lanes: the thread-name metadata declares one lane per GPU.
    let lanes: Vec<String> = events
        .iter()
        .filter(|e| name(e).as_deref() == Some("thread_name"))
        .filter_map(|e| {
            e.field("args")?.field("name")?.as_str().map(str::to_string)
        })
        .collect();
    for want in ["gpu0", "gpu3", "scheduler"] {
        assert!(lanes.iter().any(|l| l == want), "missing lane {want} in {lanes:?}");
    }
}
