//! End-to-end checks of the serving flight recorder's CLI surface:
//! `repro serve --trace-out` must emit a Perfetto-loadable trace whose
//! bytes depend only on the scenario seed.

use std::process::Command;

/// Runs a 20 s serve scenario with `--trace-out` plus `extra` and
/// returns the trace, written to a temporary file named after `name`.
fn trace_to(name: &str, seed: &str, extra: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!("mmg-trace-{}-{name}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--duration-s", "20", "--seed", seed, "--trace-out"])
        .arg(&path)
        .args(extra)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro serve --trace-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    trace
}

/// The trace is a pure function of the seed: two runs of one scenario
/// write the same bytes (`serve` has no worker pool, so there is no job
/// count to vary), and another seed writes different ones.
#[test]
fn trace_bytes_are_jobs_invariant_and_seed_sensitive() {
    let t1 = trace_to("seed42-a", "42", &[]);
    let again = trace_to("seed42-b", "42", &[]);
    assert_eq!(t1, again, "same seed, different flight trace bytes");
    let t9 = trace_to("seed9", "9", &[]);
    assert_ne!(t1, t9, "different seeds must produce different traces");
}

/// The trace envelope, event shapes, counter tracks and lanes Perfetto
/// reads. The trace writer is hand-rolled, so every event of a plain
/// and of an `--attrib` trace (which adds alert instants) must carry a
/// phase and a process id.
#[test]
fn trace_has_the_perfetto_surface() {
    let body = trace_to("surface", "42", &[]);
    let attrib = trace_to("surface-attrib", "42", &["--attrib"]);
    for (what, trace) in [("plain", &body), ("--attrib", &attrib)] {
        let v: serde_json::Value = serde_json::from_str(trace).expect("trace parses as JSON");
        let events =
            v.field("traceEvents").and_then(serde_json::Value::as_array).expect("traceEvents");
        assert!(!events.is_empty(), "{what} trace has no events");
        for e in events {
            assert!(
                e.field("ph").is_some() && e.field("pid").is_some(),
                "{what} trace: event without ph or pid: {e:?}"
            );
        }
    }
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
