//! End-to-end determinism of the `repro` binary: serial runs are
//! repeatable, and a parallel (`--jobs`) run produces byte-identical
//! stdout and metrics dumps — the worker pool must not change what the
//! user sees.

use std::process::Command;

/// A cheap-but-representative subset: pure-analytic experiments plus
/// profiled ones that exercise the memo and the worker registries.
const SUBSET: &[&str] = &["fig4", "fig12", "fig13", "tp", "secv", "batch"];

fn repro(extra: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(SUBSET)
        .args(extra)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro exited with {:?}", out.status);
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn serial_runs_are_repeatable_and_parallel_matches() {
    let (serial_a, _) = repro(&["--jobs", "1"]);
    let (serial_b, _) = repro(&["--jobs", "1"]);
    assert_eq!(serial_a, serial_b, "two serial runs diverge");
    let (parallel, _) = repro(&["--jobs", "4"]);
    assert_eq!(serial_a, parallel, "--jobs 4 changes stdout");
    assert!(serial_a.contains("device:"), "report header present");
}

#[test]
fn json_mode_is_deterministic_across_job_counts() {
    let (serial, _) = repro(&["--json", "--jobs", "1"]);
    let (parallel, _) = repro(&["--json", "--jobs", "3"]);
    assert_eq!(serial, parallel, "--jobs 3 changes JSON stream");
    assert_eq!(
        serial.lines().count(),
        SUBSET.len() + 1,
        "one envelope line per experiment plus the manifest line"
    );
    for line in serial.lines().take(SUBSET.len()) {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON envelope");
        assert!(v.get("experiment").is_some() && v.get("result").is_some());
    }
}

/// `optimize` profiles every family under every pass combination and
/// `energy` adds the power regimes and a batch-cap sweep of the serving
/// DES under a power cap. Their tables, the run manifest with its
/// counter totals, and the Prometheus dump must not depend on the
/// worker count.
#[test]
fn optimize_and_energy_are_identical_across_job_counts() {
    let dir = std::env::temp_dir().join(format!("mmg-cli-opt-energy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |jobs: &str| {
        let prom = dir.join(format!("jobs{jobs}.prom"));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["optimize", "energy", "--jobs", jobs, "--metrics"])
            .arg(&prom)
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "repro --jobs {jobs} exited with {:?}", out.status);
        let dump = std::fs::read_to_string(&prom).expect("metrics dump written");
        (String::from_utf8(out.stdout).expect("stdout is UTF-8"), dump)
    };
    let (serial, serial_dump) = run("1");
    let (parallel, parallel_dump) = run("4");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(serial, parallel, "--jobs 4 changes optimize/energy stdout");
    assert_eq!(serial_dump, parallel_dump, "--jobs 4 changes the metrics dump");
    for want in ["geomean all-passes", "power regimes", "best within cap", "kernel_fused_total"] {
        assert!(serial.contains(want), "'{want}' missing from stdout:\n{serial}");
    }
    assert!(serial_dump.contains("gpu_energy_uj_total"), "energy counter missing");
}

#[test]
fn manifest_on_stdout_is_deterministic_and_wall_clock_stays_on_stderr() {
    // The manifest closes stdout and carries final telemetry counter
    // totals; the in-order merge must make them independent of --jobs.
    // The wall clock is the one nondeterministic datum, so it lives on
    // stderr alone — CI byte-compares stdout with plain `cmp`.
    let (stdout_serial, stderr_serial) = repro(&["--jobs", "1"]);
    let (stdout_parallel, _) = repro(&["--jobs", "4"]);
    let manifest = |s: &str| -> serde_json::Value {
        let line = s.lines().last().expect("manifest line on stdout");
        serde_json::from_str(line).expect("manifest is valid JSON")
    };
    let serial = manifest(&stdout_serial);
    assert_eq!(serial.get("counters"), manifest(&stdout_parallel).get("counters"));
    assert!(serial.get("elapsed_s").is_none(), "wall clock leaked into stdout");
    let wall: serde_json::Value = serde_json::from_str(
        stderr_serial.lines().last().expect("elapsed_s line on stderr"),
    )
    .expect("stderr wall-clock line is JSON");
    assert!(wall.get("elapsed_s").and_then(serde_json::Value::as_f64).is_some());
}
