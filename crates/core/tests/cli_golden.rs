//! Golden-file pins of `repro`'s output: invocations of each subcommand
//! flag parser (serve, token, fleet, optimize), each compared byte for
//! byte against a file under `tests/golden/`. The token run also pins
//! its `--metrics-out` Prometheus dump, a serve run the digest of its
//! JSON span stream, and the fleet run repeats at `--jobs 4`.
//!
//! A change that intentionally alters one of these outputs regenerates
//! the goldens with:
//!
//! ```sh
//! MMG_BLESS=1 cargo test -p mmg-core --test cli_golden
//! ```
//!
//! and the diff is reviewed like any other report change.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Runs `repro`, requires a zero exit status and returns its stdout.
fn repro_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap_or_else(|_| panic!("repro {args:?} stdout is not UTF-8"))
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("MMG_BLESS").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden {} unreadable ({e}); MMG_BLESS=1 to create", path.display())
    });
    assert!(
        got == want,
        "{name} diverged from the golden; if intentional, regenerate with MMG_BLESS=1\n\
         --- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn serve_attributed_report_matches_golden() {
    let got = repro_ok(&["serve", "--duration-s", "20", "--seed", "7", "--attrib"]);
    check_golden("serve_attrib.txt", &got);
}

/// The exact-quantile report: with every record retained, p95/p99 come
/// from the sorted latencies rather than the sketches, alongside the
/// worst-latency exemplars and the energy section.
#[test]
fn serve_full_records_report_matches_golden() {
    let got = repro_ok(&["serve", "--full-records", "--scheduler", "static", "--seed", "7"]);
    check_golden("serve_full_records.txt", &got);
}

/// 64-bit FNV-1a: a stable digest that does not depend on the
/// standard library's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the span stream of `serve --metrics-out *.json`: every span's
/// path and counter deltas, in order. `start_us` and `dur_us` are wall
/// clock and stay out of the digest.
#[test]
fn serve_span_stream_matches_golden() {
    let dir = std::env::temp_dir().join(format!("mmg-cli-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("serve.json");
    repro_ok(&[
        "serve",
        "--duration-s",
        "20",
        "--seed",
        "7",
        "--metrics-out",
        json.to_str().expect("UTF-8 temp path"),
    ]);
    let text = std::fs::read_to_string(&json).expect("metrics snapshot written");
    std::fs::remove_dir_all(&dir).ok();
    let snapshot: serde_json::Value = serde_json::from_str(&text).expect("snapshot is JSON");
    let spans = snapshot.field("spans").and_then(|s| s.as_array()).expect("spans array");
    let mut stream = String::new();
    for span in spans {
        stream.push_str(span.field("path").and_then(|p| p.as_str()).expect("span path"));
        match span.field("counter_deltas") {
            Some(serde_json::Value::Object(deltas)) => {
                for (name, delta) in deltas {
                    let delta = delta.as_u64().expect("integer counter delta");
                    stream.push_str(&format!("\t{name}={delta}"));
                }
            }
            other => panic!("counter_deltas is not an object: {other:?}"),
        }
        stream.push('\n');
    }
    let got = format!("spans {}\nfnv1a {:016x}\n", spans.len(), fnv1a(stream.as_bytes()));
    check_golden("serve_spans.txt", &got);
}

/// The token report and its Prometheus dump. The 2 GiB budget puts the
/// run into the preemption regime, so the eviction path is pinned too.
#[test]
fn token_report_and_metrics_match_golden() {
    let dir = std::env::temp_dir().join(format!("mmg-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prom = dir.join("token.prom");
    let got = repro_ok(&[
        "token",
        "--util",
        "0.9",
        "--kv-budget",
        "2",
        "--duration-s",
        "20",
        "--seed",
        "42",
        "--metrics-out",
        prom.to_str().expect("UTF-8 temp path"),
    ]);
    let metrics = std::fs::read_to_string(&prom).expect("metrics dump written");
    std::fs::remove_dir_all(&dir).ok();
    check_golden("token.txt", &got);
    check_golden("token.prom", &metrics);
}

/// The fleet report at the default worker count and at `--jobs 4`. The
/// fleet shards its clusters over the worker pool and merges them in
/// cluster order, so both runs must match the golden and write the same
/// Prometheus dump. The reactive+spot policy covers the churn RNG path.
#[test]
fn fleet_report_matches_golden() {
    let dir = std::env::temp_dir().join(format!("mmg-cli-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut runs = Vec::new();
    for jobs in [None, Some("4")] {
        let prom = dir.join(format!("fleet-jobs-{}.prom", jobs.unwrap_or("default")));
        let mut args = vec![
            "fleet",
            "--policy",
            "reactive+spot",
            "--arrival",
            "diurnal",
            "--requests",
            "50000",
            "--seed",
            "42",
            "--metrics-out",
            prom.to_str().expect("UTF-8 temp path"),
        ];
        if let Some(n) = jobs {
            args.extend(["--jobs", n]);
        }
        let report = repro_ok(&args);
        runs.push((report, std::fs::read_to_string(&prom).expect("metrics dump written")));
    }
    std::fs::remove_dir_all(&dir).ok();
    for (report, _) in &runs {
        check_golden("fleet.txt", report);
    }
    assert!(runs[0].1.contains("fleet_"), "fleet series missing:\n{}", runs[0].1);
    assert!(runs[0].1 == runs[1].1, "--jobs 4 changes the fleet metrics dump");
}

#[test]
fn optimize_single_config_matches_golden() {
    let got = repro_ok(&[
        "optimize",
        "--fuse",
        "--width",
        "int8",
        "--graph-capture",
        "--sampler-steps",
        "4",
    ]);
    check_golden("optimize_single.txt", &got);
}
