//! End-to-end determinism of the `repro serve` subcommand and the
//! `serve-sweep` experiment: one seed fixes the entire sample path, so
//! stdout must be byte-identical across invocations (and, for the
//! sweep, across `--jobs` counts), and different seeds must produce
//! different sample paths.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> String {
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
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

const SERVE: &[&str] = &[
    "serve",
    "--gpus",
    "2",
    "--mix",
    "sd:8,parti:2",
    "--scheduler",
    "dynamic",
    "--slo-ms",
    "2000",
    "--duration-s",
    "20",
];

#[test]
fn serve_is_byte_identical_for_one_seed() {
    let a = repro(&[SERVE, &["--seed", "7"]].concat());
    let b = repro(&[SERVE, &["--seed", "7"]].concat());
    assert_eq!(a, b, "same seed, different stdout");
    assert!(a.contains("p99") && a.contains("SLO attain"), "report shape:\n{a}");
    assert!(a.contains("sd") && a.contains("parti"), "per-model rows:\n{a}");
}

#[test]
fn serve_seed_changes_the_sample_path() {
    let a = repro(&[SERVE, &["--seed", "7"]].concat());
    let b = repro(&[SERVE, &["--seed", "8"]].concat());
    assert_ne!(a, b, "different seeds must differ");
}

#[test]
fn serve_sweep_is_identical_across_job_counts() {
    let serial = repro(&["serve-sweep", "--jobs", "1"]);
    let parallel = repro(&["serve-sweep", "--jobs", "4"]);
    assert_eq!(serial, parallel, "--jobs changes serve-sweep stdout");
    assert!(serial.contains("dynamic@0.95"), "sweep grid present:\n{serial}");
}

/// The streaming fast path at scale: a million simulated requests must
/// be byte-identical run to run, and the constant-memory mode must not
/// change any printed aggregate.
#[test]
fn serve_is_byte_identical_at_a_million_requests() {
    let args = &[
        "serve",
        "--mix",
        "sd",
        "--scheduler",
        "fifo",
        "--duration-s",
        "1000000",
        "--requests",
        "1000000",
        "--seed",
        "1",
    ];
    let a = repro(args);
    let b = repro(args);
    assert_eq!(a, b, "same seed, different stdout at 1M requests");
    assert!(a.contains("SLO attain"), "report shape:\n{a}");
}

#[test]
fn replicated_sweep_is_byte_identical_across_job_counts() {
    let serial = repro(&["serve-sweep", "--replications", "2", "--jobs", "1"]);
    let parallel = repro(&["serve-sweep", "--replications", "2", "--jobs", "4"]);
    assert_eq!(serial, parallel, "--jobs changes replicated sweep stdout");
    assert!(serial.contains("2 seeds from 42"), "replication header:\n{serial}");
}

/// Attribution and the SLO health engine ride the same deterministic
/// sample path: with `--attrib` on, stdout (report tables, phase
/// shares, alert timeline) is byte-identical per seed, and the section
/// actually renders. `serve` has no worker pool, so there is no job
/// count to vary.
#[test]
fn serve_attrib_is_byte_identical_across_jobs() {
    let args = [SERVE, &["--seed", "7", "--attrib"]].concat();
    let serial = repro(&args);
    let again = repro(&args);
    assert_eq!(serial, again, "same seed, different attributed stdout");
    assert!(serial.contains("attribution: p99 ="), "attribution headline:\n{serial}");
    assert!(serial.contains("queue") && serial.contains("hold"), "phase table:\n{serial}");
    assert!(serial.contains("slo health"), "health section:\n{serial}");
    // The layer is additive: the plain report is a prefix-equal run of
    // the same sample path, so its tables must appear verbatim.
    let plain = repro(&[SERVE, &["--seed", "7"]].concat());
    assert!(!plain.contains("attribution:"), "attrib leaked into plain run:\n{plain}");
    let report_head = plain.lines().take(8).collect::<Vec<_>>().join("\n");
    assert!(
        serial.contains(&report_head),
        "attributed run changed the base report:\n{serial}\nvs\n{report_head}"
    );
}

/// `--metrics-out` dispatches on extension: `.json` gets the JSON
/// snapshot, anything else the Prometheus exposition — both containing
/// the new health metric families.
#[test]
fn serve_metrics_out_dispatches_on_extension() {
    let dir = std::env::temp_dir().join(format!("mmg-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prom = dir.join("metrics.prom");
    let json = dir.join("metrics.json");
    repro(&[
        SERVE,
        &["--seed", "7", "--attrib", "--metrics-out", prom.to_str().unwrap()],
    ]
    .concat());
    repro(&[
        SERVE,
        &["--seed", "7", "--attrib", "--metrics-out", json.to_str().unwrap()],
    ]
    .concat());
    let prom_body = std::fs::read_to_string(&prom).expect("prometheus dump");
    assert!(prom_body.contains("# TYPE serve_latency_s histogram"), "{prom_body}");
    assert!(prom_body.contains("serve_phase_s"), "phase family missing:\n{prom_body}");
    let json_body = std::fs::read_to_string(&json).expect("json dump");
    let v: serde_json::Value = serde_json::from_str(&json_body).expect("valid JSON");
    assert!(v.field("counters").is_some(), "counters key missing:\n{json_body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--scheduler", "nope"])
        .output()
        .expect("repro binary runs");
    assert!(!out.status.success(), "unknown scheduler must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scheduler"), "stderr: {err}");
    // Neither DES has a worker pool, so neither takes `--jobs`.
    for cmd in ["serve", "token"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([cmd, "--jobs", "4"])
            .output()
            .expect("repro binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} --jobs 4 must exit 1: {err}");
        assert!(err.contains(&format!("unknown {cmd} flag '--jobs'")), "stderr: {err}");
    }
}

/// A non-finite horizon, arrival rate or mix weight means arrivals never
/// stop (or a constructor panics), so each must exit 1 fast with a typed
/// error. Non-finite flag values are refused while parsing; finite ones
/// whose product overflows (`--util 1e308` times the cluster capacity,
/// or a mix total) are caught by the library's own validation, as are
/// finite ones that expect more arrivals than the run budget allows and
/// a KV budget that no request fits.
#[test]
fn non_finite_inputs_exit_nonzero_with_a_message() {
    let budget = "exceeds the budget of 1e10";
    let cases: [(&[&str], &str); 20] = [
        (&["token", "--duration-s", "inf"], "--duration-s requires a positive finite number"),
        (&["token", "--rate", "inf"], "--rate requires a positive finite number"),
        (&["token", "--util", "inf"], "--util requires a positive finite number"),
        (&["token", "--util", "1e308", "--gpus", "100"], "arrival rate must be positive"),
        (&["token", "--prompt-len", "inf"], "--prompt-len requires a positive finite number"),
        (&["token", "--kv-budget", "inf"], "--kv-budget requires a positive finite number"),
        (&["serve", "--duration-s", "inf"], "--duration-s requires a positive finite number"),
        (&["serve", "--slo-ms", "inf"], "--slo-ms requires a positive finite number"),
        (&["serve", "--mix", "sd:nan,parti:1"], "'sd:nan' must be positive and finite"),
        (&["serve", "--mix", "sd:inf"], "'sd:inf' must be positive and finite"),
        (&["serve", "--mix", "sd:1e308,parti:1e308"], "must have a finite total"),
        (&["fleet", "--util", "inf"], "--util requires a positive finite number"),
        (&["fleet", "--util", "1e308"], "arrival rate must be positive and finite"),
        (&["serve", "--rate", "1e12"], budget),
        (&["serve", "--rate", "1e300"], budget),
        (&["serve", "--duration-s", "1e300"], budget),
        (&["token", "--util", "1e300"], budget),
        (&["token", "--rate", "1e300"], budget),
        (&["fleet", "--util", "1e300"], budget),
        (&["token", "--kv-budget", "1e-9"], "below the smallest request's KV footprint"),
    ];
    for (args, msg) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro binary runs");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll repro") {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("repro {args:?} still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut err = String::new();
        child
            .stderr
            .take()
            .expect("stderr piped")
            .read_to_string(&mut err)
            .expect("stderr is UTF-8");
        assert_eq!(status.code(), Some(1), "repro {args:?} must exit 1: {err}");
        assert!(err.contains(msg), "repro {args:?} stderr: {err}");
    }
}
