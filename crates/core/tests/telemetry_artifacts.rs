//! The telemetry artifacts `repro` writes to disk: the Prometheus dump,
//! Perfetto trace and run manifest of an experiment run, and the span
//! exports of a `.json` `--metrics-out` from `repro serve`, `token` and
//! `fleet` (`cli_golden.rs` pins the serve spans' paths and counter
//! deltas; the wall-clock fields are checked here). The checks are
//! plain functions, so the tests at the bottom can show that each one
//! fails on a doctored artifact.

use std::path::{Path, PathBuf};
use std::process::Command;

use mmg_attn::AttnImpl;
use mmg_gpu::DeviceSpec;
use mmg_models::{suite, ModelId};
use mmg_profiler::Profiler;
use mmg_telemetry::Registry;
use serde_json::Value;

/// A temporary directory for one test's artifacts, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mmg-artifacts-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("UTF-8 temp path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn repro_ok(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read_nonempty(path: &str) -> String {
    let text = std::fs::read_to_string(Path::new(path)).expect("artifact written");
    assert!(!text.is_empty(), "{path} is empty");
    text
}

/// A Perfetto trace: JSON with a non-empty `traceEvents` array.
fn check_trace(text: &str) {
    let trace: Value = serde_json::from_str(text).expect("trace parses as JSON");
    let events = trace.field("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert!(!events.is_empty(), "the trace has no events");
}

/// Every span of a `.json` metrics export has a non-empty `path`, a
/// finite non-negative `start_us` and `dur_us`, and an object of
/// `counter_deltas`. Returns the spans' start times, in export order.
fn check_spans(what: &str, text: &str) -> Vec<f64> {
    let snapshot: Value = serde_json::from_str(text).expect("metrics snapshot parses as JSON");
    let spans = snapshot.field("spans").and_then(Value::as_array).expect("spans array");
    assert!(!spans.is_empty(), "{what} exports no spans");
    let time = |span: &Value, key: &str| {
        let t = span.field(key).and_then(Value::as_f64);
        assert!(t.is_some_and(|t| t.is_finite() && t >= 0.0), "{what}: bad {key} in {span:?}");
        t.unwrap_or_default()
    };
    spans
        .iter()
        .map(|span| {
            let path = span.field("path").and_then(Value::as_str);
            assert!(path.is_some_and(|p| !p.is_empty()), "{what}: span without a path: {span:?}");
            assert!(
                matches!(span.field("counter_deltas"), Some(Value::Object(_))),
                "{what}: counter_deltas is not an object in {span:?}"
            );
            time(span, "dur_us");
            time(span, "start_us")
        })
        .collect()
}

/// Fleet profiles its SKUs one after another, each on a registry merged
/// into the run's, and every span counts from that run's epoch: start
/// times never go backwards.
fn check_starts_never_decrease(what: &str, starts: &[f64]) {
    if let Some(i) = (1..starts.len()).find(|&i| starts[i] < starts[i - 1]) {
        panic!("{what}: start_us decreases at span {i}: {} -> {}", starts[i - 1], starts[i]);
    }
}

/// The Prometheus render of a fresh registry that profiled one Stable
/// Diffusion UNet step with cache simulation, as `--trace-out` does.
fn traced_unet_step_metrics() -> String {
    let registry = Registry::new();
    let pipeline = suite::build(ModelId::StableDiffusion);
    let stage = pipeline.stages.iter().find(|s| s.name == "unet_step").expect("SD's unet_step");
    let _ = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
        .with_cache_sim(20_000)
        .profile(&stage.graph);
    registry.render_prometheus()
}

#[test]
fn an_experiment_run_writes_metrics_trace_and_manifest() {
    let dir = TempDir::new("fig4");
    let (metrics, trace, manifest) =
        (dir.file("metrics.txt"), dir.file("trace.json"), dir.file("run.json"));
    repro_ok(&["fig4", "--metrics", &metrics, "--trace-out", &trace, "--manifest", &manifest]);
    // fig4 is analytic and records nothing, so the run's dump holds the
    // traced step's telemetry and nothing else.
    assert_eq!(read_nonempty(&metrics), traced_unet_step_metrics(), "the traced step's telemetry");
    check_trace(&read_nonempty(&trace));
    let _: Value = serde_json::from_str(&read_nonempty(&manifest)).expect("manifest parses");

    let untraced = dir.file("untraced.txt");
    repro_ok(&["fig4", "--metrics", &untraced]);
    let dump = std::fs::read_to_string(&untraced).expect("metrics written");
    assert!(dump.is_empty(), "fig4 without --trace-out dumps telemetry:\n{dump}");
}

#[test]
fn serve_and_token_export_well_formed_spans() {
    let dir = TempDir::new("spans");
    let (serve, token) = (dir.file("serve.json"), dir.file("token.json"));
    repro_ok(&["serve", "--duration-s", "5", "--metrics-out", &serve]);
    check_spans("serve", &read_nonempty(&serve));
    repro_ok(&["token", "--duration-s", "20", "--metrics-out", &token]);
    check_spans("token", &read_nonempty(&token));
}

#[test]
fn fleet_exports_well_formed_spans_in_start_order() {
    let dir = TempDir::new("fleet");
    let fleet = dir.file("fleet.json");
    repro_ok(&["fleet", "--requests", "20000", "--metrics-out", &fleet]);
    let starts = check_spans("fleet", &read_nonempty(&fleet));
    check_starts_never_decrease("fleet", &starts);
}

#[test]
#[should_panic(expected = "the trace has no events")]
fn the_trace_check_refuses_an_empty_trace() {
    check_trace(r#"{"traceEvents": [], "displayTimeUnit": "us"}"#);
}

#[test]
#[should_panic(expected = "bad dur_us")]
fn the_span_check_refuses_a_negative_duration() {
    check_spans(
        "doctored",
        r#"{"spans": [{"path": "a", "start_us": 1.0, "dur_us": -2.0, "counter_deltas": {}}]}"#,
    );
}

#[test]
#[should_panic(expected = "start_us decreases at span 2")]
fn the_start_check_refuses_a_decreasing_start() {
    let starts = check_spans(
        "doctored",
        r#"{"spans": [
            {"path": "a", "start_us": 1.0, "dur_us": 2.0, "counter_deltas": {}},
            {"path": "b", "start_us": 5.0, "dur_us": 2.0, "counter_deltas": {"x": 1}},
            {"path": "c", "start_us": 4.0, "dur_us": 2.0, "counter_deltas": {}}
        ]}"#,
    );
    check_starts_never_decrease("doctored", &starts);
}
