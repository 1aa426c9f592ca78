//! Pins every figure `repro all` prints. The 64-bit FNV-1a hash of every
//! experiment's report, joined by newlines, must equal the suite-cold
//! digest that mmgbench pins in `Workload::pinned_digest`
//! (`mmgbench/src/workloads.rs`). This test parses the constant from that
//! file, so tier-1 and the benchmark read one pin: a change that moves any
//! simulated figure fails `cargo test`, and re-pinning happens in one
//! place.
//!
//! The same run also pins the suite's telemetry: the Prometheus text of
//! each experiment's own registry, in experiment order, followed by that
//! of the registry the run merges them into (counters, histogram buckets
//! and `_sum`s, gauges), hashes to [`TELEMETRY_DIGEST`]. Memo replay
//! writes all of those, and the `--jobs` determinism tests only compare
//! runs with each other, so this is the pin that sees a replay change
//! that moves them the same way at every job count. The merged text alone
//! would miss some: its `_sum` adds the experiments' sums at a magnitude
//! that rounds away their last bits, and its gauges keep only the last
//! experiment's value.

use std::sync::{Arc, Mutex};

use mmg_core::{run_experiment_with, run_suite_with, ExperimentId};
use mmg_gpu::DeviceSpec;
use mmg_profiler::CostMemo;
use mmg_telemetry::Registry;

/// FNV-1a of every experiment registry's `render_prometheus()` text, in
/// experiment order, then the merged registry's (`repro all --metrics`
/// writes the merged text, the same at `--jobs 1` and `--jobs 2`).
const TELEMETRY_DIGEST: u64 = 0xa6d6_8204_f148_9cd9;

/// 64-bit FNV-1a, as mmgbench's `digest`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The suite-cold digest mmgbench pins, parsed from its source.
fn pinned_suite_digest() -> u64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../mmgbench/src/workloads.rs");
    let source = std::fs::read_to_string(path).expect("mmgbench/src/workloads.rs is readable");
    let line = source
        .lines()
        .find(|l| l.contains("(Workload::SuiteCold, false, _) => Some(0x"))
        .expect("workloads.rs pins a suite-cold digest");
    let hex: String = line
        .split("Some(0x")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("the pin is a hex literal")
        .chars()
        .filter(|&c| c != '_')
        .collect();
    u64::from_str_radix(&hex, 16).expect("the pin is a hex literal")
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn every_suite_figure_matches_the_pinned_digest() {
    // `run_suite_with` renders each experiment exactly as `run_suite`
    // does and merges their registries in experiment order; two workers
    // only shorten the wall time.
    let registry = Registry::new();
    let texts = Mutex::new(vec![String::new(); ExperimentId::ALL.len()]);
    let reports = run_suite_with(
        &ExperimentId::ALL,
        &DeviceSpec::a100_80gb(),
        2,
        &Arc::new(CostMemo::new()),
        &registry,
        |id, ctx| {
            let report = run_experiment_with(id, ctx);
            let idx = ExperimentId::ALL.iter().position(|&e| e == id).expect("a suite id");
            texts.lock().expect("telemetry texts lock")[idx] = ctx.registry.render_prometheus();
            report
        },
    );
    let got = fnv1a(reports.join("\n").as_bytes());
    let pinned = pinned_suite_digest();
    assert_eq!(
        got, pinned,
        "repro all's reports hash to {got:#018x}, not the pinned {pinned:#018x}: a simulated \
         figure moved. If that is intended, re-pin the digest in mmgbench/src/workloads.rs and \
         say why in CHANGES.md"
    );
    let mut texts = texts.into_inner().expect("telemetry texts lock");
    texts.push(registry.render_prometheus());
    let telemetry = fnv1a(texts.concat().as_bytes());
    assert_eq!(
        telemetry, TELEMETRY_DIGEST,
        "the suite's Prometheus text hashes to {telemetry:#018x}, not the pinned \
         {TELEMETRY_DIGEST:#018x}: a counter, histogram or gauge moved"
    );
}
