//! Pins every figure `repro all` prints. The 64-bit FNV-1a hash of every
//! experiment's report, joined by newlines, must equal the suite-cold
//! digest that mmgbench pins in `Workload::pinned_digest`
//! (`mmgbench/src/workloads.rs`). This test parses the constant from that
//! file, so tier-1 and the benchmark read one pin: a change that moves any
//! simulated figure fails `cargo test`, and re-pinning happens in one
//! place.

use std::sync::Arc;

use mmg_core::{run_suite, ExperimentId};
use mmg_gpu::DeviceSpec;
use mmg_profiler::CostMemo;
use mmg_telemetry::Registry;

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
    // `run_suite` renders each experiment exactly as `run_experiment`
    // does; two workers only shorten the wall time.
    let reports = run_suite(
        &ExperimentId::ALL,
        &DeviceSpec::a100_80gb(),
        2,
        &Arc::new(CostMemo::new()),
        &Registry::new(),
    );
    let got = fnv1a(reports.join("\n").as_bytes());
    let pinned = pinned_suite_digest();
    assert_eq!(
        got, pinned,
        "repro all's reports hash to {got:#018x}, not the pinned {pinned:#018x}: a simulated \
         figure moved. If that is intended, re-pin the digest in mmgbench/src/workloads.rs and \
         say why in CHANGES.md"
    );
}
