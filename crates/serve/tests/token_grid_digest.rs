//! Byte pins of every token-engine configuration on profiler-built
//! curves: {static, continuous} × {decode, prefill} × {prompt, reserve}
//! × {llama, parti, muse}, each run's `TokenReport::render()` and
//! Prometheus dump hashed with 64-bit FNV-1a, plus the digest of one
//! recorded run's Chrome trace. Each model gets a KV budget about three
//! mean requests deep, so its prompt-admission runs preempt.
//!
//! A change that intentionally moves a token figure regenerates the
//! digests with:
//!
//! ```sh
//! MMG_BLESS=1 cargo test -p mmg-serve --test token_grid_digest
//! ```
//!
//! and says in its change notes which runs moved and why.

use mmg_attn::AttnImpl;
use mmg_gpu::DeviceSpec;
use mmg_models::ModelId;
use mmg_profiler::Profiler;
use mmg_serve::{
    model_short_name, simulate_token, simulate_token_recorded, ArrivalProcess, FlightCfg,
    KvAdmission, LengthDist, PhasePriority, TokenBatching, TokenReport, TokenScenarioCfg,
    TokenServiceCurve, TokenSlo,
};
use mmg_telemetry::Registry;

/// 64-bit FNV-1a: a stable digest that does not depend on the
/// standard library's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const CAP: usize = 8;

/// A small, loaded scenario for `curve`'s model and its KV budget.
fn scenario(
    curve: &TokenServiceCurve,
    batching: TokenBatching,
    priority: PhasePriority,
    admission: KvAdmission,
) -> (TokenScenarioCfg, u64) {
    let prompt = LengthDist::new(256.0, 0.3, 16, 1024);
    let output = LengthDist::new(64.0, 0.3, 4, 256);
    let per_request = curve.request_kv_bytes(
        prompt.mean() as u64,
        curve.fixed_output_tokens.unwrap_or(output.mean() as usize) as u64,
    );
    let gpus = 2;
    let rate = 0.9 * gpus as f64 / curve.request_gpu_s(prompt.mean(), output.mean(), CAP);
    let cfg = TokenScenarioCfg {
        gpus,
        model: curve.model,
        arrival: ArrivalProcess::poisson(rate),
        batching,
        priority,
        admission,
        chunk_tokens: 128,
        prompt,
        output,
        slo: TokenSlo::from_curve(curve, prompt.mean(), output.mean(), CAP),
        duration_s: 80.0 / rate,
        max_requests: Some(40),
        seed: 42,
    };
    (cfg, 3 * per_request)
}

/// One line per configuration: its name and the digest of its report
/// and Prometheus dump; then the recorded run's trace digest.
fn digests() -> (String, u64) {
    let profiler = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash);
    let curves = [ModelId::Llama2, ModelId::Parti, ModelId::Muse]
        .map(|m| TokenServiceCurve::from_profiler(&profiler, m));
    let mut lines = String::new();
    let mut prompt_preemptions = 0;
    for curve in &curves {
        for batching in [
            TokenBatching::Static { batch: CAP },
            TokenBatching::Continuous { max_batch: CAP },
        ] {
            for priority in [PhasePriority::Decode, PhasePriority::Prefill] {
                for admission in [KvAdmission::Prompt, KvAdmission::Reserve] {
                    let (cfg, budget) = scenario(curve, batching, priority, admission);
                    let registry = Registry::new();
                    let r = simulate_token(&cfg, curve, budget, &registry);
                    assert_eq!(
                        r.stats.completed + r.stats.dropped_oversized,
                        r.stats.arrivals,
                        "{} {} {} {}: arrivals not conserved",
                        curve.model,
                        batching.name(),
                        priority.name(),
                        admission.name()
                    );
                    if admission == KvAdmission::Prompt {
                        prompt_preemptions += u64::from(r.preemptions() > 0);
                    } else {
                        assert_eq!(r.preemptions(), 0, "reserve admission cannot preempt");
                    }
                    let text =
                        TokenReport::from_result(&r).render() + &registry.render_prometheus();
                    lines.push_str(&format!(
                        "{} {} {} {} {:016x}\n",
                        r.scheduler,
                        r.priority,
                        r.admission,
                        model_short_name(cfg.model),
                        fnv1a(text.as_bytes())
                    ));
                }
            }
        }
    }
    assert_eq!(
        prompt_preemptions, 12,
        "every prompt-admission run must preempt"
    );
    let (cfg, budget) = scenario(
        &curves[0],
        TokenBatching::Continuous { max_batch: CAP },
        PhasePriority::Decode,
        KvAdmission::Prompt,
    );
    let (_, flight) = simulate_token_recorded(
        &cfg,
        &curves[0],
        budget,
        &Registry::new(),
        FlightCfg::for_horizon(cfg.duration_s),
    );
    (lines, fnv1a(flight.to_chrome_trace_object().as_bytes()))
}

#[test]
fn every_token_configuration_matches_its_pinned_digest() {
    let (lines, trace) = digests();
    assert_eq!(lines.lines().count(), 24);
    let got = format!("{lines}trace {trace:016x}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/token_grid.txt");
    if std::env::var_os("MMG_BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists; MMG_BLESS=1 to create");
    assert!(
        got == want,
        "token digests diverged from the golden; if intentional, regenerate with MMG_BLESS=1\n\
         --- got ---\n{got}--- want ---\n{want}"
    );
}
