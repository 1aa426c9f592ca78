//! A request cap bounds both request-stream engines exactly:
//! `max_requests: Some(n)` runs exactly `n` arrivals, so `Some(0)` runs
//! none, and either way the run renders a report instead of panicking.

use mmg_models::ModelId;
use mmg_serve::{
    simulate, simulate_token, ArrivalProcess, KvAdmission, LengthDist, PhasePriority,
    RequestMix, ScenarioCfg, SchedulerKind, ServiceCurve, ServiceProfile, SloReport, SloSpec,
    TokenBatching, TokenReport, TokenScenarioCfg, TokenServiceCurve, TokenSlo,
};
use mmg_telemetry::Registry;

fn serve_cfg(cap: u64) -> ScenarioCfg {
    let mut cfg = ScenarioCfg::new(
        2,
        RequestMix::parse("sd:8,parti:2").expect("valid mix"),
        ArrivalProcess::poisson(4.0),
        SchedulerKind::Dynamic { max_batch: 8 },
        SloSpec::ServiceMultiple(4.0),
        100.0,
        7,
    );
    cfg.max_requests = Some(cap);
    cfg
}

fn token_cfg(cap: u64) -> TokenScenarioCfg {
    TokenScenarioCfg {
        gpus: 2,
        model: ModelId::Llama2,
        arrival: ArrivalProcess::poisson(15.0),
        batching: TokenBatching::Continuous { max_batch: 16 },
        priority: PhasePriority::Decode,
        admission: KvAdmission::Prompt,
        chunk_tokens: 256,
        prompt: LengthDist::new(512.0, 0.3, 16, 4096),
        output: LengthDist::new(128.0, 0.3, 4, 1024),
        slo: TokenSlo { ttft_s: 0.5, tpot_s: 0.05 },
        duration_s: 40.0,
        max_requests: Some(cap),
        seed: 42,
    }
}

fn token_curve() -> TokenServiceCurve {
    TokenServiceCurve {
        model: ModelId::Llama2,
        batch_knots: vec![1, 8, 32],
        ctx_knots: vec![128, 1024],
        step_s: vec![vec![0.005, 0.008, 0.014], vec![0.006, 0.010, 0.020]],
        prefill_s: vec![(512, 0.04), (2048, 0.20)],
        tokens_per_step: 1,
        fixed_output_tokens: None,
        kv_bytes_per_token: 512 * 1024,
        weight_bytes: 14 << 30,
    }
}

#[test]
fn the_cluster_des_runs_exactly_the_capped_arrivals() {
    let profile = ServiceProfile::new(vec![
        ServiceCurve::new(ModelId::StableDiffusion, vec![(1, 1.0), (4, 1.6)]),
        ServiceCurve::new(ModelId::Parti, vec![(1, 4.0), (4, 4.4)]),
    ]);
    for cap in [0, 1] {
        let cfg = serve_cfg(cap);
        assert_eq!(cfg.validate(), Ok(()));
        let r = simulate(&cfg, &profile, &Registry::new());
        assert_eq!(r.arrivals, cap, "simulate at cap {cap}");
        assert_eq!(r.stats.completed, cap, "simulate at cap {cap}");
        let report = SloReport::from_result(&r).render();
        assert!(report.contains(&format!("cluster: {cap} done")), "cap {cap}:\n{report}");
    }
}

#[test]
fn the_token_des_runs_exactly_the_capped_arrivals() {
    for cap in [0, 1] {
        let cfg = token_cfg(cap);
        assert_eq!(cfg.validate(), Ok(()));
        let r = simulate_token(&cfg, &token_curve(), 64 << 30, &Registry::new());
        assert_eq!(r.stats.arrivals, cap, "simulate_token at cap {cap}");
        assert_eq!(r.stats.completed, cap, "simulate_token at cap {cap}");
        let report = TokenReport::from_result(&r).render();
        assert!(report.contains("KV budget"), "cap {cap}:\n{report}");
    }
}
