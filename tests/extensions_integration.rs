//! Cross-crate integration for the extension substrates: Flash-Decoding,
//! pod scheduling, tensor parallelism, serving, DiT, and the noise
//! schedule working together through the public API.

use std::sync::{Arc, OnceLock};

use mmgen::analytics::parallel::tp_decode_step;
use mmgen::analytics::scheduling::{pod_estimate, simulated_pod_speedup};
use mmgen::attn::AttnImpl;
use mmgen::core::experiments::{ablations, batch, flashdec, pods, tp};
use mmgen::core::{run_experiment_value_with, run_experiment_with, ExecContext, ExperimentId};
use mmgen::gpu::DeviceSpec;
use mmgen::models::diffusion::NoiseSchedule;
use mmgen::models::suite::dit::{dit_step_graph, pipeline as dit_pipeline, DitConfig};
use mmgen::models::suite::parti::PartiConfig;
use mmgen::models::suite::stable_diffusion::{pipeline as sd_pipeline, StableDiffusionConfig};
use mmgen::models::ModelId;
use mmgen::profiler::trace::to_trace_events;
use mmgen::profiler::{CostMemo, Profiler};
use mmgen::serve::{
    simulate, ArrivalProcess, RequestMix, RequestRecord, ScenarioCfg, SchedulerKind, ServiceCurve,
    ServiceProfile, SloSpec,
};
use mmgen::telemetry::{quantile_sorted, Registry};
use mmgen::tensor::Tensor;

fn spec() -> DeviceSpec {
    DeviceSpec::a100_80gb()
}

/// An A100 context on its own registry. Every test here shares one
/// memo, so each distinct op is profiled once between them.
fn ctx() -> ExecContext {
    static MEMO: OnceLock<Arc<CostMemo>> = OnceLock::new();
    ExecContext::isolated(spec(), Arc::clone(MEMO.get_or_init(Arc::default)))
}

/// p99 latency of `n` Poisson arrivals at `rate` into one FIFO GPU with
/// a fixed `service_s` per request (an M/D/1 queue on the serving DES).
fn fifo_p99_s(rate: f64, service_s: f64, n: u64, seed: u64) -> f64 {
    let model = ModelId::StableDiffusion;
    let profile = ServiceProfile::new(vec![ServiceCurve::constant(model, service_s)]);
    let mut cfg = ScenarioCfg::new(
        1,
        RequestMix::single(model),
        ArrivalProcess::poisson(rate),
        SchedulerKind::Fifo,
        SloSpec::None,
        f64::INFINITY,
        seed,
    );
    cfg.max_requests = Some(n);
    let result = simulate(&cfg, &profile, &Registry::new());
    let mut latencies: Vec<f64> = result.records.iter().map(RequestRecord::latency_s).collect();
    latencies.sort_by(f64::total_cmp);
    quantile_sorted(&latencies, 0.99).expect("requests completed")
}

#[test]
fn extension_experiments_run_and_render() {
    for id in [ExperimentId::FlashDec, ExperimentId::Pods, ExperimentId::Batch, ExperimentId::Tp, ExperimentId::Ablations] {
        let c = ctx();
        let text = run_experiment_with(id, &c);
        assert!(text.len() > 60, "{id} too short");
        let json = serde_json::to_string_pretty(&run_experiment_value_with(id, &c))
            .expect("experiment results serialize");
        let _: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    }
}

#[test]
fn serving_degrades_gracefully_until_saturation() {
    let service = sd_pipeline(&StableDiffusionConfig::default())
        .profile(&Profiler::new(spec(), AttnImpl::Flash))
        .total_time_s();
    let p99: Vec<f64> =
        [0.3, 0.6, 0.9].iter().map(|u| fifo_p99_s(u / service, service, 3000, 11)).collect();
    assert!(p99[0] < 3.0 * service, "light load near service time");
    assert!(p99[2] > p99[0], "queueing grows with load");
}

#[test]
fn pods_raise_serving_capacity_end_to_end() {
    // Profile -> pod simulation -> queue simulation, all through the
    // public API.
    let prof = sd_pipeline(&StableDiffusionConfig::default())
        .profile(&Profiler::new(spec(), AttnImpl::Flash));
    let hot = prof.stage("unet_step").unwrap();
    let gain = simulated_pod_speedup(&hot.timeline, 2);
    assert!(gain > 1.1);
    let service = prof.total_time_s();
    let rate = 0.9 / service * gain; // beyond the plain server's capacity
    let plain = fifo_p99_s(rate, service, 2000, 3);
    let podded = fifo_p99_s(rate, service / gain, 2000, 3);
    assert!(plain > 2.0 * podded);
}

#[test]
fn dit_profile_bridges_the_two_families() {
    let profiler = Profiler::new(spec(), AttnImpl::Flash);
    let dit = dit_pipeline(&DitConfig::default());
    let prof = dit.profile(&profiler);
    // Diffusion-like: compute-bound intensity. Transformer-like: no conv.
    assert!(dit.arithmetic_intensity() > 153.0);
    assert!(prof.breakdown().fraction(mmgen::graph::OpCategory::Conv) < 0.1);
    // And it exports a well-formed chrome trace.
    let step = prof.stage("dit_step").unwrap();
    let events = to_trace_events(&step.timeline);
    assert!(events.len() > 100);
}

#[test]
fn ddim_loop_drives_dit_sized_latents() {
    // The schedule's math operates on the same tensors the graphs size.
    let cfg = DitConfig { image_size: 64, ..Default::default() };
    let g = dit_step_graph(&cfg);
    assert!(g.total_flops() > 0);
    let schedule = NoiseSchedule::scaled_linear(1000);
    let ts = schedule.ddim_timesteps(4).unwrap();
    let x0 = Tensor::randn(&[4 * cfg.latent_res() * cfg.latent_res()], 21);
    let eps = Tensor::randn(&[4 * cfg.latent_res() * cfg.latent_res()], 22);
    let mut x = schedule.add_noise(&x0, &eps, ts[0]).unwrap();
    for (i, &t) in ts.iter().enumerate() {
        x = schedule.ddim_step(&x, &eps, t, ts.get(i + 1).copied()).unwrap();
    }
    // With the exact noise the chain lands back on x0.
    assert!(x.max_abs_diff(&x0).unwrap() < 1e-3);
}

#[test]
fn tp_and_batch_compose_for_decode() {
    // 8-way TP at batch 8: weights amortize across the batch *and* shard
    // across GPUs.
    let parti = PartiConfig::default();
    let single = tp_decode_step(&parti.decoder, 512, 1, 1, &spec());
    let scaled = tp_decode_step(&parti.decoder, 512, 8, 8, &spec());
    let per_token_single = single.total_s;
    let per_token_scaled = scaled.total_s / 8.0;
    assert!(per_token_single > 5.0 * per_token_scaled);
}

#[test]
fn experiment_structs_expose_typed_results() {
    let s = spec();
    let c = ctx();
    assert_eq!(flashdec::run_ctx(&c).rows.len(), 8);
    assert!(pods::run_ctx(&c).row("StableDiffusion").is_some());
    assert_eq!(tp::run(&s, &[1, 2]).rows.len(), 2);
    assert_eq!(batch::run_ctx(&c, &[1, 4]).rows.len(), 2);
    assert!(ablations::run_ctx(&c).row("LLaMA2").is_some());
    let e = pod_estimate(
        &sd_pipeline(&StableDiffusionConfig::default())
            .profile(&Profiler::new(s, AttnImpl::Flash))
            .fundamental_period(),
    );
    assert!(e.speedup() >= 1.0);
}
