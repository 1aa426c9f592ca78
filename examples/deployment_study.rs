//! Deployment study: what it takes to *serve* multi-modal generation —
//! the paper's closing concern ("efficient and deployable systems").
//!
//! Combines the extension substrates: the DiT architecture comparison,
//! tensor-parallel decode, pod co-scheduling, and the request-serving
//! queue simulation.
//!
//! ```text
//! cargo run --release --example deployment_study
//! ```

use mmgen::analytics::parallel::tp_sweep;
use mmgen::analytics::scheduling::{pod_estimate, simulated_pod_speedup};
use mmgen::attn::AttnImpl;
use mmgen::gpu::DeviceSpec;
use mmgen::graph::OpCategory;
use mmgen::models::suite::dit::{pipeline as dit_pipeline, DitConfig};
use mmgen::models::suite::parti::PartiConfig;
use mmgen::models::suite::stable_diffusion::{pipeline as sd_pipeline, StableDiffusionConfig};
use mmgen::models::ModelId;
use mmgen::profiler::report::fmt_seconds;
use mmgen::profiler::Profiler;
use mmgen::serve::{
    simulate, ArrivalProcess, RequestMix, RequestRecord, ScenarioCfg, SchedulerKind, ServiceCurve,
    ServiceProfile, SloSpec,
};
use mmgen::telemetry::{quantile_sorted, Registry};

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

fn main() {
    let device = DeviceSpec::a100_80gb();
    let profiler = Profiler::new(device.clone(), AttnImpl::Flash);

    // 1. Architecture choice: UNet diffusion vs diffusion transformer.
    let sd = sd_pipeline(&StableDiffusionConfig::default());
    let dit = dit_pipeline(&DitConfig::default());
    println!("Architecture comparison @512px, 50 steps:");
    for p in [&sd, &dit] {
        let prof = p.profile(&profiler);
        let b = prof.breakdown();
        let top = b.rows().first().expect("nonempty");
        println!(
            "  {:<16} {:>10}  {:>6.2}B params  top operator: {} ({:.0}%)  conv share {:.0}%",
            p.name,
            fmt_seconds(prof.total_time_s()),
            p.param_count() as f64 / 1e9,
            top.0,
            100.0 * top.1 / b.total_s(),
            100.0 * b.fraction(OpCategory::Conv),
        );
    }

    // 2. Pod co-scheduling headroom for throughput serving.
    let sd_prof = sd.profile(&profiler);
    let hot = sd_prof.stage("unet_step").expect("unet stage");
    let bound = pod_estimate(&hot.timeline).speedup();
    let sim2 = simulated_pod_speedup(&hot.timeline, 2);
    println!("\nPod co-scheduling (SD UNet): bound {bound:.2}x, simulated k=2 {sim2:.2}x");

    // 3. Latency under load, with and without pods.
    let service = sd_prof.total_time_s();
    println!("\nServing one A100 with SD requests (service {:.0} ms):", service * 1e3);
    for rate in [1.0f64, 2.0, 2.5] {
        let plain = fifo_p99_s(rate, service, 5000, 42);
        let podded = fifo_p99_s(rate, service / sim2, 5000, 42);
        println!(
            "  {rate:.1} req/s: p99 {:>9} plain | {:>9} with pods",
            fmt_seconds(plain),
            fmt_seconds(podded)
        );
    }

    // 4. Tensor parallelism for the 20B autoregressive model.
    println!("\nTensor-parallel Parti decode step (kv=512):");
    let parti = PartiConfig::default();
    for est in tp_sweep(&parti.decoder, 512, 1, &[1, 2, 4, 8], &device) {
        println!(
            "  {} GPUs: {:>8.2} ms/token ({:.0}% comms)",
            est.k,
            est.total_s * 1e3,
            est.comms_fraction() * 100.0
        );
    }
}
