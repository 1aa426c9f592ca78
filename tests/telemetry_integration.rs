//! End-to-end telemetry integration: the counters the instrumented stack
//! records must reproduce the paper's cache-locality findings without
//! consulting the simulators' own return values.

use mmgen::attn::AttnImpl;
use mmgen::gpu::DeviceSpec;
use mmgen::kernels::access::{AttentionKernel, VideoAttentionAccess};
use mmgen::models::{suite, ModelId};
use mmgen::profiler::Profiler;
use mmgen::telemetry::Registry;

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter(name).get()
}

fn l1_hit_rate(registry: &Registry) -> f64 {
    let accesses = counter(registry, "gpu_l1_accesses_total");
    assert!(accesses > 0, "no L1 accesses recorded");
    counter(registry, "gpu_l1_hits_total") as f64 / accesses as f64
}

/// Profiling Stable Diffusion's UNet with cache simulation enabled must
/// leave a healthy nonzero L1 hit rate in the registry, plus the core
/// device counters every profiled graph produces.
#[test]
fn sd_unet_profile_records_nonzero_l1_hit_rate() {
    let registry = Registry::new();
    registry.set_span_capture(true);
    let pipeline = suite::build(ModelId::StableDiffusion);
    let stage = pipeline
        .stages
        .iter()
        .find(|s| s.name == "unet_step")
        .expect("SD pipeline has a unet_step stage");
    let timeline = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
        .with_cache_sim(20_000)
        .profile(&stage.graph);
    assert!(timeline.total_time_s() > 0.0);
    let rate = l1_hit_rate(&registry);
    assert!(rate > 0.0 && rate < 1.0, "L1 hit rate {rate}");
    assert!(counter(&registry, "gpu_kernel_launches_total") > 0);
    assert!(counter(&registry, "gpu_hbm_bytes_total") > 0);
    assert!(counter(&registry, "gpu_flops_total") > 0);
    // Every op recorded a span carrying its attribution.
    assert_eq!(registry.finished_spans().len(), stage.graph.len());
}

/// Fig. 12 via telemetry alone: replaying the temporal GEMM stream
/// through the caches collapses the L1 hit rate roughly an order of
/// magnitude below the spatial stream's (paper: ~10x).
#[test]
fn fig12_temporal_l1_collapse_visible_in_counters() {
    let spec = DeviceSpec::a100_80gb();
    let access = VideoAttentionAccess::make_a_video_base();
    let spatial = Registry::new();
    let temporal = Registry::new();
    let _ = access.simulate_with_registry(AttentionKernel::Gemm, false, &spec, 200_000, &spatial);
    let _ = access.simulate_with_registry(AttentionKernel::Gemm, true, &spec, 200_000, &temporal);
    let spatial_rate = l1_hit_rate(&spatial);
    let temporal_rate = l1_hit_rate(&temporal);
    assert!(spatial_rate > 0.5, "spatial L1 {spatial_rate}");
    // Floor the temporal rate as Fig12Result::l1_ratio does: the idealized
    // temporal trace may have no reuse at all.
    let ratio = spatial_rate / temporal_rate.max(0.01);
    assert!(ratio > 5.0, "spatial {spatial_rate} vs temporal {temporal_rate}");
}
