//! Roofline-based kernel timing.

use mmg_telemetry::Registry;
use serde::{Deserialize, Serialize};

use crate::DeviceSpec;

/// Resource requirements and efficiency of one kernel launch.
///
/// Efficiencies are the fraction of the device's peak each resource can
/// actually sustain for this kernel's shape; `mmg-kernels` supplies them
/// from shape-dependent models (tile/wave quantization, small-matrix
/// underutilization, stride penalties).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Bytes moved to/from HBM (after cache filtering).
    pub hbm_bytes: u64,
    /// Fraction of peak FP16 FLOP/s attainable. Normally in `(0, 1]`;
    /// reduced-precision rewrites (FP8/INT8 element-width passes) may
    /// exceed 1 because their tensor-core peak is a multiple of the FP16
    /// peak the roofline divides by. Bounded by 4 (no architecture runs
    /// narrow math faster than 4× its FP16 rate).
    pub compute_eff: f64,
    /// Fraction of peak HBM bandwidth attainable, in `(0, 1]`.
    pub memory_eff: f64,
}

impl KernelCost {
    /// A pure data-movement kernel (no math counted).
    #[must_use]
    pub fn memory_only(hbm_bytes: u64, memory_eff: f64) -> Self {
        KernelCost { flops: 0, hbm_bytes, compute_eff: 1.0, memory_eff }
    }

    /// Arithmetic intensity in FLOPs per HBM byte.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops as f64 / self.hbm_bytes.max(1) as f64
    }
}

/// The simulated duration of a kernel, decomposed for analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelTime {
    /// Time attributable to computation, seconds.
    pub compute_s: f64,
    /// Time attributable to HBM traffic, seconds.
    pub memory_s: f64,
    /// Fixed launch overhead, seconds.
    pub overhead_s: f64,
    /// Total modelled duration, seconds (roofline max + floor + overhead).
    pub total_s: f64,
    /// Modeled board draw while the kernel body is resident, watts.
    /// Interpolated between the device's idle, HBM-bound, and
    /// tensor-core-bound regimes by achieved-vs-peak intensity, clamped
    /// to TDP.
    pub draw_w: f64,
    /// Energy of the launch, joules: the body integrates `draw_w`, the
    /// launch overhead draws only idle power.
    pub energy_j: f64,
}

impl KernelTime {
    /// Whether the kernel is memory-bandwidth bound.
    #[must_use]
    pub fn is_memory_bound(&self) -> bool {
        self.memory_s > self.compute_s
    }
}

/// Quantizes joules to the whole microjoules the `gpu_energy_uj_total`
/// counter accumulates.
#[must_use]
pub fn quantize_uj(energy_j: f64) -> u64 {
    (energy_j * 1e6).round() as u64
}

/// Computes kernel durations against a [`DeviceSpec`]. Timing writes no
/// telemetry: a profiler charges each op's kernels to its registry from
/// the op's cost entry.
#[derive(Debug, Clone)]
pub struct TimingEngine {
    spec: DeviceSpec,
}

impl TimingEngine {
    /// Creates an engine for a device, registering its metric family in
    /// a private registry no one reads.
    #[must_use]
    pub fn new(spec: DeviceSpec) -> Self {
        TimingEngine::with_registry(spec, &Registry::new())
    }

    /// Creates an engine whose launches are charged to `registry`, and
    /// registers the timing metric family there: the `gpu_*` launch,
    /// FLOP, byte, regime and energy counters at zero, the
    /// `gpu_kernel_time_us` histogram, the `gpu_power_w` gauge and their
    /// help text. So a profiled registry renders the whole family, a
    /// regime no kernel landed in included.
    #[must_use]
    pub fn with_registry(spec: DeviceSpec, registry: &Registry) -> Self {
        registry.describe("gpu_energy_uj_total", "modeled kernel energy, microjoules");
        registry.describe("gpu_power_w", "modeled board draw of the last kernel launch, watts");
        for name in [
            "gpu_kernel_launches_total",
            "gpu_flops_total",
            "gpu_hbm_bytes_total",
            "gpu_kernels_memory_bound_total",
            "gpu_kernels_compute_bound_total",
            "gpu_energy_uj_total",
        ] {
            let _ = registry.counter(name);
        }
        let _ = registry.histogram("gpu_kernel_time_us", &mmg_telemetry::time_buckets_us());
        let _ = registry.gauge("gpu_power_w");
        TimingEngine { spec }
    }

    /// The device being simulated.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Models one kernel launch.
    ///
    /// `time = max(flops/(peak·eff_c), bytes/(bw·eff_m), floor) + launch`.
    ///
    /// # Panics
    ///
    /// Debug-asserts memory efficiency lies in `(0, 1]` and compute
    /// efficiency in `(0, 4]` (values above 1 model reduced-precision
    /// tensor-core peaks that exceed the FP16 peak the roofline divides
    /// by — see [`KernelCost::compute_eff`]).
    #[must_use]
    pub fn kernel_time(&self, cost: &KernelCost) -> KernelTime {
        self.kernel_time_with_overhead(cost, self.spec.kernel_launch_overhead_us * 1e-6)
    }

    /// Like [`TimingEngine::kernel_time`], for a launch inside a
    /// captured CUDA graph: the driver replays the whole sequence from
    /// one submission, so the per-kernel launch overhead vanishes. The
    /// device-occupancy floor stays — capture removes CPU dispatch, not
    /// the kernel's residency on the SMs.
    #[must_use]
    pub fn kernel_time_captured(&self, cost: &KernelCost) -> KernelTime {
        self.kernel_time_with_overhead(cost, 0.0)
    }

    fn kernel_time_with_overhead(&self, cost: &KernelCost, overhead_s: f64) -> KernelTime {
        debug_assert!(cost.compute_eff > 0.0 && cost.compute_eff <= 4.0);
        debug_assert!(cost.memory_eff > 0.0 && cost.memory_eff <= 1.0);
        let compute_s = cost.flops as f64 / (self.spec.peak_fp16_flops() * cost.compute_eff);
        let memory_s = cost.hbm_bytes as f64 / (self.spec.hbm_bytes_per_sec() * cost.memory_eff);
        let floor_s = self.spec.min_kernel_time_us * 1e-6;
        let body = compute_s.max(memory_s).max(floor_s);
        // Power: interpolate from idle toward the tensor-core-bound and
        // HBM-bound regimes by the fraction of each peak the kernel
        // actually sustains over its body. `compute_s * eff / body` is
        // achieved / peak FP16 FLOP rate (clamped: reduced-precision
        // effs above 1 can't draw past the TC regime); the memory term
        // is <= 1 by construction. Both contributions stack (a kernel
        // saturating tensor cores *and* HBM runs hottest) under the TDP
        // clamp. Launch overhead burns only idle power.
        let u_c = if cost.flops == 0 { 0.0 } else { (compute_s * cost.compute_eff / body).min(1.0) };
        let u_m = memory_s * cost.memory_eff / body;
        let draw_w = (self.spec.idle_w
            + (self.spec.tc_bound_w - self.spec.idle_w) * u_c
            + (self.spec.hbm_bound_w - self.spec.idle_w) * u_m)
            .min(self.spec.tdp_w);
        let energy_j = body * draw_w + overhead_s * self.spec.idle_w;
        KernelTime { compute_s, memory_s, overhead_s, total_s: body + overhead_s, draw_w, energy_j }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TimingEngine {
        TimingEngine::new(DeviceSpec::a100_80gb())
    }

    #[test]
    fn large_gemm_is_compute_bound() {
        // 8k^3 GEMM: ai ≈ 1365 flops/byte >> ridge 153.
        let n = 8192u64;
        let cost = KernelCost {
            flops: 2 * n * n * n,
            hbm_bytes: 3 * n * n * 2,
            compute_eff: 0.9,
            memory_eff: 0.9,
        };
        let t = engine().kernel_time(&cost);
        assert!(!t.is_memory_bound());
        // 2*8192^3 / (312e12*0.9) ≈ 3.9 ms.
        assert!(t.total_s > 3e-3 && t.total_s < 6e-3, "t={}", t.total_s);
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let cost = KernelCost {
            flops: 1_000_000,
            hbm_bytes: 100_000_000,
            compute_eff: 1.0,
            memory_eff: 0.8,
        };
        let t = engine().kernel_time(&cost);
        assert!(t.is_memory_bound());
    }

    #[test]
    fn tiny_kernel_hits_floor_plus_overhead() {
        let cost = KernelCost { flops: 10, hbm_bytes: 10, compute_eff: 1.0, memory_eff: 1.0 };
        let t = engine().kernel_time(&cost);
        let spec = DeviceSpec::a100_80gb();
        let expect = (spec.min_kernel_time_us + spec.kernel_launch_overhead_us) * 1e-6;
        assert!((t.total_s - expect).abs() < 1e-12);
    }

    #[test]
    fn lower_efficiency_means_longer() {
        let hi = KernelCost { flops: 1 << 40, hbm_bytes: 1, compute_eff: 0.9, memory_eff: 1.0 };
        let lo = KernelCost { compute_eff: 0.3, ..hi };
        let e = engine();
        assert!(e.kernel_time(&lo).total_s > 2.5 * e.kernel_time(&hi).total_s);
    }

    #[test]
    fn captured_launch_drops_overhead_but_keeps_floor() {
        let e = engine();
        let spec = DeviceSpec::a100_80gb();
        // A tiny kernel: captured time is exactly the occupancy floor.
        let tiny = KernelCost { flops: 10, hbm_bytes: 10, compute_eff: 1.0, memory_eff: 1.0 };
        let t = e.kernel_time_captured(&tiny);
        assert_eq!(t.overhead_s, 0.0);
        assert!((t.total_s - spec.min_kernel_time_us * 1e-6).abs() < 1e-12);
        // A big kernel: capture removes only the fixed launch overhead.
        let big = KernelCost {
            flops: 1 << 40,
            hbm_bytes: 1 << 30,
            compute_eff: 0.9,
            memory_eff: 0.9,
        };
        let live = e.kernel_time(&big);
        let cap = e.kernel_time_captured(&big);
        let overhead = spec.kernel_launch_overhead_us * 1e-6;
        assert!((live.total_s - cap.total_s - overhead).abs() < 1e-15);
    }

    #[test]
    fn reduced_precision_eff_above_one_is_accepted() {
        // An FP8 GEMM on a 2x-capable part: compute_eff 1.7 halves the
        // roofline compute time relative to 0.85.
        let base = KernelCost { flops: 1 << 40, hbm_bytes: 1, compute_eff: 0.85, memory_eff: 1.0 };
        let fp8 = KernelCost { compute_eff: 1.7, ..base };
        let e = engine();
        let ratio = e.kernel_time(&base).compute_s / e.kernel_time(&fp8).compute_s;
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn draw_stays_inside_the_power_envelope() {
        let e = engine();
        let spec = DeviceSpec::a100_80gb();
        let shapes = [
            // Compute-bound GEMM, memory-bound elementwise, floor-bound
            // micro-kernel, and a kernel saturating both resources.
            KernelCost { flops: 1 << 42, hbm_bytes: 1 << 20, compute_eff: 0.95, memory_eff: 0.9 },
            KernelCost { flops: 1 << 20, hbm_bytes: 1 << 32, compute_eff: 1.0, memory_eff: 0.85 },
            KernelCost { flops: 10, hbm_bytes: 10, compute_eff: 1.0, memory_eff: 1.0 },
            KernelCost { flops: 1 << 40, hbm_bytes: 1 << 33, compute_eff: 1.0, memory_eff: 1.0 },
        ];
        for cost in shapes {
            let t = e.kernel_time(&cost);
            assert!(t.draw_w >= spec.idle_w, "draw {} below idle", t.draw_w);
            assert!(t.draw_w <= spec.tdp_w, "draw {} above TDP", t.draw_w);
            assert!(t.energy_j > 0.0);
        }
    }

    #[test]
    fn regimes_drive_the_draw() {
        let e = engine();
        let spec = DeviceSpec::a100_80gb();
        // A near-perfect GEMM draws close to the TC-bound regime.
        let gemm =
            KernelCost { flops: 1 << 42, hbm_bytes: 1 << 20, compute_eff: 1.0, memory_eff: 0.9 };
        let t = e.kernel_time(&gemm);
        assert!(t.draw_w > spec.tc_bound_w * 0.98, "gemm draw {}", t.draw_w);
        // A pure HBM stream draws near the HBM-bound regime, well below
        // the GEMM.
        let stream = KernelCost::memory_only(1 << 32, 1.0);
        let s = e.kernel_time(&stream);
        assert!((s.draw_w - spec.hbm_bound_w).abs() < 1.0, "stream draw {}", s.draw_w);
        assert!(s.draw_w < t.draw_w);
        // A floor-bound micro-kernel idles most of its residency.
        let tiny = KernelCost { flops: 10, hbm_bytes: 10, compute_eff: 1.0, memory_eff: 1.0 };
        let micro = e.kernel_time(&tiny);
        assert!(micro.draw_w < spec.idle_w + 1.0, "micro draw {}", micro.draw_w);
    }

    #[test]
    fn energy_integrates_body_at_draw_and_overhead_at_idle() {
        let e = engine();
        let spec = DeviceSpec::a100_80gb();
        let cost =
            KernelCost { flops: 1 << 38, hbm_bytes: 1 << 30, compute_eff: 0.9, memory_eff: 0.9 };
        let t = e.kernel_time(&cost);
        let body_s = t.total_s - t.overhead_s;
        let expect = body_s * t.draw_w + t.overhead_s * spec.idle_w;
        assert!((t.energy_j - expect).abs() < 1e-15, "{} vs {expect}", t.energy_j);
        // Captured launches shed the overhead's idle energy exactly.
        let cap = e.kernel_time_captured(&cost);
        assert!((t.energy_j - cap.energy_j - t.overhead_s * spec.idle_w).abs() < 1e-12);
    }

    #[test]
    fn launch_overhead_dominates_microkernels() {
        // Many tiny kernels cost ~overhead each — the decode-phase effect.
        let c = KernelCost { flops: 1000, hbm_bytes: 1000, compute_eff: 1.0, memory_eff: 1.0 };
        let e = engine();
        let t1000: f64 = (0..1000).map(|_| e.kernel_time(&c).total_s).sum();
        assert!(t1000 > 5e-3, "1000 launches cost at least 6ms of overhead+floor");
    }
}
