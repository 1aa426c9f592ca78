//! Fig. 12 — L1/L2 cache hit rates of the attention-internal kernels,
//! spatial vs. temporal, from trace-driven cache simulation.

use mmg_gpu::DeviceSpec;
use mmg_kernels::access::{AttentionKernel, VideoAttentionAccess};
use mmg_profiler::report::{fmt_pct, render_table};
use serde::{Deserialize, Serialize};

use crate::engine::ExecContext;

/// Hit rates for one kernel under one attention direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Row {
    /// Kernel family (`gemm` / `softmax` / `elementwise`).
    pub kernel: String,
    /// Attention direction (`spatial` / `temporal`).
    pub direction: String,
    /// L1 hit rate.
    pub l1_hit: f64,
    /// L2 hit rate (of L1 misses).
    pub l2_hit: f64,
}

/// Fig. 12 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Result {
    /// Six rows: 3 kernels × 2 directions.
    pub rows: Vec<Fig12Row>,
}

impl Fig12Result {
    /// A named row.
    #[must_use]
    pub fn row(&self, kernel: &str, direction: &str) -> Option<&Fig12Row> {
        self.rows.iter().find(|r| r.kernel == kernel && r.direction == direction)
    }

    /// Spatial/temporal L1 ratio for a kernel (paper: ~10x for gemm and
    /// softmax). The temporal rate is floored at 1% — in our idealized
    /// trace the temporal stream has *no* reuse at all, whereas real
    /// kernels retain a few percent of incidental hits.
    #[must_use]
    pub fn l1_ratio(&self, kernel: &str) -> f64 {
        let s = self.row(kernel, "spatial").map_or(0.0, |r| r.l1_hit);
        let t = self.row(kernel, "temporal").map_or(0.0, |r| r.l1_hit);
        s / t.max(0.01)
    }
}

/// Simulates the kernel access streams through the device cache hierarchy.
#[must_use]
pub fn run(spec: &DeviceSpec, max_probes: usize) -> Fig12Result {
    run_ctx(&ExecContext::shared(spec.clone()), max_probes)
}

/// [`run`] against an explicit [`ExecContext`]: the cache counters land in
/// `ctx.registry`.
#[must_use]
pub fn run_ctx(ctx: &ExecContext, max_probes: usize) -> Fig12Result {
    let v = VideoAttentionAccess::make_a_video_base();
    let mut rows = Vec::new();
    for (kernel, name) in [
        (AttentionKernel::Gemm, "gemm"),
        (AttentionKernel::Softmax, "softmax"),
        (AttentionKernel::Elementwise, "elementwise"),
    ] {
        for (temporal, direction) in [(false, "spatial"), (true, "temporal")] {
            let stats =
                v.simulate_with_registry(kernel, temporal, &ctx.spec, max_probes, &ctx.registry);
            rows.push(Fig12Row {
                kernel: name.to_owned(),
                direction: direction.to_owned(),
                l1_hit: stats.l1.hit_rate(),
                l2_hit: stats.l2.hit_rate(),
            });
        }
    }
    Fig12Result { rows }
}

/// Renders Fig. 12.
#[must_use]
pub fn render(r: &Fig12Result) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                format!("{} ({})", row.kernel, row.direction),
                vec![fmt_pct(row.l1_hit), fmt_pct(row.l2_hit)],
            )
        })
        .collect();
    format!(
        "Fig. 12 — cache hit rates during attention (trace-driven simulation)\n{}",
        render_table(&["Kernel", "L1 hit", "L2 hit"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig12Result {
        run(&DeviceSpec::a100_80gb(), 200_000)
    }

    #[test]
    fn temporal_l1_much_lower_for_gemm_and_softmax() {
        // Paper: ~10x lower L1 hit rate for gemm and softmax.
        let r = result();
        assert!(r.l1_ratio("gemm") > 5.0, "gemm ratio {}", r.l1_ratio("gemm"));
        assert!(r.l1_ratio("softmax") > 5.0, "softmax ratio {}", r.l1_ratio("softmax"));
    }

    #[test]
    fn elementwise_unaffected() {
        // Paper: elementwise hit rates stay the same or higher.
        let r = result();
        let ratio = r.l1_ratio("elementwise");
        assert!((0.8..1.3).contains(&ratio), "elementwise ratio {ratio}");
    }

    #[test]
    fn spatial_l1_is_healthy() {
        let r = result();
        assert!(r.row("gemm", "spatial").unwrap().l1_hit > 0.5);
        assert!(r.row("softmax", "spatial").unwrap().l1_hit > 0.5);
    }

    #[test]
    fn six_rows_rendered() {
        let r = result();
        assert_eq!(r.rows.len(), 6);
        assert!(render(&r).contains("softmax (temporal)"));
    }
}
