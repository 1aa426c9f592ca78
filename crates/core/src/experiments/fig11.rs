//! Fig. 11 — temporal vs. spatial attention in Make-A-Video: execution
//! time and FLOPs.

use mmg_attn::AttnImpl;
use mmg_graph::AttnKind;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::{fmt_seconds, render_table};
use serde::{Deserialize, Serialize};

use crate::engine::ExecContext;

/// Fig. 11 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Result {
    /// Spatial self-attention seconds (end-to-end, weighted).
    pub spatial_s: f64,
    /// Temporal attention seconds.
    pub temporal_s: f64,
    /// Spatial attention FLOPs.
    pub spatial_flops: u64,
    /// Temporal attention FLOPs.
    pub temporal_flops: u64,
}

impl Fig11Result {
    /// Temporal/spatial execution-time ratio (paper: ≈2x).
    #[must_use]
    pub fn time_ratio(&self) -> f64 {
        self.temporal_s / self.spatial_s
    }

    /// Spatial/temporal FLOP ratio (paper: ≈9x).
    #[must_use]
    pub fn flops_ratio(&self) -> f64 {
        self.spatial_flops as f64 / self.temporal_flops as f64
    }
}

/// Profiles Make-A-Video and splits attention by kind, on `ctx`'s
/// registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> Fig11Result {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let prof = suite::build(ModelId::MakeAVideo).profile(&profiler);
    Fig11Result {
        spatial_s: prof.attention_time_by_kind(AttnKind::SpatialSelf),
        temporal_s: prof.attention_time_by_kind(AttnKind::Temporal),
        spatial_flops: prof.attention_flops_by_kind(AttnKind::SpatialSelf),
        temporal_flops: prof.attention_flops_by_kind(AttnKind::Temporal),
    }
}

/// Renders Fig. 11.
#[must_use]
pub fn render(r: &Fig11Result) -> String {
    let rows = vec![
        (
            "Spatial attention".to_owned(),
            vec![fmt_seconds(r.spatial_s), format!("{:.1} T", r.spatial_flops as f64 / 1e12)],
        ),
        (
            "Temporal attention".to_owned(),
            vec![fmt_seconds(r.temporal_s), format!("{:.1} T", r.temporal_flops as f64 / 1e12)],
        ),
    ];
    format!(
        "Fig. 11 — Make-A-Video: temporal is {:.1}x slower with {:.1}x fewer FLOPs (paper: 2x, 9x)\n{}",
        r.time_ratio(),
        r.flops_ratio(),
        render_table(&["Attention", "Time", "FLOPs"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> Fig11Result {
        run_ctx(&test_ctx())
    }

    #[test]
    fn temporal_slower_despite_fewer_flops() {
        let r = result();
        assert!(r.temporal_s > r.spatial_s, "temporal must be slower");
        assert!(r.temporal_flops < r.spatial_flops, "with fewer FLOPs");
    }

    #[test]
    fn ratios_in_paper_band() {
        let r = result();
        assert!((1.5..4.5).contains(&r.time_ratio()), "time ratio {}", r.time_ratio());
        assert!((5.0..20.0).contains(&r.flops_ratio()), "flops ratio {}", r.flops_ratio());
    }

    #[test]
    fn renders_both_rows() {
        let s = render(&result());
        assert!(s.contains("Spatial attention"));
        assert!(s.contains("Temporal attention"));
    }
}
