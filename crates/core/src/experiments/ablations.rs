//! Extension — design-choice ablations on the simulated device:
//!
//! 1. **Convolution algorithm** (implicit GEMM vs. Winograd): how much of
//!    the post-flash convolution bottleneck (Fig. 6/9) is algorithmic.
//! 2. **Activation precision** (FP16 vs. FP8-width traffic): which models
//!    benefit from halving activation bytes — memory-bound transformers or
//!    compute-bound diffusion.

use mmg_attn::AttnImpl;
use mmg_graph::OpCategory;
use mmg_kernels::conv::ConvAlgorithm;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::render_table;
use serde::{Deserialize, Serialize};

use crate::engine::ExecContext;

/// One model's ablation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Model name.
    pub model: String,
    /// End-to-end seconds (flash attention, implicit GEMM, FP16).
    pub baseline_s: f64,
    /// End-to-end seconds with Winograd convolutions.
    pub winograd_s: f64,
    /// Post-flash convolution share with implicit GEMM.
    pub conv_share: f64,
    /// Post-flash convolution share with Winograd.
    pub conv_share_winograd: f64,
    /// End-to-end seconds with 1-byte activations (FP8-width traffic).
    pub fp8_s: f64,
}

/// Ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// Rows for the studied models.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// A named row.
    #[must_use]
    pub fn row(&self, model: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.model == model)
    }
}

/// Runs both ablations over the diffusion-heavy and transformer-heavy
/// representatives, on `ctx`'s registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> AblationResult {
    let targets =
        [ModelId::StableDiffusion, ModelId::Imagen, ModelId::Muse, ModelId::Llama2];
    let rows = targets
        .iter()
        .map(|&id| {
            let p = suite::build(id);
            let base_prof = ctx.profiler(AttnImpl::Flash);
            let wino_prof =
                ctx.profiler(AttnImpl::Flash).with_conv_algorithm(ConvAlgorithm::Winograd);
            let fp8_prof = ctx.profiler(AttnImpl::Flash).with_elem_bytes(1);
            let base = p.profile(&base_prof);
            let wino = p.profile(&wino_prof);
            let fp8 = p.profile(&fp8_prof);
            let share = |prof: &mmg_models::PipelineProfile| {
                let b = prof.breakdown();
                b.fraction(OpCategory::Conv)
            };
            AblationRow {
                model: p.name.clone(),
                baseline_s: base.total_time_s(),
                winograd_s: wino.total_time_s(),
                conv_share: share(&base),
                conv_share_winograd: share(&wino),
                fp8_s: fp8.total_time_s(),
            }
        })
        .collect();
    AblationResult { rows }
}

/// Renders both ablations.
#[must_use]
pub fn render(r: &AblationResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.model.clone(),
                vec![
                    format!("{:.0} ms", row.baseline_s * 1e3),
                    format!("{:.2}x", row.baseline_s / row.winograd_s),
                    format!("{:.0}% → {:.0}%", row.conv_share * 100.0, row.conv_share_winograd * 100.0),
                    format!("{:.2}x", row.baseline_s / row.fp8_s),
                ],
            )
        })
        .collect();
    format!(
        "Extension — design ablations (flash attention baseline)\n{}",
        render_table(
            &["Model", "Baseline", "Winograd gain", "Conv share", "FP8-traffic gain"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> AblationResult {
        run_ctx(&test_ctx())
    }

    #[test]
    fn winograd_helps_conv_heavy_models_only() {
        let r = result();
        let sd = r.row("StableDiffusion").unwrap();
        assert!(sd.baseline_s / sd.winograd_s > 1.1, "SD winograd gain");
        assert!(sd.conv_share_winograd < sd.conv_share, "conv share shrinks");
        let muse = r.row("Muse").unwrap();
        assert!((muse.baseline_s / muse.winograd_s - 1.0).abs() < 1e-9, "no conv, no gain");
    }

    #[test]
    fn fp8_traffic_helps_memory_bound_models_more() {
        let r = result();
        let llama_gain = {
            let x = r.row("LLaMA2").unwrap();
            x.baseline_s / x.fp8_s
        };
        let sd_gain = {
            let x = r.row("StableDiffusion").unwrap();
            x.baseline_s / x.fp8_s
        };
        assert!(llama_gain > sd_gain, "llama {llama_gain} vs sd {sd_gain}");
        assert!(llama_gain > 1.05);
    }

    #[test]
    fn renders() {
        assert!(render(&result()).contains("Winograd"));
    }
}
