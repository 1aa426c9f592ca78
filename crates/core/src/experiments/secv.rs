//! Section V — the analytical sequence-length/memory framework,
//! cross-checked against the traced simulation.

use mmg_analytics::seqlen_model::{scaling_exponent, DiffusionSeqModel};
use mmg_attn::AttnImpl;
use mmg_models::suite::stable_diffusion::{pipeline, StableDiffusionConfig};
use mmg_profiler::seqlen::trace;
use mmg_profiler::report::render_table;

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// Section V result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecVResult {
    /// Image size analyzed.
    pub image_size: usize,
    /// Analytical peak sequence length.
    pub analytic_max_seq: u64,
    /// Traced peak sequence length from the simulated UNet.
    pub traced_max_seq: usize,
    /// Analytical cumulative similarity-matrix bytes over the UNet.
    pub cumulative_similarity_bytes: u64,
    /// Fitted memory-scaling exponent over a size sweep (paper: 4).
    pub memory_exponent: f64,
}

/// Evaluates the analytical model and cross-checks it against the
/// traced graphs, profiled on `ctx`'s registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext, image_size: usize) -> SecVResult {
    let model = DiffusionSeqModel::stable_diffusion(image_size);
    // Traced check.
    let profiler = ctx.profiler(AttnImpl::Flash);
    let cfg = StableDiffusionConfig { image_size, ..Default::default() };
    let prof = pipeline(&cfg).profile(&profiler);
    let traced = trace(&prof.stage("unet_step").expect("unet stage").timeline);
    let traced_max = traced.iter().map(|s| s.seq_q).max().unwrap_or(0);
    // Exponent fit over a 4x size range.
    let a = DiffusionSeqModel::stable_diffusion(image_size / 2);
    let b = DiffusionSeqModel::stable_diffusion(image_size * 2);
    let k = scaling_exponent(
        (image_size / 2) as f64,
        a.cumulative_similarity_bytes() as f64,
        (image_size * 2) as f64,
        b.cumulative_similarity_bytes() as f64,
    );
    SecVResult {
        image_size,
        analytic_max_seq: model.self_attn_seq(0),
        traced_max_seq: traced_max,
        cumulative_similarity_bytes: model.cumulative_similarity_bytes(),
        memory_exponent: k,
    }
}

/// Renders the Section V summary.
#[must_use]
pub fn render(r: &SecVResult) -> String {
    let rows = vec![
        ("Peak sequence (analytic)".to_owned(), vec![r.analytic_max_seq.to_string()]),
        ("Peak sequence (traced)".to_owned(), vec![r.traced_max_seq.to_string()]),
        (
            "Cumulative similarity memory".to_owned(),
            vec![format!("{:.1} MiB", r.cumulative_similarity_bytes as f64 / (1 << 20) as f64)],
        ),
        ("Memory scaling exponent".to_owned(), vec![format!("{:.2} (paper: 4)", r.memory_exponent)]),
    ];
    format!(
        "Section V — analytical framework at {0}x{0}\n{1}",
        r.image_size,
        render_table(&["Quantity", "Value"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> SecVResult {
        run_ctx(&test_ctx(), 512)
    }

    #[test]
    fn analytic_matches_traced_peak() {
        let r = result();
        assert_eq!(r.analytic_max_seq as usize, r.traced_max_seq);
    }

    #[test]
    fn exponent_is_four() {
        let r = result();
        assert!((3.7..4.1).contains(&r.memory_exponent), "k = {}", r.memory_exponent);
    }

    #[test]
    fn renders() {
        assert!(render(&result()).contains("paper: 4"));
    }
}
