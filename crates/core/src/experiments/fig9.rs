//! Fig. 9 — how Attention vs. Convolution execution time scales with
//! image size for Stable Diffusion, before and after Flash Attention.

use mmg_attn::AttnImpl;
use mmg_graph::OpCategory;
use mmg_models::suite::stable_diffusion::{pipeline, StableDiffusionConfig};
use mmg_profiler::report::{fmt_seconds, render_table};

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// One swept point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Output image edge.
    pub image_size: usize,
    /// Attention seconds with baseline attention (whole pipeline).
    pub attn_baseline_s: f64,
    /// Attention seconds with flash attention.
    pub attn_flash_s: f64,
    /// Convolution seconds (identical under both).
    pub conv_s: f64,
}

/// Fig. 9 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Result {
    /// Rows ascending by image size.
    pub rows: Vec<Fig9Row>,
}

/// Sweeps Stable Diffusion output sizes on `ctx`'s registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext, image_sizes: &[usize]) -> Fig9Result {
    let base = ctx.profiler(AttnImpl::Baseline);
    let flash = ctx.profiler(AttnImpl::Flash);
    let rows = image_sizes
        .iter()
        .map(|&image_size| {
            let cfg = StableDiffusionConfig { image_size, ..Default::default() };
            let p = pipeline(&cfg);
            let pb = p.profile(&base).breakdown();
            let pf = p.profile(&flash).breakdown();
            Fig9Row {
                image_size,
                attn_baseline_s: pb.seconds(OpCategory::Attention),
                attn_flash_s: pf.seconds(OpCategory::Attention),
                conv_s: pf.seconds(OpCategory::Conv),
            }
        })
        .collect();
    Fig9Result { rows }
}

/// Default sweep: 64–512 as in the paper.
#[must_use]
pub fn default_sizes() -> Vec<usize> {
    vec![64, 128, 256, 512]
}

/// Renders Fig. 9.
#[must_use]
pub fn render(r: &Fig9Result) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                format!("{}px", row.image_size),
                vec![
                    fmt_seconds(row.attn_baseline_s),
                    fmt_seconds(row.attn_flash_s),
                    fmt_seconds(row.conv_s),
                    if row.conv_s > row.attn_flash_s { "conv".into() } else { "attn".into() },
                ],
            )
        })
        .collect();
    format!(
        "Fig. 9 — Stable Diffusion attention vs convolution scaling with image size\n{}",
        render_table(
            &["Image", "Attn (baseline)", "Attn (flash)", "Conv", "Post-flash limiter"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> Fig9Result {
        run_ctx(&test_ctx(), &default_sizes())
    }

    #[test]
    fn baseline_attention_scales_faster_than_conv() {
        // Pre-flash: attention (O(L⁴) scores) outgrows convolution.
        let r = result();
        let first = &r.rows[0];
        let last = r.rows.last().unwrap();
        let attn_growth = last.attn_baseline_s / first.attn_baseline_s;
        let conv_growth = last.conv_s / first.conv_s;
        assert!(attn_growth > conv_growth, "attn x{attn_growth} vs conv x{conv_growth}");
    }

    #[test]
    fn conv_is_limiting_after_flash_at_large_sizes() {
        // Post-flash: convolution becomes the larger block at 512.
        let r = result();
        let row = r.rows.iter().find(|x| x.image_size == 512).unwrap();
        assert!(row.conv_s > row.attn_flash_s);
    }

    #[test]
    fn baseline_attention_dominates_at_512() {
        let r = result();
        let row = r.rows.iter().find(|x| x.image_size == 512).unwrap();
        assert!(row.attn_baseline_s > row.conv_s);
    }

    #[test]
    fn everything_grows_with_image_size() {
        let r = result();
        for w in r.rows.windows(2) {
            assert!(w[1].attn_baseline_s > w[0].attn_baseline_s);
            assert!(w[1].conv_s > w[0].conv_s);
        }
    }

    #[test]
    fn renders() {
        assert!(render(&result()).contains("Post-flash limiter"));
    }
}
