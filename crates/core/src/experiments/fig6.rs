//! Fig. 6 — operator time breakdown across the suite, baseline attention
//! vs. Flash Attention (flash bar normalized to the baseline total).

use mmg_attn::AttnImpl;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::{fmt_pct, render_table};
use serde::{Deserialize, Serialize};

use crate::engine::ExecContext;

/// One model's pair of stacked bars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Model {
    /// Model name.
    pub model: String,
    /// Baseline end-to-end seconds.
    pub baseline_s: f64,
    /// Flash end-to-end seconds.
    pub flash_s: f64,
    /// `(category, fraction of baseline total)` for the baseline bar.
    pub baseline: Vec<(String, f64)>,
    /// `(category, fraction of baseline total)` for the flash bar — the
    /// paper normalizes the flash bar to the baseline's total.
    pub flash_normalized: Vec<(String, f64)>,
}

impl Fig6Model {
    /// Fraction of a category in one bar (0 if absent).
    #[must_use]
    pub fn fraction(&self, flash: bool, category: &str) -> f64 {
        let rows = if flash { &self.flash_normalized } else { &self.baseline };
        rows.iter().find(|(c, _)| c == category).map_or(0.0, |(_, f)| *f)
    }
}

/// Fig. 6 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// One entry per suite model.
    pub models: Vec<Fig6Model>,
}

impl Fig6Result {
    /// Mean baseline attention fraction across the TTI/TTV members
    /// (paper: ≈41.3%).
    #[must_use]
    pub fn mean_tti_attention_fraction(&self) -> f64 {
        let tti: Vec<&Fig6Model> =
            self.models.iter().filter(|m| m.model != "LLaMA2").collect();
        tti.iter().map(|m| m.fraction(false, "Attention")).sum::<f64>() / tti.len() as f64
    }
}

/// Profiles the whole suite under both attention implementations, on
/// `ctx`'s registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> Fig6Result {
    let base = ctx.profiler(AttnImpl::Baseline);
    let flash = ctx.profiler(AttnImpl::Flash);
    let models = ModelId::ALL
        .iter()
        .map(|&id| {
            let p = suite::build(id);
            let pb = p.profile(&base).breakdown();
            let pf = p.profile(&flash).breakdown();
            let to_rows = |b: &mmg_profiler::CategoryBreakdown, denom: f64| {
                b.rows()
                    .iter()
                    .map(|&(c, s)| (c.to_string(), s / denom))
                    .collect::<Vec<_>>()
            };
            Fig6Model {
                model: p.name.clone(),
                baseline_s: pb.total_s(),
                flash_s: pf.total_s(),
                baseline: to_rows(&pb, pb.total_s()),
                flash_normalized: to_rows(&pf, pb.total_s()),
            }
        })
        .collect();
    Fig6Result { models }
}

/// Renders Fig. 6 as one table row per model and bar.
#[must_use]
pub fn render(r: &Fig6Result) -> String {
    let cats = ["Attention", "Conv", "Linear", "GroupNorm", "LayerNorm", "Elementwise", "Memory"];
    let mut rows = Vec::new();
    for m in &r.models {
        for (tag, flash) in [("base", false), ("flash", true)] {
            let vals: Vec<String> =
                cats.iter().map(|c| fmt_pct(m.fraction(flash, c))).collect();
            rows.push((format!("{} ({tag})", m.model), vals));
        }
    }
    let mut headers = vec!["Model"];
    headers.extend(cats);
    format!(
        "Fig. 6 — operator breakdown (fractions of each model's BASELINE total;\nthe flash bar summing below 100% is the end-to-end saving)\n{}",
        render_table(&headers, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> Fig6Result {
        run_ctx(&test_ctx())
    }

    #[test]
    fn baseline_fractions_sum_to_one() {
        for m in result().models {
            let s: f64 = m.baseline.iter().map(|(_, f)| f).sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: {s}", m.model);
            let sf: f64 = m.flash_normalized.iter().map(|(_, f)| f).sum();
            assert!(sf <= 1.0 + 1e-9, "{}: flash bar exceeds baseline", m.model);
        }
    }

    #[test]
    fn conv_becomes_dominant_for_diffusion_after_flash() {
        // The headline Fig. 6 claim: post-flash, convolution is the largest
        // block for diffusion models (up to ~44% of execution time).
        let r = result();
        for name in ["StableDiffusion", "Imagen", "ProdImage"] {
            let m = r.models.iter().find(|m| m.model == name).unwrap();
            let conv = m.fraction(true, "Conv") / (m.flash_s / m.baseline_s);
            let attn = m.fraction(true, "Attention") / (m.flash_s / m.baseline_s);
            assert!(conv > attn, "{name}: conv {conv} vs attn {attn}");
        }
    }

    #[test]
    fn baseline_diffusion_conv_fraction_in_paper_band() {
        // Paper: convolution up to ~36% of baseline diffusion time, and
        // pixel models spend more than latent models.
        let r = result();
        let conv = |name: &str| {
            r.models.iter().find(|m| m.model == name).unwrap().fraction(false, "Conv")
        };
        assert!(conv("StableDiffusion") > 0.10);
        assert!(conv("Imagen") > conv("StableDiffusion"));
    }

    #[test]
    fn mean_attention_fraction_near_paper() {
        // Paper: attention ≈41.3% of baseline time averaged over TTI/TTV.
        let f = result().mean_tti_attention_fraction();
        assert!((0.10..0.60).contains(&f), "mean attention fraction {f}");
    }

    #[test]
    fn transformer_linear_dominates() {
        // Paper: Linear up to 49% for transformer-based models.
        let r = result();
        for name in ["Muse", "Parti"] {
            let m = r.models.iter().find(|m| m.model == name).unwrap();
            assert!(m.fraction(false, "Linear") > 0.4, "{name}");
        }
    }

    #[test]
    fn renders_all_models() {
        let s = render(&result());
        for name in ["LLaMA2", "Phenaki"] {
            assert!(s.contains(name));
        }
    }
}
