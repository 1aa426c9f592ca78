//! Table II — end-to-end Flash Attention speedup per model, and the
//! Section IV-B isolated attention-module speedups.

use mmg_attn::AttnImpl;
use mmg_graph::OpCategory;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::render_table;

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// Paper-reported Table II values, for the comparison column.
#[must_use]
pub fn paper_speedup(model: &str) -> Option<f64> {
    Some(match model {
        "LLaMA2" => 1.52,
        "Imagen" => 1.22,
        "StableDiffusion" => 1.67,
        "Muse" => 1.11,
        "Parti" => 1.17,
        "ProdImage" => 1.04,
        "MakeAVideo" => 1.06,
        "Phenaki" => 1.15,
        _ => return None,
    })
}

/// One model's speedups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Model name.
    pub model: String,
    /// End-to-end baseline/flash time ratio.
    pub e2e_speedup: f64,
    /// Attention-module-only speedup (the Fig. 6 red-bar comparison).
    pub attention_speedup: f64,
    /// Paper-reported end-to-end value.
    pub paper_e2e: Option<f64>,
}

/// Table II result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// Rows in suite order.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// A named row.
    #[must_use]
    pub fn row(&self, model: &str) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.model == model)
    }
}

/// Profiles the suite under both implementations, on `ctx`'s registry
/// and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> Table2Result {
    let base = ctx.profiler(AttnImpl::Baseline);
    let flash = ctx.profiler(AttnImpl::Flash);
    let rows = ModelId::ALL
        .iter()
        .map(|&id| {
            let p = suite::build(id);
            let pb = p.profile(&base);
            let pf = p.profile(&flash);
            let attn = |prof: &mmg_models::PipelineProfile| {
                prof.breakdown().seconds(OpCategory::Attention)
            };
            Table2Row {
                model: p.name.clone(),
                e2e_speedup: pb.total_time_s() / pf.total_time_s(),
                attention_speedup: attn(&pb) / attn(&pf).max(1e-12),
                paper_e2e: paper_speedup(&p.name),
            }
        })
        .collect();
    Table2Result { rows }
}

/// Renders Table II.
#[must_use]
pub fn render(r: &Table2Result) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.model.clone(),
                vec![
                    format!("{:.2}x", row.e2e_speedup),
                    row.paper_e2e.map_or("-".into(), |v| format!("{v:.2}x")),
                    format!("{:.2}x", row.attention_speedup),
                ],
            )
        })
        .collect();
    format!(
        "Table II — Flash Attention speedup (end-to-end) + attention-module speedup\n{}",
        render_table(&["Model", "E2E (measured)", "E2E (paper)", "Attn module"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> Table2Result {
        run_ctx(&test_ctx())
    }

    #[test]
    fn speedups_in_paper_band() {
        // Paper: 4%–67% end-to-end benefit across the suite.
        for row in &result().rows {
            assert!(
                (0.98..2.0).contains(&row.e2e_speedup),
                "{}: {}",
                row.model,
                row.e2e_speedup
            );
        }
    }

    #[test]
    fn stable_diffusion_gains_most_prod_least() {
        let r = result();
        let sd = r.row("StableDiffusion").unwrap().e2e_speedup;
        for row in &r.rows {
            assert!(sd >= row.e2e_speedup - 1e-9, "{} beats SD", row.model);
        }
        let prod = r.row("ProdImage").unwrap().e2e_speedup;
        assert!(prod < 1.10, "ProdImage {prod}");
    }

    #[test]
    fn measured_close_to_paper() {
        // Shape fidelity: within 0.3x absolute of every Table II entry
        // except LLaMA (see EXPERIMENTS.md for the documented gap).
        for row in &result().rows {
            if row.model == "LLaMA2" {
                continue;
            }
            let paper = row.paper_e2e.unwrap();
            assert!(
                (row.e2e_speedup - paper).abs() < 0.3,
                "{}: measured {} vs paper {}",
                row.model,
                row.e2e_speedup,
                paper
            );
        }
    }

    #[test]
    fn diffusion_attention_module_speedup_exceeds_transformer_tti() {
        // Section IV-B: 1.1–2.5x greater attention-module speedup for
        // diffusion than transformer TTI.
        let r = result();
        let sd = r.row("StableDiffusion").unwrap().attention_speedup;
        for name in ["Muse", "Parti"] {
            let t = r.row(name).unwrap().attention_speedup;
            assert!(sd > 1.1 * t, "SD {sd} vs {name} {t}");
        }
    }

    #[test]
    fn renders_with_paper_column() {
        let s = render(&result());
        assert!(s.contains("1.67x"), "paper SD value shown");
    }
}
