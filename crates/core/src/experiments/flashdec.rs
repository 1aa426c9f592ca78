//! Extension — Flash-Decoding (the paper's ref \[47]) across the suite.
//!
//! The paper observes that autoregressive models gain little from Flash
//! Attention because their decode phase is a `1×N` query. Flash-Decoding
//! targets exactly that shape by splitting the KV cache across thread
//! blocks. This experiment quantifies how much of the transformer-TTI gap
//! it closes — and that diffusion models (which have no decode phase) are
//! unaffected, reinforcing the paper's point that the two families need
//! different optimizations.

use mmg_attn::AttnImpl;
use mmg_graph::OpCategory;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::render_table;

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// One model's three-way comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashDecRow {
    /// Model name.
    pub model: String,
    /// Baseline → Flash speedup (Table II).
    pub flash_speedup: f64,
    /// Baseline → Flash-Decoding speedup.
    pub flash_decoding_speedup: f64,
    /// Decode-phase *attention-module* speedup of Flash-Decoding over
    /// Flash (1.0 for models without a decode phase). Decode attention is
    /// a small slice of weight-bound decode steps, so the end-to-end
    /// effect is small even when the kernel gain is large — itself an
    /// Amdahl's-law observation worth recording.
    pub decode_attention_speedup: f64,
}

/// Flash-Decoding experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashDecResult {
    /// Rows in suite order.
    pub rows: Vec<FlashDecRow>,
}

impl FlashDecResult {
    /// A named row.
    #[must_use]
    pub fn row(&self, model: &str) -> Option<&FlashDecRow> {
        self.rows.iter().find(|r| r.model == model)
    }
}

/// Profiles the suite under all three attention implementations, on
/// `ctx`'s registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> FlashDecResult {
    let profile =
        |id: ModelId, attn: AttnImpl| suite::build(id).profile(&ctx.profiler(attn));
    let decode_attention_s = |p: &mmg_models::PipelineProfile| -> f64 {
        p.stages
            .iter()
            .filter(|s| s.name.starts_with("decode"))
            .map(|s| s.repeats as f64 * s.timeline.breakdown().seconds(OpCategory::Attention))
            .sum()
    };
    let rows = ModelId::ALL
        .iter()
        .map(|&id| {
            let base = profile(id, AttnImpl::Baseline);
            let flash = profile(id, AttnImpl::Flash);
            let flashdec = profile(id, AttnImpl::FlashDecoding);
            let da_flash = decode_attention_s(&flash);
            let da_dec = decode_attention_s(&flashdec);
            FlashDecRow {
                model: id.to_string(),
                flash_speedup: base.total_time_s() / flash.total_time_s(),
                flash_decoding_speedup: base.total_time_s() / flashdec.total_time_s(),
                decode_attention_speedup: if da_dec > 0.0 { da_flash / da_dec } else { 1.0 },
            }
        })
        .collect();
    FlashDecResult { rows }
}

/// Renders the comparison.
#[must_use]
pub fn render(r: &FlashDecResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.model.clone(),
                vec![
                    format!("{:.2}x", row.flash_speedup),
                    format!("{:.2}x", row.flash_decoding_speedup),
                    format!("{:.2}x", row.decode_attention_speedup),
                ],
            )
        })
        .collect();
    format!(
        "Extension — Flash-Decoding vs Flash Attention (end-to-end speedup over baseline)\n{}",
        render_table(&["Model", "Flash e2e", "Flash-Decoding e2e", "Decode-attn kernel"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> FlashDecResult {
        run_ctx(&test_ctx())
    }

    #[test]
    fn decoding_accelerates_decode_attention_kernels() {
        let r = result();
        // LLaMA decodes against a 4096-token cache (big KV reads); Parti's
        // cache is ≤1024 tokens, so launch overheads dilute its gain.
        for (name, min_gain) in [("LLaMA2", 1.15), ("Parti", 1.04)] {
            let row = r.row(name).unwrap();
            assert!(
                row.decode_attention_speedup > min_gain,
                "{name}: decode-attn speedup {}",
                row.decode_attention_speedup
            );
            // …but Amdahl's law caps the end-to-end effect.
            assert!(row.flash_decoding_speedup >= row.flash_speedup - 1e-9);
        }
    }

    #[test]
    fn diffusion_models_unaffected() {
        let r = result();
        for name in ["StableDiffusion", "Imagen", "ProdImage"] {
            let row = r.row(name).unwrap();
            assert!(
                (row.flash_decoding_speedup - row.flash_speedup).abs() < 1e-6,
                "{name} has no decode phase to accelerate"
            );
            assert!((row.decode_attention_speedup - 1.0).abs() < 1e-9, "{name}");
        }
    }

    #[test]
    fn renders() {
        assert!(render(&result()).contains("Flash-Decoding"));
    }
}
