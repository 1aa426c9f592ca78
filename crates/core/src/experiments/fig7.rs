//! Fig. 7 — sequence length over the course of inference (one fundamental
//! period per model).

use mmg_attn::AttnImpl;
use mmg_models::{suite, ModelId};
use mmg_profiler::seqlen::{trace, SeqLenSample};

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// One model's trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Trace {
    /// Model name.
    pub model: String,
    /// `(call index, seq_q)` pairs over the fundamental period.
    pub points: Vec<(usize, usize)>,
    /// max/min variation (paper: up to 4x visible for SD, 64x full-depth).
    pub variation: f64,
}

impl Fig7Trace {
    /// Whether the trace is constant (Muse's parallel decoding).
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.points.windows(2).all(|w| w[0].1 == w[1].1)
    }

    /// Whether the trace is non-decreasing (Parti's linear growth).
    #[must_use]
    pub fn is_monotone_increasing(&self) -> bool {
        !self.is_constant() && self.points.windows(2).all(|w| w[1].1 >= w[0].1)
    }

    /// Whether the trace dips and returns (the UNet's U shape).
    #[must_use]
    pub fn is_cyclical(&self) -> bool {
        let first = self.points.first().map(|p| p.1);
        let last = self.points.last().map(|p| p.1);
        let min = self.points.iter().map(|p| p.1).min();
        first == last && min < first && self.points.len() > 2
    }
}

/// Fig. 7 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Traces for the plotted models.
    pub traces: Vec<Fig7Trace>,
}

impl Fig7Result {
    /// A named trace.
    #[must_use]
    pub fn trace(&self, model: &str) -> Option<&Fig7Trace> {
        self.traces.iter().find(|t| t.model == model)
    }
}

/// Which attention calls enter the trace: the paper plots the model's own
/// generation loop, not its frozen text encoder.
fn stage_filter(model: ModelId, stage: &str) -> bool {
    match model {
        ModelId::StableDiffusion | ModelId::ProdImage => stage == "unet_step",
        ModelId::Imagen => stage == "base_unet_step",
        ModelId::MakeAVideo => stage == "base_unet_step",
        ModelId::Muse => stage == "base_step",
        ModelId::Phenaki => stage == "maskgit_step",
        ModelId::Parti => stage.starts_with("decode"),
        ModelId::Llama2 => stage == "prefill" || stage.starts_with("decode"),
    }
}

/// Traces sequence lengths for the Fig. 7 models, on `ctx`'s registry
/// and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> Fig7Result {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let traces = [ModelId::StableDiffusion, ModelId::Parti, ModelId::Muse, ModelId::Llama2]
        .iter()
        .map(|&id| {
            let p = suite::build(id);
            let prof = p.profile(&profiler);
            let mut samples: Vec<SeqLenSample> = Vec::new();
            for s in prof.stages.iter().filter(|s| stage_filter(id, &s.name)) {
                // One repetition per stage = the fundamental period.
                let t = trace(&s.timeline);
                let base = samples.len();
                samples.extend(t.into_iter().map(|mut x| {
                    x.call_index += base;
                    x
                }));
            }
            // The plotted "sequence length" is the length being attended
            // over: the query grid for prefill-style calls, the KV cache
            // for 1-token autoregressive queries. Constant-length
            // cross-attention to the text prompt is omitted, as in the
            // paper's per-module plots.
            let points: Vec<(usize, usize)> = samples
                .iter()
                .filter(|s| s.kind != mmg_graph::AttnKind::Cross)
                .map(|s| s.seq_q.max(s.seq_kv))
                .enumerate()
                .collect();
            let max = points.iter().map(|p| p.1).max().unwrap_or(1);
            let min = points.iter().map(|p| p.1).min().unwrap_or(1).max(1);
            let variation = max as f64 / min as f64;
            Fig7Trace { model: p.name.clone(), points, variation }
        })
        .collect();
    Fig7Result { traces }
}

/// Renders Fig. 7 compactly (first calls of each trace + shape class).
#[must_use]
pub fn render(r: &Fig7Result) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("Fig. 7 — sequence length over inference (fundamental period)\n");
    for t in &r.traces {
        let shape = if t.is_constant() {
            "constant (parallel decoding)"
        } else if t.is_monotone_increasing() {
            "linear growth (autoregressive)"
        } else if t.is_cyclical() {
            "cyclical / U-shaped (UNet)"
        } else {
            "mixed"
        };
        let head: Vec<usize> = t.points.iter().take(12).map(|p| p.1).collect();
        let _ = writeln!(
            out,
            "  {:<16} {} calls, variation {:>5.1}x, {shape}\n    seq_q: {head:?}…",
            t.model,
            t.points.len(),
            t.variation
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> Fig7Result {
        run_ctx(&test_ctx())
    }

    #[test]
    fn sd_is_cyclical_with_4096_peak() {
        let r = result();
        let sd = r.trace("StableDiffusion").unwrap();
        assert!(sd.is_cyclical(), "UNet U shape");
        assert_eq!(sd.points.iter().map(|p| p.1).max().unwrap(), 4096);
        assert!(sd.variation >= 4.0, "paper: varies by ≥4x");
    }

    #[test]
    fn parti_grows_linearly() {
        let r = result();
        let parti = r.trace("Parti").unwrap();
        assert!(parti.is_monotone_increasing());
    }

    #[test]
    fn muse_is_constant() {
        let r = result();
        assert!(r.trace("Muse").unwrap().is_constant());
    }

    #[test]
    fn diffusion_seq_an_order_smaller_than_llm() {
        // Paper: diffusion sequence lengths can be an order of magnitude
        // smaller than corresponding LLMs.
        let r = result();
        let llm_max =
            r.trace("LLaMA2").unwrap().points.iter().map(|p| p.1).max().unwrap();
        let sd_min =
            r.trace("StableDiffusion").unwrap().points.iter().map(|p| p.1).min().unwrap();
        assert!(llm_max >= 10 * sd_min);
    }

    #[test]
    fn renders_shapes() {
        let s = render(&result());
        assert!(s.contains("cyclical"));
        assert!(s.contains("autoregressive"));
        assert!(s.contains("constant"));
    }
}
