//! DiT — a latent *diffusion transformer* (extension model).
//!
//! The paper's taxonomy bifurcates TTI into UNet-based diffusion and
//! autoregressive transformers. Diffusion transformers (DiT-class models)
//! merge the two: the denoising network is a plain transformer over
//! patchified latent tokens. Profiling one through the same harness shows
//! where the paper's conclusions carry over — the denoising loop keeps the
//! prefill-like attention shapes and high weight reuse of diffusion, while
//! the operator mix becomes Linear-dominated like a transformer, and the
//! convolution bottleneck disappears entirely.

use mmg_attn::AttentionShape;
use mmg_graph::{ActivationKind, AttnKind, Graph, Op};

use crate::blocks::{encoder_graph, vae_decoder_graph, VaeDecoderConfig};
use crate::suite::clip_text_config;
use crate::{Pipeline, Stage, TransformerConfig};

/// DiT inference configuration (DiT-XL/2-flavoured defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DitConfig {
    /// Output image edge.
    pub image_size: usize,
    /// VAE downsampling factor.
    pub vae_factor: usize,
    /// Patch edge over the latent (2 → 4 latent pixels per token… edge/2).
    pub patch: usize,
    /// Transformer stack.
    pub transformer: TransformerConfig,
    /// Denoising steps.
    pub steps: usize,
}

impl Default for DitConfig {
    fn default() -> Self {
        DitConfig {
            image_size: 512,
            vae_factor: 8,
            patch: 2,
            transformer: TransformerConfig {
                layers: 28,
                d_model: 1152,
                heads: 16,
                d_ff: 4608,
                gated_ffn: false,
                vocab: 1,
                cross_attention: false,
                context_len: 0,
                context_dim: 0,
            },
            steps: 50,
        }
    }
}

impl DitConfig {
    /// Latent edge.
    #[must_use]
    pub fn latent_res(&self) -> usize {
        self.image_size / self.vae_factor
    }

    /// Token count: `(latent / patch)²` — constant across the whole
    /// denoising loop, unlike the UNet's cyclical sequence lengths.
    #[must_use]
    pub fn tokens(&self) -> usize {
        let edge = self.latent_res() / self.patch;
        edge * edge
    }
}

/// One DiT denoising step: patchify, `layers` adaLN transformer blocks
/// over the full token grid, unpatchify.
#[must_use]
pub fn dit_step_graph(cfg: &DitConfig) -> Graph {
    let t = &cfg.transformer;
    let tokens = cfg.tokens();
    let d = t.d_model;
    let patch_in = 4 * cfg.patch * cfg.patch; // 4 latent channels per patch
    let mut g = Graph::new();
    g.push("patchify", Op::Linear { tokens, in_features: patch_in, out_features: d });
    let shape = AttentionShape::self_attn(1, t.heads, tokens, t.head_dim());
    for i in 0..t.layers {
        // adaLN-Zero conditioning: timestep/class embedding modulates the
        // normalized activations (scale & shift) — pure elementwise work.
        g.push(format_args!("layer{i}.adaln.norm"), Op::LayerNorm { rows: tokens, cols: d });
        g.push(
            format_args!("layer{i}.adaln.modulate"),
            Op::Elementwise { elems: tokens * d, inputs: 2 },
        );
        for proj in ["q_proj", "k_proj", "v_proj"] {
            g.push(
                format_args!("layer{i}.attn.{proj}"),
                Op::Linear { tokens, in_features: d, out_features: d },
            );
        }
        g.push(
            format_args!("layer{i}.attn.attention"),
            Op::Attention { shape, kind: AttnKind::SpatialSelf },
        );
        g.push(
            format_args!("layer{i}.attn.out_proj"),
            Op::Linear { tokens, in_features: d, out_features: d },
        );
        g.push(format_args!("layer{i}.attn.residual"), Op::Elementwise { elems: tokens * d, inputs: 2 });
        g.push(format_args!("layer{i}.ffn.norm"), Op::LayerNorm { rows: tokens, cols: d });
        g.push(
            format_args!("layer{i}.ffn.modulate"),
            Op::Elementwise { elems: tokens * d, inputs: 2 },
        );
        g.push(format_args!("layer{i}.ffn.fc1"), Op::Linear { tokens, in_features: d, out_features: t.d_ff });
        g.push(
            format_args!("layer{i}.ffn.act"),
            Op::Activation { elems: tokens * t.d_ff, kind: ActivationKind::Gelu },
        );
        g.push(format_args!("layer{i}.ffn.fc2"), Op::Linear { tokens, in_features: t.d_ff, out_features: d });
        g.push(format_args!("layer{i}.ffn.residual"), Op::Elementwise { elems: tokens * d, inputs: 2 });
    }
    g.push("final_norm", Op::LayerNorm { rows: tokens, cols: d });
    g.push("unpatchify", Op::Linear { tokens, in_features: d, out_features: patch_in });
    g
}

/// Builds the DiT pipeline: CLIP encode, DiT denoising loop, VAE decode.
#[must_use]
pub fn pipeline(cfg: &DitConfig) -> Pipeline {
    let clip = clip_text_config();
    let stages = vec![
        Stage::once("clip_encoder", encoder_graph(&clip, 77)),
        Stage::new("dit_step", cfg.steps, dit_step_graph(cfg)).denoising(),
        Stage::once(
            "vae_decoder",
            vae_decoder_graph(&VaeDecoderConfig::stable_diffusion(), cfg.latent_res()),
        ),
    ];
    Pipeline::new("DiT", None, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_graph::OpCategory;

    #[test]
    fn dit_xl_params_near_reference() {
        // DiT-XL/2 is ~675M parameters.
        let g = dit_step_graph(&DitConfig::default());
        let p = g.param_count() as f64 / 1e6;
        assert!((400.0..900.0).contains(&p), "params {p}M");
    }

    #[test]
    fn tokens_scale_with_image_size() {
        let small = DitConfig { image_size: 256, ..Default::default() };
        let big = DitConfig::default();
        assert_eq!(small.tokens(), 256);
        assert_eq!(big.tokens(), 1024);
    }

    #[test]
    fn sequence_length_is_constant_across_the_step() {
        // Unlike the UNet's U-shape, the DiT trace is flat.
        let g = dit_step_graph(&DitConfig::default());
        let seqs: Vec<usize> = g
            .attention_nodes()
            .filter_map(|n| n.op.attention_shape())
            .map(|(s, _)| s.seq_q)
            .collect();
        assert_eq!(seqs.len(), 28);
        assert!(seqs.iter().all(|&s| s == 1024));
    }

    #[test]
    fn operator_mix_is_transformer_like_but_no_conv() {
        let g = dit_step_graph(&DitConfig::default());
        let by = g.flops_by_category();
        let get = |c| by.iter().find(|(cat, _)| *cat == c).map_or(0, |(_, f)| *f);
        assert_eq!(get(OpCategory::Conv), 0, "no convolution anywhere");
        assert!(
            get(OpCategory::Linear) as f64 / g.total_flops() as f64 > 0.6,
            "linear-dominated like a transformer"
        );
    }

    #[test]
    fn keeps_diffusion_arithmetic_intensity() {
        // The denoising loop re-reads the same weights 50x: DiT keeps
        // diffusion's high FLOPs-per-weight-byte despite the transformer
        // operator mix.
        let p = pipeline(&DitConfig::default());
        assert!(p.arithmetic_intensity() > 153.0, "ai {}", p.arithmetic_intensity());
    }
}
