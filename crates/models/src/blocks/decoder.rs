//! Convolutional decoders: the VAE/GAN decoder of latent models and the
//! "efficient UNet" configuration used by super-resolution stages.

use mmg_graph::{ActivationKind, Graph, Op};

use crate::UNetConfig;

/// Configuration of a VAE/VQGAN-style convolutional decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VaeDecoderConfig {
    /// Latent channels (4 for SD).
    pub latent_channels: usize,
    /// Channels at the latent resolution.
    pub base_channels: usize,
    /// Channel divisors per upsampling level, latent-res first
    /// (e.g. `[1, 1, 2, 4]` = 512, 512, 256, 128 with base 512).
    pub channel_div: Vec<usize>,
    /// Residual blocks per level.
    pub blocks_per_level: usize,
    /// Output image channels.
    pub out_channels: usize,
}

impl VaeDecoderConfig {
    /// The Stable Diffusion VAE decoder (≈50M params, 64 → 512 pixels).
    #[must_use]
    pub fn stable_diffusion() -> Self {
        VaeDecoderConfig {
            latent_channels: 4,
            base_channels: 512,
            channel_div: vec![1, 1, 2, 4],
            blocks_per_level: 3,
            out_channels: 3,
        }
    }
}

fn conv_block(g: &mut Graph, path: &str, c_in: usize, c_out: usize, res: usize) {
    g.push(
        format_args!("{path}.norm"),
        Op::GroupNorm { batch: 1, channels: c_in, h: res, w: res, groups: 32.min(c_in) },
    );
    g.push(
        format_args!("{path}.act"),
        Op::Activation { elems: c_in * res * res, kind: ActivationKind::Silu },
    );
    g.push(
        format_args!("{path}.conv"),
        Op::Conv2d { batch: 1, c_in, c_out, h: res, w: res, kernel: 3, stride: 1 },
    );
    g.push(format_args!("{path}.residual"), Op::Elementwise { elems: c_out * res * res, inputs: 2 });
}

/// Builds the decoder graph from `latent_res` to
/// `latent_res × 2^(levels-1)` pixels.
///
/// # Panics
///
/// Panics if `channel_div` is empty.
#[must_use]
pub fn vae_decoder_graph(cfg: &VaeDecoderConfig, latent_res: usize) -> Graph {
    assert!(!cfg.channel_div.is_empty(), "decoder needs at least one level");
    let mut g = Graph::new();
    let mut res = latent_res;
    let mut c_prev = cfg.base_channels;
    g.push(
        "conv_in",
        Op::Conv2d {
            batch: 1,
            c_in: cfg.latent_channels,
            c_out: c_prev,
            h: res,
            w: res,
            kernel: 3,
            stride: 1,
        },
    );
    for (level, div) in cfg.channel_div.iter().enumerate() {
        let c = cfg.base_channels / div;
        for b in 0..cfg.blocks_per_level {
            conv_block(&mut g, &format!("up.{level}.block{b}"), c_prev, c, res);
            c_prev = c;
        }
        if level + 1 < cfg.channel_div.len() {
            g.push(
                format_args!("up.{level}.upsample"),
                Op::Upsample { batch: 1, c, h: res, w: res, factor: 2 },
            );
            res *= 2;
            g.push(
                format_args!("up.{level}.upsample_conv"),
                Op::Conv2d { batch: 1, c_in: c, c_out: c, h: res, w: res, kernel: 3, stride: 1 },
            );
        }
    }
    g.push(
        "out.norm",
        Op::GroupNorm { batch: 1, channels: c_prev, h: res, w: res, groups: 32.min(c_prev) },
    );
    g.push("out.act", Op::Activation { elems: c_prev * res * res, kind: ActivationKind::Silu });
    g.push(
        "out.conv",
        Op::Conv2d { batch: 1, c_in: c_prev, c_out: cfg.out_channels, h: res, w: res, kernel: 3, stride: 1 },
    );
    g
}

/// The "efficient UNet" configuration Imagen-style super-resolution stages
/// use: convolution-heavy, **no self-attention at high resolution** (the
/// paper: SR networks "often swap attention layers for convolution due to
/// prohibitive memory requirements"), cross-attention only at the deepest
/// levels.
#[must_use]
pub fn sr_unet_config(text_len: usize, text_dim: usize) -> UNetConfig {
    UNetConfig {
        base_channels: 128,
        channel_mult: vec![1, 2, 4, 8],
        num_res_blocks: 2,
        attn_resolutions: vec![],
        cross_attn_resolutions: vec![32],
        temporal_attn_resolutions: vec![],
        heads: 8,
        text_len,
        text_dim,
        in_channels: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::unet_step_graph;
    use mmg_graph::OpCategory;

    #[test]
    fn sd_vae_outputs_512_from_64() {
        let g = vae_decoder_graph(&VaeDecoderConfig::stable_diffusion(), 64);
        // The final conv runs at 512x512.
        let last_conv = g
            .nodes()
            .iter()
            .rev()
            .find_map(|n| match &n.op {
                Op::Conv2d { h, c_out, .. } => Some((*h, *c_out)),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_conv, (512, 3));
    }

    #[test]
    fn vae_params_in_reference_range() {
        let g = vae_decoder_graph(&VaeDecoderConfig::stable_diffusion(), 64);
        let p = g.param_count() as f64 / 1e6;
        assert!((20.0..120.0).contains(&p), "params {p}M");
    }

    #[test]
    fn vae_is_pure_conv_no_attention() {
        let g = vae_decoder_graph(&VaeDecoderConfig::stable_diffusion(), 64);
        assert_eq!(g.attention_nodes().count(), 0);
        let by = g.flops_by_category();
        let conv = by.iter().find(|(c, _)| *c == OpCategory::Conv).unwrap().1;
        assert!(conv as f64 / g.total_flops() as f64 > 0.9);
    }

    #[test]
    fn sr_unet_has_no_self_attention() {
        let cfg = sr_unet_config(128, 4096);
        let g = unet_step_graph(&cfg, 256, 1);
        // Only cross-attention at 32 plus the mid-block layers.
        for n in g.attention_nodes() {
            let (s, _) = n.op.attention_shape().unwrap();
            assert!(s.seq_q <= 32 * 32 * 2, "high-res attention leaked: {}", s.seq_q);
        }
    }

    #[test]
    fn sr_unet_is_conv_dominated() {
        let cfg = sr_unet_config(128, 4096);
        let g = unet_step_graph(&cfg, 256, 1);
        let by = g.flops_by_category();
        let conv = by.iter().find(|(c, _)| *c == OpCategory::Conv).unwrap().1;
        assert!(conv as f64 / g.total_flops() as f64 > 0.7);
    }
}
