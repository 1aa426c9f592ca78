//! Diffusion UNet builder (Fig. 3's Resnet + Self-Attention +
//! Cross-Attention structure, with optional temporal layers for TTV).

use mmg_attn::AttentionShape;
use mmg_graph::{ActivationKind, AttnKind, Graph, Op};

use crate::UNetConfig;

const ELEM_BYTES: u64 = 2;

fn resnet_block(
    g: &mut Graph,
    path: &str,
    batch: usize,
    c_in: usize,
    c_out: usize,
    res: usize,
    time_dim: usize,
) {
    let groups = 32.min(c_in);
    g.push(format_args!("{path}.norm1"), Op::GroupNorm { batch, channels: c_in, h: res, w: res, groups });
    g.push(
        format_args!("{path}.act1"),
        Op::Activation { elems: batch * c_in * res * res, kind: ActivationKind::Silu },
    );
    g.push(
        format_args!("{path}.conv1"),
        Op::Conv2d { batch, c_in, c_out, h: res, w: res, kernel: 3, stride: 1 },
    );
    // Timestep-embedding modulation.
    g.push(
        format_args!("{path}.time_proj"),
        Op::Linear { tokens: batch, in_features: time_dim, out_features: c_out },
    );
    g.push(
        format_args!("{path}.time_add"),
        Op::Elementwise { elems: batch * c_out * res * res, inputs: 2 },
    );
    let groups2 = 32.min(c_out);
    g.push(
        format_args!("{path}.norm2"),
        Op::GroupNorm { batch, channels: c_out, h: res, w: res, groups: groups2 },
    );
    g.push(
        format_args!("{path}.act2"),
        Op::Activation { elems: batch * c_out * res * res, kind: ActivationKind::Silu },
    );
    g.push(
        format_args!("{path}.conv2"),
        Op::Conv2d { batch, c_in: c_out, c_out, h: res, w: res, kernel: 3, stride: 1 },
    );
    if c_in != c_out {
        g.push(
            format_args!("{path}.skip_conv"),
            Op::Conv2d { batch, c_in, c_out, h: res, w: res, kernel: 1, stride: 1 },
        );
    }
    g.push(
        format_args!("{path}.residual"),
        Op::Elementwise { elems: batch * c_out * res * res, inputs: 2 },
    );
}

fn spatial_attn_block(g: &mut Graph, path: &str, batch: usize, c: usize, res: usize, heads: usize) {
    let tokens = batch * res * res;
    let head_dim = c / heads;
    let groups = 32.min(c);
    g.push(format_args!("{path}.norm"), Op::GroupNorm { batch, channels: c, h: res, w: res, groups });
    g.push(
        format_args!("{path}.to_seq"),
        Op::Memcpy { bytes: (tokens * c) as u64 * ELEM_BYTES, amplification: 1.0 },
    );
    for proj in ["q_proj", "k_proj", "v_proj"] {
        g.push(format_args!("{path}.{proj}"), Op::Linear { tokens, in_features: c, out_features: c });
    }
    g.push(
        format_args!("{path}.attention"),
        Op::Attention {
            shape: AttentionShape::self_attn(batch, heads, res * res, head_dim),
            kind: AttnKind::SpatialSelf,
        },
    );
    g.push(format_args!("{path}.out_proj"), Op::Linear { tokens, in_features: c, out_features: c });
    g.push(format_args!("{path}.residual"), Op::Elementwise { elems: tokens * c, inputs: 2 });
}

#[allow(clippy::too_many_arguments)] // graph builders thread explicit shape state
fn cross_attn_block(
    g: &mut Graph,
    path: &str,
    batch: usize,
    c: usize,
    res: usize,
    heads: usize,
    text_len: usize,
    text_dim: usize,
) {
    let tokens = batch * res * res;
    let head_dim = c / heads;
    g.push(format_args!("{path}.norm"), Op::LayerNorm { rows: tokens, cols: c });
    g.push(format_args!("{path}.q_proj"), Op::Linear { tokens, in_features: c, out_features: c });
    g.push(
        format_args!("{path}.k_proj"),
        Op::Linear { tokens: text_len, in_features: text_dim, out_features: c },
    );
    g.push(
        format_args!("{path}.v_proj"),
        Op::Linear { tokens: text_len, in_features: text_dim, out_features: c },
    );
    g.push(
        format_args!("{path}.attention"),
        Op::Attention {
            shape: AttentionShape::cross_attn(batch, heads, res * res, text_len, head_dim),
            kind: AttnKind::Cross,
        },
    );
    g.push(format_args!("{path}.out_proj"), Op::Linear { tokens, in_features: c, out_features: c });
    g.push(format_args!("{path}.residual"), Op::Elementwise { elems: tokens * c, inputs: 2 });
}

fn temporal_attn_block(
    g: &mut Graph,
    path: &str,
    frames: usize,
    c: usize,
    res: usize,
    heads: usize,
) {
    let tokens = frames * res * res;
    let head_dim = c / heads;
    g.push(format_args!("{path}.norm"), Op::LayerNorm { rows: tokens, cols: c });
    for proj in ["q_proj", "k_proj", "v_proj"] {
        g.push(format_args!("{path}.{proj}"), Op::Linear { tokens, in_features: c, out_features: c });
    }
    // Rearrange `(f, hw, c) → (hw, f, c)` (Fig. 10): a strided transpose
    // whose partially-used cache lines cost ~2x the logical traffic.
    g.push(
        format_args!("{path}.to_temporal"),
        Op::Memcpy { bytes: (2 * tokens * c) as u64 * ELEM_BYTES, amplification: 2.0 },
    );
    // The attended axis is frames; pixels fold into batch (Fig. 10).
    g.push(
        format_args!("{path}.attention"),
        Op::Attention {
            shape: AttentionShape::self_attn(res * res, heads, frames, head_dim),
            kind: AttnKind::Temporal,
        },
    );
    g.push(
        format_args!("{path}.from_temporal"),
        Op::Memcpy { bytes: (2 * tokens * c) as u64 * ELEM_BYTES, amplification: 2.0 },
    );
    g.push(format_args!("{path}.out_proj"), Op::Linear { tokens, in_features: c, out_features: c });
    g.push(format_args!("{path}.residual"), Op::Elementwise { elems: tokens * c, inputs: 2 });
}

fn temporal_conv_block(g: &mut Graph, path: &str, frames: usize, c: usize, res: usize) {
    // Pseudo-3D temporal convolution: a k=3 1-D conv along the frame axis
    // at each pixel. Modelled as a conv over [frames, 1] patches (padding
    // positions are multiplied like real kernels do).
    g.push(
        format_args!("{path}.conv"),
        Op::Conv2d { batch: res * res, c_in: c, c_out: c, h: frames, w: 1, kernel: 3, stride: 1 },
    );
    g.push(
        format_args!("{path}.residual"),
        Op::Elementwise { elems: frames * c * res * res, inputs: 2 },
    );
}

fn attention_stack(g: &mut Graph, path: &str, cfg: &UNetConfig, frames: usize, c: usize, res: usize) {
    if cfg.self_attn_at(res) {
        spatial_attn_block(g, &format!("{path}.self_attn"), frames, c, res, cfg.heads);
    }
    if cfg.cross_attn_at(res) {
        cross_attn_block(
            g,
            &format!("{path}.cross_attn"),
            frames,
            c,
            res,
            cfg.heads,
            cfg.text_len,
            cfg.text_dim,
        );
    }
    if frames > 1 && cfg.temporal_attn_at(res) {
        temporal_attn_block(g, &format!("{path}.temporal_attn"), frames, c, res, cfg.heads);
        temporal_conv_block(g, &format!("{path}.temporal_conv"), frames, c, res);
    }
}

/// Builds one denoising step of a UNet at `latent_res` × `latent_res`,
/// over `frames` frames (1 for image models).
///
/// The graph is the minimum repeating unit of diffusion inference — the
/// "fundamental period" Fig. 7 plots.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no levels, resolution not
/// divisible by `2^(levels-1)`).
#[must_use]
pub fn unet_step_graph(cfg: &UNetConfig, latent_res: usize, frames: usize) -> Graph {
    assert!(!cfg.channel_mult.is_empty(), "UNet needs at least one level");
    assert!(
        latent_res.is_multiple_of(1 << (cfg.levels() - 1)),
        "resolution {latent_res} not divisible across {} levels",
        cfg.levels()
    );
    let mut g = Graph::new();
    let base = cfg.base_channels;
    let time_dim = base * 4;

    // Timestep embedding MLP.
    g.push("time_embed.fc1", Op::Linear { tokens: frames, in_features: base, out_features: time_dim });
    g.push(
        "time_embed.act",
        Op::Activation { elems: frames * time_dim, kind: ActivationKind::Silu },
    );
    g.push("time_embed.fc2", Op::Linear { tokens: frames, in_features: time_dim, out_features: time_dim });

    g.push(
        "conv_in",
        Op::Conv2d {
            batch: frames,
            c_in: cfg.in_channels,
            c_out: base,
            h: latent_res,
            w: latent_res,
            kernel: 3,
            stride: 1,
        },
    );

    // Down path.
    let mut res = latent_res;
    let mut c_prev = base;
    for level in 0..cfg.levels() {
        let c = cfg.channels_at(level);
        for b in 0..cfg.num_res_blocks {
            let path = format!("down.{level}.block{b}");
            resnet_block(&mut g, &format!("{path}.resnet"), frames, c_prev, c, res, time_dim);
            c_prev = c;
            attention_stack(&mut g, &path, cfg, frames, c, res);
        }
        if level + 1 < cfg.levels() {
            g.push(
                format_args!("down.{level}.downsample"),
                Op::Conv2d { batch: frames, c_in: c, c_out: c, h: res, w: res, kernel: 3, stride: 2 },
            );
            res /= 2;
        }
    }

    // Middle.
    let c_mid = cfg.channels_at(cfg.levels() - 1);
    resnet_block(&mut g, "mid.resnet1", frames, c_mid, c_mid, res, time_dim);
    spatial_attn_block(&mut g, "mid.self_attn", frames, c_mid, res, cfg.heads);
    if !cfg.cross_attn_resolutions.is_empty() {
        cross_attn_block(
            &mut g,
            "mid.cross_attn",
            frames,
            c_mid,
            res,
            cfg.heads,
            cfg.text_len,
            cfg.text_dim,
        );
    }
    if frames > 1 && !cfg.temporal_attn_resolutions.is_empty() {
        temporal_attn_block(&mut g, "mid.temporal_attn", frames, c_mid, res, cfg.heads);
    }
    resnet_block(&mut g, "mid.resnet2", frames, c_mid, c_mid, res, time_dim);

    // Up path (mirrored, with skip concatenation).
    let mut c_cur = c_mid;
    for level in (0..cfg.levels()).rev() {
        let c = cfg.channels_at(level);
        for b in 0..=cfg.num_res_blocks {
            let path = format!("up.{level}.block{b}");
            // Skip connection concat from the down path.
            g.push(
                format_args!("{path}.skip_concat"),
                Op::Memcpy {
                    bytes: (frames * c * res * res) as u64 * ELEM_BYTES,
                    amplification: 1.0,
                },
            );
            resnet_block(&mut g, &format!("{path}.resnet"), frames, c_cur + c, c, res, time_dim);
            c_cur = c;
            attention_stack(&mut g, &path, cfg, frames, c, res);
        }
        if level > 0 {
            g.push(
                format_args!("up.{level}.upsample"),
                Op::Upsample { batch: frames, c, h: res, w: res, factor: 2 },
            );
            res *= 2;
            g.push(
                format_args!("up.{level}.upsample_conv"),
                Op::Conv2d { batch: frames, c_in: c, c_out: c, h: res, w: res, kernel: 3, stride: 1 },
            );
        }
    }

    // Output head.
    g.push(
        "out.norm",
        Op::GroupNorm { batch: frames, channels: base, h: latent_res, w: latent_res, groups: 32.min(base) },
    );
    g.push(
        "out.act",
        Op::Activation { elems: frames * base * latent_res * latent_res, kind: ActivationKind::Silu },
    );
    g.push(
        "out.conv",
        Op::Conv2d {
            batch: frames,
            c_in: base,
            c_out: cfg.in_channels,
            h: latent_res,
            w: latent_res,
            kernel: 3,
            stride: 1,
        },
    );
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_graph::OpCategory;

    fn sd_cfg() -> UNetConfig {
        UNetConfig {
            base_channels: 320,
            channel_mult: vec![1, 2, 4, 4],
            num_res_blocks: 2,
            attn_resolutions: vec![64, 32, 16],
            cross_attn_resolutions: vec![64, 32, 16],
            temporal_attn_resolutions: vec![],
            heads: 8,
            text_len: 77,
            text_dim: 768,
            in_channels: 4,
        }
    }

    #[test]
    fn sd_unet_param_count_near_reference() {
        // SD v1 UNet is ~860M parameters.
        let g = unet_step_graph(&sd_cfg(), 64, 1);
        let p = g.param_count() as f64 / 1e6;
        assert!((500.0..1400.0).contains(&p), "params {p}M");
    }

    #[test]
    fn seq_len_trace_is_u_shaped() {
        // Down path: 4096, 1024, 256 …; up path mirrors (Fig. 7).
        let g = unet_step_graph(&sd_cfg(), 64, 1);
        let seqs: Vec<usize> = g
            .attention_nodes()
            .filter_map(|n| n.op.attention_shape())
            .map(|(s, _)| s.seq_q)
            .collect();
        let max = *seqs.iter().max().unwrap();
        let min = *seqs.iter().min().unwrap();
        assert_eq!(max, 4096);
        assert!(min < max);
        // First and last attention calls run at the highest resolution.
        assert_eq!(seqs.first(), seqs.last());
        // The minimum occurs strictly inside the trace (U shape).
        let min_pos = seqs.iter().position(|&s| s == min).unwrap();
        assert!(min_pos > 0 && min_pos < seqs.len() - 1);
    }

    #[test]
    fn conv_flops_are_substantial() {
        let g = unet_step_graph(&sd_cfg(), 64, 1);
        let by = g.flops_by_category();
        let conv = by.iter().find(|(c, _)| *c == OpCategory::Conv).unwrap().1;
        assert!(conv as f64 / g.total_flops() as f64 > 0.3);
    }

    #[test]
    fn no_attention_outside_configured_resolutions() {
        let mut cfg = sd_cfg();
        cfg.attn_resolutions = vec![16];
        cfg.cross_attn_resolutions = vec![];
        let g = unet_step_graph(&cfg, 64, 1);
        for n in g.attention_nodes() {
            let (s, _) = n.op.attention_shape().unwrap();
            // Only 16x16 self-attention plus the mid-block at 8x8.
            assert!(s.seq_q == 256 || s.seq_q == 64, "unexpected seq {}", s.seq_q);
        }
    }

    #[test]
    fn temporal_layers_only_for_video() {
        let mut cfg = sd_cfg();
        cfg.temporal_attn_resolutions = vec![64, 32, 16, 8];
        let image = unet_step_graph(&cfg, 64, 1);
        let video = unet_step_graph(&cfg, 64, 8);
        let count_temporal = |g: &Graph| {
            g.attention_nodes()
                .filter(|n| matches!(n.op.attention_shape(), Some((_, AttnKind::Temporal))))
                .count()
        };
        assert_eq!(count_temporal(&image), 0);
        assert!(count_temporal(&video) > 0);
    }

    #[test]
    fn temporal_seq_is_frames() {
        let mut cfg = sd_cfg();
        cfg.temporal_attn_resolutions = vec![64, 32, 16, 8];
        let g = unet_step_graph(&cfg, 64, 16);
        let t = g
            .attention_nodes()
            .filter_map(|n| n.op.attention_shape())
            .find(|(_, k)| *k == AttnKind::Temporal)
            .unwrap();
        assert_eq!(t.0.seq_q, 16);
        assert_eq!(t.0.batch, 4096);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_resolution_panics() {
        let _ = unet_step_graph(&sd_cfg(), 60, 1);
    }

    #[test]
    fn larger_latent_means_more_flops() {
        let cfg = sd_cfg();
        let f64_ = unet_step_graph(&cfg, 64, 1).total_flops();
        let f128 = unet_step_graph(&cfg, 128, 1).total_flops();
        assert!(f128 > 3 * f64_);
    }
}
