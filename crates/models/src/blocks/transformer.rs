//! Transformer stack builders.
//!
//! Three variants cover every transformer in the suite:
//!
//! * [`encoder_graph`] — bidirectional encoder over a fixed sequence
//!   (CLIP/T5 text encoders, Parti's encoder, Muse's full-sequence passes).
//! * [`prefill_graph`] — causal pass over a whole prompt (LLM prefill).
//! * [`decode_step_graph`] — one KV-cached autoregressive step
//!   (LLM decode, Parti's image-token decode).

use mmg_attn::AttentionShape;
use mmg_graph::{ActivationKind, AttnKind, Graph, Op};

use crate::TransformerConfig;

#[allow(clippy::too_many_arguments)] // graph builders thread explicit shape state
fn attn_block(
    g: &mut Graph,
    path: &str,
    cfg: &TransformerConfig,
    shape: AttentionShape,
    kind: AttnKind,
    q_tokens: usize,
    kv_tokens: usize,
    kv_in_dim: usize,
) {
    let d = cfg.d_model;
    g.push(format_args!("{path}.norm"), Op::LayerNorm { rows: q_tokens, cols: d });
    g.push(format_args!("{path}.q_proj"), Op::Linear { tokens: q_tokens, in_features: d, out_features: d });
    g.push(format_args!("{path}.k_proj"), Op::Linear { tokens: kv_tokens, in_features: kv_in_dim, out_features: d });
    g.push(format_args!("{path}.v_proj"), Op::Linear { tokens: kv_tokens, in_features: kv_in_dim, out_features: d });
    g.push(format_args!("{path}.attention"), Op::Attention { shape, kind });
    g.push(format_args!("{path}.out_proj"), Op::Linear { tokens: q_tokens, in_features: d, out_features: d });
    g.push(format_args!("{path}.residual"), Op::Elementwise { elems: q_tokens * d, inputs: 2 });
}

fn ffn_block(g: &mut Graph, path: &str, cfg: &TransformerConfig, tokens: usize) {
    let d = cfg.d_model;
    g.push(format_args!("{path}.norm"), Op::LayerNorm { rows: tokens, cols: d });
    g.push(format_args!("{path}.fc1"), Op::Linear { tokens, in_features: d, out_features: cfg.d_ff });
    g.push(
        format_args!("{path}.act"),
        Op::Activation { elems: tokens * cfg.d_ff, kind: ActivationKind::Gelu },
    );
    if cfg.gated_ffn {
        g.push(
            format_args!("{path}.gate"),
            Op::Linear { tokens, in_features: d, out_features: cfg.d_ff },
        );
        g.push(format_args!("{path}.gate_mul"), Op::Elementwise { elems: tokens * cfg.d_ff, inputs: 2 });
    }
    g.push(format_args!("{path}.fc2"), Op::Linear { tokens, in_features: cfg.d_ff, out_features: d });
    g.push(format_args!("{path}.residual"), Op::Elementwise { elems: tokens * d, inputs: 2 });
}

fn layer(
    g: &mut Graph,
    idx: usize,
    cfg: &TransformerConfig,
    self_shape: AttentionShape,
    self_kind: AttnKind,
    tokens: usize,
) {
    let path = format!("layer{idx}.self_attn");
    attn_block(g, &path, cfg, self_shape, self_kind, tokens, tokens, cfg.d_model);
    if cfg.cross_attention {
        // Cross-attention always spans the full token set (windowing only
        // applies to self-attention).
        let cross =
            AttentionShape::cross_attn(1, cfg.heads, tokens, cfg.context_len, cfg.head_dim());
        let path = format!("layer{idx}.cross_attn");
        attn_block(g, &path, cfg, cross, AttnKind::Cross, tokens, cfg.context_len, cfg.context_dim);
    }
    ffn_block(g, &format!("layer{idx}.ffn"), cfg, tokens);
}

/// Bidirectional encoder forward over `seq` tokens.
#[must_use]
pub fn encoder_graph(cfg: &TransformerConfig, seq: usize) -> Graph {
    let mut g = Graph::new();
    g.push("embed", Op::Embedding { vocab: cfg.vocab, tokens: seq, dim: cfg.d_model });
    let shape = AttentionShape::self_attn(1, cfg.heads, seq, cfg.head_dim());
    for i in 0..cfg.layers {
        layer(&mut g, i, cfg, shape, AttnKind::SpatialSelf, seq);
    }
    g.push("final_norm", Op::LayerNorm { rows: seq, cols: cfg.d_model });
    g
}

/// Bidirectional encoder whose self-attention is *windowed*: tokens attend
/// within non-overlapping windows of `window` tokens (the standard trick
/// high-resolution token transformers use to keep attention affordable —
/// e.g. Muse's super-resolution stage). Linear/FFN work is unchanged; only
/// the attention shape folds `tokens/window` into the batch.
///
/// # Panics
///
/// Panics if `window` is zero or does not divide `seq`.
#[must_use]
pub fn windowed_encoder_graph(cfg: &TransformerConfig, seq: usize, window: usize) -> Graph {
    assert!(window > 0 && seq.is_multiple_of(window), "window {window} must divide seq {seq}");
    let mut g = Graph::new();
    g.push("embed", Op::Embedding { vocab: cfg.vocab, tokens: seq, dim: cfg.d_model });
    let shape = AttentionShape::self_attn(seq / window, cfg.heads, window, cfg.head_dim());
    for i in 0..cfg.layers {
        layer(&mut g, i, cfg, shape, AttnKind::SpatialSelf, seq);
    }
    g.push("final_norm", Op::LayerNorm { rows: seq, cols: cfg.d_model });
    g
}

/// Causal prefill over a `seq`-token prompt (LLM first-token phase).
#[must_use]
pub fn prefill_graph(cfg: &TransformerConfig, seq: usize) -> Graph {
    let mut g = Graph::new();
    g.push("embed", Op::Embedding { vocab: cfg.vocab, tokens: seq, dim: cfg.d_model });
    let shape = AttentionShape::self_attn(1, cfg.heads, seq, cfg.head_dim());
    for i in 0..cfg.layers {
        layer(&mut g, i, cfg, shape, AttnKind::Causal, seq);
    }
    g.push("final_norm", Op::LayerNorm { rows: seq, cols: cfg.d_model });
    g.push("lm_head", Op::Linear { tokens: 1, in_features: cfg.d_model, out_features: cfg.vocab });
    g
}

/// One autoregressive decode step with `kv_len` cached tokens: a single
/// query token attends to the cache (`1×N` similarity — the paper's
/// decode-phase shape that Flash Attention barely helps).
#[must_use]
pub fn decode_step_graph(cfg: &TransformerConfig, kv_len: usize) -> Graph {
    batched_decode_step_graph(cfg, kv_len, 1)
}

/// One decode step serving `batch` concurrent sequences, each with its own
/// `kv_len`-token cache. Batching amortizes the weight reads that make
/// low-batch decode memory-bandwidth bound (Fig. 5's "low batch size"
/// qualifier).
///
/// # Panics
///
/// Panics if `batch` is zero.
#[must_use]
pub fn batched_decode_step_graph(cfg: &TransformerConfig, kv_len: usize, batch: usize) -> Graph {
    assert!(batch > 0, "batch must be positive");
    let mut g = Graph::new();
    g.push("embed", Op::Embedding { vocab: cfg.vocab, tokens: batch, dim: cfg.d_model });
    let shape = AttentionShape::decode_step(batch, cfg.heads, kv_len, cfg.head_dim());
    for i in 0..cfg.layers {
        // KV-cache append for each sequence's new token.
        g.push(
            format_args!("layer{i}.kv_cache"),
            Op::Memcpy { bytes: (batch * 2 * cfg.d_model * 2) as u64, amplification: 1.0 },
        );
        layer(&mut g, i, cfg, shape, AttnKind::Causal, batch);
    }
    g.push("final_norm", Op::LayerNorm { rows: batch, cols: cfg.d_model });
    g.push(
        "lm_head",
        Op::Linear { tokens: batch, in_features: cfg.d_model, out_features: cfg.vocab },
    );
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_graph::OpCategory;

    fn llama() -> TransformerConfig {
        TransformerConfig {
            layers: 32,
            d_model: 4096,
            heads: 32,
            d_ff: 11008,
            gated_ffn: true,
            vocab: 32000,
            cross_attention: false,
            context_len: 0,
            context_dim: 0,
        }
    }

    #[test]
    fn encoder_has_layer_count_attention_calls() {
        let cfg = llama();
        let g = encoder_graph(&cfg, 512);
        assert_eq!(g.attention_nodes().count(), 32);
    }

    #[test]
    fn cross_attention_doubles_attention_calls() {
        let cfg = TransformerConfig {
            cross_attention: true,
            context_len: 128,
            context_dim: 4096,
            ..llama()
        };
        let g = encoder_graph(&cfg, 256);
        assert_eq!(g.attention_nodes().count(), 64);
    }

    #[test]
    fn prefill_flops_dominated_by_linear() {
        let g = prefill_graph(&llama(), 512);
        let by = g.flops_by_category();
        let linear = by.iter().find(|(c, _)| *c == OpCategory::Linear).unwrap().1;
        assert!(linear as f64 / g.total_flops() as f64 > 0.6);
    }

    #[test]
    fn decode_step_attention_is_one_by_n() {
        let g = decode_step_graph(&llama(), 2048);
        for n in g.attention_nodes() {
            let (s, _) = n.op.attention_shape().unwrap();
            assert_eq!(s.seq_q, 1);
            assert_eq!(s.seq_kv, 2048);
        }
    }

    #[test]
    fn prefill_flops_scale_with_seq() {
        let cfg = llama();
        let f1 = prefill_graph(&cfg, 128).total_flops();
        let f2 = prefill_graph(&cfg, 256).total_flops();
        let ratio = f2 as f64 / f1 as f64;
        assert!(ratio > 1.9 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn llama_7b_prefill_flops_sane() {
        // ~2 * params * tokens heuristic: 2 * 6.7e9 * 512 ≈ 6.9e12.
        let f = prefill_graph(&llama(), 512).total_flops() as f64;
        assert!((3e12..12e12).contains(&f), "flops {f}");
    }
}
