//! The profiled model suite (Section III).
//!
//! Each submodule builds one workload's inference [`Pipeline`] from its
//! published architecture hyperparameters. Builders take a config struct
//! (with a faithful `Default`) so experiments can sweep image size, frame
//! count, or step count.

pub mod dit;
pub mod imagen;
pub mod imagen_video;
pub mod llama;
pub mod make_a_video;
pub mod muse;
pub mod parti;
pub mod phenaki;
pub mod prod_image;
pub mod stable_diffusion;

use std::sync::OnceLock;

use crate::{ModelId, Pipeline, TransformerConfig};

/// CLIP ViT-L/14 text encoder (Stable Diffusion's conditioner).
#[must_use]
pub fn clip_text_config() -> TransformerConfig {
    TransformerConfig {
        layers: 12,
        d_model: 768,
        heads: 12,
        d_ff: 3072,
            gated_ffn: false,
        vocab: 49408,
        cross_attention: false,
        context_len: 0,
        context_dim: 0,
    }
}

/// T5-XXL encoder (Imagen's conditioner).
#[must_use]
pub fn t5_xxl_config() -> TransformerConfig {
    TransformerConfig {
        layers: 24,
        d_model: 4096,
        heads: 64,
        d_ff: 10240,
            gated_ffn: false,
        vocab: 32128,
        cross_attention: false,
        context_len: 0,
        context_dim: 0,
    }
}

/// Builds the default pipeline for a suite member.
///
/// Each model's pipeline is built once per process, on the first call
/// for it; every call returns a copy that shares the built stage graphs
/// ([`Stage::graph`](crate::Stage::graph)), so a copy allocates its
/// names and its stage list but no node, and an edit to it reaches
/// neither the built pipeline nor any other copy.
///
/// The built pipelines are program constants: pure functions of the
/// builders' `Default` configs, with no telemetry, RNG, device or memo
/// input, so sharing them across calls and threads cannot change any
/// output. Concurrent first calls are safe: each model's builder runs
/// once, under [`OnceLock::get_or_init`], and no builder calls back into
/// `build`. A custom config goes through its per-model builder
/// ([`parti::pipeline`], …), which builds a fresh pipeline on every call.
#[must_use]
pub fn build(id: ModelId) -> Pipeline {
    static BUILT: [OnceLock<Pipeline>; ModelId::ALL.len()] =
        [const { OnceLock::new() }; ModelId::ALL.len()];
    BUILT[id as usize].get_or_init(|| build_fresh(id)).clone()
}

/// `id`'s default pipeline, built afresh by its per-model builder.
fn build_fresh(id: ModelId) -> Pipeline {
    match id {
        ModelId::Llama2 => llama::pipeline(&llama::Llama2Config::default()),
        ModelId::Imagen => imagen::pipeline(&imagen::ImagenConfig::default()),
        ModelId::StableDiffusion => {
            stable_diffusion::pipeline(&stable_diffusion::StableDiffusionConfig::default())
        }
        ModelId::Muse => muse::pipeline(&muse::MuseConfig::default()),
        ModelId::Parti => parti::pipeline(&parti::PartiConfig::default()),
        ModelId::ProdImage => prod_image::pipeline(&prod_image::ProdImageConfig::default()),
        ModelId::MakeAVideo => make_a_video::pipeline(&make_a_video::MakeAVideoConfig::default()),
        ModelId::Phenaki => phenaki::pipeline(&phenaki::PhenakiConfig::default()),
    }
}

/// Builds the whole suite in presentation order.
#[must_use]
pub fn full_suite() -> Vec<Pipeline> {
    ModelId::ALL.iter().map(|&id| build(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;
    use mmg_graph::{Graph, Op};
    use std::sync::Arc;

    #[test]
    fn all_models_build() {
        let suite = full_suite();
        assert_eq!(suite.len(), 8);
        for p in &suite {
            assert!(!p.stages.is_empty(), "{} has no stages", p.name);
            assert!(p.total_flops() > 0, "{} has no work", p.name);
            assert!(p.param_count() > 0, "{} has no params", p.name);
        }
    }

    #[test]
    fn diffusion_models_have_higher_arithmetic_intensity_than_transformer_tti() {
        // The Fig. 5 ordering: parameter re-use across denoising steps.
        let sd = build(ModelId::StableDiffusion).arithmetic_intensity();
        let parti = build(ModelId::Parti).arithmetic_intensity();
        let muse = build(ModelId::Muse).arithmetic_intensity();
        assert!(sd > 5.0 * parti, "sd {sd} vs parti {parti}");
        assert!(sd > muse, "sd {sd} vs muse {muse}");
    }

    #[test]
    fn model_ids_attached() {
        for p in full_suite() {
            assert!(p.model.is_some(), "{}", p.name);
        }
    }

    #[test]
    fn builds_share_the_fresh_graphs_and_copies_stay_apart() {
        let edits: [fn(Pipeline) -> Pipeline; 4] = [
            |p| p.with_sampler_steps(4),
            |mut p| {
                p.stages[0].repeats += 1;
                p
            },
            |mut p| {
                p.stages.push(Stage::once("extra", Graph::new()));
                p
            },
            |mut p| {
                let op = Op::Linear { tokens: 1, in_features: 8, out_features: 8 };
                Arc::make_mut(&mut p.stages[0].graph).push("extra", op);
                p
            },
        ];
        for id in ModelId::ALL {
            let fresh = build_fresh(id);
            let (a, b) = (build(id), build(id));
            assert_eq!(a, fresh, "{id}");
            for (sa, sb) in a.stages.iter().zip(&b.stages) {
                assert!(
                    Arc::ptr_eq(&sa.graph, &sb.graph),
                    "{id}: two builds hold separate copies of stage {}",
                    sa.name
                );
            }
            for edit in edits {
                let _edited = edit(build(id));
                assert_eq!(build(id), fresh, "{id}: an edit to one copy reached the next build");
            }
        }
    }
}
