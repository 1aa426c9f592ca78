//! Inference pipelines: staged graphs with repeat counts.
//!
//! TTI/TTV models "consist of several different model components that are
//! trained separately and then stitched together at inference time"
//! (Section II) — a pipeline captures that: text encoder once, UNet step ×
//! denoising steps, decoder once; or prefill once, decode step × tokens.

use std::sync::Arc;

use mmg_graph::memory::{graph_footprint, MemoryFootprint};
use mmg_graph::{AttnKind, Graph};
use mmg_profiler::{CategoryBreakdown, Profiler, Timeline};

use crate::ModelId;

/// One pipeline stage: a graph executed `repeats` times back-to-back.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage label (`"clip_encoder"`, `"unet_step"`, …).
    pub name: String,
    /// Consecutive executions (denoising steps, decode steps).
    pub repeats: usize,
    /// The operator graph of one execution, shared: cloning a stage or
    /// its pipeline copies a pointer, not the graph's nodes, so every copy
    /// of a [`crate::suite::build`] pipeline reads the same graph.
    /// Readers go through `Deref`; to edit one copy's graph, use
    /// [`Arc::make_mut`], which clones it first while it is shared.
    pub graph: Arc<Graph>,
    /// Weight-sharing group: stages with the same group run the same
    /// weights (an LLM's prefill and decode stages, or the sampled steps
    /// of an autoregressive decode). Defaults to the stage name up to a
    /// `_t<step>` suffix.
    pub weight_group: String,
    /// Whether `repeats` counts *denoising sampler* iterations (a
    /// DDIM/DDPM step loop). Only these stages respond to
    /// [`Pipeline::with_sampler_steps`]; autoregressive decode and
    /// MaskGIT refinement loops are structural and never resampled.
    pub denoise: bool,
}

impl Stage {
    /// Creates a stage. The weight group defaults to the name with any
    /// `_t<step>` suffix removed, so sampled decode stages
    /// (`decode_t0`, `decode_t32`, …) share one group.
    #[must_use]
    pub fn new(name: impl Into<String>, repeats: usize, graph: Graph) -> Self {
        let name = name.into();
        let weight_group =
            name.split("_t").next().unwrap_or(name.as_str()).to_owned();
        Stage { name, repeats, graph: Arc::new(graph), weight_group, denoise: false }
    }

    /// A stage executed once.
    #[must_use]
    pub fn once(name: impl Into<String>, graph: Graph) -> Self {
        Stage::new(name, 1, graph)
    }

    /// Overrides the weight-sharing group.
    #[must_use]
    pub fn with_weight_group(mut self, group: impl Into<String>) -> Self {
        self.weight_group = group.into();
        self
    }

    /// Marks this stage's repeats as denoising sampler iterations, making
    /// it eligible for [`Pipeline::with_sampler_steps`].
    #[must_use]
    pub fn denoising(mut self) -> Self {
        self.denoise = true;
        self
    }
}

/// A complete model inference pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Workload name.
    pub name: String,
    /// Suite identity, if this pipeline is a suite member.
    pub model: Option<ModelId>,
    /// Ordered stages.
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// Creates a pipeline.
    #[must_use]
    pub fn new(name: impl Into<String>, model: Option<ModelId>, stages: Vec<Stage>) -> Self {
        Pipeline { name: name.into(), model, stages }
    }

    /// Total FLOPs of one end-to-end inference.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.stages.iter().map(|s| s.repeats as u64 * s.graph.total_flops()).sum()
    }

    /// Rewrites the pipeline to a reduced-step (distilled) sampler: every
    /// [denoising](Stage::denoising) stage's repeat count is capped at
    /// `steps` (LCM/turbo-style distillation runs the same UNet for 4–8
    /// steps instead of 50). Encoders, decoders, autoregressive decode
    /// loops and MaskGIT refinement stages are untouched — they are
    /// structural, not sampler schedules.
    #[must_use]
    pub fn with_sampler_steps(mut self, steps: usize) -> Self {
        for s in &mut self.stages {
            if s.denoise {
                s.repeats = s.repeats.min(steps.max(1));
            }
        }
        self
    }

    /// Whether any stage responds to [`Pipeline::with_sampler_steps`].
    #[must_use]
    pub fn has_denoising_stages(&self) -> bool {
        self.stages.iter().any(|s| s.denoise)
    }

    /// Total trainable parameters: each *weight group* counted once
    /// (repeats and weight-sharing stages reuse the same weights — the
    /// parameter re-use that gives diffusion models their high arithmetic
    /// intensity). Within a group the largest stage is counted, since a
    /// decode-step graph may expose fewer of the shared weights than the
    /// prefill graph.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        let mut groups: Vec<(&str, u64)> = Vec::new();
        for s in &self.stages {
            let params = s.graph.param_count();
            if let Some(slot) = groups.iter_mut().find(|(g, _)| *g == s.weight_group) {
                slot.1 = slot.1.max(params);
            } else {
                groups.push((&s.weight_group, params));
            }
        }
        groups.iter().map(|(_, p)| p).sum()
    }

    /// Total FP16 weight bytes *read* over one inference: every sequential
    /// forward call must re-fetch its stage's weights, so repeats multiply.
    #[must_use]
    pub fn weight_bytes_read(&self) -> u64 {
        self.stages.iter().map(|s| 2 * s.repeats as u64 * s.graph.param_count()).sum()
    }

    /// Arithmetic intensity for the Fig. 5 roofline: FLOPs per byte of
    /// weight traffic. Diffusion models process a whole image per weight
    /// fetch (high intensity); autoregressive decode processes one token
    /// per fetch (intensity ≈ 1, memory-bandwidth bound at low batch).
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        self.total_flops() as f64 / self.weight_bytes_read().max(1) as f64
    }

    /// Inference memory footprint at FP16: all stages' weights resident,
    /// the widest stage's activation peak, the largest KV cache. Weight
    /// groups are deduplicated like [`Pipeline::param_count`].
    #[must_use]
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut groups: Vec<(&str, MemoryFootprint)> = Vec::new();
        for s in &self.stages {
            let f = graph_footprint(&s.graph, 2);
            if let Some(slot) = groups.iter_mut().find(|(g, _)| *g == s.weight_group) {
                slot.1.weight_bytes = slot.1.weight_bytes.max(f.weight_bytes);
                slot.1.peak_activation_bytes =
                    slot.1.peak_activation_bytes.max(f.peak_activation_bytes);
                slot.1.kv_cache_bytes = slot.1.kv_cache_bytes.max(f.kv_cache_bytes);
            } else {
                groups.push((&s.weight_group, f));
            }
        }
        groups
            .iter()
            .fold(MemoryFootprint::default(), |acc, (_, f)| acc.merge_resident(f))
    }

    /// Profiles every stage once and assembles the weighted profile.
    ///
    /// CUDA-graph capture (when the profiler enables it) only holds for
    /// the static-shape denoising stages — a denoising step replays the
    /// identical kernel sequence every iteration, while autoregressive
    /// decode and MaskGIT resampling change shape each step and cannot
    /// stay captured — so non-denoising stages are profiled through
    /// [`Profiler::without_graph_capture`].
    #[must_use]
    pub fn profile(&self, profiler: &Profiler) -> PipelineProfile {
        let uncaptured = profiler.without_graph_capture();
        let stages = self
            .stages
            .iter()
            .map(|s| StageProfile {
                name: s.name.clone(),
                repeats: s.repeats,
                timeline: if s.denoise { profiler } else { &uncaptured }.profile(&s.graph),
            })
            .collect();
        PipelineProfile { pipeline: self.name.clone(), stages }
    }
}

/// One profiled stage.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Stage label.
    pub name: String,
    /// Repeat count the stage contributes with.
    pub repeats: usize,
    /// Timeline of a single execution.
    pub timeline: Timeline,
}

/// The weighted profile of a whole pipeline.
#[derive(Debug, Clone)]
pub struct PipelineProfile {
    /// Pipeline name.
    pub pipeline: String,
    /// Per-stage profiles.
    pub stages: Vec<StageProfile>,
}

impl PipelineProfile {
    /// End-to-end simulated seconds.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.stages.iter().map(|s| s.repeats as f64 * s.timeline.total_time_s()).sum()
    }

    /// End-to-end FLOPs.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.stages.iter().map(|s| s.repeats as u64 * s.timeline.total_flops()).sum()
    }

    /// End-to-end modeled energy in joules, weighted by repeats like
    /// [`PipelineProfile::total_time_s`].
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.stages.iter().map(|s| s.repeats as f64 * s.timeline.total_energy_j()).sum()
    }

    /// Mean board draw over the whole pipeline, watts (0 when empty).
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        let t = self.total_time_s();
        if t == 0.0 {
            0.0
        } else {
            self.total_energy_j() / t
        }
    }

    /// Operator breakdown across all stages, weighted by repeats (Fig. 6).
    #[must_use]
    pub fn breakdown(&self) -> CategoryBreakdown {
        let mut acc = CategoryBreakdown::empty();
        for s in &self.stages {
            acc.merge(&s.timeline.breakdown().scaled(s.repeats as f64));
        }
        acc
    }

    /// Seconds in attention calls of one kind, weighted (Fig. 11).
    #[must_use]
    pub fn attention_time_by_kind(&self, kind: AttnKind) -> f64 {
        self.stages
            .iter()
            .map(|s| s.repeats as f64 * s.timeline.attention_time_by_kind(kind))
            .sum()
    }

    /// FLOPs in attention calls of one kind, weighted.
    #[must_use]
    pub fn attention_flops_by_kind(&self, kind: AttnKind) -> u64 {
        self.stages
            .iter()
            .map(|s| s.repeats as u64 * s.timeline.attention_flops_by_kind(kind))
            .sum()
    }

    /// One *fundamental period* of the attention-call trace: each stage's
    /// single-execution timeline concatenated once (Fig. 7 truncates to the
    /// minimum repeating pattern the same way).
    #[must_use]
    pub fn fundamental_period(&self) -> Timeline {
        let mut t = Timeline::default();
        for s in &self.stages {
            t.extend(&s.timeline);
        }
        t
    }

    /// The profile of a named stage.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttnImpl;
    use mmg_gpu::DeviceSpec;
    use mmg_graph::Op;

    fn stage_graph(tokens: usize) -> Graph {
        let mut g = Graph::new();
        g.push("fc", Op::Linear { tokens, in_features: 64, out_features: 64 });
        g
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(
            "test",
            None,
            vec![
                Stage::once("encode", stage_graph(16)),
                Stage::new("step", 50, stage_graph(32)),
            ],
        )
    }

    #[test]
    fn flops_weighted_by_repeats() {
        let p = pipeline();
        let f_enc = 2 * 16 * 64 * 64u64;
        let f_step = 2 * 32 * 64 * 64u64;
        assert_eq!(p.total_flops(), f_enc + 50 * f_step);
    }

    #[test]
    fn params_counted_once_per_stage() {
        let p = pipeline();
        assert_eq!(p.param_count(), 2 * 64 * 64);
    }

    #[test]
    fn arithmetic_intensity_is_per_weight_read() {
        // Repeats re-read the weights, so intensity is invariant to them…
        let once = Pipeline::new("a", None, vec![Stage::once("s", stage_graph(32))]);
        let many = Pipeline::new("b", None, vec![Stage::new("s", 50, stage_graph(32))]);
        assert!((once.arithmetic_intensity() - many.arithmetic_intensity()).abs() < 1e-9);
        // …while more tokens per call raise it.
        let wide = Pipeline::new("c", None, vec![Stage::once("s", stage_graph(64))]);
        assert!(wide.arithmetic_intensity() > 1.9 * once.arithmetic_intensity());
        assert_eq!(many.weight_bytes_read(), 50 * once.weight_bytes_read());
    }

    #[test]
    fn sampler_steps_cap_only_denoising_stages() {
        let p = Pipeline::new(
            "test",
            None,
            vec![
                Stage::once("encode", stage_graph(16)),
                Stage::new("unet_step", 50, stage_graph(32)).denoising(),
                Stage::new("decode_t0", 64, stage_graph(8)),
            ],
        );
        assert!(p.has_denoising_stages());
        let repeats = |p: &Pipeline, name: &str| {
            p.stages.iter().find(|s| s.name == name).unwrap().repeats
        };
        let distilled = p.clone().with_sampler_steps(4);
        assert_eq!(repeats(&distilled, "unet_step"), 4);
        assert_eq!(repeats(&distilled, "decode_t0"), 64, "AR decode untouched");
        assert_eq!(repeats(&distilled, "encode"), 1);
        // A cap above the schedule is a no-op, and 0 clamps to 1 step.
        assert_eq!(repeats(&p.clone().with_sampler_steps(100), "unet_step"), 50);
        assert_eq!(repeats(&p.clone().with_sampler_steps(0), "unet_step"), 1);
    }

    #[test]
    fn profile_weights_time() {
        let p = pipeline();
        let prof = p.profile(&Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash));
        let enc = prof.stage("encode").unwrap().timeline.total_time_s();
        let step = prof.stage("step").unwrap().timeline.total_time_s();
        assert!((prof.total_time_s() - (enc + 50.0 * step)).abs() < 1e-12);
    }

    #[test]
    fn fundamental_period_concatenates_once() {
        let p = pipeline();
        let prof = p.profile(&Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash));
        assert_eq!(prof.fundamental_period().events().len(), 2);
    }

    #[test]
    fn breakdown_total_matches_time() {
        let p = pipeline();
        let prof = p.profile(&Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash));
        assert!((prof.breakdown().total_s() - prof.total_time_s()).abs() < 1e-12);
    }
}
