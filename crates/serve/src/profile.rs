//! Profiler-grounded per-model service curves.
//!
//! A [`ServiceCurve`] answers "how long does one GPU take to serve a
//! batch of `b` requests of model M?" with numbers that come from the
//! repo's real roofline profiler, not hand-picked constants. For each
//! model the dominant *repeated* stages (the denoising loop, the decode
//! loop) are re-profiled at several batch sizes — preserving the paper's
//! batching regimes: memory-bandwidth-bound autoregressive decode
//! amortizes dramatically with batch, while the compute-bound diffusion
//! UNet gains little (Fig. 5's "low batch size" qualifier). The
//! once-per-request stages (text encoders, VAE decoders) scale linearly.

use mmg_models::blocks::{
    batched_decode_step_graph, encoder_graph, prefill_graph, unet_step_graph,
    windowed_encoder_graph,
};
use mmg_models::suite;
use mmg_models::ModelId;
use mmg_profiler::Profiler;

use crate::workload::RequestMix;

/// GPU seconds to serve a batch of same-model requests, as a function of
/// batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCurve {
    /// The model the curve describes.
    pub model: ModelId,
    /// `(batch, total seconds for the whole batch)` points, ascending by
    /// batch, starting at batch 1.
    pub points: Vec<(usize, f64)>,
    /// Throughput multiplier from Section-V pod co-scheduling (≥ 1;
    /// 1 = no pods). Applied by the pod scheduler, not baked into the
    /// points.
    pub pod_factor: f64,
    /// Mean modeled board draw (watts) while a GPU serves this model,
    /// from the profiler's per-kernel power model. 0 = unmetered (the
    /// serving energy layer stays off).
    pub draw_w: f64,
}

impl ServiceCurve {
    /// A curve from measured points.
    ///
    /// # Panics
    ///
    /// Panics unless the points start at batch 1, ascend strictly in
    /// batch, and carry positive non-decreasing total times.
    #[must_use]
    pub fn new(model: ModelId, points: Vec<(usize, f64)>) -> Self {
        assert!(!points.is_empty(), "{model}: service curve needs points");
        assert_eq!(points[0].0, 1, "{model}: curve must start at batch 1");
        for w in points.windows(2) {
            assert!(w[1].0 > w[0].0, "{model}: batches must ascend");
            assert!(w[1].1 >= w[0].1, "{model}: batch time cannot shrink");
        }
        assert!(points[0].1 > 0.0, "{model}: service time must be positive");
        ServiceCurve { model, points, pod_factor: 1.0, draw_w: 0.0 }
    }

    /// A batching-free curve: a batch of `b` takes `b × service_s`
    /// (sequential service — the classical M/D/1 assumption).
    #[must_use]
    pub fn constant(model: ModelId, service_s: f64) -> Self {
        assert!(service_s > 0.0, "service time must be positive");
        ServiceCurve { model, points: vec![(1, service_s)], pod_factor: 1.0, draw_w: 0.0 }
    }

    /// The same curve with a serving draw attached (watts while a GPU
    /// runs this model's batches).
    #[must_use]
    pub fn with_draw_w(mut self, draw_w: f64) -> Self {
        assert!(draw_w >= 0.0, "draw must be non-negative");
        self.draw_w = draw_w;
        self
    }

    /// Seconds one GPU needs for a batch of `b` requests.
    ///
    /// # Interpolation and extrapolation rule
    ///
    /// - **Exact knot**: a measured batch size returns its measured time
    ///   bit-for-bit (no float round-trip through the interpolator).
    /// - **Between knots**: linear interpolation within the bracketing
    ///   segment.
    /// - **Below the first knot**: impossible by construction — every
    ///   curve starts at batch 1 (enforced by [`ServiceCurve::new`]) and
    ///   `b ≥ 1`, so the first knot is always reachable exactly.
    /// - **Above the last knot**: linear extrapolation at the marginal
    ///   per-request slope of the *last measured segment* — batching
    ///   amortization is assumed to have flattened out past the largest
    ///   profiled batch. A single-point curve extrapolates at the
    ///   batch-1 cost (slope = `base_s`), i.e. no batching benefit.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[must_use]
    pub fn batch_s(&self, b: usize) -> f64 {
        assert!(b > 0, "batch must be positive");
        let pts = &self.points;
        if let Some(&(_, t)) = pts.iter().find(|(pb, _)| *pb == b) {
            return t;
        }
        let last = pts[pts.len() - 1];
        if b > last.0 {
            let slope = if pts.len() >= 2 {
                let prev = pts[pts.len() - 2];
                (last.1 - prev.1) / (last.0 - prev.0) as f64
            } else {
                last.1
            };
            return last.1 + slope * (b - last.0) as f64;
        }
        // b below the last point and not measured: interpolate within the
        // bracketing segment (b > 1 here since batch 1 is always a point).
        let hi = pts.iter().position(|(pb, _)| *pb > b).expect("bracketing point");
        let (b0, t0) = pts[hi - 1];
        let (b1, t1) = pts[hi];
        let frac = (b - b0) as f64 / (b1 - b0) as f64;
        t0 + frac * (t1 - t0)
    }

    /// Per-request seconds at batch `b`.
    #[must_use]
    pub fn per_item_s(&self, b: usize) -> f64 {
        self.batch_s(b) / b as f64
    }

    /// Batch-1 (unbatched) service seconds.
    #[must_use]
    pub fn base_s(&self) -> f64 {
        self.points[0].1
    }
}

/// The per-model service curves of a serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceProfile {
    /// One curve per model in the scenario mix.
    pub curves: Vec<ServiceCurve>,
    /// Board draw (watts) of an idle GPU in the cluster; 0 = unmetered.
    /// Together with the per-curve `draw_w` this switches the serving
    /// energy layer on ([`ServiceProfile::has_power`]).
    pub idle_w: f64,
}

impl ServiceProfile {
    /// A profile from explicit curves.
    ///
    /// # Panics
    ///
    /// Panics on an empty or duplicate-model curve set.
    #[must_use]
    pub fn new(curves: Vec<ServiceCurve>) -> Self {
        assert!(!curves.is_empty(), "service profile needs curves");
        for (i, c) in curves.iter().enumerate() {
            assert!(
                curves[..i].iter().all(|o| o.model != c.model),
                "duplicate curve for {}",
                c.model
            );
        }
        ServiceProfile { curves, idle_w: 0.0 }
    }

    /// Attaches the cluster's idle draw (watts), enabling the serving
    /// energy layer.
    #[must_use]
    pub fn with_idle_w(mut self, idle_w: f64) -> Self {
        assert!(idle_w >= 0.0, "idle draw must be non-negative");
        self.idle_w = idle_w;
        self
    }

    /// Whether the energy layer is metered: an idle draw is attached
    /// and every curve carries a serving draw.
    #[must_use]
    pub fn has_power(&self) -> bool {
        self.idle_w > 0.0 && self.curves.iter().all(|c| c.draw_w > 0.0)
    }

    /// Builds curves for `models` by querying `profiler` at each batch
    /// size in `batches`.
    ///
    /// The decomposition per model: profile the full batch-1 pipeline
    /// once, re-profile the dominant repeated ("hot") stages at batch
    /// `b`, and charge the remaining once-per-request stages linearly —
    /// `batch_s(b) = (pipe₁ − hot₁)·b + hot_b`. For the parallel-decoding
    /// transformers the batched stage uses windowed attention with the
    /// window set to one request's token count, which models a batch
    /// of independent requests exactly (no cross-request attention).
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty (batch 1 is added automatically when
    /// absent).
    #[must_use]
    pub fn from_profiler(profiler: &Profiler, models: &[ModelId], batches: &[usize]) -> Self {
        ServiceProfile::from_profiler_sampled(profiler, models, batches, None)
    }

    /// Like [`ServiceProfile::from_profiler`], with the diffusion
    /// sampler's denoising steps capped at `sampler_steps` (distilled
    /// few-step sampling). Autoregressive and MaskGIT models are
    /// unaffected — their iteration counts are structural.
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty (batch 1 is added automatically when
    /// absent).
    #[must_use]
    pub fn from_profiler_sampled(
        profiler: &Profiler,
        models: &[ModelId],
        batches: &[usize],
        sampler_steps: Option<usize>,
    ) -> Self {
        assert!(!batches.is_empty(), "need at least one batch size");
        let mut batches: Vec<usize> = batches.to_vec();
        if !batches.contains(&1) {
            batches.push(1);
        }
        batches.sort_unstable();
        batches.dedup();

        let curves = models
            .iter()
            .map(|&model| {
                let mut pipeline = suite::build(model);
                if let Some(steps) = sampler_steps {
                    pipeline = pipeline.with_sampler_steps(steps);
                }
                let timeline = pipeline.profile(profiler);
                let pipe1 = timeline.total_time_s();
                let hot1 = hot_stage_s(profiler, model, 1, sampler_steps);
                let overhead_s = (pipe1 - hot1).max(0.0);
                let points = batches
                    .iter()
                    .map(|&b| {
                        (b, overhead_s * b as f64 + hot_stage_s(profiler, model, b, sampler_steps))
                    })
                    .collect();
                // The batch-1 pipeline's mean draw stands for the draw a
                // GPU sustains while serving this model's batches.
                ServiceCurve::new(model, points).with_draw_w(timeline.mean_power_w())
            })
            .collect();
        ServiceProfile::new(curves).with_idle_w(profiler.spec().idle_w)
    }

    /// The curve for one model.
    #[must_use]
    pub fn curve(&self, model: ModelId) -> Option<&ServiceCurve> {
        self.curves.iter().find(|c| c.model == model)
    }

    /// Mix-weighted mean batch-1 service seconds — the per-request GPU
    /// cost an unbatched cluster pays, used to translate a target
    /// utilization into an offered arrival rate.
    ///
    /// # Panics
    ///
    /// Panics if the mix references a model without a curve.
    #[must_use]
    pub fn mean_base_s(&self, mix: &RequestMix) -> f64 {
        mix.entries()
            .iter()
            .map(|&(model, _)| {
                let c = self
                    .curve(model)
                    .unwrap_or_else(|| panic!("no service curve for {model}"));
                mix.share(model) * c.base_s()
            })
            .sum()
    }

    /// Attaches pod factors (`(model, factor)`) to the matching curves.
    #[must_use]
    pub fn with_pod_factors(mut self, factors: &[(ModelId, f64)]) -> Self {
        for c in &mut self.curves {
            if let Some(&(_, f)) = factors.iter().find(|(m, _)| *m == c.model) {
                c.pod_factor = f.max(1.0);
            }
        }
        self
    }
}

/// Seconds the dominant repeated stages of `model` take for a batch of
/// `b` requests, via the profiler. `sampler_steps` caps the denoising
/// step counts of diffusion models (mirroring
/// [`mmg_models::Pipeline::with_sampler_steps`]); other loops are
/// structural and ignore it.
fn hot_stage_s(
    profiler: &Profiler,
    model: ModelId,
    b: usize,
    sampler_steps: Option<usize>,
) -> f64 {
    let t = |graph| profiler.profile(&graph).total_time_s();
    // AR decode and MaskGIT resampling change shape every iteration, so
    // they cannot stay inside a captured graph; only the static-shape
    // denoising loops keep any graph-capture benefit.
    let uncaptured = profiler.without_graph_capture();
    let t_dyn = |graph| uncaptured.profile(&graph).total_time_s();
    let cap = |steps: usize| sampler_steps.map_or(steps, |s| steps.min(s.max(1)));
    match model {
        ModelId::StableDiffusion => {
            let cfg = suite::stable_diffusion::StableDiffusionConfig::default();
            cap(cfg.steps) as f64 * t(unet_step_graph(&cfg.unet(), cfg.latent_res(), b))
        }
        ModelId::ProdImage => {
            let cfg = suite::prod_image::ProdImageConfig::default();
            cap(cfg.steps) as f64 * t(unet_step_graph(&cfg.unet(), cfg.latent_res(), b))
        }
        ModelId::Imagen => {
            let cfg = suite::imagen::ImagenConfig::default();
            cap(cfg.base_steps) as f64 * t(unet_step_graph(&cfg.base_unet(), 64, b))
                + cap(cfg.sr1_steps) as f64 * t(unet_step_graph(&cfg.sr1_unet(), 256, b))
                + cap(cfg.sr2_steps) as f64 * t(unet_step_graph(&cfg.sr2_unet(), 1024, b))
        }
        ModelId::MakeAVideo => {
            // The UNet's third axis is the frame count; a batch of b videos
            // is b×frames independent frames.
            let cfg = suite::make_a_video::MakeAVideoConfig::default();
            cap(cfg.base_steps) as f64
                * t(unet_step_graph(&cfg.base_unet(), cfg.base_res, cfg.frames * b))
                + cap(cfg.sr_steps) as f64
                    * t(unet_step_graph(&cfg.sr_unet(), cfg.sr_res, cfg.frames * b))
        }
        ModelId::Parti => {
            let cfg = suite::parti::PartiConfig::default();
            let total = cfg.image_grid * cfg.image_grid;
            // Mid-generation KV length stands for the linear ramp.
            total as f64 * t_dyn(batched_decode_step_graph(&cfg.decoder, total / 2, b))
        }
        ModelId::Llama2 => {
            let cfg = suite::llama::Llama2Config::default();
            let kv = cfg.prompt_len + cfg.gen_tokens / 2;
            cfg.gen_tokens as f64 * t_dyn(batched_decode_step_graph(&cfg.transformer, kv, b))
        }
        ModelId::Muse => {
            // Window = one request's token count ⇒ b independent requests,
            // no cross-request attention.
            let cfg = suite::muse::MuseConfig::default();
            let base_tokens = cfg.base_grid * cfg.base_grid;
            let sr_tokens = cfg.sr_grid * cfg.sr_grid;
            cfg.base_steps as f64
                * t_dyn(windowed_encoder_graph(&cfg.base, base_tokens * b, base_tokens))
                + cfg.sr_steps as f64
                    * t_dyn(windowed_encoder_graph(&cfg.sr, sr_tokens * b, cfg.sr_window))
        }
        ModelId::Phenaki => {
            let cfg = suite::phenaki::PhenakiConfig::default();
            let tokens = cfg.video_tokens();
            cfg.maskgit_steps as f64
                * t_dyn(windowed_encoder_graph(&cfg.maskgit, tokens * b, tokens))
        }
    }
}

/// Per-iteration cost surface for token-granularity autoregressive
/// serving, queried from the real profiler.
///
/// Where [`ServiceCurve`] prices a *whole request* at batch `b`, this
/// curve prices one **decode iteration** of a running batch — the unit
/// the continuous-batching engine advances by — as a function of both
/// the batch size and the (mean) KV context length, plus a cumulative
/// prefill-cost curve for chunked prompt processing. Three of the
/// paper's models decode token-by-token and are supported:
///
/// - **LLaMA** — classic AR text decode: one token per iteration per
///   sequence, causal prefill over the prompt, per-token KV append.
/// - **Parti** — AR image-token decode (1024 tokens): the "prompt" is
///   the text encoding (cross-attention context), charged once via the
///   prefill curve; image-token KV grows during decode.
/// - **Muse** — *parallel* (MaskGIT) decode: each iteration re-scores
///   the whole 256-token base grid and commits `tokens_per_step`
///   tokens, so the step cost is flat in context length and no prompt
///   prefill exists (conditioning rides the cross-attention inside the
///   step cost). Only the base stage is modeled; the super-resolution
///   stage is outside the token loop.
///
/// Interpolation follows the [`ServiceCurve::batch_s`] rule on the
/// batch axis. On the context axis, queries **below the first knot
/// clamp to it** (short-context decode is weight-read bound, flat in
/// context) and queries above the last knot extrapolate at the last
/// segment's marginal slope (attention KV traffic grows linearly).
#[derive(Debug, Clone, PartialEq)]
pub struct TokenServiceCurve {
    /// The model the curve describes.
    pub model: ModelId,
    /// Batch-size knots, ascending, starting at 1.
    pub batch_knots: Vec<usize>,
    /// Context-length knots (tokens of resident KV), ascending.
    pub ctx_knots: Vec<usize>,
    /// `step_s[ci][bi]`: seconds for one decode iteration of
    /// `batch_knots[bi]` sequences, each holding `ctx_knots[ci]` tokens
    /// of KV context.
    pub step_s: Vec<Vec<f64>>,
    /// Cumulative prefill cost: `(prompt tokens, seconds to prefill
    /// them from token 0)`, ascending, with an implicit `(0, 0)` knot.
    /// Empty for models with no prompt phase (Muse).
    pub prefill_s: Vec<(usize, f64)>,
    /// Output tokens committed per iteration per sequence (1 = strict
    /// AR; >1 = parallel MaskGIT decode).
    pub tokens_per_step: usize,
    /// `Some(n)` when the model always emits exactly `n` tokens (image
    /// grids); `None` when the output length is workload-sampled.
    pub fixed_output_tokens: Option<usize>,
    /// KV-cache bytes per resident token per sequence (fp16 K+V across
    /// all layers).
    pub kv_bytes_per_token: u64,
    /// FP16 weight bytes resident on every GPU serving this model.
    pub weight_bytes: u64,
}

/// Piecewise-linear read at `x` of `n` ascending knots, knot `i` being
/// `(kx(i), ky(i))`: clamp below the first knot, marginal-slope
/// extrapolation above the last (flat for a single knot), linear
/// interpolation between.
///
/// The knots are read in place and `ky` runs only for the one or two
/// knots that bracket `x`, so a `ky` that is itself an interpolation
/// (a context row of the decode grid) costs at most two row reads and
/// no allocation. The token DES calls this once per decode iteration.
fn interp_knots(n: usize, kx: impl Fn(usize) -> f64, ky: impl Fn(usize) -> f64, x: f64) -> f64 {
    debug_assert!(n > 0);
    if x <= kx(0) {
        return ky(0);
    }
    let last = n - 1;
    let last_x = kx(last);
    if x >= last_x {
        let last_y = ky(last);
        if n < 2 {
            return last_y;
        }
        let slope = (last_y - ky(last - 1)) / (last_x - kx(last - 1));
        return last_y + slope * (x - last_x);
    }
    let hi = (1..n).find(|&i| kx(i) > x).expect("bracketing knot");
    let (x0, y0) = (kx(hi - 1), ky(hi - 1));
    let (x1, y1) = (kx(hi), ky(hi));
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

impl TokenServiceCurve {
    /// Whether `model` decodes token-by-token and is supported by the
    /// token engine.
    #[must_use]
    pub fn supports(model: ModelId) -> bool {
        matches!(model, ModelId::Llama2 | ModelId::Parti | ModelId::Muse)
    }

    /// Builds the curve for an autoregressive suite model by profiling
    /// its real decode-step lowering over a batch × context grid.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not autoregressive (see
    /// [`TokenServiceCurve::supports`]).
    #[must_use]
    pub fn from_profiler(profiler: &Profiler, model: ModelId) -> Self {
        let t = |graph| profiler.profile(&graph).total_time_s();
        let batch_knots: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64];
        let weight_bytes = 2 * suite::build(model).param_count();
        match model {
            ModelId::Llama2 => {
                let cfg = suite::llama::Llama2Config::default();
                let ctx_knots: Vec<usize> = vec![256, 1024, 4096, 8192];
                let step_s = ctx_knots
                    .iter()
                    .map(|&kv| {
                        batch_knots
                            .iter()
                            .map(|&b| t(batched_decode_step_graph(&cfg.transformer, kv, b)))
                            .collect()
                    })
                    .collect();
                let prefill_s = [128usize, 512, 2048, 4096]
                    .iter()
                    .map(|&len| (len, t(prefill_graph(&cfg.transformer, len))))
                    .collect();
                TokenServiceCurve {
                    model,
                    batch_knots,
                    ctx_knots,
                    step_s,
                    prefill_s,
                    tokens_per_step: 1,
                    fixed_output_tokens: None,
                    kv_bytes_per_token: kv_bytes_per_token(&cfg.transformer),
                    weight_bytes,
                }
            }
            ModelId::Parti => {
                let cfg = suite::parti::PartiConfig::default();
                let total = cfg.image_grid * cfg.image_grid;
                let ctx_knots: Vec<usize> = vec![64, 256, 512, total];
                let step_s = ctx_knots
                    .iter()
                    .map(|&kv| {
                        batch_knots
                            .iter()
                            .map(|&b| t(batched_decode_step_graph(&cfg.decoder, kv, b)))
                            .collect()
                    })
                    .collect();
                // The "prompt" is the text encoding: one encoder pass,
                // linear in prompt tokens through the cumulative curve.
                let prefill_s = vec![(cfg.text_len, t(encoder_graph(&cfg.encoder, cfg.text_len)))];
                TokenServiceCurve {
                    model,
                    batch_knots,
                    ctx_knots,
                    step_s,
                    prefill_s,
                    tokens_per_step: 1,
                    fixed_output_tokens: Some(total),
                    kv_bytes_per_token: kv_bytes_per_token(&cfg.decoder),
                    weight_bytes,
                }
            }
            ModelId::Muse => {
                let cfg = suite::muse::MuseConfig::default();
                let base_tokens = cfg.base_grid * cfg.base_grid;
                let step_s = vec![batch_knots
                    .iter()
                    .map(|&b| t(windowed_encoder_graph(&cfg.base, base_tokens * b, base_tokens)))
                    .collect()];
                TokenServiceCurve {
                    model,
                    batch_knots,
                    ctx_knots: vec![base_tokens],
                    step_s,
                    prefill_s: Vec::new(),
                    tokens_per_step: base_tokens.div_ceil(cfg.base_steps),
                    fixed_output_tokens: Some(base_tokens),
                    kv_bytes_per_token: kv_bytes_per_token(&cfg.base),
                    weight_bytes,
                }
            }
            other => panic!("{other} is not an autoregressive model; token serving needs one of llama | parti | muse"),
        }
    }

    /// Seconds for one decode iteration of `batch` sequences whose mean
    /// resident context is `ctx_tokens`: bilinear read of the profiled
    /// grid (batch axis per the [`ServiceCurve::batch_s`] rule, context
    /// axis clamped below / marginal-slope extrapolated above).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn step_s(&self, batch: usize, ctx_tokens: f64) -> f64 {
        assert!(batch > 0, "batch must be positive");
        interp_knots(
            self.ctx_knots.len(),
            |ci| self.ctx_knots[ci] as f64,
            |ci| interp_batch(&self.batch_knots, &self.step_s[ci], batch),
            ctx_tokens,
        )
    }

    /// Cumulative seconds to prefill a prompt's first `tokens` tokens
    /// at batch 1 (piecewise linear through the profiled lengths,
    /// implicit origin knot; zero for models with no prompt phase).
    #[must_use]
    pub fn prefill_cum_s(&self, tokens: f64) -> f64 {
        if self.prefill_s.is_empty() || tokens <= 0.0 {
            return 0.0;
        }
        // Knot 0 is the implicit origin; knot i is `prefill_s[i - 1]`.
        interp_knots(
            self.prefill_s.len() + 1,
            |i| if i == 0 { 0.0 } else { self.prefill_s[i - 1].0 as f64 },
            |i| if i == 0 { 0.0 } else { self.prefill_s[i - 1].1 },
            tokens,
        )
    }

    /// Seconds to advance one sequence's prefill from token `from` to
    /// token `to` (a chunk), as the cumulative-curve difference.
    #[must_use]
    pub fn prefill_chunk_s(&self, from: usize, to: usize) -> f64 {
        (self.prefill_cum_s(to as f64) - self.prefill_cum_s(from as f64)).max(0.0)
    }

    /// KV-cache bytes a request pins once fully decoded: its prompt
    /// (only for models that keep prompt KV, i.e. have a prefill curve)
    /// plus its output tokens.
    #[must_use]
    pub fn request_kv_bytes(&self, prompt_tokens: u64, output_tokens: u64) -> u64 {
        let prompt_kv = if self.prefill_s.is_empty() { 0 } else { prompt_tokens };
        (prompt_kv + output_tokens) * self.kv_bytes_per_token
    }

    /// Mean GPU-seconds one request costs at decode batch `cap` —
    /// prefill at batch 1 plus its share of every decode iteration it
    /// rides in. The anchor for translating a target utilization into
    /// an offered arrival rate.
    #[must_use]
    pub fn request_gpu_s(&self, prompt_tokens: f64, output_tokens: f64, cap: usize) -> f64 {
        let out = self.fixed_output_tokens.map_or(output_tokens, |n| n as f64);
        let iters = (out / self.tokens_per_step as f64).ceil();
        let ctx = prompt_tokens + out / 2.0;
        self.prefill_cum_s(prompt_tokens) + iters * self.step_s(cap, ctx) / cap as f64
    }
}

/// [`TokenServiceCurve::step_s`] with the batch axis read from a table.
///
/// Row `b - 1` holds `interp_batch` of every context row at batch `b`,
/// the very values `step_s` computes, so a lookup is bit-identical to
/// `step_s` and costs one context interpolation. Rows are filled on
/// demand up to the largest batch asked for, so a huge batch cap
/// allocates nothing until a batch that large runs.
#[derive(Debug)]
pub(crate) struct StepTable<'a> {
    curve: &'a TokenServiceCurve,
    /// `rows[(b - 1) * ctx_knots.len() + ci]`.
    rows: Vec<f64>,
}

impl<'a> StepTable<'a> {
    pub(crate) fn new(curve: &'a TokenServiceCurve) -> Self {
        StepTable { curve, rows: Vec::new() }
    }

    /// Batches the table holds rows for.
    pub(crate) fn batches(&self) -> usize {
        self.rows.len() / self.curve.ctx_knots.len()
    }

    /// `curve.step_s(batch, ctx_tokens)`, bit for bit.
    pub(crate) fn step_s(&mut self, batch: usize, ctx_tokens: f64) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let c = self.curve;
        let n = c.ctx_knots.len();
        for b in self.batches() + 1..=batch {
            self.rows.extend(c.step_s.iter().map(|row| interp_batch(&c.batch_knots, row, b)));
        }
        let row = &self.rows[(batch - 1) * n..batch * n];
        interp_knots(n, |ci| c.ctx_knots[ci] as f64, |ci| row[ci], ctx_tokens)
    }
}

/// Batch-axis read of one context row, matching [`ServiceCurve::batch_s`]:
/// exact knots return the measured value bit-for-bit.
fn interp_batch(knots: &[usize], row: &[f64], b: usize) -> f64 {
    if let Some(i) = knots.iter().position(|&k| k == b) {
        return row[i];
    }
    if knots.len() == 1 {
        // Single-knot batch axis: no batching benefit, scale linearly.
        return row[0] / knots[0] as f64 * b as f64;
    }
    interp_knots(knots.len(), |i| knots[i] as f64, |i| row[i], b as f64)
}

/// FP16 KV-cache bytes one resident token costs: K and V vectors of
/// `d_model` halves across every layer.
#[must_use]
pub fn kv_bytes_per_token(cfg: &mmg_models::TransformerConfig) -> u64 {
    (cfg.layers * 2 * cfg.d_model * 2) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttnImpl;
    use mmg_gpu::DeviceSpec;

    fn profiler() -> Profiler {
        Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash)
    }

    #[test]
    fn curves_cover_all_models_and_ascend() {
        let p = ServiceProfile::from_profiler(&profiler(), &ModelId::ALL, &[1, 4, 16]);
        assert_eq!(p.curves.len(), ModelId::ALL.len());
        for c in &p.curves {
            assert_eq!(c.points.len(), 3);
            assert!(c.base_s() > 1e-4, "{}: implausibly fast", c.model);
            for w in c.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{}: batch time shrank", c.model);
            }
        }
    }

    #[test]
    fn sampler_cap_shrinks_diffusion_curves_only() {
        let p = profiler();
        let models = [ModelId::StableDiffusion, ModelId::Parti];
        let full = ServiceProfile::from_profiler(&p, &models, &[1, 8]);
        let fast = ServiceProfile::from_profiler_sampled(&p, &models, &[1, 8], Some(4));
        let sd_full = full.curve(ModelId::StableDiffusion).unwrap().base_s();
        let sd_fast = fast.curve(ModelId::StableDiffusion).unwrap().base_s();
        // 50 steps → 4: the UNet loop dominates, so near-proportional.
        assert!(
            sd_full / sd_fast > 5.0,
            "distilled sampler speedup too small: {}",
            sd_full / sd_fast
        );
        // Autoregressive decode is structural; its curve is untouched.
        let parti_full = full.curve(ModelId::Parti).unwrap();
        let parti_fast = fast.curve(ModelId::Parti).unwrap();
        assert_eq!(parti_full.points, parti_fast.points);
    }

    #[test]
    fn decode_batches_better_than_diffusion() {
        // Fig. 5's regimes must survive into the serving curves: batching
        // 16 Parti requests costs far less than 16× batch-1, while the
        // compute-bound SD UNet sees only modest amortization.
        let p = ServiceProfile::from_profiler(
            &profiler(),
            &[ModelId::StableDiffusion, ModelId::Parti],
            &[1, 4, 16],
        );
        let sd = p.curve(ModelId::StableDiffusion).unwrap();
        let parti = p.curve(ModelId::Parti).unwrap();
        let sd_amort = sd.base_s() / sd.per_item_s(16);
        let parti_amort = parti.base_s() / parti.per_item_s(16);
        assert!(parti_amort > 4.0 * sd_amort, "parti {parti_amort} vs sd {sd_amort}");
        assert!(sd_amort >= 1.0, "batching cannot hurt: {sd_amort}");
    }

    #[test]
    fn hbm_bandwidth_shifts_serving_latency() {
        // The acceptance-criteria test: service latencies come from the
        // device roofline. Halving HBM bandwidth must slow the
        // memory-bound decode curve, batch-1 latency included.
        let fast = profiler();
        let mut slow_spec = DeviceSpec::a100_80gb();
        slow_spec.hbm_bandwidth_gbs /= 2.0;
        let slow = Profiler::new(slow_spec, AttnImpl::Flash);
        let models = [ModelId::Parti, ModelId::StableDiffusion];
        let pf = ServiceProfile::from_profiler(&fast, &models, &[1, 8]);
        let ps = ServiceProfile::from_profiler(&slow, &models, &[1, 8]);
        for m in models {
            let f = pf.curve(m).unwrap();
            let s = ps.curve(m).unwrap();
            assert!(
                s.base_s() > f.base_s() * 1.05,
                "{m}: halving HBM bandwidth should slow serving ({} vs {})",
                s.base_s(),
                f.base_s()
            );
        }
    }

    #[test]
    fn interpolation_and_extrapolation() {
        let c = ServiceCurve::new(ModelId::StableDiffusion, vec![(1, 1.0), (3, 2.0), (5, 2.5)]);
        assert_eq!(c.batch_s(3), 2.0);
        assert!((c.batch_s(2) - 1.5).abs() < 1e-12);
        assert!((c.batch_s(4) - 2.25).abs() < 1e-12);
        // Past the last point: marginal slope of the last segment.
        assert!((c.batch_s(7) - 3.0).abs() < 1e-12);
        // Constant curve: no batching benefit.
        let k = ServiceCurve::constant(ModelId::Parti, 0.5);
        assert!((k.batch_s(4) - 2.0).abs() < 1e-12);
        assert!((k.per_item_s(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_base_weights_by_mix_share() {
        let p = ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 1.0),
            ServiceCurve::constant(ModelId::Parti, 3.0),
        ]);
        let mix = RequestMix::new(vec![
            (ModelId::StableDiffusion, 3.0),
            (ModelId::Parti, 1.0),
        ]);
        assert!((p.mean_base_s(&mix) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pod_factors_attach() {
        let p = ServiceProfile::new(vec![ServiceCurve::constant(ModelId::StableDiffusion, 1.0)])
            .with_pod_factors(&[(ModelId::StableDiffusion, 1.4), (ModelId::Parti, 2.0)]);
        assert!((p.curve(ModelId::StableDiffusion).unwrap().pod_factor - 1.4).abs() < 1e-12);
    }

    #[test]
    fn profiler_profiles_carry_power() {
        let spec = DeviceSpec::a100_80gb();
        let p = ServiceProfile::from_profiler(
            &profiler(),
            &[ModelId::StableDiffusion, ModelId::Parti],
            &[1, 4],
        );
        assert!(p.has_power());
        assert_eq!(p.idle_w, spec.idle_w);
        for c in &p.curves {
            assert!(
                c.draw_w >= spec.idle_w && c.draw_w <= spec.tdp_w,
                "{}: draw {} outside the envelope",
                c.model,
                c.draw_w
            );
        }
        // Draws are model-dependent (different regime mixes), and both
        // sustain well above idle while serving.
        let sd = p.curve(ModelId::StableDiffusion).unwrap().draw_w;
        let parti = p.curve(ModelId::Parti).unwrap().draw_w;
        assert!((sd - parti).abs() > 1.0, "sd {sd} W vs parti {parti} W");
        assert!(sd > 2.0 * spec.idle_w && parti > 2.0 * spec.idle_w);
        // Hand-built constant profiles stay unmetered.
        let plain = ServiceProfile::new(vec![ServiceCurve::constant(ModelId::Parti, 0.5)]);
        assert!(!plain.has_power());
    }

    #[test]
    #[should_panic(expected = "start at batch 1")]
    fn curve_requires_batch_one() {
        let _ = ServiceCurve::new(ModelId::Muse, vec![(2, 1.0)]);
    }

    #[test]
    fn batch_s_boundary_knots() {
        // Satellite: interpolation boundary behavior, pinned. The first
        // knot is batch 1 by construction, so "below the first knot"
        // cannot happen — b = 1 is the exact-hit floor.
        let c = ServiceCurve::new(ModelId::Parti, vec![(1, 0.5), (4, 0.8), (16, 1.4)]);
        // Exact-knot hits return the measured values bit-for-bit.
        assert_eq!(c.batch_s(1).to_bits(), 0.5f64.to_bits());
        assert_eq!(c.batch_s(4).to_bits(), 0.8f64.to_bits());
        assert_eq!(c.batch_s(16).to_bits(), 1.4f64.to_bits());
        // Above the last knot: marginal slope of the last segment,
        // (1.4 - 0.8) / 12 = 0.05 per request.
        assert!((c.batch_s(20) - (1.4 + 0.05 * 4.0)).abs() < 1e-12);
        assert!((c.batch_s(17) - 1.45).abs() < 1e-12);
        // Single-point curve: extrapolates at the batch-1 cost.
        let k = ServiceCurve::constant(ModelId::Muse, 0.25);
        assert_eq!(k.batch_s(1).to_bits(), 0.25f64.to_bits());
        assert!((k.batch_s(9) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn token_curve_scales_with_batch_and_context() {
        let curve = TokenServiceCurve::from_profiler(&profiler(), ModelId::Llama2);
        // Exact grid hits return the profiled values bit-for-bit.
        assert_eq!(curve.step_s(1, 256.0).to_bits(), curve.step_s[0][0].to_bits());
        assert_eq!(
            curve.step_s(64, 8192.0).to_bits(),
            curve.step_s[curve.ctx_knots.len() - 1][curve.batch_knots.len() - 1].to_bits()
        );
        // Memory-bound decode amortizes: 32 sequences cost far less
        // than 32× one sequence per iteration.
        let b1 = curve.step_s(1, 1024.0);
        let b32 = curve.step_s(32, 1024.0);
        assert!(b32 < 8.0 * b1, "decode batching should amortize: {b32} vs {b1}");
        assert!(b32 > b1, "more sequences cannot be cheaper");
        // Longer context means more KV traffic per step.
        assert!(curve.step_s(8, 8192.0) > curve.step_s(8, 256.0));
        // Context below the first knot clamps to it; above the last
        // knot extrapolates beyond the last measured value.
        assert_eq!(curve.step_s(8, 1.0).to_bits(), curve.step_s(8, 256.0).to_bits());
        assert!(curve.step_s(8, 20_000.0) > curve.step_s(8, 8192.0));
        // Prefill is cumulative, monotone, and chunk-decomposable.
        let full = curve.prefill_cum_s(2048.0);
        assert!(full > 0.0);
        let split = curve.prefill_chunk_s(0, 512)
            + curve.prefill_chunk_s(512, 1024)
            + curve.prefill_chunk_s(1024, 2048);
        assert!((full - split).abs() < 1e-12 * full.max(1.0));
        assert!(curve.kv_bytes_per_token > 0 && curve.weight_bytes > 0);
    }

    #[test]
    fn token_curve_models_parallel_and_ar_decoders() {
        let p = profiler();
        let muse = TokenServiceCurve::from_profiler(&p, ModelId::Muse);
        // MaskGIT commits several tokens per iteration and has no
        // prompt phase; its step cost is flat in context.
        assert!(muse.tokens_per_step > 1);
        assert_eq!(muse.prefill_cum_s(100.0), 0.0);
        assert_eq!(muse.step_s(4, 10.0).to_bits(), muse.step_s(4, 10_000.0).to_bits());
        assert_eq!(muse.fixed_output_tokens, Some(256));
        let parti = TokenServiceCurve::from_profiler(&p, ModelId::Parti);
        assert_eq!(parti.tokens_per_step, 1);
        assert_eq!(parti.fixed_output_tokens, Some(1024));
        assert!(parti.prefill_cum_s(128.0) > 0.0, "text encoding must cost time");
        assert!(TokenServiceCurve::supports(ModelId::Llama2));
        assert!(!TokenServiceCurve::supports(ModelId::StableDiffusion));
    }

    /// The allocating formulas the in-place lookups replaced, kept as
    /// the bitwise reference: collect every knot, then read the
    /// piecewise-linear curve through them.
    mod reference {
        use super::TokenServiceCurve;

        fn interp_ascending(knots: &[(f64, f64)], x: f64) -> f64 {
            let first = knots[0];
            if x <= first.0 {
                return first.1;
            }
            let last = knots[knots.len() - 1];
            if x >= last.0 {
                if knots.len() < 2 {
                    return last.1;
                }
                let prev = knots[knots.len() - 2];
                let slope = (last.1 - prev.1) / (last.0 - prev.0);
                return last.1 + slope * (x - last.0);
            }
            let hi = knots.iter().position(|&(kx, _)| kx > x).expect("bracketing knot");
            let (x0, y0) = knots[hi - 1];
            let (x1, y1) = knots[hi];
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        }

        fn interp_batch(knots: &[usize], row: &[f64], b: usize) -> f64 {
            if let Some(i) = knots.iter().position(|&k| k == b) {
                return row[i];
            }
            let pts: Vec<(f64, f64)> =
                knots.iter().map(|&k| k as f64).zip(row.iter().copied()).collect();
            if knots.len() == 1 {
                return row[0] / knots[0] as f64 * b as f64;
            }
            interp_ascending(&pts, b as f64)
        }

        pub fn step_s(c: &TokenServiceCurve, batch: usize, ctx_tokens: f64) -> f64 {
            let per_ctx: Vec<(f64, f64)> = c
                .ctx_knots
                .iter()
                .zip(&c.step_s)
                .map(|(&ctx, row)| (ctx as f64, interp_batch(&c.batch_knots, row, batch)))
                .collect();
            interp_ascending(&per_ctx, ctx_tokens)
        }

        pub fn prefill_cum_s(c: &TokenServiceCurve, tokens: f64) -> f64 {
            if c.prefill_s.is_empty() || tokens <= 0.0 {
                return 0.0;
            }
            let mut knots = vec![(0.0, 0.0)];
            knots.extend(c.prefill_s.iter().map(|&(n, s)| (n as f64, s)));
            interp_ascending(&knots, tokens)
        }

        pub fn prefill_chunk_s(c: &TokenServiceCurve, from: usize, to: usize) -> f64 {
            (prefill_cum_s(c, to as f64) - prefill_cum_s(c, from as f64)).max(0.0)
        }
    }

    #[test]
    fn token_lookups_match_the_allocating_reference_bitwise() {
        let p = profiler();
        let curves = [
            // Batch knots 1, 8, 32 leave most batches between knots.
            crate::token::tests::toy_curve(),
            TokenServiceCurve::from_profiler(&p, ModelId::Llama2),
            TokenServiceCurve::from_profiler(&p, ModelId::Parti),
            TokenServiceCurve::from_profiler(&p, ModelId::Muse),
        ];
        for c in &curves {
            // Contexts below the first knot, at every knot, at every
            // midpoint (plus off-centre fractions, as the engine's mean
            // context is), and above the last knot.
            let first = c.ctx_knots[0] as f64;
            let last = c.ctx_knots[c.ctx_knots.len() - 1] as f64;
            let mut ctxs = vec![0.0, 1.0, first / 2.0, first - 0.5];
            for (i, &k) in c.ctx_knots.iter().enumerate() {
                ctxs.push(k as f64);
                if let Some(&next) = c.ctx_knots.get(i + 1) {
                    let (a, b) = (k as f64, next as f64);
                    ctxs.extend([(a + b) / 2.0, a + 0.3, b - 1.0 / 3.0]);
                }
            }
            ctxs.extend([last + 0.5, last + 1.0, last * 1.5, last * 4.0 + 7.25]);
            // The step table grows one batch at a time here and all at
            // once on the first read of `jump`.
            let mut table = StepTable::new(c);
            let mut jump = StepTable::new(c);
            for batch in 1..=80 {
                for &ctx in &ctxs {
                    let want = reference::step_s(c, batch, ctx).to_bits();
                    let m = c.model;
                    let got = c.step_s(batch, ctx).to_bits();
                    assert_eq!(got, want, "{m}: step_s({batch}, {ctx})");
                    let got = table.step_s(batch, ctx).to_bits();
                    assert_eq!(got, want, "{m}: table({batch}, {ctx})");
                    let down = 81 - batch;
                    assert_eq!(
                        jump.step_s(down, ctx).to_bits(),
                        reference::step_s(c, down, ctx).to_bits(),
                        "{m}: jump({down}, {ctx})"
                    );
                }
            }
            assert_eq!((table.batches(), jump.batches()), (80, 80));
            let top = c.prefill_s.last().map_or(0, |&(n, _)| n) + 1000;
            for to in 0..=top {
                assert_eq!(
                    c.prefill_cum_s(to as f64).to_bits(),
                    reference::prefill_cum_s(c, to as f64).to_bits(),
                    "{}: prefill_cum_s({to})",
                    c.model
                );
                for from in [0, to / 2, to.saturating_sub(1), to.saturating_sub(256), to + 1] {
                    assert_eq!(
                        c.prefill_chunk_s(from, to).to_bits(),
                        reference::prefill_chunk_s(c, from, to).to_bits(),
                        "{}: prefill_chunk_s({from}, {to})",
                        c.model
                    );
                }
            }
        }
        // The edge paths are covered: Muse has one context knot and no
        // prefill curve, Parti a single prefill knot.
        assert_eq!(curves[3].ctx_knots.len(), 1);
        assert!(curves[3].prefill_s.is_empty());
        assert_eq!(curves[2].prefill_s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not an autoregressive model")]
    fn token_curve_rejects_diffusion_models() {
        let _ = TokenServiceCurve::from_profiler(&profiler(), ModelId::StableDiffusion);
    }
}
