//! Shared scaffolding for the serving experiments.
//!
//! Every serving experiment (`serve-sweep`, `serve-timeline`,
//! `serve-attrib`, `fleet-sweep`) opens the same way: profile the mix's
//! models once on an isolated registry, build the [`ServiceProfile`]
//! from the real profiler, and merge that registry into the target
//! before any cell telemetry — the same order a serial run would record
//! in, which is what keeps `--jobs N` byte-identical. They also all
//! build the same replicated grid: a key list crossed with
//! `replications` consecutive seeds, pooled back per key with
//! `chunks(reps)`. Both live here so the experiments stay small and the
//! determinism-critical ordering is written (and tested) once.

use std::sync::Arc;

use mmg_attn::AttnImpl;
use mmg_gpu::DeviceSpec;
use mmg_models::ModelId;
use mmg_profiler::CostMemo;
use mmg_serve::{RequestMix, ServiceProfile};
use mmg_telemetry::Registry;

use crate::engine::ExecContext;

/// The profile-once preamble's output: everything a serving experiment
/// needs before its first simulated cell.
#[derive(Debug, Clone)]
pub struct ProfiledMix {
    /// The parsed request mix.
    pub mix: RequestMix,
    /// Per-model, per-batch-size service curves from the profiler
    /// (with Section V pod factors when requested).
    pub profile: ServiceProfile,
    /// Mix-weighted mean batch-1 service time, seconds — the unit
    /// offered-utilization rates are derived from.
    pub mean_base_s: f64,
    /// `(model, factor)` pod throughput factors; empty unless requested.
    pub pod_factors: Vec<(ModelId, f64)>,
}

/// Profiles `mix_str`'s models once on an isolated registry (a
/// [`Registry::child`] of `target`; batch sizes: powers of two up to
/// `max_batch`) and merges the profiling telemetry into `target`
/// *before* returning — ahead of any cell telemetry, exactly as a
/// serial run would record it. When `with_pods` is set, Section V pod
/// factors are computed from the same profiler and attached to the
/// profile.
///
/// # Panics
///
/// Panics if `mix_str` does not parse.
#[must_use]
pub fn profile_mix(
    spec: &DeviceSpec,
    memo: &Arc<CostMemo>,
    target: &Registry,
    mix_str: &str,
    max_batch: usize,
    with_pods: bool,
) -> ProfiledMix {
    profile_mix_impl(spec, memo, target, mix_str, max_batch, with_pods, None)
}

/// Like [`profile_mix`], but with the kernel-graph optimization passes
/// `opt` applied when lowering and the diffusion sampler capped at
/// `sampler_steps` — the service curves an *optimized* deployment of
/// the same mix would exhibit. The `OptConfig` participates in memo
/// keys, so the shared memo stays safe across eager and optimized
/// profiles.
///
/// # Panics
///
/// Panics if `mix_str` does not parse.
#[must_use]
#[allow(clippy::too_many_arguments)] // the eager signature plus the two pass knobs
pub fn profile_mix_opt(
    spec: &DeviceSpec,
    memo: &Arc<CostMemo>,
    target: &Registry,
    mix_str: &str,
    max_batch: usize,
    with_pods: bool,
    opt: mmg_graph::OptConfig,
    sampler_steps: Option<usize>,
) -> ProfiledMix {
    profile_mix_impl(spec, memo, target, mix_str, max_batch, with_pods, Some((opt, sampler_steps)))
}

fn profile_mix_impl(
    spec: &DeviceSpec,
    memo: &Arc<CostMemo>,
    target: &Registry,
    mix_str: &str,
    max_batch: usize,
    with_pods: bool,
    opt: Option<(mmg_graph::OptConfig, Option<usize>)>,
) -> ProfiledMix {
    let ctx = ExecContext::merging_into(spec.clone(), Arc::clone(memo), target);
    let profiler = match opt {
        Some((cfg, _)) => ctx.profiler(AttnImpl::Flash).with_opt_config(cfg),
        None => ctx.profiler(AttnImpl::Flash),
    };
    let sampler_steps = opt.and_then(|(_, steps)| steps);
    let mix = RequestMix::parse(mix_str).unwrap_or_else(|e| panic!("mix {mix_str:?}: {e}"));
    let models: Vec<ModelId> = mix.models().collect();
    let batches: Vec<usize> = (0..).map(|i| 1 << i).take_while(|&b| b <= max_batch).collect();
    let pod_factors: Vec<(ModelId, f64)> = if with_pods {
        models
            .iter()
            .map(|&m| (m, super::serve_sweep::pod_factor(&profiler, m)))
            .collect()
    } else {
        Vec::new()
    };
    let mut profile =
        ServiceProfile::from_profiler_sampled(&profiler, &models, &batches, sampler_steps);
    if with_pods {
        profile = profile.with_pod_factors(&pod_factors);
    }
    let mean_base_s = profile.mean_base_s(&mix);
    target.merge_from(&ctx.registry);
    ProfiledMix { mix, profile, mean_base_s, pod_factors }
}

/// The replicated grid every serving experiment shards over: each key
/// in order, crossed with `replications` consecutive seeds starting at
/// `base_seed`. Cell `keys[i]` with replicate `k` lands at index
/// `i * replications + k`, so per-key pooling is `chunks(replications)`
/// over the results in the same order.
///
/// # Panics
///
/// Panics if `replications` is zero.
#[must_use]
pub fn replicated_grid<K: Clone>(
    keys: &[K],
    replications: u64,
    base_seed: u64,
) -> Vec<(K, u64)> {
    assert!(replications >= 1, "need at least one replication");
    let mut grid = Vec::with_capacity(keys.len() * replications as usize);
    for key in keys {
        for k in 0..replications {
            grid.push((key.clone(), base_seed.wrapping_add(k)));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_memo;

    #[test]
    fn grid_is_key_major_with_consecutive_seeds() {
        let grid = replicated_grid(&["a", "b", "c"], 3, 100);
        assert_eq!(grid.len(), 9);
        let expect = [
            ("a", 100),
            ("a", 101),
            ("a", 102),
            ("b", 100),
            ("b", 101),
            ("b", 102),
            ("c", 100),
            ("c", 101),
            ("c", 102),
        ];
        for (got, want) in grid.iter().zip(expect) {
            assert_eq!((got.0, got.1), want);
        }
        // chunks(reps) recovers each key's replicates.
        for (chunk, key) in grid.chunks(3).zip(["a", "b", "c"]) {
            assert!(chunk.iter().all(|(k, _)| *k == key));
        }
    }

    #[test]
    fn grid_seed_wraps_instead_of_panicking() {
        let grid = replicated_grid(&[0u8], 2, u64::MAX);
        assert_eq!(grid[0].1, u64::MAX);
        assert_eq!(grid[1].1, 0);
    }

    #[test]
    fn profile_mix_profiles_once_and_merges_telemetry() {
        let target = Registry::new();
        let p =
            profile_mix(&DeviceSpec::a100_80gb(), &test_memo(), &target, "sd:8,parti:2", 16, false);
        assert!(p.mean_base_s > 0.0);
        assert!(p.pod_factors.is_empty());
        // Curves exist for every mix model at batch 1.
        for m in p.mix.models() {
            assert!(p.profile.curve(m).is_some(), "no curve for {m}");
        }
        // The profiling registry was folded into the target.
        assert!(!target.counters_snapshot().values().is_empty());
    }

    #[test]
    fn optimized_profile_mix_serves_much_faster() {
        let target = Registry::new();
        let spec = DeviceSpec::a100_80gb();
        let memo = test_memo();
        let base = profile_mix(&spec, &memo, &target, "sd:8,parti:2", 16, false);
        let opt = profile_mix_opt(
            &spec,
            &memo,
            &target,
            "sd:8,parti:2",
            16,
            false,
            mmg_graph::OptConfig::all(),
            Some(4),
        );
        // All passes plus the 4-step sampler cut the mix's mean service
        // time substantially. The AR share (parti) caps the aggregate:
        // its decode loop gets fusion and width but no graph capture and
        // no sampler distillation.
        assert!(
            opt.mean_base_s < base.mean_base_s / 1.5,
            "opt {} vs base {}",
            opt.mean_base_s,
            base.mean_base_s
        );
    }

    #[test]
    fn profile_mix_pod_factors_cover_the_mix() {
        let target = Registry::new();
        let p =
            profile_mix(&DeviceSpec::a100_80gb(), &test_memo(), &target, "sd:8,parti:2", 16, true);
        assert_eq!(p.pod_factors.len(), 2);
        assert!(p.pod_factors.iter().all(|&(_, f)| f >= 1.0));
    }
}
