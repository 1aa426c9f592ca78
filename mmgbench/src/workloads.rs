//! The four workloads: their set-up, one timed rep, and the checks every
//! rep's output must pass.
//!
//! Every timing here is *host* time spent in the simulator's public
//! library calls. The simulated outputs are deterministic per seed: each
//! rep renders the workload's report, and the report's digest must match
//! the first rep's and, at the pinned seed, the digest recorded below.

use std::sync::Arc;
use std::time::Instant;

use mmg_attn::AttnImpl;
use mmg_core::experiments::fleet_sweep::{device_for_sku, sku_price_per_gpu_hr, SKUS};
use mmg_core::experiments::serve_common::profile_mix;
use mmg_core::{run_cells_with, run_experiment_with, run_suite_with, ExecContext, ExperimentId};
use mmg_gpu::DeviceSpec;
use mmg_models::ModelId;
use mmg_profiler::CostMemo;
use mmg_serve::{
    run_cluster, simulate, simulate_token, ArrivalProcess, AutoscalerPolicy, ClusterCfg,
    ClusterResult, FleetCfg, FleetReport, FleetResult, KvAdmission, LengthDist, PhasePriority,
    RequestMix, RouterKind, ScenarioCfg, SchedulerKind, ServiceProfile, SimResult, SloReport,
    SloSpec, TokenBatching, TokenReport, TokenScenarioCfg, TokenServiceCurve, TokenSimResult,
    TokenSlo, GIB,
};
use mmg_telemetry::Registry;

use crate::trace::Tracer;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 26 experiments on a fresh memo and registry per rep.
    SuiteCold,
    /// The event-driven cluster DES in streaming mode.
    ServeStream,
    /// The sharded multi-cluster fleet on its FIFO fast lane.
    FleetFifo,
    /// The iteration-level token DES under a tight KV budget.
    TokenKv,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteCold,
        Workload::ServeStream,
        Workload::FleetFifo,
        Workload::TokenKv,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::ServeStream => "serve-stream",
            Workload::FleetFifo => "fleet-fifo",
            Workload::TokenKv => "token-kv",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}'; expected one of {}",
                    names.join(" | ")
                )
            })
    }

    /// Digest of the seed's rendered report(s), when one is pinned. The
    /// suite's experiments fix their own seeds, so its digest holds for
    /// every `--seed`; the simulators' digests are pinned at seed 42.
    /// Quick (smoke-size) runs pin nothing.
    #[must_use]
    pub fn pinned_digest(self, seed: u64, quick: bool) -> Option<u64> {
        match (self, quick, seed) {
            (_, true, _) => None,
            (Workload::SuiteCold, false, _) => Some(0x5ea4_5914_9de2_4694),
            (Workload::ServeStream, false, 42) => Some(0xbff6_ad72_5318_a9cb),
            (Workload::FleetFifo, false, 42) => Some(0x866e_a7f6_c106_60a8),
            (Workload::TokenKv, false, 42) => Some(0x0b71_1042_cf16_04ed),
            _ => None,
        }
    }
}

/// Experiments of the quick suite: the cheap ones, so a smoke run of the
/// suite path stays short even in a debug build.
const QUICK_SUITE: [ExperimentId; 5] = [
    ExperimentId::Fig4,
    ExperimentId::Table1,
    ExperimentId::Table3,
    ExperimentId::Fig13,
    ExperimentId::Tp,
];

/// The serving mix of serve-stream and fleet-fifo.
pub const MIX: &str = "sd:8,parti:2";

/// Offered load of every simulator workload, as a fraction of its serving
/// capacity: batch-1 for serve and fleet, the KV-bound batch for token.
const UTIL: f64 = 0.8;

/// The experiments one suite rep regenerates.
#[must_use]
pub fn suite_ids(quick: bool) -> Vec<ExperimentId> {
    if quick {
        QUICK_SUITE.to_vec()
    } else {
        ExperimentId::ALL.to_vec()
    }
}

/// A workload's inputs, built by its set-up.
#[derive(Debug)]
pub enum Inputs {
    /// The experiments to regenerate; the suite builds everything per rep.
    Suite(Vec<ExperimentId>),
    /// Scenario and profiled service curves.
    Serve(ScenarioCfg, ServiceProfile),
    /// Fleet scenario and each cluster's profiled curves, by cluster.
    Fleet(FleetCfg, Vec<ServiceProfile>),
    /// Scenario, profiled decode/prefill cost surface, KV bytes per GPU.
    Token(TokenScenarioCfg, TokenServiceCurve, u64),
}

/// A fresh context: new registry, new (cold) cost memo.
fn cold_ctx(spec: DeviceSpec) -> ExecContext {
    ExecContext::isolated(spec, Arc::new(CostMemo::new()))
}

/// Builds a workload's inputs from `seed`, profiling on a cold memo.
#[must_use]
pub fn set_up(w: Workload, seed: u64, quick: bool) -> Inputs {
    let scale = if quick { 0.01 } else { 1.0 };
    match w {
        Workload::SuiteCold => Inputs::Suite(suite_ids(quick)),
        Workload::ServeStream => {
            let ctx = cold_ctx(DeviceSpec::a100_80gb());
            let mix = RequestMix::parse(MIX).expect("the mix literal parses");
            let models: Vec<ModelId> = mix.models().collect();
            let profile = ServiceProfile::from_profiler(
                &ctx.profiler(AttnImpl::Flash),
                &models,
                &[1, 2, 4, 8, 16],
            );
            let gpus = 4;
            let rate = UTIL * gpus as f64 / profile.mean_base_s(&mix);
            let mut cfg = ScenarioCfg::new(
                gpus,
                mix,
                ArrivalProcess::poisson(rate),
                SchedulerKind::Dynamic { max_batch: 16 },
                SloSpec::ServiceMultiple(4.0),
                4.0e6 * scale / rate,
                seed,
            );
            cfg.full_records = false;
            Inputs::Serve(cfg, profile)
        }
        Workload::FleetFifo => {
            let memo = Arc::new(CostMemo::new());
            let registry = Registry::new();
            // FIFO serves batch 1 only, so the curves need no other size.
            let profiled: Vec<_> = SKUS
                .iter()
                .map(|sku| profile_mix(&device_for_sku(sku), &memo, &registry, MIX, 1, false))
                .collect();
            let (n_clusters, gpus) = (8, 16);
            let mut clusters = Vec::with_capacity(n_clusters);
            let mut profiles = Vec::with_capacity(n_clusters);
            for i in 0..n_clusters {
                let sku = SKUS[i % SKUS.len()];
                let p = &profiled[i % SKUS.len()];
                // Capacity-proportional weights offer every cluster the
                // same relative load despite the SKU speed spread.
                clusters.push(ClusterCfg {
                    name: format!("{sku}-{i}"),
                    sku: sku.to_string(),
                    gpus,
                    price_per_gpu_hr: sku_price_per_gpu_hr(sku),
                    weight: gpus as f64 / p.mean_base_s,
                    phase_s: 0.0,
                });
                profiles.push(p.profile.clone());
            }
            let rate = UTIL * clusters.iter().map(|c| c.weight).sum::<f64>();
            let windows = 12;
            let horizon_s = 1.0e8 * scale / rate;
            let cfg = FleetCfg {
                clusters,
                mix: RequestMix::parse(MIX).expect("the mix literal parses"),
                arrival: ArrivalProcess::poisson(rate),
                scheduler: SchedulerKind::Fifo,
                router: RouterKind::RoundRobin,
                slo: SloSpec::ServiceMultiple(4.0),
                window_s: horizon_s / windows as f64,
                windows,
                autoscaler: AutoscalerPolicy::Fixed,
                seed,
            };
            Inputs::Fleet(cfg, profiles)
        }
        Workload::TokenKv => {
            let ctx = cold_ctx(DeviceSpec::a100_80gb());
            let curve =
                TokenServiceCurve::from_profiler(&ctx.profiler(AttnImpl::Flash), ModelId::Llama2);
            let (gpus, cap) = (4, 32);
            let prompt = LengthDist::new(512.0, 0.3, 16, 4096);
            let output = LengthDist::new(128.0, 0.3, 4, 1024);
            // 2 GiB of KV per GPU holds ~4k Llama2 tokens, about six
            // mean-length sequences, so the ledger preempts tens of
            // thousands of times per rep and its writes are exercised too.
            // Load is set against that KV-bound batch, not the batch cap,
            // or the queue would grow without bound.
            let kv_budget = (2.0 * GIB) as u64;
            let seq_bytes = curve.kv_bytes_per_token as f64 * (prompt.mean() + output.mean());
            let kv_batch = ((kv_budget as f64 / seq_bytes) as usize).max(1);
            let rate =
                UTIL * gpus as f64 / curve.request_gpu_s(prompt.mean(), output.mean(), kv_batch);
            let cfg = TokenScenarioCfg {
                gpus,
                model: ModelId::Llama2,
                arrival: ArrivalProcess::poisson(rate),
                batching: TokenBatching::Continuous { max_batch: cap },
                priority: PhasePriority::Decode,
                admission: KvAdmission::Prompt,
                chunk_tokens: 512,
                slo: TokenSlo::from_curve(&curve, prompt.mean(), output.mean(), cap),
                duration_s: 3.1e7 * scale / (rate * output.mean()),
                prompt,
                output,
                max_requests: None,
                seed,
            };
            Inputs::Token(cfg, curve, kv_budget)
        }
    }
}

/// What one rep produced.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds of the timed library call(s).
    pub host_s: f64,
    /// Simulated work done: artifacts, requests or decoded tokens.
    pub units: f64,
    /// The rendered report(s), pinned by digest.
    pub report: String,
}

/// Runs one rep and checks its output, returning an error that names
/// the first broken check.
pub fn run_rep(
    inputs: &Inputs,
    jobs: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Rep, String> {
    match inputs {
        Inputs::Suite(ids) => {
            let started = Instant::now();
            let reports = suite(
                ids,
                jobs,
                &Arc::new(CostMemo::new()),
                &Registry::new(),
                tracer,
                parent,
            );
            let host_s = started.elapsed().as_secs_f64();
            if let Some(id) = ids
                .iter()
                .zip(&reports)
                .find(|(_, r)| r.is_empty())
                .map(|(id, _)| id)
            {
                return Err(format!("suite: experiment {id} rendered an empty report"));
            }
            Ok(Rep {
                host_s,
                units: ids.len() as f64,
                report: reports.join("\n"),
            })
        }
        Inputs::Serve(cfg, profile) => {
            let started = Instant::now();
            let result = {
                let _span = tracer.span("serve.simulate", parent);
                simulate(cfg, profile, &Registry::new())
            };
            let host_s = started.elapsed().as_secs_f64();
            let report = {
                let _span = tracer.span("serve.report", parent);
                SloReport::from_result(&result).render()
            };
            check_serve(&result)?;
            Ok(Rep {
                host_s,
                units: result.arrivals as f64,
                report,
            })
        }
        Inputs::Fleet(cfg, profiles) => {
            let run = fleet(cfg, profiles, jobs, tracer, parent);
            let report = {
                let _span = tracer.span("fleet.report", parent);
                FleetReport::new(cfg, &run.result).render().to_string()
            };
            check_fleet(&run.result, &run.registry)?;
            Ok(Rep {
                host_s: run.host_s,
                units: run.result.arrivals() as f64,
                report,
            })
        }
        Inputs::Token(cfg, curve, kv_budget_bytes) => {
            let started = Instant::now();
            let result = {
                let _span = tracer.span("token.simulate", parent);
                simulate_token(cfg, curve, *kv_budget_bytes, &Registry::new())
            };
            let host_s = started.elapsed().as_secs_f64();
            let report = {
                let _span = tracer.span("token.report", parent);
                TokenReport::from_result(&result).render()
            };
            check_token(&result)?;
            Ok(Rep {
                host_s,
                units: result.stats.decoded_tokens as f64,
                report,
            })
        }
    }
}

/// Regenerates `ids` on the worker pool against `memo` and `registry`,
/// one span per experiment under a `core.run_suite` span.
pub fn suite(
    ids: &[ExperimentId],
    jobs: usize,
    memo: &Arc<CostMemo>,
    registry: &Registry,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<String> {
    let span = tracer.span("core.run_suite", parent);
    let suite_span = span.id();
    run_suite_with(
        ids,
        &DeviceSpec::a100_80gb(),
        jobs,
        memo,
        registry,
        |id, ctx| {
            let _span = tracer.span(&format!("core.exp.{id}"), suite_span);
            run_experiment_with(id, ctx)
        },
    )
}

/// One fleet run: the merged result, host seconds of fan-out plus merge,
/// each shard's host seconds, and the registry the shards merged into.
#[derive(Debug)]
pub struct FleetRun {
    /// Merged fleet result.
    pub result: FleetResult,
    /// Host seconds of the sharded fan-out and the merge.
    pub host_s: f64,
    /// Host seconds of the merge alone.
    pub merge_s: f64,
    /// Host seconds of each cluster's shard, by cluster.
    pub shard_s: Vec<f64>,
    /// Registry holding every shard's telemetry, merged in cluster order.
    pub registry: Registry,
}

/// Shards the fleet by cluster over `jobs` workers and merges the result.
pub fn fleet(
    cfg: &FleetCfg,
    profiles: &[ServiceProfile],
    jobs: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> FleetRun {
    let registry = Registry::new();
    let started = Instant::now();
    let shards: Vec<(ClusterResult, f64)> = {
        let span = tracer.span("fleet.run_cells", parent);
        let cells_span = span.id();
        // The cells never profile, so a cold memo costs them nothing.
        run_cells_with(
            cfg.clusters.len(),
            &DeviceSpec::a100_80gb(),
            jobs,
            &Arc::new(CostMemo::new()),
            &registry,
            |i, ctx| {
                let _span = tracer.span("fleet.run_cluster", cells_span);
                let t = Instant::now();
                let r = run_cluster(cfg, i, &profiles[i], &ctx.registry);
                (r, t.elapsed().as_secs_f64())
            },
        )
    };
    let merge_started = Instant::now();
    let (clusters, shard_s): (Vec<ClusterResult>, Vec<f64>) = shards.into_iter().unzip();
    let result = {
        let _span = tracer.span("fleet.merge", parent);
        FleetResult::from_clusters(clusters)
    };
    let merge_s = merge_started.elapsed().as_secs_f64();
    FleetRun {
        result,
        host_s: started.elapsed().as_secs_f64(),
        merge_s,
        shard_s,
        registry,
    }
}

/// Request conservation and Little's law: every arrival completed, was
/// dropped or abandoned, and the time-integral of requests in system
/// equals the time those requests spent in it.
fn check_serve(r: &SimResult) -> Result<(), String> {
    let accounted = r.stats.completed + r.dropped + r.abandoned;
    if r.arrivals == 0 || r.arrivals != accounted {
        return Err(format!(
            "serve: {} arrivals but {} completed + {} dropped + {} abandoned",
            r.arrivals, r.stats.completed, r.dropped, r.abandoned
        ));
    }
    let sojourn_s = r.stats.latency_sum_s + r.abandoned_wait_s;
    let rel = (r.area_requests_s - sojourn_s).abs() / sojourn_s;
    if rel.is_nan() || rel >= 1e-6 {
        return Err(format!(
            "serve: Little's law broken: occupancy integral {} vs sojourn sum {sojourn_s} (rel {rel:e})",
            r.area_requests_s
        ));
    }
    Ok(())
}

/// Every arrival completed or was dropped as too large for the KV cache,
/// and every GPU's ledger conserves bytes and drained to empty.
fn check_token(r: &TokenSimResult) -> Result<(), String> {
    let s = &r.stats;
    if s.decoded_tokens == 0 || s.arrivals != s.completed + s.dropped_oversized {
        return Err(format!(
            "token: {} arrivals but {} completed + {} dropped as oversized ({} tokens decoded)",
            s.arrivals, s.completed, s.dropped_oversized, s.decoded_tokens
        ));
    }
    for (gpu, ledger) in r.kv.iter().enumerate() {
        ledger.assert_conserved();
        if ledger.resident_bytes != 0 {
            return Err(format!(
                "token: GPU {gpu} holds {} KV bytes after drain",
                ledger.resident_bytes
            ));
        }
    }
    Ok(())
}

/// The fleet totals equal the per-cluster sums three ways: each
/// cluster's windows sum to its counters, the fleet timeline sums to the
/// fleet counters, and the per-cluster request counters in the metrics
/// registry sum to the fleet's arrivals.
fn check_fleet(r: &FleetResult, registry: &Registry) -> Result<(), String> {
    let window_sums = |series: &mmg_telemetry::WindowedSeries<mmg_serve::fleet::FleetWindow>| {
        series.iter().fold((0u64, 0u64, 0u64), |acc, (_, _, w)| {
            (acc.0 + w.arrivals, acc.1 + w.completed, acc.2 + w.on_time)
        })
    };
    for c in &r.clusters {
        let sums = window_sums(&c.series);
        if sums != (c.arrivals, c.completed, c.on_time) {
            return Err(format!(
                "fleet: cluster {} windows sum to {sums:?}, counters say {:?}",
                c.name,
                (c.arrivals, c.completed, c.on_time)
            ));
        }
    }
    let on_time: u64 = r.clusters.iter().map(|c| c.on_time).sum();
    let totals = (r.arrivals(), r.completed(), on_time);
    let sums = window_sums(&r.series);
    if r.arrivals() == 0 || sums != totals {
        return Err(format!(
            "fleet: timeline sums to {sums:?}, cluster totals are {totals:?}"
        ));
    }
    let counted: u64 = registry
        .counters_snapshot()
        .values()
        .iter()
        .filter(|(name, _)| name.starts_with("fleet_requests_total{"))
        .map(|(_, v)| v)
        .sum();
    if counted != r.arrivals() {
        return Err(format!(
            "fleet: fleet_requests_total sums to {counted}, fleet saw {}",
            r.arrivals()
        ));
    }
    Ok(())
}

/// 64-bit FNV-1a of a report: a stable digest to pin outputs by.
#[must_use]
pub fn digest(report: &str) -> u64 {
    report.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").is_err());
    }
}
