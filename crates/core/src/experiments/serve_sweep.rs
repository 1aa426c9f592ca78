//! Extension — cluster-serving scheduler sweep on the `mmg-serve` DES.
//!
//! The paper closes on *deployable* systems for TTI/TTV workloads; this
//! experiment quantifies the deployment story. A simulated multi-GPU
//! cluster serves a mixed Stable Diffusion + Parti request stream whose
//! per-model, per-batch-size service times come from the real roofline
//! profiler (via [`ServiceProfile::from_profiler`]), and four schedulers
//! are swept across offered utilizations:
//!
//! * `fifo` — one request at a time, no batching (the baseline);
//! * `static` — waits to fill a fixed batch (classic batching);
//! * `dynamic` — deadline-aware dynamic batching up to a cap;
//! * `pods` — dynamic batching plus Section V denoising-pod
//!   co-scheduling, whose per-model throughput factors come from
//!   [`mmg_analytics::scheduling::pod_estimate`] on profiled timelines.
//!
//! The paper's batching-regime observation (Fig. 5) becomes a
//! cluster-level effect here: the memory-bound Parti decode amortizes
//! dramatically under batching while the compute-bound SD UNet barely
//! does, so dynamic batching's goodput win over FIFO grows with load.

use std::sync::Arc;

use mmg_analytics::scheduling::pod_estimate;
use mmg_attn::AttnImpl;
use mmg_gpu::DeviceSpec;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::render_table;
use mmg_profiler::{CostMemo, Profiler};
use mmg_serve::{
    simulate, model_short_name, RequestMix, ScenarioCfg, SchedulerKind, ServiceProfile,
    SimResult, SloSpec,
};
use mmg_telemetry::{QuantileSketch, Registry};

use crate::engine::{run_cells_with, ExecContext};
use serde::{Deserialize, Serialize};

/// GPUs in the simulated cluster.
pub const GPUS: usize = 4;
/// Request mix: an image-generation-heavy stream with an autoregressive
/// minority, matching the CLI default (`sd:8,parti:2`).
pub const MIX: &str = "sd:8,parti:2";
/// Deadline as a multiple of a request's own batch-1 service time.
pub const SLO_MULTIPLE: f64 = 4.0;
/// Offered utilizations swept (fraction of aggregate batch-1 capacity).
pub const UTILIZATIONS: [f64; 3] = [0.5, 0.8, 0.95];
/// Simulated seconds per sweep cell.
const DURATION_S: f64 = 300.0;
/// Batch cap for the batching schedulers.
const MAX_BATCH: usize = 16;
/// Fixed seed: one sample path per cell, reproducible everywhere.
const SEED: u64 = 42;

/// One (scheduler, utilization) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSweepCell {
    /// Scheduler name (`fifo` | `static` | `dynamic` | `pods`).
    pub scheduler: String,
    /// Offered utilization target (fraction of batch-1 capacity).
    pub utilization: f64,
    /// Offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// Completed requests/s over the run.
    pub throughput_rps: f64,
    /// Completed-within-SLO requests/s over the run.
    pub goodput_rps: f64,
    /// Goodput of the same scenario served on the *optimized* service
    /// curves (all kernel-graph passes + the distilled sampler) — the
    /// serving-capacity gain the optimization passes buy at fixed SLO.
    pub opt_goodput_rps: f64,
    /// Fraction of completed requests that met their deadline.
    pub slo_attainment: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_s: f64,
    /// Mean formed batch size.
    pub mean_batch: f64,
    /// Measured GPU-time utilization (busy / (gpus × horizon)).
    pub measured_utilization: f64,
}

/// Serving-sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSweepResult {
    /// Cluster size.
    pub gpus: usize,
    /// Request mix, `model:weight` list.
    pub mix: String,
    /// Deadline multiple of batch-1 service time.
    pub slo_multiple: f64,
    /// Mix-weighted mean batch-1 service time, seconds.
    pub mean_service_s: f64,
    /// Mean batch-1 service time on the optimized curves, seconds.
    pub opt_mean_service_s: f64,
    /// Per-model Section V pod throughput factors used by `pods`.
    pub pod_factors: Vec<(String, f64)>,
    /// Sweep cells, scheduler-major in [`UTILIZATIONS`] order.
    pub cells: Vec<ServeSweepCell>,
}

impl ServeSweepResult {
    /// The cell for a scheduler at an offered utilization.
    #[must_use]
    pub fn cell(&self, scheduler: &str, utilization: f64) -> Option<&ServeSweepCell> {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && (c.utilization - utilization).abs() < 1e-9)
    }
}

/// Section V pod throughput factor for one model: the repeats-weighted
/// pod estimate over the profiled pipeline (same aggregation as the
/// `pods` experiment). Also used by the `repro serve` CLI to ground its
/// `pods` scheduler.
#[must_use]
pub fn pod_factor(profiler: &Profiler, id: ModelId) -> f64 {
    let prof = suite::build(id).profile(profiler);
    let (mut serial, mut compute, mut memory, mut overhead) = (0.0, 0.0, 0.0, 0.0);
    for s in &prof.stages {
        let e = pod_estimate(&s.timeline);
        let w = s.repeats as f64;
        serial += w * e.serial_s;
        compute += w * e.compute_s;
        memory += w * e.memory_s;
        overhead += w * e.overhead_s;
    }
    let pod = compute.max(memory).max(overhead);
    if pod > 0.0 { (serial / pod).max(1.0) } else { 1.0 }
}

fn p99_latency(r: &SimResult) -> f64 {
    let mut lat: Vec<f64> = r.records.iter().map(mmg_serve::RequestRecord::latency_s).collect();
    lat.sort_by(f64::total_cmp);
    mmg_telemetry::quantile_sorted(&lat, 0.99).unwrap_or(0.0)
}

fn mean_batch(r: &SimResult) -> f64 {
    if r.records.is_empty() {
        return 0.0;
    }
    r.records.iter().map(|rec| rec.batch as f64).sum::<f64>() / r.records.len() as f64
}

/// Runs the sweep on `ctx`'s device, registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> ServeSweepResult {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let mix = RequestMix::parse(MIX).expect("the built-in mix parses");
    let models: Vec<ModelId> = mix.models().collect();
    let batches: Vec<usize> = (0..).map(|i| 1 << i).take_while(|&b| b <= MAX_BATCH).collect();
    let factors: Vec<(ModelId, f64)> =
        models.iter().map(|&m| (m, pod_factor(&profiler, m))).collect();
    let profile = ServiceProfile::from_profiler(&profiler, &models, &batches)
        .with_pod_factors(&factors);
    let mean_service_s = profile.mean_base_s(&mix);
    // The optimized deployment: every kernel-graph pass plus the
    // distilled sampler, same batch grid and pod factors. The OptConfig
    // participates in memo keys, so both profiles share ctx.memo.
    let opt_profiler = ctx.profiler(AttnImpl::Flash).with_opt_config(mmg_graph::OptConfig::all());
    let opt_profile = ServiceProfile::from_profiler_sampled(
        &opt_profiler,
        &models,
        &batches,
        Some(super::optimize::SAMPLER_STEPS),
    )
    .with_pod_factors(&factors);
    let opt_mean_service_s = opt_profile.mean_base_s(&mix);

    let schedulers = [
        SchedulerKind::Fifo,
        SchedulerKind::Static { batch: MAX_BATCH / 2, wait_s: 0.5 },
        SchedulerKind::Dynamic { max_batch: MAX_BATCH },
        SchedulerKind::Pods { max_batch: MAX_BATCH },
    ];
    let mut cells = Vec::with_capacity(schedulers.len() * UTILIZATIONS.len());
    for scheduler in schedulers {
        for utilization in UTILIZATIONS {
            let offered_rps = utilization * GPUS as f64 / mean_service_s;
            let cfg = ScenarioCfg::new(
                GPUS,
                mix.clone(),
                mmg_serve::ArrivalProcess::poisson(offered_rps),
                scheduler,
                SloSpec::ServiceMultiple(SLO_MULTIPLE),
                DURATION_S,
                SEED,
            );
            let r = simulate(&cfg, &profile, &ctx.registry);
            // Same offered stream and deadline policy, served on the
            // optimized curves: the capacity headroom the passes buy.
            let opt_r = simulate(&cfg, &opt_profile, &ctx.registry);
            cells.push(ServeSweepCell {
                scheduler: scheduler.name().to_string(),
                utilization,
                offered_rps,
                throughput_rps: r.throughput_rps(),
                goodput_rps: r.goodput_rps(),
                opt_goodput_rps: opt_r.goodput_rps(),
                slo_attainment: r.slo_attainment(),
                p99_s: p99_latency(&r),
                mean_batch: mean_batch(&r),
                measured_utilization: r.utilization(),
            });
        }
    }
    ServeSweepResult {
        gpus: GPUS,
        mix: MIX.to_string(),
        slo_multiple: SLO_MULTIPLE,
        mean_service_s,
        opt_mean_service_s,
        pod_factors: factors
            .iter()
            .map(|&(m, f)| (model_short_name(m).to_string(), f))
            .collect(),
        cells,
    }
}

/// One aggregated (scheduler, utilization) cell of a replicated sweep:
/// statistics pooled across all replication seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedCell {
    /// Scheduler name.
    pub scheduler: String,
    /// Offered utilization target.
    pub utilization: f64,
    /// Offered arrival rate, requests/s (same for every seed).
    pub offered_rps: f64,
    /// Seeds pooled into this cell.
    pub replications: u64,
    /// Mean completed requests/s across seeds.
    pub mean_throughput_rps: f64,
    /// Mean on-time requests/s across seeds.
    pub mean_goodput_rps: f64,
    /// Pooled SLO attainment: total on-time over total completed.
    pub slo_attainment: f64,
    /// 99th-percentile latency from the seeds' merged quantile sketches
    /// (rank error bounded by [`mmg_serve::LATENCY_SKETCH_EPS`]).
    pub p99_s: f64,
    /// Pooled mean served batch size.
    pub mean_batch: f64,
    /// Mean measured GPU-time utilization across seeds.
    pub mean_measured_utilization: f64,
}

/// Replicated serving sweep: the scheduler × utilization grid run at
/// `replications` seeds each, in parallel, deterministically merged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedSweepResult {
    /// Cluster size.
    pub gpus: usize,
    /// Request mix, `model:weight` list.
    pub mix: String,
    /// Deadline multiple of batch-1 service time.
    pub slo_multiple: f64,
    /// Seeds per cell.
    pub replications: u64,
    /// First seed; cell `k` of a grid point uses `base_seed + k`.
    pub base_seed: u64,
    /// Aggregated cells, scheduler-major in [`UTILIZATIONS`] order.
    pub cells: Vec<ReplicatedCell>,
}

impl ReplicatedSweepResult {
    /// The aggregated cell for a scheduler at an offered utilization.
    #[must_use]
    pub fn cell(&self, scheduler: &str, utilization: f64) -> Option<&ReplicatedCell> {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && (c.utilization - utilization).abs() < 1e-9)
    }
}

/// Runs the scheduler × utilization grid at `replications` seeds per
/// cell on the [`run_cells_with`] worker pool. Every (scheduler,
/// utilization, seed) triple is one independent streaming-mode DES run
/// on its own registry; outputs and telemetry merge in grid order, so
/// the result — and the merged counter totals — are byte-identical for
/// every `jobs` value. Per-seed latency sketches are merged per grid
/// point, so pooled quantiles keep the documented rank-error bound.
#[must_use]
pub fn run_replicated(
    spec: &DeviceSpec,
    replications: u64,
    base_seed: u64,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
) -> ReplicatedSweepResult {
    // Profile once up front on its own registry, merged before any
    // cell's telemetry — same order a serial run would record in.
    let profiled =
        super::serve_common::profile_mix(spec, memo, target, MIX, MAX_BATCH, true);
    let (mix, profile) = (profiled.mix, profiled.profile);
    let mean_service_s = profiled.mean_base_s;

    let schedulers = [
        SchedulerKind::Fifo,
        SchedulerKind::Static { batch: MAX_BATCH / 2, wait_s: 0.5 },
        SchedulerKind::Dynamic { max_batch: MAX_BATCH },
        SchedulerKind::Pods { max_batch: MAX_BATCH },
    ];
    let mut keys: Vec<(SchedulerKind, f64)> = Vec::new();
    for scheduler in schedulers {
        for utilization in UTILIZATIONS {
            keys.push((scheduler, utilization));
        }
    }
    let grid: Vec<((SchedulerKind, f64), u64)> =
        super::serve_common::replicated_grid(&keys, replications, base_seed);

    struct SeedRun {
        completed: u64,
        on_time: u64,
        batch_sum: u64,
        throughput_rps: f64,
        goodput_rps: f64,
        measured_utilization: f64,
        sketch: QuantileSketch,
    }

    let runs: Vec<SeedRun> = run_cells_with(grid.len(), spec, jobs, memo, target, |i, ctx| {
        let ((scheduler, utilization), seed) = grid[i];
        let offered_rps = utilization * GPUS as f64 / mean_service_s;
        let mut cfg = ScenarioCfg::new(
            GPUS,
            mix.clone(),
            mmg_serve::ArrivalProcess::poisson(offered_rps),
            scheduler,
            SloSpec::ServiceMultiple(SLO_MULTIPLE),
            DURATION_S,
            seed,
        );
        cfg.full_records = false;
        let r = simulate(&cfg, &profile, &ctx.registry);
        SeedRun {
            completed: r.stats.completed,
            on_time: r.stats.on_time,
            batch_sum: r.stats.batch_sum,
            throughput_rps: r.throughput_rps(),
            goodput_rps: r.goodput_rps(),
            measured_utilization: r.utilization(),
            sketch: r.stats.latency_sketch.clone(),
        }
    });

    let reps = replications as usize;
    let cells = runs
        .chunks(reps)
        .zip(keys.iter())
        .map(|(chunk, &(scheduler, utilization))| {
            let offered_rps = utilization * GPUS as f64 / mean_service_s;
            let completed: u64 = chunk.iter().map(|r| r.completed).sum();
            let on_time: u64 = chunk.iter().map(|r| r.on_time).sum();
            let batch_sum: u64 = chunk.iter().map(|r| r.batch_sum).sum();
            let mut pooled = QuantileSketch::new(mmg_serve::LATENCY_SKETCH_EPS);
            for r in chunk {
                pooled.merge(&r.sketch);
            }
            let n = chunk.len() as f64;
            ReplicatedCell {
                scheduler: scheduler.name().to_string(),
                utilization,
                offered_rps,
                replications,
                mean_throughput_rps: chunk.iter().map(|r| r.throughput_rps).sum::<f64>() / n,
                mean_goodput_rps: chunk.iter().map(|r| r.goodput_rps).sum::<f64>() / n,
                slo_attainment: if completed == 0 {
                    1.0
                } else {
                    on_time as f64 / completed as f64
                },
                p99_s: pooled.quantile(0.99).unwrap_or(0.0),
                mean_batch: if completed == 0 {
                    0.0
                } else {
                    batch_sum as f64 / completed as f64
                },
                mean_measured_utilization: chunk
                    .iter()
                    .map(|r| r.measured_utilization)
                    .sum::<f64>()
                    / n,
            }
        })
        .collect();

    ReplicatedSweepResult {
        gpus: GPUS,
        mix: MIX.to_string(),
        slo_multiple: SLO_MULTIPLE,
        replications,
        base_seed,
        cells,
    }
}

/// Renders the replicated scheduler × utilization sweep.
#[must_use]
pub fn render_replicated(r: &ReplicatedSweepResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .cells
        .iter()
        .map(|c| {
            (
                format!("{}@{:.2}", c.scheduler, c.utilization),
                vec![
                    format!("{:.2}/s", c.offered_rps),
                    format!("{:.2}/s", c.mean_throughput_rps),
                    format!("{:.2}/s", c.mean_goodput_rps),
                    format!("{:.0}%", c.slo_attainment * 100.0),
                    format!("{:.2} s", c.p99_s),
                    format!("{:.1}", c.mean_batch),
                    format!("{:.0}%", c.mean_measured_utilization * 100.0),
                ],
            )
        })
        .collect();
    format!(
        "Extension — replicated serving sweep ({} GPUs, mix {}, SLO {}x service, {} seeds from {})\n{}",
        r.gpus,
        r.mix,
        r.slo_multiple,
        r.replications,
        r.base_seed,
        render_table(
            &["Scheduler@util", "Offered", "Throughput", "Goodput", "SLO attain", "p99", "Mean batch", "GPU busy"],
            &rows
        )
    )
}

/// Renders the scheduler × utilization sweep.
#[must_use]
pub fn render(r: &ServeSweepResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .cells
        .iter()
        .map(|c| {
            (
                format!("{}@{:.2}", c.scheduler, c.utilization),
                vec![
                    format!("{:.2}/s", c.offered_rps),
                    format!("{:.2}/s", c.throughput_rps),
                    format!("{:.2}/s", c.goodput_rps),
                    format!("{:.2}/s", c.opt_goodput_rps),
                    format!("{:.0}%", c.slo_attainment * 100.0),
                    format!("{:.2} s", c.p99_s),
                    format!("{:.1}", c.mean_batch),
                    format!("{:.0}%", c.measured_utilization * 100.0),
                ],
            )
        })
        .collect();
    let factors = r
        .pod_factors
        .iter()
        .map(|(m, f)| format!("{m} {f:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "Extension — serving-cluster scheduler sweep ({} GPUs, mix {}, SLO {}x service)\npod factors: {factors}\nbatch-1 service: {:.3}s eager, {:.3}s optimized\n{}",
        r.gpus,
        r.mix,
        r.slo_multiple,
        r.mean_service_s,
        r.opt_mean_service_s,
        render_table(
            &["Scheduler@util", "Offered", "Throughput", "Goodput", "Opt goodput", "SLO attain", "p99", "Mean batch", "GPU busy"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{test_ctx, test_memo};
    use std::sync::OnceLock;

    fn result() -> &'static ServeSweepResult {
        static RESULT: OnceLock<ServeSweepResult> = OnceLock::new();
        RESULT.get_or_init(|| run_ctx(&test_ctx()))
    }

    #[test]
    fn covers_the_full_grid() {
        let r = result();
        assert_eq!(r.cells.len(), 4 * UTILIZATIONS.len());
        for s in ["fifo", "static", "dynamic", "pods"] {
            for u in UTILIZATIONS {
                assert!(r.cell(s, u).is_some(), "{s}@{u}");
            }
        }
    }

    #[test]
    fn dynamic_beats_fifo_on_goodput_at_load() {
        // The acceptance bar: at ≥0.8 offered utilization the
        // deadline-aware batcher must out-serve one-at-a-time FIFO.
        let r = result();
        for u in [0.8, 0.95] {
            let fifo = r.cell("fifo", u).unwrap();
            let dynamic = r.cell("dynamic", u).unwrap();
            assert!(
                dynamic.goodput_rps > fifo.goodput_rps,
                "util {u}: dynamic {} vs fifo {}",
                dynamic.goodput_rps,
                fifo.goodput_rps
            );
        }
    }

    #[test]
    fn optimized_curves_raise_goodput_at_load() {
        // The acceptance bar: at ≥0.8 offered utilization the optimized
        // service curves (all passes + distilled sampler) must serve
        // strictly more on-time requests than the eager curves.
        let r = result();
        assert!(
            r.opt_mean_service_s < r.mean_service_s,
            "optimized mean service {} vs eager {}",
            r.opt_mean_service_s,
            r.mean_service_s
        );
        for s in ["fifo", "dynamic"] {
            for u in [0.8, 0.95] {
                let c = r.cell(s, u).unwrap();
                assert!(
                    c.opt_goodput_rps > c.goodput_rps,
                    "{s}@{u}: opt {} vs eager {}",
                    c.opt_goodput_rps,
                    c.goodput_rps
                );
            }
        }
    }

    #[test]
    fn pods_factor_exceeds_one_for_diffusion() {
        let r = result();
        let sd = r.pod_factors.iter().find(|(m, _)| m == "sd").unwrap();
        assert!(sd.1 > 1.1, "SD pod factor {}", sd.1);
    }

    #[test]
    fn light_load_is_mostly_on_time() {
        let r = result();
        for s in ["fifo", "dynamic", "pods"] {
            let c = r.cell(s, 0.5).unwrap();
            assert!(c.slo_attainment > 0.8, "{s}@0.5 attainment {}", c.slo_attainment);
        }
    }

    #[test]
    fn renders() {
        let out = render(result());
        assert!(out.contains("scheduler sweep") && out.contains("dynamic@0.95"));
    }

    #[test]
    fn replicated_sweep_is_identical_across_job_counts() {
        let spec = DeviceSpec::a100_80gb();
        let run_with = |jobs: usize| {
            let target = Registry::new();
            let r = run_replicated(&spec, 2, 42, jobs, &test_memo(), &target);
            (r, target.counters_snapshot().values().to_vec())
        };
        let serial = run_with(1);
        for jobs in [2, 8] {
            let parallel = run_with(jobs);
            assert_eq!(serial.0, parallel.0, "results diverged at jobs={jobs}");
            assert_eq!(serial.1, parallel.1, "counters diverged at jobs={jobs}");
        }
        // Sanity on the aggregation itself.
        assert_eq!(serial.0.cells.len(), 4 * UTILIZATIONS.len());
        for c in &serial.0.cells {
            assert_eq!(c.replications, 2);
            assert!(c.mean_goodput_rps <= c.mean_throughput_rps + 1e-12);
            assert!((0.0..=1.0).contains(&c.slo_attainment));
        }
        // Replication changes the seed set, so pooled numbers differ
        // from any single-seed run but stay in the same regime as the
        // classic sweep.
        let classic = result();
        let rep = serial.0.cell("dynamic", 0.8).unwrap();
        let one = classic.cell("dynamic", 0.8).unwrap();
        assert!(
            (rep.mean_throughput_rps - one.throughput_rps).abs() < 0.5 * one.throughput_rps,
            "replicated {} vs classic {}",
            rep.mean_throughput_rps,
            one.throughput_rps
        );
    }
}
