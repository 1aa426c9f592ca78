//! Extension — fleet-scale serving: autoscaler policy × utilization
//! over a heterogeneous multi-cluster GPU fleet.
//!
//! The paper's opening fleet characterization (Fig. 1) is about which
//! hardware serves multi-modal traffic at what cost; this experiment
//! closes that loop with the `mmg-serve::fleet` simulator. Four
//! clusters — A100, H100, L4 and H200 pools in four regions with
//! phase-shifted diurnal traffic — serve the standard SD + Parti mix,
//! with per-SKU service curves from the real roofline profiler. Three
//! autoscaler policies (fixed provisioning, reactive scaling with a
//! warm pool, reactive over spot capacity with churn) are swept across
//! offered utilizations, and each policy is scored the way a capacity
//! team would score it: SLO attainment against $/1k-images.
//!
//! Sharding: every (policy × utilization × cluster) triple is one
//! independent [`run_cluster`] call on its own registry — the fleet's
//! per-region arrival split is exact by construction, so the grid runs
//! on the [`run_cells_with`] worker pool and merges byte-identically
//! for every `--jobs` value.
//!
//! The expected shape (and what the tests pin): fixed provisioning
//! sized for the mean wastes GPU-hours in every diurnal trough, so the
//! reactive policy serves the same stream at a lower $/1k-images; spot
//! churn claws back more dollars but gives up SLO attainment when
//! reclaims land on a diurnal peak.

use std::sync::Arc;

use mmg_gpu::DeviceSpec;
use mmg_profiler::report::render_table;
use mmg_profiler::CostMemo;
use mmg_serve::{
    run_cluster, ArrivalProcess, AutoscalerPolicy, ClusterCfg, FleetCfg, FleetResult, RouterKind,
    SchedulerKind, SloSpec, SpotChurn, FLEET_SKETCH_EPS,
};
use mmg_telemetry::{QuantileSketch, Registry};

use crate::engine::{run_cells_with, ExecContext};
use serde::{Deserialize, Serialize};

/// Request mix (matches the other serving experiments).
pub const MIX: &str = "sd:8,parti:2";
/// Deadline as a multiple of batch-1 service time.
pub const SLO_MULTIPLE: f64 = 4.0;
/// Offered utilizations swept (fraction of fleet batch-1 capacity).
pub const UTILIZATIONS: [f64; 2] = [0.6, 0.9];
/// Evaluation-window width, simulated seconds.
pub const WINDOW_S: f64 = 300.0;
/// Windows per run (one simulated hour).
pub const WINDOWS: usize = 12;
/// Diurnal period: one full cycle over the horizon.
pub const PERIOD_S: f64 = 3600.0;
/// Diurnal modulation amplitude.
pub const AMPLITUDE: f64 = 0.4;
/// Fleet seed.
pub const SEED: u64 = 42;
/// Batch cap used when profiling service curves (FIFO serves batch 1;
/// the curves above it exist so the same profiles serve other
/// schedulers).
const MAX_BATCH: usize = 16;

/// The GPU SKUs the fleet deploys, in cluster order.
pub const SKUS: [&str; 4] = ["a100", "h100", "l4", "h200"];

/// Resolves a fleet SKU key to its device spec.
///
/// # Panics
///
/// Panics on an unknown key.
#[must_use]
pub fn device_for_sku(sku: &str) -> DeviceSpec {
    match sku {
        "a100" => DeviceSpec::a100_80gb(),
        "h100" => DeviceSpec::h100_80gb(),
        "l4" => DeviceSpec::l4_24gb(),
        "h200" => DeviceSpec::h200_141gb(),
        other => panic!("unknown fleet SKU {other:?} (expected one of {SKUS:?})"),
    }
}

/// Representative on-demand price for a fleet SKU, $/GPU-hr.
///
/// # Panics
///
/// Panics on an unknown key.
#[must_use]
pub fn sku_price_per_gpu_hr(sku: &str) -> f64 {
    match sku {
        "a100" => 2.21,
        "h100" => 4.10,
        "l4" => 0.81,
        "h200" => 5.30,
        other => panic!("unknown fleet SKU {other:?} (expected one of {SKUS:?})"),
    }
}

/// The fleet topology: four regions, one SKU each, diurnal peaks
/// staggered by a quarter period. GPU counts are sized so no single
/// cluster dwarfs the rest despite the ~20× service-time spread between
/// H200 and L4; prices are representative on-demand $/GPU-hr.
#[must_use]
pub fn clusters() -> Vec<ClusterCfg> {
    vec![
        ClusterCfg {
            name: "us-east".into(),
            sku: "a100".into(),
            gpus: 12,
            price_per_gpu_hr: sku_price_per_gpu_hr("a100"),
            weight: 1.0,
            phase_s: 0.0,
        },
        ClusterCfg {
            name: "eu-west".into(),
            sku: "h100".into(),
            gpus: 8,
            price_per_gpu_hr: sku_price_per_gpu_hr("h100"),
            weight: 1.0,
            phase_s: PERIOD_S * 0.25,
        },
        ClusterCfg {
            name: "apac".into(),
            sku: "l4".into(),
            gpus: 24,
            price_per_gpu_hr: sku_price_per_gpu_hr("l4"),
            weight: 1.0,
            phase_s: PERIOD_S * 0.5,
        },
        ClusterCfg {
            name: "us-west".into(),
            sku: "h200".into(),
            gpus: 6,
            price_per_gpu_hr: sku_price_per_gpu_hr("h200"),
            weight: 1.0,
            phase_s: PERIOD_S * 0.75,
        },
    ]
}

/// The swept autoscaler policies, in report order.
#[must_use]
pub fn policies() -> Vec<AutoscalerPolicy> {
    vec![
        AutoscalerPolicy::Fixed,
        AutoscalerPolicy::Reactive {
            target_util: 0.85,
            min_gpus: 2,
            max_gpus: 64,
            lag_windows: 1,
            warm_pool: 1,
            churn: None,
        },
        AutoscalerPolicy::Reactive {
            target_util: 0.85,
            min_gpus: 2,
            max_gpus: 64,
            lag_windows: 1,
            warm_pool: 1,
            churn: Some(SpotChurn { prob: 0.25, frac: 0.25 }),
        },
    ]
}

/// One (policy × utilization) row of the sweep, aggregated fleet-wide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSweepCell {
    /// Autoscaler policy name (`fixed` | `reactive` | `reactive+spot`).
    pub policy: String,
    /// Offered utilization target (fraction of fleet batch-1 capacity).
    pub utilization: f64,
    /// Offered fleet-wide arrival rate, requests/s.
    pub offered_rps: f64,
    /// Requests that arrived over the horizon, fleet-wide.
    pub requests: u64,
    /// Fleet-wide SLO attainment.
    pub slo_attainment: f64,
    /// Provisioned GPU-hours billed (serving + warm pools).
    pub gpu_hours: f64,
    /// Dollars billed.
    pub cost_usd: f64,
    /// Dollars per thousand completed requests.
    pub cost_per_1k: f64,
    /// Fleet-wide 99th-percentile latency, seconds (merged sketches,
    /// rank error [`FLEET_SKETCH_EPS`] per cluster).
    pub p99_s: f64,
}

/// Fleet-sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSweepResult {
    /// Cluster count.
    pub clusters: usize,
    /// Initially provisioned GPUs fleet-wide.
    pub gpus: usize,
    /// Request mix, `model:weight` list.
    pub mix: String,
    /// Mix-weighted mean batch-1 service seconds per SKU, cluster order.
    pub mean_base_s: Vec<(String, f64)>,
    /// Mean batch-1 service seconds per SKU on the *optimized* curves
    /// (all kernel-graph passes + distilled sampler) — the per-SKU
    /// serving-capacity gain `mean_base_s / opt_mean_base_s` a compiled
    /// deployment would realize at the same SLO.
    pub opt_mean_base_s: Vec<(String, f64)>,
    /// Sweep rows, policy-major in [`UTILIZATIONS`] order.
    pub cells: Vec<FleetSweepCell>,
}

impl FleetSweepResult {
    /// The row for a policy at an offered utilization.
    #[must_use]
    pub fn cell(&self, policy: &str, utilization: f64) -> Option<&FleetSweepCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && (c.utilization - utilization).abs() < 1e-9)
    }
}

/// The fleet scenario for one (policy, utilization) grid point: rate
/// sized as `utilization ×` the fleet's aggregate batch-1 capacity,
/// region weights proportional to cluster capacity so every cluster is
/// offered the same relative load.
#[must_use]
pub fn fleet_cfg(
    policy: AutoscalerPolicy,
    utilization: f64,
    mean_base_s: &[(String, f64)],
) -> FleetCfg {
    let mut clusters = clusters();
    let mut total_capacity = 0.0;
    for (c, (_, mean_s)) in clusters.iter_mut().zip(mean_base_s) {
        let capacity = c.gpus as f64 / mean_s;
        c.weight = capacity;
        total_capacity += capacity;
    }
    FleetCfg {
        clusters,
        mix: mmg_serve::RequestMix::parse(MIX).expect("the built-in mix parses"),
        arrival: ArrivalProcess::Diurnal {
            rate_rps: utilization * total_capacity,
            amplitude: AMPLITUDE,
            period_s: PERIOD_S,
            phase_s: 0.0,
        },
        scheduler: SchedulerKind::Fifo,
        router: RouterKind::RoundRobin,
        slo: SloSpec::ServiceMultiple(SLO_MULTIPLE),
        window_s: WINDOW_S,
        windows: WINDOWS,
        autoscaler: policy,
        seed: SEED,
    }
}

/// Runs the sweep with one worker on `ctx`'s device, registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> FleetSweepResult {
    run_jobs(&ctx.spec, 1, &ctx.memo, &ctx.registry)
}

/// Runs the (policy × utilization × cluster) grid on the
/// [`run_cells_with`] worker pool. Per-SKU profiles are built once up
/// front (isolated registries merged into `target` in SKU order); each
/// cell simulates one cluster's full horizon against its exact slice of
/// the fleet arrival stream, so results and telemetry merge
/// byte-identically for every `jobs` value.
///
/// `spec` seeds the worker contexts (the per-cluster device comes from
/// the cluster's SKU, not from `spec`).
#[must_use]
pub fn run_jobs(
    spec: &DeviceSpec,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
) -> FleetSweepResult {
    let topology = clusters();
    // Profile each SKU once, in cluster order, before any cell runs.
    let profiled: Vec<super::serve_common::ProfiledMix> = topology
        .iter()
        .map(|c| {
            super::serve_common::profile_mix(
                &device_for_sku(&c.sku),
                memo,
                target,
                MIX,
                MAX_BATCH,
                false,
            )
        })
        .collect();
    let mean_base_s: Vec<(String, f64)> = topology
        .iter()
        .zip(&profiled)
        .map(|(c, p)| (c.sku.clone(), p.mean_base_s))
        .collect();
    // The optimized counterpart of each SKU's curves, profiled in the
    // same deterministic order (the arrival grid below still runs on the
    // eager curves; the optimized ones quantify per-SKU capacity gain).
    let opt_mean_base_s: Vec<(String, f64)> = topology
        .iter()
        .map(|c| {
            let p = super::serve_common::profile_mix_opt(
                &device_for_sku(&c.sku),
                memo,
                target,
                MIX,
                MAX_BATCH,
                false,
                mmg_graph::OptConfig::all(),
                Some(super::optimize::SAMPLER_STEPS),
            );
            (c.sku.clone(), p.mean_base_s)
        })
        .collect();

    let mut points: Vec<(AutoscalerPolicy, f64)> = Vec::new();
    for policy in policies() {
        for utilization in UTILIZATIONS {
            points.push((policy, utilization));
        }
    }
    let n_clusters = topology.len();
    let fleets: Vec<FleetCfg> = points
        .iter()
        .map(|&(policy, utilization)| fleet_cfg(policy, utilization, &mean_base_s))
        .collect();

    let results = run_cells_with(
        points.len() * n_clusters,
        spec,
        jobs,
        memo,
        target,
        |i, cell_ctx| {
            let (point, cluster_idx) = (i / n_clusters, i % n_clusters);
            run_cluster(
                &fleets[point],
                cluster_idx,
                &profiled[cluster_idx].profile,
                &cell_ctx.registry,
            )
        },
    );

    let cells = results
        .chunks(n_clusters)
        .enumerate()
        .map(|(pi, chunk)| {
            let (policy, utilization) = points[pi];
            let fleet = FleetResult::from_clusters(chunk.to_vec());
            let mut pooled = QuantileSketch::new(FLEET_SKETCH_EPS);
            for c in &fleet.clusters {
                pooled.merge(&c.latency);
            }
            let rate = fleets[pi].arrival.mean_rate_rps();
            FleetSweepCell {
                policy: policy.name().to_string(),
                utilization,
                offered_rps: rate,
                requests: fleet.arrivals(),
                slo_attainment: fleet.slo_attainment(),
                gpu_hours: fleet.gpu_hours(),
                cost_usd: fleet.cost_usd(),
                cost_per_1k: fleet.cost_per_1k(),
                p99_s: pooled.quantile(0.99).unwrap_or(0.0),
            }
        })
        .collect();

    FleetSweepResult {
        clusters: n_clusters,
        gpus: topology.iter().map(|c| c.gpus).sum(),
        mix: MIX.to_string(),
        mean_base_s,
        opt_mean_base_s,
        cells,
    }
}

/// Renders the policy × utilization fleet sweep.
#[must_use]
pub fn render(r: &FleetSweepResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .cells
        .iter()
        .map(|c| {
            (
                format!("{}@{:.2}", c.policy, c.utilization),
                vec![
                    format!("{:.1}/s", c.offered_rps),
                    format!("{}", c.requests),
                    format!("{:.1}%", c.slo_attainment * 100.0),
                    format!("{:.1}", c.gpu_hours),
                    format!("${:.2}", c.cost_usd),
                    format!("${:.3}", c.cost_per_1k),
                    format!("{:.2} s", c.p99_s),
                ],
            )
        })
        .collect();
    let skus = r
        .mean_base_s
        .iter()
        .map(|(s, m)| format!("{s} {m:.3}s"))
        .collect::<Vec<_>>()
        .join(", ");
    let gains = r
        .mean_base_s
        .iter()
        .zip(&r.opt_mean_base_s)
        .map(|((s, base), (_, opt))| format!("{s} {:.1}x", base / opt))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "Extension — fleet sweep ({} clusters, {} GPUs, mix {}, batch-1 service: {})\noptimized capacity gain: {}\n{}",
        r.clusters,
        r.gpus,
        r.mix,
        skus,
        gains,
        render_table(
            &["Policy@util", "Offered", "Requests", "SLO attain", "GPU-hrs", "Cost", "$/1k-img", "p99"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{test_ctx, test_memo};
    use std::sync::OnceLock;

    fn result() -> &'static FleetSweepResult {
        static RESULT: OnceLock<FleetSweepResult> = OnceLock::new();
        RESULT.get_or_init(|| run_ctx(&test_ctx()))
    }

    #[test]
    fn covers_the_full_grid() {
        let r = result();
        assert_eq!(r.cells.len(), 3 * UTILIZATIONS.len());
        for p in ["fixed", "reactive", "reactive+spot"] {
            for u in UTILIZATIONS {
                assert!(r.cell(p, u).is_some(), "{p}@{u}");
            }
        }
        assert_eq!(r.clusters, 4);
        assert_eq!(r.gpus, 50);
    }

    #[test]
    fn every_swept_fleet_validates() {
        let r = result();
        for policy in policies() {
            for u in UTILIZATIONS {
                assert_eq!(fleet_cfg(policy, u, &r.mean_base_s).validate(), Ok(()), "{policy:?}@{u}");
            }
        }
    }

    #[test]
    fn faster_skus_have_shorter_service_times() {
        let r = result();
        let mean = |sku: &str| {
            r.mean_base_s
                .iter()
                .find(|(s, _)| s == sku)
                .map(|&(_, m)| m)
                .unwrap()
        };
        assert!(mean("h100") < mean("a100"), "H100 must out-serve A100");
        assert!(mean("h200") <= mean("h100"), "H200 is at least H100");
        assert!(mean("l4") > mean("a100") * 2.0, "L4 is the slow tier");
    }

    #[test]
    fn optimized_curves_raise_capacity_on_every_sku() {
        let r = result();
        assert_eq!(r.opt_mean_base_s.len(), r.mean_base_s.len());
        for ((sku, base), (_, opt)) in r.mean_base_s.iter().zip(&r.opt_mean_base_s) {
            assert!(
                *opt < base / 1.5,
                "{sku}: optimized {opt} vs eager {base} — passes must raise capacity >=1.5x"
            );
        }
    }

    #[test]
    fn reactive_is_cheaper_per_image_than_fixed_at_light_load() {
        // Fixed provisioning pays for every diurnal trough; the
        // reactive policy sheds those GPU-hours.
        let r = result();
        let fixed = r.cell("fixed", 0.6).unwrap();
        let reactive = r.cell("reactive", 0.6).unwrap();
        assert!(
            reactive.cost_per_1k < fixed.cost_per_1k,
            "reactive ${} vs fixed ${} per 1k",
            reactive.cost_per_1k,
            fixed.cost_per_1k
        );
        // Same offered stream in both rows.
        assert_eq!(reactive.requests, fixed.requests);
    }

    #[test]
    fn spot_churn_trades_attainment_for_dollars() {
        let r = result();
        let reactive = r.cell("reactive", 0.9).unwrap();
        let spot = r.cell("reactive+spot", 0.9).unwrap();
        assert!(
            spot.slo_attainment <= reactive.slo_attainment + 1e-9,
            "spot {} vs reactive {}",
            spot.slo_attainment,
            reactive.slo_attainment
        );
    }

    #[test]
    fn attainment_degrades_with_load() {
        let r = result();
        for p in ["fixed", "reactive"] {
            let light = r.cell(p, 0.6).unwrap();
            let heavy = r.cell(p, 0.9).unwrap();
            assert!(
                heavy.slo_attainment <= light.slo_attainment + 1e-9,
                "{p}: heavy {} vs light {}",
                heavy.slo_attainment,
                light.slo_attainment
            );
        }
    }

    #[test]
    fn renders() {
        let out = render(result());
        assert!(out.contains("fleet sweep") && out.contains("reactive+spot@0.90"));
        assert!(out.contains("$/1k-img"));
    }

    #[test]
    fn sweep_is_identical_across_job_counts() {
        let spec = DeviceSpec::a100_80gb();
        let run_with = |jobs: usize| {
            let target = Registry::new();
            let r = run_jobs(&spec, jobs, &test_memo(), &target);
            (r, target.counters_snapshot().values().to_vec())
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        assert_eq!(serial.0, parallel.0, "results diverged at jobs=4");
        assert_eq!(serial.1, parallel.1, "counters diverged at jobs=4");
        for c in &serial.0.cells {
            assert!((0.0..=1.0).contains(&c.slo_attainment));
            assert!(c.cost_usd > 0.0);
            assert!(c.requests > 0);
        }
    }
}
