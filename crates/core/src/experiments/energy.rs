//! Extension — power regimes and end-to-end energy per model family,
//! plus an energy-aware batch-sizing sweep on the serving DES.
//!
//! The paper's roofline story (Fig. 5) has a power corollary: where a
//! kernel sits on the roofline decides what the board *draws* while it
//! runs. Compute-bound diffusion denoising pushes the tensor cores
//! toward their power ceiling; memory-bound attention/decode streams
//! HBM and draws closer to the bandwidth-bound figure; launch gaps
//! idle. This experiment integrates the per-kernel power model over
//! every suite family's profiled pipeline and reports:
//!
//! * **Part 1 — the regime story.** Joules per request (J/image,
//!   J/video, J/req), the pipeline-mean and peak kernel draw, and the
//!   energy-dominant stage with its own mean draw — the stage-level
//!   numbers are where the regime contrast lives (a whole-pipeline mean
//!   dilutes the denoise loop with VAE/text-encoder time). An optimized
//!   column (all kernel-graph passes + the distilled sampler for
//!   diffusion) shows energy-per-image falling with the same rewrites
//!   that cut latency.
//! * **Part 2 — the goodput/Wh frontier.** The serving DES runs the
//!   canonical mix under dynamic batching at increasing batch caps,
//!   with the profiler-attached power model metering every batch span.
//!   Each cell reports goodput, cluster energy, goodput per watt-hour,
//!   and whether the mean per-GPU draw fits under a [`POWER_CAP_W`]
//!   provisioning cap — the batch size a power-capped rack should run.
//!
//! Everything is derived from the same [`DeviceSpec`](mmg_gpu::DeviceSpec)
//! power fields and roofline splits the profiler uses, so the report is
//! deterministic and byte-identical for any `--jobs`.

use mmg_attn::AttnImpl;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::render_table;
use mmg_serve::{
    model_short_name, simulate, ArrivalProcess, RequestMix, ScenarioCfg, SchedulerKind,
    ServiceProfile, SloSpec,
};

use crate::engine::ExecContext;
use crate::experiments::optimize::{FAMILIES, SAMPLER_STEPS};
use serde::{Deserialize, Serialize};

/// Per-GPU mean-draw provisioning cap for the frontier, watts. Between
/// the A100's HBM-bound (390 W) and idle draw: a deliberately tight rack
/// budget so the sweep shows both feasible and infeasible batch caps.
pub const POWER_CAP_W: f64 = 300.0;
/// Dynamic-batching caps swept in part 2.
pub const BATCH_CAPS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// GPUs in the simulated serving cluster.
pub const GPUS: usize = 4;
/// Request mix served in part 2 (the CLI's canonical mix).
pub const MIX: &str = "sd:8,parti:2";
/// Offered utilization of aggregate batch-1 capacity in part 2.
const UTILIZATION: f64 = 0.9;
/// Simulated seconds per frontier cell.
const DURATION_S: f64 = 200.0;
/// Deadline as a multiple of batch-1 service time.
pub const SLO_MULTIPLE: f64 = 4.0;
/// Fixed seed: one sample path per cell, reproducible everywhere.
const SEED: u64 = 42;

/// One model family's energy profile (part 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyEnergy {
    /// Model short name.
    pub model: String,
    /// Family label (diffusion vs autoregressive, image vs video/text).
    pub family: String,
    /// Energy unit for the request ("J/image" | "J/video" | "J/req").
    pub unit: String,
    /// Eager end-to-end seconds per request.
    pub time_s: f64,
    /// Eager end-to-end joules per request.
    pub energy_j: f64,
    /// Pipeline-mean board draw, watts.
    pub mean_draw_w: f64,
    /// Highest per-kernel draw anywhere in the pipeline, watts (the
    /// power model caps this at the device TDP).
    pub peak_kernel_draw_w: f64,
    /// Stage contributing the most energy (repeats-weighted).
    pub dominant_stage: String,
    /// Mean draw of the dominant stage alone, watts — the regime
    /// signal: compute-bound denoise runs hot, memory-bound decode
    /// closer to the HBM-bound draw.
    pub dominant_stage_draw_w: f64,
    /// Joules per request with all kernel-graph passes (+ the
    /// [`SAMPLER_STEPS`]-step distilled sampler for diffusion).
    pub opt_energy_j: f64,
    /// `energy_j / opt_energy_j` — the energy the rewrites return.
    pub energy_ratio: f64,
}

/// One batch-cap cell of the goodput/Wh frontier (part 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierCell {
    /// Dynamic-batching cap.
    pub max_batch: usize,
    /// On-time requests/s.
    pub goodput_rps: f64,
    /// Mean modeled draw per GPU over the run, watts.
    pub mean_power_w: f64,
    /// Total cluster energy over the run, watt-hours.
    pub energy_wh: f64,
    /// On-time requests per watt-hour — the frontier's y-axis.
    pub good_per_wh: f64,
    /// Whether the mean per-GPU draw fits under [`POWER_CAP_W`].
    pub within_cap: bool,
}

/// Energy-experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyResult {
    /// Simulated device.
    pub device: String,
    /// Device idle draw, watts.
    pub idle_w: f64,
    /// Device TDP, watts.
    pub tdp_w: f64,
    /// Per-family energy rows, [`FAMILIES`] order (part 1).
    pub rows: Vec<FamilyEnergy>,
    /// Cluster size of the frontier sweep.
    pub gpus: usize,
    /// Request mix of the frontier sweep.
    pub mix: String,
    /// Offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// The per-GPU power cap applied, watts.
    pub power_cap_w: f64,
    /// Frontier cells, [`BATCH_CAPS`] order (part 2).
    pub frontier: Vec<FrontierCell>,
    /// Best on-time-requests-per-Wh across cells *within the power
    /// cap* — this experiment's headline.
    pub best_good_per_wh: f64,
}

impl EnergyResult {
    /// The row for a model short name.
    #[must_use]
    pub fn row(&self, model: &str) -> Option<&FamilyEnergy> {
        self.rows.iter().find(|r| r.model == model)
    }

    /// The frontier cell for a batch cap.
    #[must_use]
    pub fn cell(&self, max_batch: usize) -> Option<&FrontierCell> {
        self.frontier.iter().find(|c| c.max_batch == max_batch)
    }
}

fn unit_for(id: ModelId) -> &'static str {
    if id == ModelId::Llama2 {
        "J/req"
    } else if id.is_video() {
        "J/video"
    } else {
        "J/image"
    }
}

/// Runs the experiment on `ctx`'s device, registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> EnergyResult {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let optimized = ctx.profiler(AttnImpl::Flash).with_opt_config(mmg_graph::OptConfig::all());

    // Part 1: integrate the power model over every family's pipeline.
    let rows: Vec<FamilyEnergy> = FAMILIES
        .iter()
        .map(|&(id, family)| {
            let prof = suite::build(id).profile(&profiler);
            let energy_j = prof.total_energy_j();
            let peak_kernel_draw_w = prof
                .stages
                .iter()
                .flat_map(|s| s.timeline.events())
                .flat_map(|e| e.kernels.iter())
                .map(|k| k.draw_w)
                .fold(0.0, f64::max);
            let dominant = prof
                .stages
                .iter()
                .max_by(|a, b| {
                    (a.repeats as f64 * a.timeline.total_energy_j())
                        .total_cmp(&(b.repeats as f64 * b.timeline.total_energy_j()))
                })
                .expect("suite pipelines have stages");
            let mut opt_pipeline = suite::build(id);
            if opt_pipeline.has_denoising_stages() {
                opt_pipeline = opt_pipeline.with_sampler_steps(SAMPLER_STEPS);
            }
            let opt_energy_j = opt_pipeline.profile(&optimized).total_energy_j();
            FamilyEnergy {
                model: model_short_name(id).to_string(),
                family: family.to_string(),
                unit: unit_for(id).to_string(),
                time_s: prof.total_time_s(),
                energy_j,
                mean_draw_w: prof.mean_power_w(),
                peak_kernel_draw_w,
                dominant_stage: dominant.name.clone(),
                dominant_stage_draw_w: dominant.timeline.mean_power_w(),
                opt_energy_j,
                energy_ratio: energy_j / opt_energy_j,
            }
        })
        .collect();

    // Part 2: the power-metered serving DES across batch caps. The
    // sampled profile attaches the pipeline-mean draw to every curve
    // and the device idle draw to the profile, so every batch span is
    // metered.
    let mix = RequestMix::parse(MIX).expect("the built-in mix parses");
    let models: Vec<ModelId> = mix.models().collect();
    let max_cap = *BATCH_CAPS.iter().max().expect("caps are non-empty");
    let batches: Vec<usize> = (0..).map(|i| 1 << i).take_while(|&b| b <= max_cap).collect();
    let profile = ServiceProfile::from_profiler_sampled(&profiler, &models, &batches, None);
    let offered_rps = UTILIZATION * GPUS as f64 / profile.mean_base_s(&mix);

    let frontier: Vec<FrontierCell> = BATCH_CAPS
        .iter()
        .map(|&cap| {
            let mut cfg = ScenarioCfg::new(
                GPUS,
                mix.clone(),
                ArrivalProcess::poisson(offered_rps),
                SchedulerKind::Dynamic { max_batch: cap },
                SloSpec::ServiceMultiple(SLO_MULTIPLE),
                DURATION_S,
                SEED,
            );
            cfg.full_records = false;
            let r = simulate(&cfg, &profile, &ctx.registry);
            let energy_wh = r.total_energy_wh().expect("sampled profiles carry power");
            let mean_power_w = r.mean_power_w().expect("sampled profiles carry power");
            FrontierCell {
                max_batch: cap,
                goodput_rps: r.goodput_rps(),
                mean_power_w,
                energy_wh,
                good_per_wh: if energy_wh > 0.0 {
                    r.stats.on_time as f64 / energy_wh
                } else {
                    0.0
                },
                within_cap: mean_power_w <= POWER_CAP_W,
            }
        })
        .collect();

    let best_good_per_wh = frontier
        .iter()
        .filter(|c| c.within_cap)
        .map(|c| c.good_per_wh)
        .fold(0.0, f64::max);

    EnergyResult {
        device: ctx.spec.name.clone(),
        idle_w: ctx.spec.idle_w,
        tdp_w: ctx.spec.tdp_w,
        rows,
        gpus: GPUS,
        mix: MIX.to_string(),
        offered_rps,
        power_cap_w: POWER_CAP_W,
        frontier,
        best_good_per_wh,
    }
}

/// Renders both tables.
#[must_use]
pub fn render(r: &EnergyResult) -> String {
    let family_rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.model.clone(),
                vec![
                    row.family.clone(),
                    format!("{:.1} {}", row.energy_j, row.unit),
                    format!("{:.0} W", row.mean_draw_w),
                    format!("{:.0} W", row.peak_kernel_draw_w),
                    format!("{} ({:.0} W)", row.dominant_stage, row.dominant_stage_draw_w),
                    format!("{:.1} {}", row.opt_energy_j, row.unit),
                    format!("{:.2}x", row.energy_ratio),
                ],
            )
        })
        .collect();
    let frontier_rows: Vec<(String, Vec<String>)> = r
        .frontier
        .iter()
        .map(|c| {
            (
                format!("cap {}", c.max_batch),
                vec![
                    format!("{:.2}/s", c.goodput_rps),
                    format!("{:.0} W", c.mean_power_w),
                    format!("{:.2} Wh", c.energy_wh),
                    format!("{:.1}", c.good_per_wh),
                    if c.within_cap { "yes".to_string() } else { "OVER".to_string() },
                ],
            )
        })
        .collect();
    format!(
        "Extension — power regimes & energy ({}, idle {:.0} W, TDP {:.0} W)\n{}\
         \nGoodput/Wh frontier ({} GPUs, mix {}, {:.2} req/s offered, cap {:.0} W/GPU)\n{}\
         best within cap: {:.1} on-time requests per Wh\n",
        r.device,
        r.idle_w,
        r.tdp_w,
        render_table(
            &["Model", "Family", "Energy", "Mean", "Peak", "Dominant stage", "Optimized", "Ratio"],
            &family_rows
        ),
        r.gpus,
        r.mix,
        r.offered_rps,
        r.power_cap_w,
        render_table(
            &["Batch cap", "Goodput", "W/GPU", "Energy", "Good/Wh", "In cap"],
            &frontier_rows
        ),
        r.best_good_per_wh,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;
    use std::sync::OnceLock;

    fn result() -> &'static EnergyResult {
        static RESULT: OnceLock<EnergyResult> = OnceLock::new();
        RESULT.get_or_init(|| run_ctx(&test_ctx()))
    }

    #[test]
    fn covers_every_family_and_cap() {
        let r = result();
        assert_eq!(r.rows.len(), FAMILIES.len());
        for short in ["sd", "mav", "parti", "llama"] {
            assert!(r.row(short).is_some(), "missing {short}");
        }
        assert_eq!(r.frontier.len(), BATCH_CAPS.len());
        for cap in BATCH_CAPS {
            assert!(r.cell(cap).is_some(), "missing cap {cap}");
        }
    }

    #[test]
    fn draws_stay_between_idle_and_tdp() {
        // The acceptance bar: no kernel anywhere draws above TDP, and
        // every pipeline's mean sits strictly between idle and TDP.
        let r = result();
        for row in &r.rows {
            assert!(
                row.peak_kernel_draw_w <= r.tdp_w + 1e-9,
                "{}: peak {} over TDP {}",
                row.model,
                row.peak_kernel_draw_w,
                r.tdp_w
            );
            assert!(
                row.mean_draw_w > r.idle_w && row.mean_draw_w < r.tdp_w,
                "{}: mean draw {} outside ({}, {})",
                row.model,
                row.mean_draw_w,
                r.idle_w,
                r.tdp_w
            );
            assert!(row.energy_j > 0.0 && row.time_s > 0.0);
        }
    }

    #[test]
    fn units_follow_the_modality() {
        let r = result();
        assert_eq!(r.row("sd").unwrap().unit, "J/image");
        assert_eq!(r.row("parti").unwrap().unit, "J/image");
        assert_eq!(r.row("mav").unwrap().unit, "J/video");
        assert_eq!(r.row("llama").unwrap().unit, "J/req");
    }

    #[test]
    fn video_costs_more_energy_than_image() {
        // Table I's latency gap becomes an energy gap: a Make-A-Video
        // request burns well over an order of magnitude more joules
        // than a Stable Diffusion image.
        let r = result();
        let sd = r.row("sd").unwrap().energy_j;
        let mav = r.row("mav").unwrap().energy_j;
        assert!(mav > 10.0 * sd, "mav {mav} J vs sd {sd} J");
    }

    #[test]
    fn optimization_returns_energy() {
        // The same rewrites that cut latency cut joules — and the
        // distilled sampler makes the diffusion ratio the largest.
        let r = result();
        for row in &r.rows {
            assert!(row.energy_ratio > 1.0, "{}: ratio {}", row.model, row.energy_ratio);
        }
        let sd = r.row("sd").unwrap().energy_ratio;
        let llama = r.row("llama").unwrap().energy_ratio;
        assert!(sd > llama, "sd ratio {sd} vs llama {llama}");
    }

    #[test]
    fn frontier_is_metered_and_has_a_feasible_cell()
    {
        let r = result();
        for c in &r.frontier {
            assert!(c.energy_wh > 0.0, "cap {}: no energy metered", c.max_batch);
            assert!(
                c.mean_power_w > r.idle_w && c.mean_power_w < r.tdp_w,
                "cap {}: mean power {} outside (idle, TDP)",
                c.max_batch,
                c.mean_power_w
            );
        }
        assert!(
            r.frontier.iter().any(|c| c.within_cap),
            "no batch cap fits under {} W",
            r.power_cap_w
        );
        assert!(r.best_good_per_wh > 0.0);
        // Batching amortizes energy: some batched cell beats batch-1
        // goodput-per-Wh.
        let b1 = r.cell(1).unwrap().good_per_wh;
        assert!(
            r.best_good_per_wh >= b1,
            "best {} below batch-1 {}",
            r.best_good_per_wh,
            b1
        );
    }

    #[test]
    fn renders() {
        let out = render(result());
        assert!(out.contains("power regimes") && out.contains("Goodput/Wh frontier"));
        assert!(out.contains("J/image") && out.contains("J/video"));
        assert!(out.contains("best within cap"));
    }
}
