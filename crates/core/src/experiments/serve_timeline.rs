//! Extension — serving timeline: utilization and tail latency *over
//! time* for FIFO vs dynamic batching.
//!
//! The scheduler sweep (`serve-sweep`) reports end-of-run aggregates;
//! this experiment shows *when* the schedulers diverge. Both schedulers
//! serve the same mixed SD + Parti stream offered at 1.25× the
//! cluster's batch-1 capacity, and the `mmg-flight` recorder splits the
//! run into fixed windows of simulated time. Each window keeps
//! completion counts, on-time counts, per-GPU busy seconds, a
//! queue-depth integral, and a latency quantile sketch — all
//! [`WindowedSeries`]-mergeable, so the per-seed timelines produced on
//! the [`run_cells_with`] worker pool fold into one pooled timeline
//! that is byte-identical for every `--jobs` value.
//!
//! The expected shape (and what the tests pin): FIFO is past
//! saturation, so its queue depth ratchets upward window after window
//! while p99 climbs without bound; the dynamic batcher amortizes
//! per-request GPU time across the batch and holds a bounded queue.
//! The end-of-run averages hide this — the timeline is where the
//! divergence lives.

use std::sync::Arc;

use mmg_gpu::DeviceSpec;
use mmg_profiler::report::render_table;
use mmg_profiler::CostMemo;
use mmg_serve::{
    simulate_recorded, ArrivalProcess, FlightCfg, ScenarioCfg, SchedulerKind, ServeWindow, SloSpec,
};
use mmg_telemetry::{Registry, WindowedSeries};

use crate::engine::{run_cells_with, ExecContext};
use serde::{Deserialize, Serialize};

/// GPUs in the simulated cluster (matches `serve-sweep`).
pub const GPUS: usize = 4;
/// Request mix (matches `serve-sweep` and the CLI default).
pub const MIX: &str = "sd:8,parti:2";
/// Offered load relative to the cluster's *batch-1* capacity. Above
/// 1.0 the FIFO scheduler is saturated and its backlog ratchets, while
/// the dynamic batcher still has headroom (batching cuts per-request
/// GPU time well below the batch-1 cost) — the regime where the
/// timelines diverge.
pub const UTILIZATION: f64 = 1.25;
/// Deadline as a multiple of batch-1 service time.
pub const SLO_MULTIPLE: f64 = 4.0;
/// Simulated seconds of arrivals per seed.
pub const DURATION_S: f64 = 240.0;
/// Timeline window width, simulated seconds.
pub const WINDOW_S: f64 = 20.0;
/// Seeds pooled per scheduler.
pub const REPLICATIONS: u64 = 2;
/// First seed; replication `k` uses `BASE_SEED + k`.
pub const BASE_SEED: u64 = 42;
/// Batch cap for the dynamic scheduler.
const MAX_BATCH: usize = 16;
/// Window-ring capacity: enough for the horizon plus drain without
/// folding (240 s / 20 s = 12 windows, plus drain slack).
const MAX_WINDOWS: usize = 64;

/// One timeline window of one scheduler's pooled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineWindow {
    /// Window start, simulated seconds.
    pub start_s: f64,
    /// Window end, simulated seconds.
    pub end_s: f64,
    /// Mean completions/s in the window (per seed).
    pub throughput_rps: f64,
    /// Mean on-time completions/s in the window (per seed).
    pub goodput_rps: f64,
    /// SLO attainment among the window's completions (1.0 when none).
    pub slo_attainment: f64,
    /// 99th-percentile latency of the window's completions, seconds
    /// (0 when the window completed nothing).
    pub p99_s: f64,
    /// Mean cluster GPU-time utilization in the window.
    pub utilization: f64,
    /// Time-average requests in the system during the window (per seed).
    pub queue_depth: f64,
}

/// The pooled timeline for one scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerTimeline {
    /// Scheduler name (`fifo` | `dynamic`).
    pub scheduler: String,
    /// Windows in time order.
    pub windows: Vec<TimelineWindow>,
}

impl SchedulerTimeline {
    /// Cumulative on-time completions/s·window over the whole timeline —
    /// the integral the divergence narrative is about.
    #[must_use]
    pub fn total_goodput(&self) -> f64 {
        self.windows.iter().map(|w| w.goodput_rps * (w.end_s - w.start_s)).sum()
    }
}

/// Serve-timeline result: FIFO vs dynamic, pooled over seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeTimelineResult {
    /// Cluster size.
    pub gpus: usize,
    /// Request mix, `model:weight` list.
    pub mix: String,
    /// Offered utilization target.
    pub utilization: f64,
    /// Offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// Window width, simulated seconds.
    pub window_s: f64,
    /// Seeds pooled per scheduler.
    pub replications: u64,
    /// Per-scheduler timelines, [`SchedulerKind::Fifo`] first.
    pub timelines: Vec<SchedulerTimeline>,
}

impl ServeTimelineResult {
    /// The timeline for a scheduler by name.
    #[must_use]
    pub fn timeline(&self, scheduler: &str) -> Option<&SchedulerTimeline> {
        self.timelines.iter().find(|t| t.scheduler == scheduler)
    }
}

fn flatten(series: &WindowedSeries<ServeWindow>, gpus: usize, reps: f64) -> Vec<TimelineWindow> {
    let w_s = series.window_s();
    series
        .iter()
        .map(|(start_s, end_s, win)| TimelineWindow {
            start_s,
            end_s,
            throughput_rps: win.completed as f64 / (w_s * reps),
            goodput_rps: win.on_time as f64 / (w_s * reps),
            slo_attainment: win.slo_attainment(),
            p99_s: win.latency.quantile(0.99).unwrap_or(0.0),
            utilization: win.busy_per_gpu_s.iter().sum::<f64>() / (gpus as f64 * w_s * reps),
            queue_depth: win.depth_time_s / (w_s * reps),
        })
        .collect()
}

/// Runs the timeline on `ctx`'s device with one worker: cells run on
/// child registries merged into `ctx.registry`.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> ServeTimelineResult {
    run_jobs(&ctx.spec, 1, &ctx.memo, &ctx.registry)
}

/// Runs the (scheduler × seed) grid on the [`run_cells_with`] worker
/// pool and merges the per-seed [`WindowedSeries`] timelines in grid
/// order. The result — including every merged sketch — is identical for
/// every `jobs` value.
#[must_use]
pub fn run_jobs(
    spec: &DeviceSpec,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
) -> ServeTimelineResult {
    // Profile once up front (same pattern as the replicated sweep).
    let profiled =
        super::serve_common::profile_mix(spec, memo, target, MIX, MAX_BATCH, false);
    let (mix, profile) = (profiled.mix, profiled.profile);
    let offered_rps = UTILIZATION * GPUS as f64 / profiled.mean_base_s;

    let schedulers = [SchedulerKind::Fifo, SchedulerKind::Dynamic { max_batch: MAX_BATCH }];
    let grid: Vec<(SchedulerKind, u64)> =
        super::serve_common::replicated_grid(&schedulers, REPLICATIONS, BASE_SEED);

    let series: Vec<WindowedSeries<ServeWindow>> =
        run_cells_with(grid.len(), spec, jobs, memo, target, |i, cell_ctx| {
            let (scheduler, seed) = grid[i];
            let mut cfg = ScenarioCfg::new(
                GPUS,
                mix.clone(),
                ArrivalProcess::poisson(offered_rps),
                scheduler,
                SloSpec::ServiceMultiple(SLO_MULTIPLE),
                DURATION_S,
                seed,
            );
            cfg.full_records = false;
            let (_result, flight) = simulate_recorded(
                &cfg,
                &profile,
                &cell_ctx.registry,
                FlightCfg { window_s: WINDOW_S, max_windows: MAX_WINDOWS, ..FlightCfg::default() },
            );
            flight.series
        });

    let reps = REPLICATIONS as usize;
    let timelines = series
        .chunks(reps)
        .zip(schedulers)
        .map(|(chunk, scheduler)| {
            let mut pooled = chunk[0].clone();
            for s in &chunk[1..] {
                pooled.merge_from(s);
            }
            SchedulerTimeline {
                scheduler: scheduler.name().to_string(),
                windows: flatten(&pooled, GPUS, reps as f64),
            }
        })
        .collect();

    ServeTimelineResult {
        gpus: GPUS,
        mix: MIX.to_string(),
        utilization: UTILIZATION,
        offered_rps,
        window_s: WINDOW_S,
        replications: REPLICATIONS,
        timelines,
    }
}

/// Renders one table per scheduler plus the divergence summary.
#[must_use]
pub fn render(r: &ServeTimelineResult) -> String {
    let mut out = format!(
        "Extension — serving timeline ({} GPUs, mix {}, {:.2} offered utilization, {} seeds, \
         {:.0}s windows)\n",
        r.gpus, r.mix, r.utilization, r.replications, r.window_s,
    );
    for t in &r.timelines {
        let rows: Vec<(String, Vec<String>)> = t
            .windows
            .iter()
            .map(|w| {
                (
                    format!("[{:.0}s, {:.0}s)", w.start_s, w.end_s),
                    vec![
                        format!("{:.2}/s", w.throughput_rps),
                        format!("{:.2}/s", w.goodput_rps),
                        format!("{:.0}%", w.slo_attainment * 100.0),
                        format!("{:.2} s", w.p99_s),
                        format!("{:.0}%", w.utilization * 100.0),
                        format!("{:.1}", w.queue_depth),
                    ],
                )
            })
            .collect();
        out.push_str(&format!("\nscheduler: {}\n", t.scheduler));
        out.push_str(&render_table(
            &["Window", "Throughput", "Goodput", "SLO attain", "p99", "GPU busy", "Depth"],
            &rows,
        ));
    }
    if let (Some(fifo), Some(dynamic)) = (r.timeline("fifo"), r.timeline("dynamic")) {
        let (f, d) = (fifo.total_goodput(), dynamic.total_goodput());
        out.push_str(&format!(
            "\ncumulative on-time completions (per seed): fifo {f:.0}, dynamic {d:.0} \
             ({:+.0}%)\n",
            if f > 0.0 { (d / f - 1.0) * 100.0 } else { 0.0 },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{test_ctx, test_memo};
    use std::sync::OnceLock;

    fn result() -> &'static ServeTimelineResult {
        static RESULT: OnceLock<ServeTimelineResult> = OnceLock::new();
        RESULT.get_or_init(|| run_ctx(&test_ctx()))
    }

    #[test]
    fn timeline_covers_the_horizon_for_both_schedulers() {
        let r = result();
        assert_eq!(r.timelines.len(), 2);
        for t in &r.timelines {
            assert!(
                t.windows.len() >= (DURATION_S / WINDOW_S) as usize,
                "{}: {} windows",
                t.scheduler,
                t.windows.len()
            );
            for w in &t.windows {
                assert!(w.goodput_rps <= w.throughput_rps + 1e-12);
                assert!((0.0..=1.0).contains(&w.slo_attainment));
                assert!((0.0..=1.0 + 1e-9).contains(&w.utilization));
                assert!(w.queue_depth >= 0.0);
            }
        }
    }

    #[test]
    fn dynamic_diverges_from_fifo_over_time() {
        let r = result();
        let fifo = r.timeline("fifo").unwrap();
        let dynamic = r.timeline("dynamic").unwrap();
        // The divergence narrative: dynamic wins on cumulative goodput…
        assert!(
            dynamic.total_goodput() > fifo.total_goodput(),
            "dynamic {} vs fifo {}",
            dynamic.total_goodput(),
            fifo.total_goodput()
        );
        // …and FIFO's backlog grows while dynamic's stays bounded: by the
        // last arrival window FIFO's queue depth dwarfs dynamic's.
        let last = (DURATION_S / WINDOW_S) as usize - 1;
        assert!(
            fifo.windows[last].queue_depth > 2.0 * dynamic.windows[last].queue_depth,
            "fifo depth {} vs dynamic {}",
            fifo.windows[last].queue_depth,
            dynamic.windows[last].queue_depth
        );
    }

    #[test]
    fn identical_across_job_counts() {
        let spec = DeviceSpec::a100_80gb();
        let run_with = |jobs: usize| {
            let target = Registry::new();
            let r = run_jobs(&spec, jobs, &test_memo(), &target);
            (r, target.counters_snapshot().values().to_vec())
        };
        let serial = run_with(1);
        for jobs in [2, 4] {
            let parallel = run_with(jobs);
            assert_eq!(serial.0, parallel.0, "results diverged at jobs={jobs}");
            assert_eq!(serial.1, parallel.1, "counters diverged at jobs={jobs}");
        }
    }

    #[test]
    fn renders() {
        let out = render(result());
        assert!(out.contains("serving timeline"));
        assert!(out.contains("scheduler: fifo") && out.contains("scheduler: dynamic"));
        assert!(out.contains("cumulative on-time"));
    }
}
