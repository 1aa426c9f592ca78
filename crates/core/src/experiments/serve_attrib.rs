//! Extension — latency attribution under load: *where* each
//! scheduler's latency comes from, and how fast the SLO health engine
//! notices when a cell is underprovisioned.
//!
//! The timeline experiment (`serve-timeline`) shows *when* schedulers
//! diverge; this one decomposes *why*. Every (scheduler × utilization)
//! cell runs with per-request phase attribution on — each completion's
//! latency split exactly into queue (GPU busy with other work), hold
//! (batch-formation wait on an idle GPU), and execute seconds — plus
//! the multi-window burn-rate alert engine, so the grid reports both
//! the phase shares and the time-to-first-alert. The per-seed
//! [`PhaseStats`] aggregates are mergeable, so cells pooled on the
//! [`run_cells_with`] worker pool are byte-identical for every `--jobs`
//! value.
//!
//! The expected shape (and what the tests pin): at low utilization the
//! static batcher's latency is hold-dominated (its wait timer withholds
//! launches on an idle GPU) while FIFO's is pure execute; past
//! saturation FIFO's latency collapses into queue time and the burn
//! alert fires within the first fraction of the horizon.

use std::sync::Arc;

use mmg_gpu::DeviceSpec;
use mmg_profiler::report::render_table;
use mmg_profiler::CostMemo;
use mmg_serve::{simulate, ArrivalProcess, PhaseStats, ScenarioCfg, SchedulerKind, SloSpec};
use mmg_telemetry::Registry;

use crate::engine::{run_cells_with, ExecContext};
use serde::{Deserialize, Serialize};

/// GPUs in the simulated cluster (matches `serve-sweep`).
pub const GPUS: usize = 4;
/// Request mix (matches `serve-sweep` and the CLI default).
pub const MIX: &str = "sd:8,parti:2";
/// Offered loads relative to the cluster's *batch-1* capacity: one
/// provisioned cell (head-of-line blocking behind the long Parti
/// requests stays inside the error budget) and one past saturation.
pub const UTILIZATIONS: [f64; 2] = [0.4, 1.25];
/// Deadline as a multiple of batch-1 service time.
pub const SLO_MULTIPLE: f64 = 4.0;
/// On-time objective the burn-rate budget is measured against. The
/// 10% budget absorbs the miss clusters a single long Parti request
/// causes at provisioned load (head-of-line blocking is bursty, not
/// sustained) while sustained saturation still burns through fast.
pub const OBJECTIVE: f64 = 0.90;
/// Simulated seconds of arrivals per seed. Long enough that the
/// burn-rate windows (scaled to the horizon) dwarf the mix's longest
/// single service time — a lone Parti request must not be able to fill
/// an alert window with misses by itself.
pub const DURATION_S: f64 = 960.0;
/// Seeds pooled per cell.
pub const REPLICATIONS: u64 = 2;
/// First seed; replication `k` uses `BASE_SEED + k`.
pub const BASE_SEED: u64 = 42;
/// Batch cap for the dynamic scheduler.
const MAX_BATCH: usize = 16;
/// Static-scheduler target batch and wait timer.
const STATIC_BATCH: usize = 8;
const STATIC_WAIT_S: f64 = 0.25;

/// One (scheduler × utilization) cell, pooled over seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttribCell {
    /// Scheduler name (`fifo` | `static` | `dynamic`).
    pub scheduler: String,
    /// Offered utilization on a batch-1 basis.
    pub utilization: f64,
    /// Offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// Queue-phase share of total latency seconds (exact sums).
    pub queue_share: f64,
    /// Hold-phase share of total latency seconds.
    pub hold_share: f64,
    /// Execute-phase share of total latency seconds.
    pub execute_share: f64,
    /// Pooled 99th-percentile queue-phase seconds.
    pub queue_p99_s: f64,
    /// Pooled 99th-percentile hold-phase seconds.
    pub hold_p99_s: f64,
    /// Pooled 99th-percentile execute-phase seconds.
    pub execute_p99_s: f64,
    /// Seeds whose burn-rate engine fired at least once.
    pub alerted: u64,
    /// Mean sim time of the first alert over the seeds that alerted.
    pub mean_time_to_first_alert_s: Option<f64>,
}

/// Serve-attrib result: the full grid, schedulers outermost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeAttribResult {
    /// Cluster size.
    pub gpus: usize,
    /// Request mix, `model:weight` list.
    pub mix: String,
    /// On-time objective for the burn-rate budget.
    pub objective: f64,
    /// Seeds pooled per cell.
    pub replications: u64,
    /// Grid cells, scheduler-major then utilization order.
    pub cells: Vec<AttribCell>,
}

impl ServeAttribResult {
    /// The cell for a scheduler at an offered utilization.
    #[must_use]
    pub fn cell(&self, scheduler: &str, utilization: f64) -> Option<&AttribCell> {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && (c.utilization - utilization).abs() < 1e-9)
    }
}

/// Runs the grid on `ctx`'s device with one worker: cells run on
/// child registries merged into `ctx.registry`.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> ServeAttribResult {
    run_jobs(&ctx.spec, 1, &ctx.memo, &ctx.registry)
}

/// Runs the (scheduler × utilization × seed) grid on the
/// [`run_cells_with`] worker pool and pools each cell's [`PhaseStats`]
/// and first-alert times in grid order — identical for every `jobs`
/// value.
#[must_use]
pub fn run_jobs(
    spec: &DeviceSpec,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
) -> ServeAttribResult {
    // Profile once up front (same pattern as the replicated sweep).
    let profiled =
        super::serve_common::profile_mix(spec, memo, target, MIX, MAX_BATCH, false);
    let (mix, profile) = (profiled.mix, profiled.profile);
    let mean_base_s = profiled.mean_base_s;

    let schedulers = [
        SchedulerKind::Fifo,
        SchedulerKind::Static { batch: STATIC_BATCH, wait_s: STATIC_WAIT_S },
        SchedulerKind::Dynamic { max_batch: MAX_BATCH },
    ];
    let mut keys: Vec<(SchedulerKind, f64)> = Vec::new();
    for scheduler in schedulers {
        for utilization in UTILIZATIONS {
            keys.push((scheduler, utilization));
        }
    }
    let grid: Vec<((SchedulerKind, f64), u64)> =
        super::serve_common::replicated_grid(&keys, REPLICATIONS, BASE_SEED);

    let seeds: Vec<(PhaseStats, Option<f64>)> =
        run_cells_with(grid.len(), spec, jobs, memo, target, |i, cell_ctx| {
            let ((scheduler, utilization), seed) = grid[i];
            let offered_rps = utilization * GPUS as f64 / mean_base_s;
            let mut cfg = ScenarioCfg::new(
                GPUS,
                mix.clone(),
                ArrivalProcess::poisson(offered_rps),
                scheduler,
                SloSpec::ServiceMultiple(SLO_MULTIPLE),
                DURATION_S,
                seed,
            )
            .with_health(OBJECTIVE);
            cfg.full_records = false;
            let result = simulate(&cfg, &profile, &cell_ctx.registry);
            let phases = result.stats.phases.clone().expect("attribution is on");
            let tta = result
                .health
                .as_ref()
                .expect("an SLO policy is set")
                .time_to_first_alert_s();
            (phases, tta)
        });

    let reps = REPLICATIONS as usize;
    let cells = seeds
        .chunks(reps)
        .zip(keys.iter())
        .map(|(chunk, cell_key)| {
            let &(scheduler, utilization) = cell_key;
            let mut pooled = chunk[0].0.clone();
            for (ph, _) in &chunk[1..] {
                pooled.merge_from(ph);
            }
            let ttas: Vec<f64> = chunk.iter().filter_map(|(_, tta)| *tta).collect();
            let total = pooled.queue_sum_s + pooled.hold_sum_s + pooled.execute_sum_s;
            let share = |s: f64| if total > 0.0 { s / total } else { 0.0 };
            AttribCell {
                scheduler: scheduler.name().to_string(),
                utilization,
                offered_rps: utilization * GPUS as f64 / mean_base_s,
                queue_share: share(pooled.queue_sum_s),
                hold_share: share(pooled.hold_sum_s),
                execute_share: share(pooled.execute_sum_s),
                queue_p99_s: pooled.queue.quantile(0.99).unwrap_or(0.0),
                hold_p99_s: pooled.hold.quantile(0.99).unwrap_or(0.0),
                execute_p99_s: pooled.execute.quantile(0.99).unwrap_or(0.0),
                alerted: ttas.len() as u64,
                mean_time_to_first_alert_s: if ttas.is_empty() {
                    None
                } else {
                    Some(ttas.iter().sum::<f64>() / ttas.len() as f64)
                },
            }
        })
        .collect();

    ServeAttribResult {
        gpus: GPUS,
        mix: MIX.to_string(),
        objective: OBJECTIVE,
        replications: REPLICATIONS,
        cells,
    }
}

/// Renders the attribution grid plus the alert narrative.
#[must_use]
pub fn render(r: &ServeAttribResult) -> String {
    let mut out = format!(
        "Extension — latency attribution ({} GPUs, mix {}, {:.0}% objective, {} seeds)\n\n",
        r.gpus,
        r.mix,
        r.objective * 100.0,
        r.replications,
    );
    let rows: Vec<(String, Vec<String>)> = r
        .cells
        .iter()
        .map(|c| {
            (
                format!("{} @ {:.2}", c.scheduler, c.utilization),
                vec![
                    format!("{:.0}%", c.queue_share * 100.0),
                    format!("{:.0}%", c.hold_share * 100.0),
                    format!("{:.0}%", c.execute_share * 100.0),
                    format!("{:.2} s", c.queue_p99_s),
                    format!("{:.2} s", c.hold_p99_s),
                    format!("{:.2} s", c.execute_p99_s),
                    match c.mean_time_to_first_alert_s {
                        Some(t) => format!("{t:.1} s ({}/{})", c.alerted, r.replications),
                        None => "—".to_string(),
                    },
                ],
            )
        })
        .collect();
    out.push_str(&render_table(
        &["Cell", "Queue", "Hold", "Exec", "Queue p99", "Hold p99", "Exec p99", "First alert"],
        &rows,
    ));
    if let (Some(sat), Some(ok)) = (r.cell("fifo", UTILIZATIONS[1]), r.cell("fifo", UTILIZATIONS[0])) {
        out.push_str(&format!(
            "\nfifo past saturation: queue share {:.0}% (vs {:.0}% provisioned); \
             burn alert after {} of the {DURATION_S:.0}s horizon\n",
            sat.queue_share * 100.0,
            ok.queue_share * 100.0,
            match sat.mean_time_to_first_alert_s {
                Some(t) => format!("{t:.1}s"),
                None => "never".to_string(),
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{test_ctx, test_memo};
    use std::sync::OnceLock;

    fn result() -> &'static ServeAttribResult {
        static RESULT: OnceLock<ServeAttribResult> = OnceLock::new();
        RESULT.get_or_init(|| run_ctx(&test_ctx()))
    }

    #[test]
    fn grid_covers_every_cell_with_conserving_shares() {
        let r = result();
        assert_eq!(r.cells.len(), 3 * UTILIZATIONS.len());
        for c in &r.cells {
            let total = c.queue_share + c.hold_share + c.execute_share;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{} @ {}: shares sum to {total}",
                c.scheduler,
                c.utilization
            );
            for s in [c.queue_share, c.hold_share, c.execute_share] {
                assert!((0.0..=1.0).contains(&s));
            }
            assert!(c.alerted <= r.replications);
        }
    }

    #[test]
    fn phase_mix_tells_the_schedulers_apart() {
        let r = result();
        // Provisioned: static's wait timer makes it hold-heavy; FIFO
        // launches the moment a GPU frees, so it accrues no hold at all.
        let st = r.cell("static", UTILIZATIONS[0]).unwrap();
        let fifo = r.cell("fifo", UTILIZATIONS[0]).unwrap();
        assert!(
            st.hold_share > 10.0 * fifo.hold_share.max(1e-12),
            "static hold {} vs fifo {}",
            st.hold_share,
            fifo.hold_share
        );
        // Past saturation FIFO's latency collapses into queueing.
        let sat = r.cell("fifo", UTILIZATIONS[1]).unwrap();
        assert!(
            sat.queue_share > fifo.queue_share && sat.queue_share > 0.5,
            "saturated fifo queue share {} vs provisioned {}",
            sat.queue_share,
            fifo.queue_share
        );
    }

    #[test]
    fn alerts_fire_exactly_where_the_cluster_is_underprovisioned() {
        let r = result();
        // Provisioned cells stay inside the error budget for every
        // scheduler — the engine must not cry wolf.
        for c in r.cells.iter().filter(|c| c.utilization == UTILIZATIONS[0]) {
            assert_eq!(
                c.alerted, 0,
                "{} @ {} alerted: {:?}",
                c.scheduler, c.utilization, c.mean_time_to_first_alert_s
            );
        }
        // Past saturation every seed of the saturated FIFO cell burns
        // through the budget early in the horizon.
        let sat = r.cell("fifo", UTILIZATIONS[1]).unwrap();
        assert_eq!(sat.alerted, r.replications, "saturated fifo must alert every seed");
        let tta = sat.mean_time_to_first_alert_s.unwrap();
        assert!(
            tta > 0.0 && tta < DURATION_S / 2.0,
            "first alert should land early, got {tta}"
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
        assert!(out.contains("latency attribution"));
        assert!(out.contains("fifo @ 1.25") && out.contains("fifo @ 0.40"));
        assert!(out.contains("First alert"));
    }
}
