//! Multi-cluster fleet simulation: regions, autoscaling, $/GPU-hr.
//!
//! The paper's fleet characterization (Fig. 1) is about *capacity*:
//! which SKU serves which model, in which region, at what cost. This
//! module lifts the single-cluster DES of [`crate::cluster`] to a fleet
//! of clusters, each a homogeneous pool of one GPU SKU serving one
//! region's slice of a global arrival stream.
//!
//! # The deterministic arrival split
//!
//! The fleet's global router assigns each region a weight; region `r`
//! receives a Poisson/diurnal stream at `rate · wᵣ/Σw`, phase-shifted
//! by the region's diurnal offset. By the superposition theorem the
//! union of the per-region streams *is* the fleet's global arrival
//! process: a deterministic k-way merge of the region streams (ties
//! broken by region index) is that union, and a test checks that the
//! per-region streams partition it bit-for-bit — counts, timestamps,
//! and model draws. Each region stream is a [`RegionStream`], the type
//! every serving engine draws its arrivals from. The split is what lets
//! the fleet shard its DES by cluster across a worker pool and still
//! merge byte-identical results for any `--jobs`.
//!
//! # Windows, autoscaling, cost
//!
//! The horizon is cut into fixed evaluation windows. Each cluster runs
//! its windows in sequence against its (continuous) region stream; the
//! [`AutoscalerPolicy`] reads each window's utilization and resizes the
//! cluster between windows — scale-ups draw instantly from a billed
//! warm pool and otherwise arrive `lag` windows later; optional spot
//! churn deterministically reclaims capacity. A $/GPU-hr price per
//! cluster rolls provisioned GPU-hours up into $/1k-images.
//!
//! # The fleet fast lane
//!
//! For FIFO scheduling with round-robin routing the per-GPU sample path
//! needs no event queue at all: round-robin preserves arrival order per
//! GPU, FIFO serves one request per batch, so each request's start is
//! `max(arrival, gpu_free)` — a single pass over the arrival stream at
//! tens of millions of requests per second: the committed single-core
//! snapshot read ~24M simulated requests/s (`BENCH_2026-08-08.json`),
//! and mmgbench's `fleet-fifo`, the same 100M-request fleet sharded
//! over 2 workers, reads a median of 61.6M on a 2-vCPU Xeon VM, most
//! of it spent drawing arrivals (one `ln` each). The fast lane reproduces
//! the general DES sample path exactly (same start/finish arithmetic;
//! an equivalence test pins it) and carries GPU free-times across
//! window boundaries, so it is a *continuous* DES per cluster. Other
//! scheduler/router combinations run the cluster DES once per window on
//! the same region stream (GPUs start each window idle — a documented
//! stationary-within-window approximation).

use mmg_telemetry::{QuantileSketch, Registry, WindowValue, WindowedSeries};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cluster::{RouterKind, ScenarioCfg, SchedulerKind, SloSpec};
use crate::profile::ServiceProfile;
use crate::workload::{check_expected_arrivals, ArrivalProcess, RegionStream, RequestMix};

/// Rank-error bound of the fleet-level latency sketches. Coarser than
/// the per-cluster [`crate::LATENCY_SKETCH_EPS`]: fleet runs push 10⁸+
/// requests, where a 0.5% rank bound keeps the sketch small and the
/// observe path cheap while still resolving p99 to ~0.5% of rank.
pub const FLEET_SKETCH_EPS: f64 = 0.005;

/// Electricity price used for the report's $-with-energy column,
/// dollars per kilowatt-hour. A module constant rather than a
/// [`ClusterCfg`] field: the paper's cost story is dominated by the
/// GPU-hour price, and a flat industrial-rate figure keeps the energy
/// adjustment visible without threading another knob through every
/// fleet constructor.
pub const PRICE_PER_KWH: f64 = 0.11;

/// Sketch subsampling stride of the fast lane: every `K`-th completion
/// (systematically, phase carried across windows) lands in the latency
/// sketch. Counters — arrivals, completions, deadline hits, busy time —
/// are always exact; only quantiles are estimated, on a deterministic
/// 1-in-8 systematic sample of an ergodic stream (a 100M-request run
/// still puts 12M+ points in the sketch). This keeps the GK fold off
/// the fast lane's critical path. The general lane sketches every
/// completion.
const FAST_LANE_SKETCH_EVERY: u64 = 8;

/// Salt mixed into per-region arrival-time RNG seeds.
const SALT_ARRIVAL: u64 = 0x9E6B_02B1_5C8D_71A3;
/// Salt mixed into per-region model-mix RNG seeds.
const SALT_MIX: u64 = 0x243F_6A88_85A3_08D3;
/// Salt mixed into per-cluster spot-churn RNG seeds.
const SALT_CHURN: u64 = 0xB792_1E3B_70C1_4E85;

/// SplitMix64-style seed derivation: decorrelates per-region streams
/// drawn from one fleet seed.
fn derive_seed(seed: u64, region: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt ^ region.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cluster of the fleet: a homogeneous pool of one GPU SKU serving
/// one region.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCfg {
    /// Display name (also the `cluster` metric label), e.g. `"us-east"`.
    pub name: String,
    /// GPU SKU key — resolved by the caller to a [`ServiceProfile`]
    /// built from the profiler on that SKU's `DeviceSpec`.
    pub sku: String,
    /// Initially provisioned GPUs.
    pub gpus: usize,
    /// On-demand price per GPU-hour, dollars.
    pub price_per_gpu_hr: f64,
    /// Weight of this region in the global arrival split (share is
    /// `weight / Σ weights`).
    pub weight: f64,
    /// Diurnal phase offset of the region, seconds — regions peak at
    /// different wall-clock offsets.
    pub phase_s: f64,
}

/// Deterministic spot-capacity churn: each window, with probability
/// `prob`, the provider reclaims `frac` of the cluster's GPUs (at least
/// one); reclaimed capacity re-arrives after the policy's scale-up lag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotChurn {
    /// Per-window reclaim probability in `[0, 1]`.
    pub prob: f64,
    /// Fraction of provisioned GPUs reclaimed per event, in `[0, 1]`.
    pub frac: f64,
}

/// How a cluster is resized between evaluation windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutoscalerPolicy {
    /// Never resize: the cluster keeps its configured GPU count.
    Fixed,
    /// Reactive scaling on measured window utilization: the desired
    /// size is `⌈gpus · util / target_util⌉` clamped to
    /// `[min_gpus, max_gpus]`. Scale-downs apply next window; scale-ups
    /// draw instantly (next window) from a billed warm pool of
    /// `warm_pool` GPUs and otherwise arrive `lag_windows` later (the
    /// warm pool itself replenishes with the same lag).
    Reactive {
        /// Utilization the policy steers toward, in `(0, 1]`.
        target_util: f64,
        /// Lower bound on provisioned GPUs.
        min_gpus: usize,
        /// Upper bound on provisioned GPUs.
        max_gpus: usize,
        /// Cold-start lag, windows, for scale-ups beyond the warm pool.
        lag_windows: usize,
        /// Pre-provisioned (billed, idle) GPUs available for instant
        /// scale-up.
        warm_pool: usize,
        /// Optional spot-capacity churn.
        churn: Option<SpotChurn>,
    },
}

impl AutoscalerPolicy {
    /// Policy name as printed in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AutoscalerPolicy::Fixed => "fixed",
            AutoscalerPolicy::Reactive { churn: None, .. } => "reactive",
            AutoscalerPolicy::Reactive { churn: Some(_), .. } => "reactive+spot",
        }
    }

    /// Checks the reactive policy's bounds, returning a description of
    /// the first problem: a `max_gpus` below `max(min_gpus, 1)` (the
    /// clamp the scaler sizes a cluster with would panic), a
    /// `target_util` outside `(0, 1]`, or a churn `prob` or `frac`
    /// outside `[0, 1]`. NaN fails each range.
    fn check(&self) -> Result<(), String> {
        let AutoscalerPolicy::Reactive { target_util, min_gpus, max_gpus, churn, .. } = *self
        else {
            return Ok(());
        };
        let floor = min_gpus.max(1);
        if max_gpus < floor {
            return Err(format!(
                "autoscaler max_gpus {max_gpus} is below max(min_gpus, 1) = {floor}"
            ));
        }
        if !(target_util > 0.0 && target_util <= 1.0) {
            return Err(format!("autoscaler target_util must be in (0, 1], got {target_util}"));
        }
        if let Some(SpotChurn { prob, frac }) = churn {
            for (name, value) in [("prob", prob), ("frac", frac)] {
                if !(0.0..=1.0).contains(&value) {
                    return Err(format!("spot churn {name} must be in [0, 1], got {value}"));
                }
            }
        }
        Ok(())
    }
}

/// A complete fleet scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCfg {
    /// The clusters, one region each.
    pub clusters: Vec<ClusterCfg>,
    /// Request model mix (shared fleet-wide; per-SKU service curves
    /// make the same mix cost different amounts per cluster).
    pub mix: RequestMix,
    /// The *global* arrival process. Its rate is the fleet-wide mean;
    /// each region receives the weight-scaled rate at its own diurnal
    /// phase. Bursty (MMPP) arrivals are not splittable by weight and
    /// are rejected by [`FleetCfg::validate`].
    pub arrival: ArrivalProcess,
    /// Per-GPU scheduler used by every cluster.
    pub scheduler: SchedulerKind,
    /// Request router used within every cluster.
    pub router: RouterKind,
    /// Deadline specification.
    pub slo: SloSpec,
    /// Evaluation-window width, seconds of simulated time.
    pub window_s: f64,
    /// Number of evaluation windows (horizon = `windows · window_s`).
    pub windows: usize,
    /// The autoscaler applied to every cluster.
    pub autoscaler: AutoscalerPolicy,
    /// Fleet seed; per-region streams derive decorrelated seeds from it.
    pub seed: u64,
}

impl FleetCfg {
    /// Total region weight.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.clusters.iter().map(|c| c.weight).sum()
    }

    /// Simulated horizon, seconds.
    #[must_use]
    pub fn horizon_s(&self) -> f64 {
        self.window_s * self.windows as f64
    }

    /// The arrival process region `idx` sees: the global process at the
    /// region's weight share of the rate, shifted to the region's
    /// diurnal phase.
    #[must_use]
    pub fn region_process(&self, idx: usize) -> ArrivalProcess {
        let share = self.clusters[idx].weight / self.total_weight();
        self.arrival
            .with_rate(self.arrival.mean_rate_rps() * share)
            .with_phase(self.clusters[idx].phase_s)
    }

    /// Checks the configuration, returning a description of the first
    /// problem found. A fleet expecting more than
    /// [`crate::MAX_EXPECTED_ARRIVALS`] arrivals over its horizon is
    /// refused, and so is one whose region processes
    /// ([`FleetCfg::region_process`]) an [`crate::ArrivalGen`] could not
    /// sample: an infinite weight leaves every region a NaN or zero rate,
    /// and a non-finite phase breaks a diurnal region. A reactive
    /// autoscaler is refused when its bounds are out of range (see
    /// [`AutoscalerPolicy::Reactive`]'s fields).
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters.is_empty() {
            return Err("fleet needs at least one cluster".into());
        }
        if matches!(self.arrival, ArrivalProcess::Bursty { .. }) {
            return Err(
                "bursty (MMPP) arrivals carry phase state that a weighted split cannot \
                 partition; use poisson or diurnal for fleet scenarios"
                    .into(),
            );
        }
        for c in &self.clusters {
            if c.gpus == 0 {
                return Err(format!("cluster {} has no GPUs", c.name));
            }
            // Spelled to reject NaN too: a NaN weight or price fails
            // every comparison, so demand the positive/non-negative
            // case explicitly.
            if c.weight.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("cluster {} needs a positive weight", c.name));
            }
            if c.price_per_gpu_hr.partial_cmp(&0.0) == Some(std::cmp::Ordering::Less)
                || c.price_per_gpu_hr.is_nan()
            {
                return Err(format!("cluster {} has a negative price", c.name));
            }
        }
        if self.window_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || self.windows == 0
        {
            return Err("fleet needs a positive window and at least one window".into());
        }
        self.autoscaler.check()?;
        let lower = "--util, --rate, --duration-s or --requests";
        check_expected_arrivals(self.arrival, self.horizon_s(), None, lower)?;
        self.clusters.iter().enumerate().try_for_each(|(idx, c)| {
            check_expected_arrivals(self.region_process(idx), self.horizon_s(), None, lower)
                .map_err(|e| format!("cluster {}: {e}", c.name))
        })
    }
}

impl RegionStream {
    /// The stream of region `idx` of `fleet`: the region's process over
    /// the fleet's mix, seeded from the fleet seed, with no request cap.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (and on invalid processes, as
    /// [`crate::ArrivalGen::new`] does).
    #[must_use]
    pub fn new(fleet: &FleetCfg, idx: usize) -> Self {
        let r = idx as u64;
        RegionStream::seeded(
            fleet.region_process(idx),
            fleet.mix.clone(),
            derive_seed(fleet.seed, r, SALT_ARRIVAL),
            derive_seed(fleet.seed, r, SALT_MIX),
            None,
        )
    }
}

/// Per-window fleet aggregates; summed across clusters via
/// [`WindowValue::merge`] into the fleet-level
/// [`WindowedSeries`] timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetWindow {
    /// Requests that arrived in the window.
    pub arrivals: u64,
    /// Requests completed (dispatch-window attribution: a request
    /// counts in the window it arrived in).
    pub completed: u64,
    /// Completions that met their deadline.
    pub on_time: u64,
    /// GPU busy-seconds credited to the window.
    pub busy_s: f64,
    /// Provisioned GPU-seconds (serving + warm pool) in the window.
    pub gpu_s: f64,
    /// Dollars billed for the window.
    pub cost_usd: f64,
    /// Modeled energy drawn in the window, joules: busy spans at the
    /// per-model draw plus billed-but-idle capacity at the SKU's idle
    /// draw. Stays 0 when the cluster's profile is unmetered.
    pub energy_j: f64,
}

impl WindowValue for FleetWindow {
    fn merge(&mut self, other: &Self) {
        self.arrivals += other.arrivals;
        self.completed += other.completed;
        self.on_time += other.on_time;
        self.busy_s += other.busy_s;
        self.gpu_s += other.gpu_s;
        self.cost_usd += other.cost_usd;
        self.energy_j += other.energy_j;
    }
}

/// Everything one cluster's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// Cluster name (from [`ClusterCfg::name`]).
    pub name: String,
    /// GPU SKU key.
    pub sku: String,
    /// Requests that arrived over the horizon.
    pub arrivals: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions that met their deadline.
    pub on_time: u64,
    /// Total GPU busy-seconds.
    pub busy_s: f64,
    /// Provisioned GPU-hours billed (serving + warm pool).
    pub gpu_hours: f64,
    /// Dollars billed.
    pub cost_usd: f64,
    /// Total modeled energy over the horizon, watt-hours — busy spans
    /// at the per-model draw plus billed idle capacity (serving gaps
    /// and the warm pool) at the SKU's idle draw. 0 when the cluster's
    /// [`ServiceProfile`] carries no power model.
    pub energy_wh: f64,
    /// Fewest GPUs provisioned in any window.
    pub min_gpus: usize,
    /// Most GPUs provisioned in any window.
    pub max_gpus: usize,
    /// End-to-end latency sketch (rank error [`FLEET_SKETCH_EPS`]).
    /// The fifo+round-robin fast lane fills it from a deterministic
    /// 1-in-8 systematic sample of completions (counters stay exact);
    /// the general lane sketches every completion.
    pub latency: QuantileSketch,
    /// Per-window timeline (base width = the fleet's window).
    pub series: WindowedSeries<FleetWindow>,
}

impl ClusterResult {
    /// Fraction of completions that met their deadline (1 when idle).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            return 1.0;
        }
        self.on_time as f64 / self.completed as f64
    }

    /// Busy GPU-seconds over provisioned GPU-seconds.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let provisioned_s = self.gpu_hours * 3600.0;
        if provisioned_s <= 0.0 {
            return 0.0;
        }
        self.busy_s / provisioned_s
    }

    /// Dollars per thousand completed requests (images, for the TTI
    /// mixes the fleet serves).
    #[must_use]
    pub fn cost_per_1k(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.cost_usd * 1000.0 / self.completed as f64
    }

    /// Watt-hours per thousand on-time (SLO-good) completions — the
    /// energy price of goodput, 0 when nothing finished on time.
    #[must_use]
    pub fn wh_per_1k_good(&self) -> f64 {
        if self.on_time == 0 {
            return 0.0;
        }
        self.energy_wh * 1000.0 / self.on_time as f64
    }

    /// Dollars billed plus the electricity bill at [`PRICE_PER_KWH`].
    #[must_use]
    pub fn cost_with_energy_usd(&self) -> f64 {
        self.cost_usd + self.energy_wh / 1000.0 * PRICE_PER_KWH
    }
}

/// The whole fleet's results: per-cluster outcomes plus merged totals.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Per-cluster results, in fleet declaration order.
    pub clusters: Vec<ClusterResult>,
    /// The fleet timeline: every cluster's window series merged.
    pub series: WindowedSeries<FleetWindow>,
}

impl FleetResult {
    /// Assembles the fleet result from per-cluster runs (cheap; merges
    /// the window series in declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty.
    #[must_use]
    pub fn from_clusters(clusters: Vec<ClusterResult>) -> Self {
        assert!(!clusters.is_empty(), "fleet result needs at least one cluster");
        let series = WindowedSeries::merged(clusters.iter().map(|c| &c.series))
            .expect("at least one cluster");
        FleetResult { clusters, series }
    }

    /// Total arrivals fleet-wide.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.clusters.iter().map(|c| c.arrivals).sum()
    }

    /// Total completions fleet-wide.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.clusters.iter().map(|c| c.completed).sum()
    }

    /// Fleet-wide SLO attainment (1 when idle).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            return 1.0;
        }
        self.clusters.iter().map(|c| c.on_time).sum::<u64>() as f64 / completed as f64
    }

    /// Total dollars billed fleet-wide.
    #[must_use]
    pub fn cost_usd(&self) -> f64 {
        self.clusters.iter().map(|c| c.cost_usd).sum()
    }

    /// Total provisioned GPU-hours fleet-wide.
    #[must_use]
    pub fn gpu_hours(&self) -> f64 {
        self.clusters.iter().map(|c| c.gpu_hours).sum()
    }

    /// Fleet-wide dollars per thousand completed requests.
    #[must_use]
    pub fn cost_per_1k(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            return 0.0;
        }
        self.cost_usd() * 1000.0 / completed as f64
    }

    /// Total modeled energy fleet-wide, watt-hours.
    #[must_use]
    pub fn energy_wh(&self) -> f64 {
        self.clusters.iter().map(|c| c.energy_wh).sum()
    }

    /// Fleet-wide watt-hours per thousand on-time completions.
    #[must_use]
    pub fn wh_per_1k_good(&self) -> f64 {
        let on_time: u64 = self.clusters.iter().map(|c| c.on_time).sum();
        if on_time == 0 {
            return 0.0;
        }
        self.energy_wh() * 1000.0 / on_time as f64
    }

    /// Fleet-wide dollars including electricity at [`PRICE_PER_KWH`].
    #[must_use]
    pub fn cost_with_energy_usd(&self) -> f64 {
        self.cost_usd() + self.energy_wh() / 1000.0 * PRICE_PER_KWH
    }
}

/// A rendered fleet report: the deterministic text the `repro fleet`
/// subcommand prints (and `cli_golden.rs` compares across `--jobs`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    text: String,
}

impl FleetReport {
    /// Renders `result` for `cfg`.
    #[must_use]
    pub fn new(cfg: &FleetCfg, result: &FleetResult) -> Self {
        let mut out = String::new();
        let gpus_lo: usize = result.clusters.iter().map(|c| c.min_gpus).sum();
        let gpus_hi: usize = result.clusters.iter().map(|c| c.max_gpus).sum();
        let gpus = if gpus_lo == gpus_hi {
            format!("{gpus_lo}")
        } else {
            format!("{gpus_lo}-{gpus_hi}")
        };
        out.push_str(&format!(
            "fleet: {} clusters · {} GPUs · policy {} · scheduler {} · {} windows × {:.0} s\n\n",
            result.clusters.len(),
            gpus,
            cfg.autoscaler.name(),
            cfg.scheduler.name(),
            cfg.windows,
            cfg.window_s,
        ));
        out.push_str(
            "+-----------+-----------+---------+------------+--------+-------+----------+----------+----------+----------+----------+----------+----------+\n\
             | cluster   | sku       |    gpus |   arrivals |   slo% |  util |  gpu-hrs |      $   | $/1k-img |       Wh | Wh/1k-ok | $+energy |  p99 (s) |\n\
             +-----------+-----------+---------+------------+--------+-------+----------+----------+----------+----------+----------+----------+----------+\n",
        );
        for c in &result.clusters {
            let gpus = if c.min_gpus == c.max_gpus {
                format!("{}", c.min_gpus)
            } else {
                format!("{}-{}", c.min_gpus, c.max_gpus)
            };
            let p99 = c.latency.quantile(0.99).unwrap_or(0.0);
            out.push_str(&format!(
                "| {:<9} | {:<9} | {:>7} | {:>10} | {:>5.1}% | {:>5.3} | {:>8.1} | {:>8.2} | {:>8.3} | {:>8.1} | {:>8.3} | {:>8.2} | {:>8.3} |\n",
                c.name,
                c.sku,
                gpus,
                c.arrivals,
                100.0 * c.slo_attainment(),
                c.utilization(),
                c.gpu_hours,
                c.cost_usd,
                c.cost_per_1k(),
                c.energy_wh,
                c.wh_per_1k_good(),
                c.cost_with_energy_usd(),
                p99,
            ));
        }
        out.push_str(
            "+-----------+-----------+---------+------------+--------+-------+----------+----------+----------+----------+----------+----------+----------+\n",
        );
        out.push_str(&format!(
            "fleet totals: {} requests · SLO attainment {:.4} · {:.1} GPU-hrs · ${:.2} · ${:.4}/1k-images · {:.1} Wh ({:.3} Wh/1k-good) · ${:.2} with energy\n",
            result.arrivals(),
            result.slo_attainment(),
            result.gpu_hours(),
            result.cost_usd(),
            result.cost_per_1k(),
            result.energy_wh(),
            result.wh_per_1k_good(),
            result.cost_with_energy_usd(),
        ));

        // Timeline: one row per window of the merged fleet series. The
        // series holds at most 256 windows (past that it folds adjacent
        // windows together), so the table stays bounded for any horizon.
        out.push_str("\nfleet timeline (merged across clusters):\n");
        out.push_str(
            "+--------------------+------------+------------+--------+-------+----------+\n\
             | window             |   arrivals |  completed |   slo% |  util | W/gpu    |\n\
             +--------------------+------------+------------+--------+-------+----------+\n",
        );
        for (t0, t1, w) in result.series.iter() {
            let slo = if w.completed == 0 {
                100.0
            } else {
                100.0 * w.on_time as f64 / w.completed as f64
            };
            let util = if w.gpu_s > 0.0 { w.busy_s / w.gpu_s } else { 0.0 };
            // Mean draw per provisioned GPU over the window: J over
            // billed GPU-seconds. 0 for unmetered fleets.
            let watts = if w.gpu_s > 0.0 { w.energy_j / w.gpu_s } else { 0.0 };
            out.push_str(&format!(
                "| [{:>7.0}, {:>7.0}) | {:>10} | {:>10} | {:>5.1}% | {:>5.3} | {:>8.1} |\n",
                t0, t1, w.arrivals, w.completed, slo, util, watts,
            ));
        }
        out.push_str("+--------------------+------------+------------+--------+-------+----------+\n");
        FleetReport { text: out }
    }

    /// The rendered report text.
    #[must_use]
    pub fn render(&self) -> &str {
        &self.text
    }
}

/// Pending capacity change: the window it lands in and the (signed)
/// GPU delta for the serving pool, or a warm-pool refill.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Serve(i64),
    Warm(u64),
}

/// Autoscaler bookkeeping for one cluster.
struct Scaler {
    gpus: usize,
    warm: usize,
    pending: Vec<(usize, Pending)>,
    churn_rng: StdRng,
    unit: Uniform<f64>,
    min_seen: usize,
    max_seen: usize,
}

impl Scaler {
    fn new(fleet: &FleetCfg, idx: usize) -> Self {
        let warm = match fleet.autoscaler {
            AutoscalerPolicy::Reactive { warm_pool, .. } => warm_pool,
            AutoscalerPolicy::Fixed => 0,
        };
        let gpus = fleet.clusters[idx].gpus;
        Scaler {
            gpus,
            warm,
            pending: Vec::new(),
            churn_rng: StdRng::seed_from_u64(derive_seed(
                fleet.seed,
                idx as u64,
                SALT_CHURN,
            )),
            unit: Uniform::new(0.0, 1.0),
            min_seen: gpus,
            max_seen: gpus,
        }
    }

    /// Applies pending capacity changes and spot churn at the start of
    /// window `w`; returns the GPU count to serve the window with.
    fn begin_window(&mut self, policy: &AutoscalerPolicy, w: usize) -> usize {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 == w {
                match self.pending.swap_remove(i).1 {
                    Pending::Serve(d) => {
                        self.gpus = (self.gpus as i64 + d).max(1) as usize;
                    }
                    Pending::Warm(n) => self.warm += n as usize,
                }
            } else {
                i += 1;
            }
        }
        if let AutoscalerPolicy::Reactive { lag_windows, churn: Some(churn), .. } = policy {
            // One draw per window regardless of outcome keeps the churn
            // RNG stream aligned for any capacity trajectory.
            let u: f64 = self.unit.sample(&mut self.churn_rng);
            if u < churn.prob && self.gpus > 1 {
                let lost = ((self.gpus as f64 * churn.frac) as usize).clamp(1, self.gpus - 1);
                self.gpus -= lost;
                // Reclaimed capacity is re-acquired on-demand: it comes
                // back after the cold-start lag.
                self.pending.push((w + 1 + lag_windows, Pending::Serve(lost as i64)));
            }
        }
        self.min_seen = self.min_seen.min(self.gpus);
        self.max_seen = self.max_seen.max(self.gpus);
        self.gpus
    }

    /// Feeds the window's measured utilization to the policy and queues
    /// the resulting capacity changes.
    fn end_window(&mut self, policy: &AutoscalerPolicy, w: usize, util: f64) {
        let AutoscalerPolicy::Reactive {
            target_util,
            min_gpus,
            max_gpus,
            lag_windows,
            ..
        } = *policy
        else {
            return;
        };
        let desired = ((self.gpus as f64 * util / target_util).ceil() as i64)
            .clamp(min_gpus.max(1) as i64, max_gpus as i64);
        // Measure the delta against capacity already committed, so a
        // sustained surge is not re-ordered every window.
        let committed: i64 = self.gpus as i64
            + self
                .pending
                .iter()
                .map(|(_, p)| match p {
                    Pending::Serve(d) => *d,
                    Pending::Warm(_) => 0,
                })
                .sum::<i64>();
        let delta = desired - committed;
        if delta > 0 {
            let from_warm = (delta as usize).min(self.warm);
            if from_warm > 0 {
                self.warm -= from_warm;
                self.pending.push((w + 1, Pending::Serve(from_warm as i64)));
                // The pool replenishes with the same cold-start lag.
                self.pending.push((w + 1 + lag_windows, Pending::Warm(from_warm as u64)));
            }
            let cold = delta - from_warm as i64;
            if cold > 0 {
                self.pending.push((w + 1 + lag_windows.max(1), Pending::Serve(cold)));
            }
        } else if delta < 0 {
            // Scale-downs are immediate (next window); released GPUs
            // simply stop billing.
            self.pending.push((w + 1, Pending::Serve(delta)));
        }
    }
}

/// Per-model constants the fast lane resolves once.
struct FastModel {
    service_s: f64,
    slo_delta_s: f64,
    /// Energy one request costs at the model's modeled draw, joules
    /// (`service_s · draw_w`; 0 for unmetered curves, so the fast
    /// lane's accumulation is branch-free either way).
    energy_j: f64,
}

/// Runs cluster `idx` of `fleet` over the whole horizon against its
/// region's arrival stream, and records summary metrics into
/// `registry` (`fleet_requests_total`, `fleet_completed_total`,
/// `fleet_slo_miss_total`, `fleet_cost_usd` — all labeled by cluster).
///
/// This is the unit of work the fleet experiments shard across the
/// worker pool: one call per cluster, results merged in declaration
/// order, byte-identical for any job count.
///
/// # Panics
///
/// Panics on an invalid fleet config ([`FleetCfg::validate`]) or a
/// profile missing a curve for a mix model.
#[must_use]
pub fn run_cluster(
    fleet: &FleetCfg,
    idx: usize,
    profile: &ServiceProfile,
    registry: &Registry,
) -> ClusterResult {
    if let Err(e) = fleet.validate() {
        panic!("invalid fleet config: {e}");
    }
    let cluster = &fleet.clusters[idx];
    let mut stream = RegionStream::new(fleet, idx);
    let mut scaler = Scaler::new(fleet, idx);
    let mut series: WindowedSeries<FleetWindow> =
        WindowedSeries::new(fleet.window_s, fleet.windows.clamp(2, 256));
    // Large observe buffer: the fold over the tuple summary happens
    // every 4096 observations instead of every 100, which keeps the
    // sketch off the fast lane's critical path (same eps bound).
    let mut latency = QuantileSketch::with_buffer_cap(FLEET_SKETCH_EPS, 4096);

    let fast = fleet.scheduler == SchedulerKind::Fifo && fleet.router == RouterKind::RoundRobin;

    // Fast-lane cross-window state: per-GPU next-free instants survive
    // window boundaries, so the lane is a continuous DES. `lat_phase`
    // carries the systematic-sample phase across windows.
    let mut free_t: Vec<f64> = Vec::new();
    let mut rr_next: usize = 0;
    let mut lat_phase: u64 = 0;

    let models: Vec<FastModel> = fleet
        .mix
        .entries()
        .iter()
        .map(|(m, _)| {
            let curve = profile.curve(*m).unwrap_or_else(|| panic!("no service curve for {m}"));
            let service_s = curve.batch_s(1);
            FastModel {
                service_s,
                slo_delta_s: fleet.slo.slo_s(curve),
                energy_j: service_s * curve.draw_w,
            }
        })
        .collect();
    // Idle draw charged to billed-but-idle capacity. Zeroed when the
    // profile carries no power model so every energy figure stays
    // exactly 0.0 and unmetered reports are unchanged.
    let idle_w = if profile.has_power() { profile.idle_w } else { 0.0 };

    let mut arrivals = 0u64;
    let mut completed = 0u64;
    let mut on_time = 0u64;
    let mut busy_total_s = 0.0f64;
    let mut gpu_hours = 0.0f64;
    let mut cost_usd = 0.0f64;
    let mut energy_j_total = 0.0f64;

    for w in 0..fleet.windows {
        let gpus = scaler.begin_window(&fleet.autoscaler, w);
        let w0 = w as f64 * fleet.window_s;
        let w1 = w0 + fleet.window_s;

        let mut win = FleetWindow::default();
        if fast {
            // New capacity comes up idle at the window start; removed
            // GPUs keep (and finish) work already dispatched to them.
            if free_t.len() < gpus {
                free_t.resize(gpus, w0);
            } else {
                free_t.truncate(gpus);
            }
            if rr_next >= gpus {
                rr_next = 0;
            }
            // Window totals accumulate in locals (folded into `win`
            // after the loop) so the hot loop touches only registers.
            let mut n = 0u64;
            let mut late = 0u64;
            let mut busy = 0.0f64;
            let mut busy_j = 0.0f64;
            while let Some((t, m)) = stream.next_before(w1) {
                let g = rr_next;
                rr_next += 1;
                if rr_next == gpus {
                    rr_next = 0;
                }
                let fm = &models[m];
                let free = free_t[g];
                let start = if t > free { t } else { free };
                let finish = start + fm.service_s;
                free_t[g] = finish;
                busy += fm.service_s;
                busy_j += fm.energy_j;
                let lat = finish - t;
                late += u64::from(lat > fm.slo_delta_s);
                n += 1;
                // Systematic 1-in-K sample into the sketch: counters
                // stay exact; quantiles are estimated on the sampled
                // sub-stream (see the module docs).
                if n.wrapping_add(lat_phase).is_multiple_of(FAST_LANE_SKETCH_EVERY) {
                    latency.observe(lat);
                }
            }
            lat_phase = lat_phase.wrapping_add(n);
            win.arrivals = n;
            win.completed = n;
            win.on_time = n - late;
            win.busy_s = busy;
            win.energy_j = busy_j;
        } else {
            // General lane: one bounded-horizon DES per window on the
            // region stream. GPUs start the window idle — the
            // stationary-within-window approximation (window ≫ service
            // time keeps the boundary error small).
            let mut cfg = ScenarioCfg::new(
                gpus,
                fleet.mix.clone(),
                fleet.region_process(idx),
                fleet.scheduler,
                fleet.slo,
                fleet.window_s,
                fleet.seed,
            );
            cfg.router = fleet.router;
            cfg.full_records = false;
            let (res, _) =
                crate::cluster::run(&cfg, profile, registry, None, &mut stream, w0, None);
            win.arrivals = res.arrivals;
            win.completed = res.stats.completed;
            win.on_time = res.stats.on_time;
            win.busy_s = res.busy_s.iter().sum();
            win.energy_j = res
                .energy
                .as_ref()
                .map(|e| e.busy_energy_j.iter().sum())
                .unwrap_or(0.0);
            latency.merge(&res.stats.latency_sketch);
        }

        let billed = gpus + scaler.warm;
        win.gpu_s = billed as f64 * fleet.window_s;
        let window_hours = win.gpu_s / 3600.0;
        win.cost_usd = window_hours * cluster.price_per_gpu_hr;
        // Billed capacity not running batches — serving gaps plus the
        // warm pool — idles at the SKU's idle draw.
        win.energy_j += (win.gpu_s - win.busy_s).max(0.0) * idle_w;

        arrivals += win.arrivals;
        completed += win.completed;
        on_time += win.on_time;
        busy_total_s += win.busy_s;
        gpu_hours += window_hours;
        cost_usd += win.cost_usd;
        energy_j_total += win.energy_j;

        let util = win.busy_s / (gpus as f64 * fleet.window_s);
        // Filed at the window's midpoint: `w0 / window_s` can round to
        // just below `w`, which would land the totals a row early.
        series.observe_at(w0 + 0.5 * fleet.window_s, |v| v.merge(&win));
        scaler.end_window(&fleet.autoscaler, w, util);
    }
    latency.flush();

    let labels = [("cluster", cluster.name.as_str())];
    registry.counter_with("fleet_requests_total", &labels).add(arrivals);
    registry.counter_with("fleet_completed_total", &labels).add(completed);
    registry.counter_with("fleet_slo_miss_total", &labels).add(completed - on_time);
    registry.gauge_with("fleet_gpu_hours", &labels).set(gpu_hours);
    registry.gauge_with("fleet_cost_usd", &labels).set(cost_usd);
    registry.describe("fleet_requests_total", "fleet arrivals by cluster");
    registry.describe("fleet_completed_total", "fleet completions by cluster");
    registry.describe("fleet_slo_miss_total", "fleet deadline misses by cluster");
    registry.describe("fleet_gpu_hours", "provisioned GPU-hours billed by cluster");
    registry.describe("fleet_cost_usd", "dollars billed by cluster");
    if profile.has_power() {
        registry.gauge_with("fleet_wh_total", &labels).set(energy_j_total / 3600.0);
        registry.describe("fleet_wh_total", "modeled energy by cluster, watt-hours");
    }

    ClusterResult {
        name: cluster.name.clone(),
        sku: cluster.sku.clone(),
        arrivals,
        completed,
        on_time,
        busy_s: busy_total_s,
        gpu_hours,
        cost_usd,
        energy_wh: energy_j_total / 3600.0,
        min_gpus: scaler.min_seen,
        max_gpus: scaler.max_seen,
        latency,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimResult;
    use crate::profile::ServiceCurve;
    use mmg_models::ModelId;
    use proptest::prelude::*;

    /// The fleet's single global arrival stream: the deterministic k-way
    /// merge of every region's [`RegionStream`] (earliest time first, ties
    /// by region index). This is the single-stream reference the split is
    /// tested against — the per-region streams partition it exactly.
    struct GlobalStream {
        regions: Vec<RegionStream>,
        /// Next pending `(t, mix)` per region, lazily advanced.
        heads: Vec<(f64, usize)>,
    }

    impl GlobalStream {
        /// The merged stream of `fleet`'s regions.
        fn new(fleet: &FleetCfg) -> Self {
            let mut regions: Vec<RegionStream> =
                (0..fleet.clusters.len()).map(|i| RegionStream::new(fleet, i)).collect();
            let heads = regions.iter_mut().map(RegionStream::next).collect();
            GlobalStream { regions, heads }
        }

        /// The next `(arrival time, region index, mix index)` fleet-wide.
        /// Infinite, like [`RegionStream::next`].
        fn next(&mut self) -> (f64, usize, usize) {
            let r = self
                .heads
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
                .map(|(i, _)| i)
                .expect("fleet has at least one region");
            let (t, mix_idx) = self.heads[r];
            self.heads[r] = self.regions[r].next();
            (t, r, mix_idx)
        }
    }

    fn test_profile() -> ServiceProfile {
        ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 0.1),
            ServiceCurve::constant(ModelId::Parti, 0.4),
        ])
    }

    fn test_fleet(windows: usize) -> FleetCfg {
        FleetCfg {
            clusters: vec![
                ClusterCfg {
                    name: "us".into(),
                    sku: "a100".into(),
                    gpus: 4,
                    price_per_gpu_hr: 2.0,
                    weight: 2.0,
                    phase_s: 0.0,
                },
                ClusterCfg {
                    name: "eu".into(),
                    sku: "h100".into(),
                    gpus: 2,
                    price_per_gpu_hr: 4.0,
                    weight: 1.0,
                    phase_s: 40.0,
                },
                ClusterCfg {
                    name: "apac".into(),
                    sku: "l4".into(),
                    gpus: 2,
                    price_per_gpu_hr: 0.8,
                    weight: 1.0,
                    phase_s: 80.0,
                },
            ],
            mix: RequestMix::parse("sd:8,parti:2").unwrap(),
            arrival: ArrivalProcess::diurnal(60.0),
            scheduler: SchedulerKind::Fifo,
            router: RouterKind::RoundRobin,
            slo: SloSpec::ServiceMultiple(4.0),
            window_s: 60.0,
            windows,
            autoscaler: AutoscalerPolicy::Fixed,
            seed: 42,
        }
    }

    #[test]
    fn region_streams_partition_the_global_stream() {
        // The split satellite's reconciliation check: pulling the global
        // merged stream and filtering by region must equal pulling each
        // region stream directly — counts, bit-exact timestamps, and
        // model draws — including diurnal phase offsets.
        let fleet = test_fleet(4);
        let mut global = GlobalStream::new(&fleet);
        let mut expected: Vec<Vec<(u64, usize)>> = vec![Vec::new(); fleet.clusters.len()];
        let n = 5000;
        for _ in 0..n {
            let (t, r, m) = global.next();
            expected[r].push((t.to_bits(), m));
        }
        let total: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(total, n, "merge must neither drop nor invent arrivals");
        for (r, region_expected) in expected.iter().enumerate() {
            assert!(!region_expected.is_empty(), "region {r} got no arrivals");
            let mut stream = RegionStream::new(&fleet, r);
            for (i, &(t_bits, m)) in region_expected.iter().enumerate() {
                let (t, mix_idx) = stream.next();
                assert_eq!(t.to_bits(), t_bits, "region {r} arrival {i} timestamp");
                assert_eq!(mix_idx, m, "region {r} arrival {i} model");
            }
        }
    }

    #[test]
    fn global_stream_is_time_ordered_and_rate_weighted() {
        let fleet = test_fleet(4);
        let mut global = GlobalStream::new(&fleet);
        let mut counts = vec![0u64; fleet.clusters.len()];
        let mut last = 0.0;
        for _ in 0..20_000 {
            let (t, r, _) = global.next();
            assert!(t >= last, "merged stream went backwards");
            last = t;
            counts[r] += 1;
        }
        // Region 0 has half the weight; 1 and 2 a quarter each.
        let total: u64 = counts.iter().sum();
        let share0 = counts[0] as f64 / total as f64;
        assert!((share0 - 0.5).abs() < 0.03, "region 0 share {share0}");
    }

    /// One cluster of `gpus` on a FIFO + round-robin fleet, serving `mix`
    /// at `load` of its batch-1 capacity for one window that expects
    /// `expected_arrivals`.
    fn one_window_fleet(
        gpus: usize,
        mix: RequestMix,
        load: f64,
        diurnal: bool,
        expected_arrivals: f64,
        seed: u64,
    ) -> FleetCfg {
        let profile = three_model_profile();
        let mean_service_s: f64 = mix
            .entries()
            .iter()
            .map(|(m, _)| mix.share(*m) * profile.curve(*m).expect("profiled").batch_s(1))
            .sum();
        let rate = load * gpus as f64 / mean_service_s;
        FleetCfg {
            clusters: vec![ClusterCfg {
                name: "solo".into(),
                sku: "a100".into(),
                gpus,
                price_per_gpu_hr: 2.0,
                weight: 1.0,
                phase_s: 0.0,
            }],
            mix,
            arrival: if diurnal {
                ArrivalProcess::diurnal(rate)
            } else {
                ArrivalProcess::poisson(rate)
            },
            scheduler: SchedulerKind::Fifo,
            router: RouterKind::RoundRobin,
            slo: SloSpec::ServiceMultiple(4.0),
            window_s: expected_arrivals / rate,
            windows: 1,
            autoscaler: AutoscalerPolicy::Fixed,
            seed,
        }
    }

    /// The cluster DES, FIFO + round-robin like the fast lane, on the
    /// first window of cluster 0's region stream, with full records.
    fn des_on_region_stream(fleet: &FleetCfg, profile: &ServiceProfile) -> SimResult {
        let mut cfg = ScenarioCfg::new(
            fleet.clusters[0].gpus,
            fleet.mix.clone(),
            fleet.region_process(0),
            SchedulerKind::Fifo,
            fleet.slo,
            fleet.window_s,
            fleet.seed,
        );
        cfg.router = RouterKind::RoundRobin;
        let mut stream = RegionStream::new(fleet, 0);
        crate::cluster::run(&cfg, profile, &Registry::new(), None, &mut stream, 0.0, None).0
    }

    fn three_model_profile() -> ServiceProfile {
        ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 0.1),
            ServiceCurve::constant(ModelId::Parti, 0.4),
            ServiceCurve::constant(ModelId::Muse, 0.25),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The closed-form fast lane reproduces the event-driven cluster
        /// DES run on the same region stream: counts exactly, busy time
        /// to rounding (the two paths add it up in different orders), and
        /// its latency sketch bit for bit, rebuilt from the DES's records
        /// at the lane's 1-in-8 sample of arrivals.
        #[test]
        fn fast_lane_matches_the_event_driven_cluster(
            gpus in 1usize..9,
            load in 0.3f64..1.2,
            models in 1usize..4,
            weights in (0.5f64..4.0, 0.5f64..4.0, 0.5f64..4.0),
            diurnal in 0usize..2,
            expected_arrivals in 500.0f64..12_000.0,
            seed in 0u64..1_000_000,
        ) {
            let entries = [
                (ModelId::StableDiffusion, weights.0),
                (ModelId::Parti, weights.1),
                (ModelId::Muse, weights.2),
            ];
            let mix = RequestMix::new(entries[..models].to_vec());
            let fleet = one_window_fleet(gpus, mix, load, diurnal == 1, expected_arrivals, seed);
            let profile = three_model_profile();
            let fast = run_cluster(&fleet, 0, &profile, &Registry::new());
            let mut slow = des_on_region_stream(&fleet, &profile);

            prop_assert_eq!(fast.arrivals, slow.arrivals);
            prop_assert_eq!(fast.completed, slow.stats.completed);
            prop_assert_eq!(fast.on_time, slow.stats.on_time);
            let slow_busy: f64 = slow.busy_s.iter().sum();
            prop_assert!(
                (fast.busy_s - slow_busy).abs() <= 1e-9 * slow_busy,
                "busy {} vs {}",
                fast.busy_s,
                slow_busy
            );
            slow.records.sort_by_key(|r| r.id);
            let mut sampled = QuantileSketch::with_buffer_cap(FLEET_SKETCH_EPS, 4096);
            for r in slow.records.iter().filter(|r| (r.id + 1) % FAST_LANE_SKETCH_EVERY == 0) {
                sampled.observe(r.latency_s());
            }
            sampled.flush();
            prop_assert!(fast.latency == sampled, "the fast lane sketched other latencies");
        }
    }

    #[test]
    fn fast_lane_p99_matches_the_event_driven_cluster() {
        // One 300 s window of the test fleet's first cluster (4 GPUs,
        // diurnal, 9,522 completions): the p99 the fleet report
        // reads from the fast lane's 1-in-8 sample stays within 5% of
        // the cluster DES's p99 on the same stream. Random scenarios can
        // miss this bound: round-robin sends every eighth arrival to the
        // same GPUs when the GPU count shares a factor with 8.
        let mut fleet = test_fleet(1);
        fleet.window_s = 300.0;
        let profile = test_profile();
        let fast = run_cluster(&fleet, 0, &profile, &Registry::new());
        let slow = des_on_region_stream(&fleet, &profile);

        assert!(slow.stats.completed >= 4_000, "{} completions", slow.stats.completed);
        assert_eq!(fast.arrivals, slow.arrivals);
        assert_eq!(fast.completed, slow.stats.completed);
        assert_eq!(fast.on_time, slow.stats.on_time);
        let slow_busy: f64 = slow.busy_s.iter().sum();
        assert!((fast.busy_s - slow_busy).abs() < 1e-6, "busy {} vs {slow_busy}", fast.busy_s);
        let (fp99, sp99) = (
            fast.latency.quantile(0.99).unwrap(),
            slow.stats.latency_sketch.quantile(0.99).unwrap(),
        );
        assert!((fp99 - sp99).abs() / sp99.max(1e-9) < 0.05, "p99 {fp99} vs {sp99}");
    }

    #[test]
    fn window_boundaries_do_not_lose_arrivals() {
        // Many small windows vs one big window: the fast lane carries
        // GPU state across boundaries, so the two runs are the same DES
        // and must agree exactly.
        let profile = test_profile();
        let mut many = test_fleet(10);
        many.window_s = 30.0;
        let mut one = test_fleet(1);
        one.window_s = 300.0;
        let a = run_cluster(&many, 0, &profile, &Registry::new());
        let b = run_cluster(&one, 0, &profile, &Registry::new());
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.on_time, b.on_time);
        assert!((a.busy_s - b.busy_s).abs() < 1e-6);
    }

    #[test]
    fn every_window_lands_in_its_own_row() {
        // At 70/12 s, `(w * window_s) / window_s` truncates below `w` for
        // some windows, which must still land in row `w`.
        let mut fleet =
            one_window_fleet(2, RequestMix::parse("sd").unwrap(), 0.5, false, 200.0, 7);
        fleet.window_s = 70.0 / 12.0;
        fleet.windows = 12;
        let r = run_cluster(&fleet, 0, &three_model_profile(), &Registry::new());
        assert_eq!(r.series.len(), 12);
        for (i, (_, _, w)) in r.series.iter().enumerate() {
            assert_eq!(w.gpu_s, 2.0 * fleet.window_s, "row {i} billed {} GPU-s", w.gpu_s);
        }
        let arrivals: u64 = r.series.iter().map(|(_, _, w)| w.arrivals).sum();
        assert_eq!(arrivals, r.arrivals);
    }

    #[test]
    fn run_cluster_is_deterministic() {
        let fleet = test_fleet(3);
        let profile = test_profile();
        let a = run_cluster(&fleet, 1, &profile, &Registry::new());
        let b = run_cluster(&fleet, 1, &profile, &Registry::new());
        assert_eq!(a, b);
    }

    #[test]
    fn general_lane_serves_dynamic_batching() {
        let mut fleet = test_fleet(3);
        fleet.scheduler = SchedulerKind::Dynamic { max_batch: 8 };
        fleet.router = RouterKind::LeastWork;
        let res = run_cluster(&fleet, 0, &test_profile(), &Registry::new());
        assert!(res.arrivals > 0);
        assert!(res.completed > 0);
        assert!(res.latency.count() == res.completed);
    }

    #[test]
    fn fixed_policy_bills_flat_capacity() {
        let fleet = test_fleet(5);
        let res = run_cluster(&fleet, 2, &test_profile(), &Registry::new());
        // 2 GPUs × 5 windows × 60 s at $0.8/GPU-hr.
        let hours = 2.0 * 5.0 * 60.0 / 3600.0;
        assert!((res.gpu_hours - hours).abs() < 1e-9);
        assert!((res.cost_usd - hours * 0.8).abs() < 1e-9);
        assert_eq!((res.min_gpus, res.max_gpus), (2, 2));
    }

    #[test]
    fn reactive_policy_scales_up_under_overload() {
        let mut fleet = test_fleet(8);
        // Offered load far beyond 2 initial GPUs' capacity.
        fleet.arrival = ArrivalProcess::poisson(400.0);
        fleet.clusters = vec![ClusterCfg {
            name: "hot".into(),
            sku: "a100".into(),
            gpus: 2,
            price_per_gpu_hr: 2.0,
            weight: 1.0,
            phase_s: 0.0,
        }];
        fleet.autoscaler = AutoscalerPolicy::Reactive {
            target_util: 0.7,
            min_gpus: 2,
            max_gpus: 64,
            lag_windows: 2,
            warm_pool: 4,
            churn: None,
        };
        let res = run_cluster(&fleet, 0, &test_profile(), &Registry::new());
        assert!(res.max_gpus > 2, "autoscaler never scaled up");
        assert!(res.max_gpus <= 64);
        // Warm pool is billed: gpu-hours exceed the serving capacity
        // alone for at least the warm windows.
        assert!(res.gpu_hours > 2.0 * 8.0 * 60.0 / 3600.0);
    }

    #[test]
    fn spot_churn_reclaims_and_restores_capacity() {
        let mut fleet = test_fleet(20);
        fleet.clusters.truncate(1);
        fleet.clusters[0].gpus = 16;
        fleet.autoscaler = AutoscalerPolicy::Reactive {
            target_util: 0.7,
            min_gpus: 4,
            max_gpus: 32,
            lag_windows: 1,
            warm_pool: 0,
            churn: Some(SpotChurn { prob: 0.5, frac: 0.25 }),
        };
        let res = run_cluster(&fleet, 0, &test_profile(), &Registry::new());
        assert!(res.min_gpus < 16, "churn never fired at prob 0.5 over 20 windows");
        // Determinism across repeat runs (the churn stream is seeded).
        let res2 = run_cluster(&fleet, 0, &test_profile(), &Registry::new());
        assert_eq!(res, res2);
    }

    #[test]
    fn fleet_report_is_deterministic_and_complete() {
        let fleet = test_fleet(4);
        let profile = test_profile();
        let clusters: Vec<ClusterResult> = (0..fleet.clusters.len())
            .map(|i| run_cluster(&fleet, i, &profile, &Registry::new()))
            .collect();
        let result = FleetResult::from_clusters(clusters);
        assert_eq!(
            result.arrivals(),
            result.clusters.iter().map(|c| c.arrivals).sum::<u64>()
        );
        let report = FleetReport::new(&fleet, &result);
        let again = FleetReport::new(&fleet, &result);
        assert_eq!(report, again);
        for c in &fleet.clusters {
            assert!(report.render().contains(&c.name), "report missing {}", c.name);
        }
        assert!(report.render().contains("fleet totals"));
        assert!(report.render().contains("$"));
    }

    #[test]
    fn the_report_prints_every_timeline_window() {
        let fleet = test_fleet(24);
        let profile = test_profile();
        let clusters: Vec<ClusterResult> = (0..fleet.clusters.len())
            .map(|i| run_cluster(&fleet, i, &profile, &Registry::new()))
            .collect();
        let result = FleetResult::from_clusters(clusters);
        let report = FleetReport::new(&fleet, &result);
        let (_, timeline) = report.render().split_once("fleet timeline").expect("a timeline");
        let arrivals: Vec<u64> = timeline
            .lines()
            .filter(|l| l.starts_with("| ["))
            .map(|l| l.split('|').nth(2).unwrap().trim().parse().unwrap())
            .collect();
        assert_eq!(arrivals.len(), 24, "one row per window");
        assert_eq!(arrivals.iter().sum::<u64>(), result.arrivals());
    }

    #[test]
    fn merged_series_conserves_totals() {
        let fleet = test_fleet(6);
        let profile = test_profile();
        let clusters: Vec<ClusterResult> = (0..fleet.clusters.len())
            .map(|i| run_cluster(&fleet, i, &profile, &Registry::new()))
            .collect();
        let result = FleetResult::from_clusters(clusters);
        let merged_arrivals: u64 =
            result.series.iter().map(|(_, _, w)| w.arrivals).sum();
        assert_eq!(merged_arrivals, result.arrivals());
        let merged_cost: f64 = result.series.iter().map(|(_, _, w)| w.cost_usd).sum();
        assert!((merged_cost - result.cost_usd()).abs() < 1e-9);
    }

    #[test]
    #[ignore = "throughput probe; run in release mode"]
    fn fast_lane_throughput_probe() {
        let mut fleet = test_fleet(10);
        fleet.clusters.truncate(1);
        fleet.clusters[0].gpus = 16;
        fleet.arrival = ArrivalProcess::poisson(120.0); // util ~0.9-ish
        fleet.window_s = 10_000.0;
        let profile = test_profile();
        let t0 = std::time::Instant::now();
        let res = run_cluster(&fleet, 0, &profile, &Registry::new());
        let dt = t0.elapsed().as_secs_f64();
        let rps = res.arrivals as f64 / dt;
        eprintln!(
            "fast lane: {} requests in {:.3} s = {:.2} M req/s",
            res.arrivals,
            dt,
            rps / 1e6
        );
        assert!(res.arrivals > 10_000_000);
    }

    #[test]
    fn metered_fleets_carry_energy_and_unmetered_stay_zero() {
        let fleet = test_fleet(4);
        let registry = Registry::new();
        let plain = run_cluster(&fleet, 0, &test_profile(), &registry);
        assert_eq!(plain.energy_wh, 0.0, "unmetered profile must not invent energy");
        assert!(!registry.render_prometheus().contains("fleet_wh_total"));

        let metered = ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 0.1).with_draw_w(320.0),
            ServiceCurve::constant(ModelId::Parti, 0.4).with_draw_w(260.0),
        ])
        .with_idle_w(55.0);
        let reg2 = Registry::new();
        let res = run_cluster(&fleet, 0, &metered, &reg2);
        // Power is observability, not dynamics: the metered run walks
        // the identical sample path.
        assert_eq!(res.arrivals, plain.arrivals);
        assert_eq!(res.busy_s.to_bits(), plain.busy_s.to_bits());
        // Sandwich the integral per window: busy time at the cheapest
        // and dearest model draws, plus the billed-idle remainder at
        // the idle draw. (Busy can exceed gpu_s — FIFO backlog bills
        // service time beyond the window — so no whole-horizon ceiling.)
        let (mut lo_j, mut hi_j) = (0.0f64, 0.0f64);
        for (_, _, w) in res.series.iter() {
            let idle_j = (w.gpu_s - w.busy_s).max(0.0) * 55.0;
            lo_j += w.busy_s * 260.0 + idle_j;
            hi_j += w.busy_s * 320.0 + idle_j;
        }
        assert!(
            res.energy_wh >= lo_j / 3600.0 - 1e-9 && res.energy_wh <= hi_j / 3600.0 + 1e-9,
            "energy {} Wh outside [{}, {}]",
            res.energy_wh,
            lo_j / 3600.0,
            hi_j / 3600.0,
        );
        // The window series conserves the total.
        let win_j: f64 = res.series.iter().map(|(_, _, w)| w.energy_j).sum();
        assert!((win_j / 3600.0 - res.energy_wh).abs() < 1e-9);
        assert!(reg2.render_prometheus().contains("fleet_wh_total"));

        let result = FleetResult::from_clusters(vec![res]);
        assert!(result.cost_with_energy_usd() > result.cost_usd());
        assert!(result.wh_per_1k_good() > 0.0);
        let report = FleetReport::new(&fleet, &result);
        assert!(report.render().contains("Wh/1k-ok"));
        assert!(report.render().contains("with energy"));

        // The general lane meters energy too.
        let mut dyn_fleet = test_fleet(4);
        dyn_fleet.scheduler = SchedulerKind::Dynamic { max_batch: 8 };
        let dyn_res = run_cluster(&dyn_fleet, 0, &metered, &Registry::new());
        assert!(dyn_res.energy_wh > 0.0, "general lane lost the energy integral");
    }

    #[test]
    fn bursty_fleets_are_rejected() {
        let mut fleet = test_fleet(2);
        fleet.arrival = ArrivalProcess::bursty(10.0);
        assert!(fleet.validate().is_err());
    }

    #[test]
    fn non_finite_or_zero_rates_are_rejected() {
        let ok = test_fleet(2);
        assert_eq!(ok.validate(), Ok(()));
        for rate in [f64::INFINITY, f64::NAN, 0.0] {
            let fleet = FleetCfg { arrival: ok.arrival.with_rate(rate), ..ok.clone() };
            let err = fleet.validate().unwrap_err();
            assert!(err.starts_with("arrival rate must be positive and finite"), "{rate}: {err}");
        }
    }

    #[test]
    fn an_infinite_cluster_weight_is_rejected() {
        let mut fleet = test_fleet(2);
        fleet.clusters[0].weight = f64::INFINITY;
        let err = fleet.validate().unwrap_err();
        assert!(err.starts_with("cluster us: arrival rate must be positive and finite"), "{err}");
    }

    #[test]
    fn a_non_finite_cluster_phase_is_rejected() {
        for phase_s in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut fleet = test_fleet(2);
            fleet.clusters[1].phase_s = phase_s;
            let err = fleet.validate().unwrap_err();
            assert!(err.starts_with("cluster eu: the arrival process needs"), "{phase_s}: {err}");
        }
    }

    /// `test_fleet` with one reactive policy, which `validate` accepts
    /// until a test breaks one of its bounds.
    fn reactive_fleet() -> FleetCfg {
        let fleet = FleetCfg {
            autoscaler: AutoscalerPolicy::Reactive {
                target_util: 0.7,
                min_gpus: 2,
                max_gpus: 8,
                lag_windows: 1,
                warm_pool: 1,
                churn: Some(SpotChurn { prob: 0.5, frac: 0.25 }),
            },
            ..test_fleet(4)
        };
        assert_eq!(fleet.validate(), Ok(()));
        fleet
    }

    /// The reactive policy of `fleet`, for a test to edit.
    fn reactive_bounds(
        fleet: &mut FleetCfg,
    ) -> (&mut f64, &mut usize, &mut usize, &mut Option<SpotChurn>) {
        match &mut fleet.autoscaler {
            AutoscalerPolicy::Reactive { target_util, min_gpus, max_gpus, churn, .. } => {
                (target_util, min_gpus, max_gpus, churn)
            }
            AutoscalerPolicy::Fixed => unreachable!("reactive_fleet builds a reactive policy"),
        }
    }

    #[test]
    fn autoscaler_max_below_min_is_rejected() {
        let mut fleet = reactive_fleet();
        let (_, min_gpus, max_gpus, _) = reactive_bounds(&mut fleet);
        (*min_gpus, *max_gpus) = (4, 2);
        let err = fleet.validate().unwrap_err();
        assert_eq!(err, "autoscaler max_gpus 2 is below max(min_gpus, 1) = 4");
    }

    #[test]
    fn autoscaler_max_of_zero_is_rejected() {
        let mut fleet = reactive_fleet();
        let (_, min_gpus, max_gpus, _) = reactive_bounds(&mut fleet);
        (*min_gpus, *max_gpus) = (0, 0);
        let err = fleet.validate().unwrap_err();
        assert_eq!(err, "autoscaler max_gpus 0 is below max(min_gpus, 1) = 1");
        // One GPU is the smallest cluster the scaler keeps.
        let (_, _, max_gpus, _) = reactive_bounds(&mut fleet);
        *max_gpus = 1;
        assert_eq!(fleet.validate(), Ok(()));
    }

    #[test]
    fn autoscaler_target_util_outside_zero_one_is_rejected() {
        for util in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let mut fleet = reactive_fleet();
            *reactive_bounds(&mut fleet).0 = util;
            let err = fleet.validate().unwrap_err();
            assert!(err.starts_with("autoscaler target_util must be in (0, 1]"), "{util}: {err}");
        }
        let mut fleet = reactive_fleet();
        *reactive_bounds(&mut fleet).0 = 1.0;
        assert_eq!(fleet.validate(), Ok(()));
    }

    #[test]
    fn spot_churn_prob_outside_zero_one_is_rejected() {
        for prob in [-0.1, 1.5, f64::NAN] {
            let mut fleet = reactive_fleet();
            *reactive_bounds(&mut fleet).3 = Some(SpotChurn { prob, frac: 0.25 });
            let err = fleet.validate().unwrap_err();
            assert!(err.starts_with("spot churn prob must be in [0, 1]"), "{prob}: {err}");
        }
    }

    #[test]
    fn spot_churn_frac_outside_zero_one_is_rejected() {
        for frac in [2.0, -0.25, f64::NAN] {
            let mut fleet = reactive_fleet();
            *reactive_bounds(&mut fleet).3 = Some(SpotChurn { prob: 0.5, frac });
            let err = fleet.validate().unwrap_err();
            assert!(err.starts_with("spot churn frac must be in [0, 1]"), "{frac}: {err}");
        }
        // Both ends of the range are valid.
        for (prob, frac) in [(0.0, 0.0), (1.0, 1.0)] {
            let mut fleet = reactive_fleet();
            *reactive_bounds(&mut fleet).3 = Some(SpotChurn { prob, frac });
            assert_eq!(fleet.validate(), Ok(()));
        }
    }

    #[test]
    fn fleets_past_the_arrival_budget_are_rejected() {
        let ok = test_fleet(2);
        let rate = 2.0 * crate::MAX_EXPECTED_ARRIVALS / ok.horizon_s();
        let fleet = FleetCfg { arrival: ok.arrival.with_rate(rate), ..ok.clone() };
        let err = fleet.validate().unwrap_err();
        assert!(err.starts_with("expected arrival count 2.000e10 exceeds"), "{err}");
    }
}
