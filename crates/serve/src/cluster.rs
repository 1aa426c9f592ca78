//! The multi-GPU cluster simulation: routers, schedulers, SLOs.
//!
//! Requests arrive from a workload generator, are *routed* to one
//! GPU's queue, and a per-GPU *scheduler* decides when to start work
//! and how many same-model requests to batch together. Service times
//! come from the profiler-grounded [`ServiceProfile`], so the paper's
//! batching regimes shape cluster behavior: a dynamic batcher gets huge
//! wins on memory-bound autoregressive decode and modest ones on
//! compute-bound diffusion.
//!
//! Everything runs on the deterministic [`EventQueue`]; the only
//! randomness is the seeded arrival stream ([`RegionStream`]: arrival
//! times and model draws).
//!
//! # The fast path
//!
//! The simulator is built to push tens of millions of requests through
//! in seconds with memory independent of request count:
//!
//! - Request state lives in a **slot pool** with a free list; generation
//!   counters keep stale abandonment events from touching reused slots.
//!   Batch id-vectors are pooled too, and the one pending arrival rides
//!   in its event with its model's mix index, so the steady-state event
//!   loop does no per-request allocation.
//! - All telemetry handles are resolved **once per run**, so the event
//!   loop never does a registry lookup.
//! - Aggregates stream into [`ServeStats`]: exact running sums plus
//!   bounded-memory [`QuantileSketch`]es (rank error documented in
//!   [`mmg_telemetry::sketch`]). Retaining every [`RequestRecord`] is
//!   opt-in via [`ScenarioCfg::full_records`] (the CLI's
//!   `--full-records`), which preserves the exact-quantile path.
//! - The event loop keeps only the event mechanics, the worst-latency
//!   exemplars, the full records and the flight recorder. Per completion
//!   it appends one small record (wait, latency, finish time, mix index,
//!   batch size, on-time flag and, with attribution on, the three phases)
//!   to a batch, and it hands one **completion sink** a batch of 4,096 at
//!   a time. The sink is the only owner of the completion statistics: it
//!   folds each batch, in completion order, into the run's [`ServeStats`]
//!   (counts, on-time and batch sums, first-completion order, latency and
//!   phase sketches), the per-model `serve_wait_s`/`serve_latency_s`/
//!   `serve_phase_s` histograms and the burn-rate engine. The request,
//!   SLO-miss, drop and abandon counters are added once at close-out from
//!   the run's exact counts.
//! - The sink absorbs batches on the loop's thread for the first 2^16
//!   completions, so the many short runs of the experiment suite stay
//!   single-threaded. After that, on a host with at least two CPUs,
//!   batches go over a bounded channel to a scoped helper thread that
//!   owns the folds until the run ends, and buffers return to the loop
//!   for reuse. Every fold sees the same values in the same order either
//!   way, so the results do not depend on where the folds ran. A panic on
//!   either thread ends the run and propagates out of `simulate*`.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};

use mmg_models::ModelId;
use mmg_telemetry::burnrate::{
    AlertEvent, AlertKind, BurnRateEngine, RatchetDetector, RatchetEvent, SloPolicy,
};
use mmg_telemetry::{latency_buckets_s, Histogram, QuantileSketch, Registry};

use crate::des::EventQueue;
use crate::flight::{Exemplars, FlightCfg, FlightRecorder};
use crate::profile::{ServiceCurve, ServiceProfile};
use crate::workload::{
    check_expected_arrivals, model_short_name, ArrivalProcess, RegionStream, RequestMix,
};

/// Relative rank-error bound of the streaming latency sketches: every
/// reported quantile has true rank within `eps * n + 1` of exact (see
/// [`mmg_telemetry::sketch`] for the bound's derivation and merge
/// semantics).
pub const LATENCY_SKETCH_EPS: f64 = 0.001;

/// Completions the event loop collects before it hands them to the
/// completion sink as one batch.
const SINK_BATCH: usize = 4096;

/// Completions the sink absorbs on the event loop's thread before it may
/// move its folds to a helper thread.
const INLINE_COMPLETIONS: u64 = 1 << 16;

/// Batches that may wait in the channel to the helper thread.
const SINK_QUEUE_DEPTH: usize = 4;

/// Ratcheting-queue-depth detector defaults (see
/// [`mmg_telemetry::burnrate::RatchetDetector`]): consecutive growing
/// windows required, total growth factor, and absolute mean-depth floor.
const RATCHET_STREAK: usize = 3;
const RATCHET_GROWTH: f64 = 2.0;
// The floor sits above normal Poisson occupancy noise (window means of
// ~1-2 requests occur even at low utilization); genuine FIFO collapse
// blows past it within a few windows.
const RATCHET_MIN_DEPTH: f64 = 4.0;

/// How arriving requests are assigned to a GPU queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Cycle through GPUs in order.
    RoundRobin,
    /// Send to the GPU with the least outstanding work (running remainder
    /// plus queued batch-1 service seconds).
    LeastWork,
    /// Partition GPUs by model (so same-model requests pool and batch),
    /// least-outstanding-work within a model's partition.
    ModelAffinity,
}

impl RouterKind {
    /// Parses a CLI router name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_lowercase().as_str() {
            "rr" | "round-robin" => Ok(RouterKind::RoundRobin),
            "least-work" | "lw" => Ok(RouterKind::LeastWork),
            "affinity" | "model-affinity" => Ok(RouterKind::ModelAffinity),
            other => Err(format!(
                "unknown router '{other}'; expected round-robin | least-work | affinity"
            )),
        }
    }
}

/// When a GPU starts work and how many requests it batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// One request at a time, arrival order. No batching.
    Fifo,
    /// Classic static batching: wait until `batch` same-model requests
    /// are queued (or the head request has waited `wait_s`), then launch.
    Static {
        /// Target batch size.
        batch: usize,
        /// Maximum head-of-line wait before launching a partial batch.
        wait_s: f64,
    },
    /// Deadline-aware dynamic batching: launch as soon as the GPU is
    /// free, batching up to `max_batch` queued requests of the
    /// earliest-deadline request's model (earliest deadlines first).
    Dynamic {
        /// Batch-size cap.
        max_batch: usize,
    },
    /// Dynamic batching plus Section-V pod co-scheduling: when more work
    /// is waiting behind a launched batch, the pod interleaves the
    /// batch's stages with the next one's and the whole batch completes
    /// `pod_factor`× faster.
    Pods {
        /// Batch-size cap.
        max_batch: usize,
    },
}

impl SchedulerKind {
    /// Parses a CLI scheduler name, using `batch` as the batch target or
    /// cap where the scheduler has one.
    pub fn parse(name: &str, batch: usize) -> Result<Self, String> {
        match name.to_lowercase().as_str() {
            "fifo" => Ok(SchedulerKind::Fifo),
            "static" => Ok(SchedulerKind::Static { batch, wait_s: 1.0 }),
            "dynamic" => Ok(SchedulerKind::Dynamic { max_batch: batch }),
            "pods" => Ok(SchedulerKind::Pods { max_batch: batch }),
            other => Err(format!(
                "unknown scheduler '{other}'; expected fifo | static | dynamic | pods"
            )),
        }
    }

    /// The largest batch the scheduler launches: 1 for FIFO, otherwise
    /// its batch target or cap.
    #[must_use]
    pub fn batch_cap(&self) -> usize {
        match *self {
            SchedulerKind::Fifo => 1,
            SchedulerKind::Static { batch, .. } => batch,
            SchedulerKind::Dynamic { max_batch } | SchedulerKind::Pods { max_batch } => max_batch,
        }
    }

    /// Scheduler name as printed in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Static { .. } => "static",
            SchedulerKind::Dynamic { .. } => "dynamic",
            SchedulerKind::Pods { .. } => "pods",
        }
    }
}

/// The latency deadline attached to each request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloSpec {
    /// No deadline; every completion attains the SLO.
    None,
    /// One absolute deadline for every model, seconds after arrival.
    FixedS(f64),
    /// Per-model deadline: `multiple ×` the model's batch-1 service time
    /// (heavier models get proportionally more headroom).
    ServiceMultiple(f64),
}

impl SloSpec {
    /// The deadline in seconds after arrival for a model served by
    /// `curve`.
    #[must_use]
    pub fn slo_s(&self, curve: &ServiceCurve) -> f64 {
        match *self {
            SloSpec::None => f64::INFINITY,
            SloSpec::FixedS(s) => s,
            SloSpec::ServiceMultiple(k) => k * curve.base_s(),
        }
    }
}

/// A complete serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCfg {
    /// Cluster size.
    pub gpus: usize,
    /// Request model mix.
    pub mix: RequestMix,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Request router.
    pub router: RouterKind,
    /// Per-GPU scheduler.
    pub scheduler: SchedulerKind,
    /// Deadline specification.
    pub slo: SloSpec,
    /// Arrival horizon, seconds: requests arrive in `[0, duration_s)`,
    /// and in-flight work drains to completion after it.
    pub duration_s: f64,
    /// Stop after this many arrivals, regardless of horizon; `Some(0)`
    /// runs no arrivals at all.
    pub max_requests: Option<u64>,
    /// Queued requests give up after waiting this long.
    pub abandon_after_s: Option<f64>,
    /// Admission control: arrivals finding this many requests queued
    /// cluster-wide are dropped.
    pub max_queue: Option<usize>,
    /// Retain a [`RequestRecord`] per completion (memory O(requests)).
    /// When `false`, only the constant-memory streaming aggregates in
    /// [`ServeStats`] are kept. `true` by default — the library keeps
    /// the exact path unless a caller opts into streaming; the CLI's
    /// default is streaming with `--full-records` to opt back in.
    pub full_records: bool,
    /// Online SLO health, which also turns on per-phase latency
    /// attribution. When set, an
    /// [`mmg_telemetry::burnrate::BurnRateEngine`] (plus the
    /// ratcheting-queue-depth detector) is driven from the completion
    /// stream and its alert timeline lands in [`SimResult::health`] (and
    /// on the flight recorder's cluster lane when one is attached), and
    /// queue/hold/execute sketches per model and cluster-wide stream into
    /// [`ServeStats::phases`], plus `serve_phase_s` histograms in the
    /// registry. `None` by default: the streaming fast path pays nothing
    /// for either layer. Both are pure observation and never change the
    /// simulated trajectory.
    pub slo_policy: Option<SloPolicy>,
    /// RNG seed for arrivals and mix sampling.
    pub seed: u64,
}

impl ScenarioCfg {
    /// A scenario with the common defaults: least-work routing, no
    /// abandonment, no admission control, full records retained.
    #[must_use]
    pub fn new(
        gpus: usize,
        mix: RequestMix,
        arrival: ArrivalProcess,
        scheduler: SchedulerKind,
        slo: SloSpec,
        duration_s: f64,
        seed: u64,
    ) -> Self {
        ScenarioCfg {
            gpus,
            mix,
            arrival,
            router: RouterKind::LeastWork,
            scheduler,
            slo,
            duration_s,
            max_requests: None,
            abandon_after_s: None,
            max_queue: None,
            full_records: true,
            slo_policy: None,
            seed,
        }
    }

    /// Checks the scenario can run and terminate.
    ///
    /// # Errors
    ///
    /// Zero GPUs; a horizon that is not positive, or is infinite without
    /// a request cap; a static batcher's wait that is not finite; a
    /// patience ([`ScenarioCfg::abandon_after_s`]) that is negative or
    /// not finite; a health policy the burn-rate engine refuses
    /// ([`SloPolicy::check`]); a mean arrival rate that is not positive
    /// and finite or an arrival shape [`crate::ArrivalGen::new`] refuses;
    /// or more expected arrivals than [`crate::MAX_EXPECTED_ARRIVALS`].
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus == 0 {
            return Err("need at least one GPU".into());
        }
        // Spelled to reject NaN too, which fails every comparison.
        let capped = self.max_requests.is_some() && self.duration_s == f64::INFINITY;
        if !(capped || self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(format!(
                "duration must be positive and finite (or infinite with a request cap), got {}",
                self.duration_s
            ));
        }
        if let SchedulerKind::Static { wait_s, .. } = self.scheduler {
            if !wait_s.is_finite() {
                return Err(format!("static batching wait must be finite, got {wait_s}"));
            }
        }
        if let Some(patience_s) = self.abandon_after_s {
            if !(patience_s.is_finite() && patience_s >= 0.0) {
                return Err(format!(
                    "abandonment patience must be non-negative and finite, got {patience_s}"
                ));
            }
        }
        if let Some(policy) = &self.slo_policy {
            policy.check()?;
        }
        check_expected_arrivals(
            self.arrival,
            self.duration_s,
            self.max_requests,
            "--rate or --duration-s, or cap the run with --requests",
        )
    }

    /// Enables the full observability layer: the scaled paging burn-rate
    /// policy for `objective` over this scenario's horizon, and with it
    /// phase attribution.
    #[must_use]
    pub fn with_health(mut self, objective: f64) -> Self {
        self.slo_policy = Some(SloPolicy::paging(objective, self.duration_s));
        self
    }
}

/// One served request's lifecycle, in virtual seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Arrival-order id.
    pub id: u64,
    /// Model requested.
    pub model: ModelId,
    /// Arrival instant.
    pub arrival_s: f64,
    /// Service start instant.
    pub start_s: f64,
    /// Completion instant.
    pub finish_s: f64,
    /// Absolute deadline (`+inf` when no SLO).
    pub deadline_s: f64,
    /// GPU that served it.
    pub gpu: usize,
    /// Size of the batch it was served in.
    pub batch: usize,
    /// Requests in the system at its arrival, itself included — the
    /// exact queue-depth-seen-by-arrivals statistic.
    pub depth_at_arrival: u64,
    /// Queue-phase wait: seconds the serving GPU spent *busy with other
    /// work* while this request was queued (waiting its turn).
    pub queue_s: f64,
    /// Batch-formation (hold) phase: seconds the GPU sat idle while the
    /// scheduler deliberately withheld launch (static batching's timer
    /// waiting to fill a batch). `wait = queue + hold` by construction.
    pub hold_s: f64,
    /// Execution phase: service time of the batch the request rode in.
    /// Stored as the conserving residual (see `conserving_execute_s`),
    /// so `queue_s + hold_s + execute_s` reproduces
    /// [`RequestRecord::latency_s`] bit-exactly.
    pub execute_s: f64,
}

impl RequestRecord {
    /// Queueing delay (queue + hold phases).
    #[must_use]
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }

    /// End-to-end sojourn.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Whether the request met its deadline.
    #[must_use]
    pub fn on_time(&self) -> bool {
        self.finish_s <= self.deadline_s
    }
}

/// The execute-phase duration that makes the per-request phase
/// decomposition conserve exactly: returns `e` such that
/// `(queue_s + hold_s) + e == latency_s` *bitwise*. The naive residual
/// `latency - (queue + hold)` is already within one ulp; the feedback
/// loop absorbs the rare half-ulp tie where IEEE rounding would leave
/// the sum one ulp off. Conservation is a tested invariant — reports
/// attribute 100% of every request's latency, never 100%±ε.
fn conserving_execute_s(queue_s: f64, hold_s: f64, latency_s: f64) -> f64 {
    let split = queue_s + hold_s;
    let mut e = latency_s - split;
    for _ in 0..4 {
        let sum = split + e;
        if sum == latency_s {
            break;
        }
        e += latency_s - sum;
    }
    e
}

/// Streaming per-phase attribution aggregates: one GK sketch plus an
/// exact running sum per lifecycle phase (queue, hold, execute;
/// admission decides at arrival, so no request waits for it). Memory
/// is independent of request count; sketch quantiles carry the
/// documented `±(eps·n + 1)` rank bound of [`LATENCY_SKETCH_EPS`]. Only
/// maintained when [`ScenarioCfg::slo_policy`] is set.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Queue-phase sketch (GPU busy with other work).
    pub queue: QuantileSketch,
    /// Hold-phase sketch (scheduler withheld launch on an idle GPU).
    pub hold: QuantileSketch,
    /// Execute-phase sketch (batch service time).
    pub execute: QuantileSketch,
    /// Exact sum of queue-phase seconds.
    pub queue_sum_s: f64,
    /// Exact sum of hold-phase seconds.
    pub hold_sum_s: f64,
    /// Exact sum of execute-phase seconds.
    pub execute_sum_s: f64,
}

impl PhaseStats {
    /// An empty attribution aggregate.
    #[must_use]
    pub fn new() -> Self {
        PhaseStats {
            queue: QuantileSketch::new(LATENCY_SKETCH_EPS),
            hold: QuantileSketch::new(LATENCY_SKETCH_EPS),
            execute: QuantileSketch::new(LATENCY_SKETCH_EPS),
            queue_sum_s: 0.0,
            hold_sum_s: 0.0,
            execute_sum_s: 0.0,
        }
    }

    /// Adds one completion's queue, hold and execute seconds.
    fn observe(&mut self, [queue_s, hold_s, execute_s]: [f64; 3]) {
        self.queue.observe(queue_s);
        self.hold.observe(hold_s);
        self.execute.observe(execute_s);
        self.queue_sum_s += queue_s;
        self.hold_sum_s += hold_s;
        self.execute_sum_s += execute_s;
    }

    fn flush(&mut self) {
        self.queue.flush();
        self.hold.flush();
        self.execute.flush();
    }

    /// Pools another run's attribution into this one (sketch merges add
    /// absolute rank errors, see [`mmg_telemetry::sketch`]). Used by the
    /// replicated experiments to aggregate per-seed phase sketches.
    pub fn merge_from(&mut self, other: &PhaseStats) {
        self.queue.merge(&other.queue);
        self.hold.merge(&other.hold);
        self.execute.merge(&other.execute);
        self.queue_sum_s += other.queue_sum_s;
        self.hold_sum_s += other.hold_sum_s;
        self.execute_sum_s += other.execute_sum_s;
    }
}

impl Default for PhaseStats {
    fn default() -> Self {
        PhaseStats::new()
    }
}

/// Streaming per-model aggregates: exact sums and counts plus a
/// bounded-memory latency quantile sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// The model.
    pub model: ModelId,
    /// Completed requests.
    pub completed: u64,
    /// Completions that met their deadline.
    pub on_time: u64,
    /// Exact sum of queueing delays.
    pub wait_sum_s: f64,
    /// Exact sum of end-to-end latencies.
    pub latency_sum_s: f64,
    /// Sum of the batch sizes each completion was served in.
    pub batch_sum: u64,
    /// Global completion index of this model's first completion
    /// (`u64::MAX` if it never completed) — reports list models in
    /// first-completion order, matching the exact path.
    pub first_done_seq: u64,
    /// Latency sketch (rank error [`LATENCY_SKETCH_EPS`]).
    pub latency_sketch: QuantileSketch,
    /// Per-phase attribution, when [`ScenarioCfg::slo_policy`] is set.
    pub phases: Option<PhaseStats>,
}

impl ModelStats {
    fn new(model: ModelId, attrib: bool) -> Self {
        ModelStats {
            model,
            completed: 0,
            on_time: 0,
            wait_sum_s: 0.0,
            latency_sum_s: 0.0,
            batch_sum: 0,
            first_done_seq: u64::MAX,
            latency_sketch: QuantileSketch::new(LATENCY_SKETCH_EPS),
            phases: attrib.then(PhaseStats::new),
        }
    }
}

/// Streaming aggregates maintained on every run — cluster-wide running
/// sums and quantile sketches whose memory is independent of request
/// count. This is the only completion accounting in the default
/// (streaming) mode; with [`ScenarioCfg::full_records`] it coexists with
/// the exact per-request records.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Completed requests.
    pub completed: u64,
    /// Completions that met their deadline.
    pub on_time: u64,
    /// Exact sum of queueing delays.
    pub wait_sum_s: f64,
    /// Exact sum of end-to-end latencies.
    pub latency_sum_s: f64,
    /// Sum of served batch sizes across completions.
    pub batch_sum: u64,
    /// Cluster-wide latency sketch (rank error [`LATENCY_SKETCH_EPS`]).
    pub latency_sketch: QuantileSketch,
    /// Per-model aggregates, in mix declaration order.
    pub per_model: Vec<ModelStats>,
    /// The exact worst-latency request lifecycles. Maintained in both
    /// modes, so streaming runs keep explainable tails.
    pub exemplars: Exemplars,
    /// Cluster-wide per-phase attribution, when
    /// [`ScenarioCfg::slo_policy`] is set.
    pub phases: Option<PhaseStats>,
}

impl ServeStats {
    fn new(mix: &RequestMix, attrib: bool) -> Self {
        ServeStats {
            completed: 0,
            on_time: 0,
            wait_sum_s: 0.0,
            latency_sum_s: 0.0,
            batch_sum: 0,
            latency_sketch: QuantileSketch::new(LATENCY_SKETCH_EPS),
            per_model: mix
                .entries()
                .iter()
                .map(|(m, _)| ModelStats::new(*m, attrib))
                .collect(),
            exemplars: Exemplars::new(),
            phases: attrib.then(PhaseStats::new),
        }
    }

    /// Flushes every sketch's buffered inserts.
    fn flush(&mut self) {
        self.latency_sketch.flush();
        self.phases.iter_mut().for_each(PhaseStats::flush);
        for m in &mut self.per_model {
            m.latency_sketch.flush();
            m.phases.iter_mut().for_each(PhaseStats::flush);
        }
    }
}

/// The SLO-health outcome of a run: every burn-rate alert and ratchet
/// transition the online engine produced, plus the policy that produced
/// them. Present on [`SimResult::health`] when
/// [`ScenarioCfg::slo_policy`] was set.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The policy the engine evaluated.
    pub policy: SloPolicy,
    /// Burn-rate fire/clear transitions, in evaluation order.
    pub alerts: Vec<AlertEvent>,
    /// Ratcheting-queue-depth transitions, in evaluation order.
    pub ratchet: Vec<RatchetEvent>,
}

impl HealthReport {
    /// Simulated time of the first burn-rate `Fire`, if any fired.
    #[must_use]
    pub fn time_to_first_alert_s(&self) -> Option<f64> {
        self.alerts
            .iter()
            .find(|e| e.kind == AlertKind::Fire)
            .map(|e| e.t_s)
    }

    /// Simulated time of the first ratchet `Fire`, if any fired.
    #[must_use]
    pub fn time_to_first_ratchet_s(&self) -> Option<f64> {
        self.ratchet
            .iter()
            .find(|e| e.kind == AlertKind::Fire)
            .map(|e| e.t_s)
    }
}

/// Energy accounting for one run, present on [`SimResult::energy`] when
/// the [`ServiceProfile`] carried power figures
/// ([`ServiceProfile::has_power`]). Busy spans were integrated at each
/// model's modeled draw as batches launched; the idle remainder of every
/// GPU's clock is charged at [`EnergyStats::idle_w`] by the accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyStats {
    /// Board draw of an idle GPU, watts.
    pub idle_w: f64,
    /// Busy-span energy per GPU, joules (`Σ service_s × draw_w` over the
    /// batches it ran).
    pub busy_energy_j: Vec<f64>,
    /// Busy seconds per model, mix order.
    pub model_busy_s: Vec<f64>,
    /// Modeled running draw per model, watts, mix order.
    pub model_draw_w: Vec<f64>,
}

impl EnergyStats {
    /// Busy-span energy attributed to mix entry `i`, joules.
    #[must_use]
    pub fn model_energy_j(&self, i: usize) -> f64 {
        self.model_busy_s[i] * self.model_draw_w[i]
    }
}

/// Everything a simulation run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Completed requests in completion order. Empty when the scenario
    /// ran with [`ScenarioCfg::full_records`] off — use [`SimResult::stats`]
    /// then.
    pub records: Vec<RequestRecord>,
    /// Streaming aggregates (always filled, both modes).
    pub stats: ServeStats,
    /// Requests generated (admitted or not).
    pub arrivals: u64,
    /// Requests rejected by admission control.
    pub dropped: u64,
    /// Requests that abandoned the queue.
    pub abandoned: u64,
    /// Requests queued or in service when the clock first crossed the
    /// arrival horizon, counted from the live data structures.
    pub in_flight_at_horizon: u64,
    /// The arrival horizon.
    pub horizon_s: f64,
    /// Time the last event fired (drain end).
    pub end_s: f64,
    /// `∫ n(t) dt` over the whole run, where `n` is the number of
    /// requests in the system — time-average occupancy times duration,
    /// tracked independently of the per-request records for the
    /// Little's-law cross-check.
    pub area_requests_s: f64,
    /// Total queueing delay accrued by abandoned requests (their
    /// contribution to the occupancy integral).
    pub abandoned_wait_s: f64,
    /// Busy seconds per GPU.
    pub busy_s: Vec<f64>,
    /// SLO burn-rate alert + ratchet timeline, when
    /// [`ScenarioCfg::slo_policy`] was set.
    pub health: Option<HealthReport>,
    /// Energy accounting, when the profile carried power figures.
    pub energy: Option<EnergyStats>,
}

impl SimResult {
    /// Mean cluster utilization: busy GPU-seconds over `gpus × end`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.end_s <= 0.0 {
            return 0.0;
        }
        self.busy_s.iter().sum::<f64>() / (self.busy_s.len() as f64 * self.end_s)
    }

    /// Completions per second over the horizon.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        self.stats.completed as f64 / self.horizon_s.min(self.end_s).max(f64::MIN_POSITIVE)
    }

    /// On-time completions per second over the horizon — the SLO-aware
    /// throughput ("goodput").
    #[must_use]
    pub fn goodput_rps(&self) -> f64 {
        self.stats.on_time as f64 / self.horizon_s.min(self.end_s).max(f64::MIN_POSITIVE)
    }

    /// Modeled energy one GPU drew over the whole run, joules: its busy
    /// spans at each batch's model draw plus its idle remainder at idle
    /// draw. `None` when the profile carried no power figures.
    #[must_use]
    pub fn gpu_energy_j(&self, gpu: usize) -> Option<f64> {
        self.energy.as_ref().map(|e| {
            e.busy_energy_j[gpu] + (self.end_s - self.busy_s[gpu]).max(0.0) * e.idle_w
        })
    }

    /// Modeled cluster energy over the run, joules.
    #[must_use]
    pub fn total_energy_j(&self) -> Option<f64> {
        self.energy
            .as_ref()
            .map(|_| (0..self.busy_s.len()).map(|g| self.gpu_energy_j(g).expect("energy on")).sum())
    }

    /// Modeled cluster energy over the run, watt-hours.
    #[must_use]
    pub fn total_energy_wh(&self) -> Option<f64> {
        self.total_energy_j().map(|j| j / 3600.0)
    }

    /// Mean modeled board draw per GPU over the run, watts.
    #[must_use]
    pub fn mean_power_w(&self) -> Option<f64> {
        self.total_energy_j().map(|j| {
            if self.end_s > 0.0 {
                j / (self.end_s * self.busy_s.len() as f64)
            } else {
                0.0
            }
        })
    }

    /// Fraction of completed requests that met their deadline.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.stats.completed == 0 {
            return 1.0;
        }
        self.stats.on_time as f64 / self.stats.completed as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// An arrival for the model at this index of the scenario's mix.
    Arrival { mix_idx: u32 },
    Depart { gpu: usize },
    Timeout { gpu: usize },
    Abandon { slot: u32, gen: u32 },
}

/// Pooled per-request state. Slots are recycled through a free list;
/// `gen` increments on every free so events holding a `(slot, gen)`
/// reference (abandonment timers) can detect that their request is gone
/// and the slot now belongs to someone else.
#[derive(Debug, Default)]
struct ReqState {
    mix_idx: u32,
    gen: u32,
    gpu: u32,
    arrival_id: u64,
    arrival_s: f64,
    deadline_s: f64,
    depth_at_arrival: u64,
    /// GPU busy-seconds *completed* on this request's GPU at its arrival
    /// (the in-flight batch counts only its elapsed portion). The launch
    /// re-reads the same meter; the delta is the queue-phase wait.
    busy_done_at_arrival: f64,
    /// Queue-phase wait, fixed at launch.
    queue_wait_s: f64,
    /// Hold-phase wait, fixed at launch (`wait - queue`, clamped so both
    /// phases are non-negative and sum to the wait exactly).
    hold_wait_s: f64,
}

#[derive(Debug)]
struct RunningBatch {
    ids: Vec<u32>,
    start_s: f64,
    finish_s: f64,
}

/// Per-model state resolved once at simulation start so the event loop
/// never scans the mix, the profile, or the metric registry.
struct ModelInfo<'a> {
    model: ModelId,
    curve: &'a ServiceCurve,
    base_s: f64,
    /// Modeled board draw while a batch of this model runs, watts
    /// (0 when the profile carries no power figures).
    draw_w: f64,
    /// Deadline delta after arrival (`+inf` for no SLO).
    slo_delta_s: f64,
}

/// The event loop's half of the health layer (the completion sink drives
/// the burn-rate engine): the ratchet detector eats per-window mean queue
/// depths accumulated from the same occupancy spans that feed the
/// Little's-law integral.
struct HealthMonitor {
    ratchet: RatchetDetector,
    window_s: f64,
    depth_win_idx: u64,
    depth_area_s: f64,
}

impl HealthMonitor {
    fn new(window_s: f64) -> Self {
        HealthMonitor {
            ratchet: RatchetDetector::new(RATCHET_STREAK, RATCHET_GROWTH, RATCHET_MIN_DEPTH),
            window_s,
            depth_win_idx: 0,
            depth_area_s: 0.0,
        }
    }

    /// Accumulates the occupancy span `[t0, t1) × depth` into the
    /// ratchet windows, closing (and evaluating) every window boundary
    /// the span crosses. Spans arrive contiguously from t=0, so the
    /// window index advances monotonically.
    fn on_span(&mut self, t0_s: f64, t1_s: f64, depth: f64) {
        let w = self.window_s;
        let mut t = t0_s;
        while t < t1_s {
            let end = (self.depth_win_idx + 1) as f64 * w;
            let seg = t1_s.min(end);
            self.depth_area_s += depth * (seg - t);
            if seg >= end {
                self.ratchet.push(end, self.depth_area_s / w);
                self.depth_area_s = 0.0;
                self.depth_win_idx += 1;
            }
            t = seg;
        }
    }

    /// Final evaluation at the end of the run: the ratchet sees the
    /// partial depth window at its true (elapsed-time) mean.
    fn finish(&mut self, t_end_s: f64) {
        let elapsed = t_end_s - self.depth_win_idx as f64 * self.window_s;
        if elapsed > 0.0 && self.depth_area_s > 0.0 {
            self.ratchet.push(t_end_s, self.depth_area_s / elapsed);
            self.depth_area_s = 0.0;
        }
    }
}

/// One completion as the sink folds it.
#[derive(Debug)]
struct Done {
    wait_s: f64,
    latency_s: f64,
    finish_s: f64,
    mix_idx: u32,
    /// Size of the batch it was served in.
    batch: u32,
    on_time: bool,
}

/// Completions in completion order, as the loop hands them to the sink.
#[derive(Debug, Default)]
struct Batch {
    done: Vec<Done>,
    /// Queue, hold and execute seconds of each completion, when
    /// attribution is on; empty otherwise.
    phases: Vec<[f64; 3]>,
}

impl Batch {
    fn with_capacity(cap: usize, attrib: bool) -> Self {
        Batch {
            done: Vec::with_capacity(cap),
            phases: Vec::with_capacity(if attrib { cap } else { 0 }),
        }
    }

    /// An empty batch with this one's capacity.
    fn empty_like(&self) -> Self {
        Batch {
            done: Vec::with_capacity(self.done.capacity()),
            phases: Vec::with_capacity(self.phases.capacity()),
        }
    }

    fn clear(&mut self) {
        self.done.clear();
        self.phases.clear();
    }
}

/// Everything a run folds completions into: its stats (all but the
/// exemplars, which the loop keeps), its per-model histograms and, with
/// health on, the burn-rate engine. The histograms are the run's
/// registry handles, which nothing else observes during the run, so
/// whichever thread holds the folds is their lone writer.
struct Folds {
    stats: ServeStats,
    /// `serve_wait_s` and `serve_latency_s` per model, by mix index.
    hists: Vec<[Histogram; 2]>,
    /// `serve_phase_s` per model and phase (queue, hold, execute), by mix
    /// index; empty when attribution is off.
    phase_hists: Vec<[Histogram; 3]>,
    burn: Option<BurnRateEngine>,
}

impl Folds {
    fn new(cfg: &ScenarioCfg, registry: &Registry) -> Self {
        let attrib = cfg.slo_policy.is_some();
        let hist = |name: &str, labels: &[(&str, &str)]| {
            registry.histogram_with(name, labels, &latency_buckets_s())
        };
        let models: Vec<&str> = cfg.mix.models().map(model_short_name).collect();
        let hists = models
            .iter()
            .map(|&m| ["serve_wait_s", "serve_latency_s"].map(|name| hist(name, &[("model", m)])))
            .collect();
        let phase_hists = if attrib {
            models
                .iter()
                .map(|&m| {
                    ["queue", "hold", "execute"]
                        .map(|phase| hist("serve_phase_s", &[("model", m), ("phase", phase)]))
                })
                .collect()
        } else {
            Vec::new()
        };
        Folds {
            stats: ServeStats::new(&cfg.mix, attrib),
            hists,
            phase_hists,
            burn: cfg.slo_policy.clone().map(BurnRateEngine::new),
        }
    }

    /// Folds a batch in, one completion at a time in completion order.
    fn absorb(&mut self, batch: &Batch) {
        let stats = &mut self.stats;
        for d in &batch.done {
            let i = d.mix_idx as usize;
            let [wait_h, latency_h] = &self.hists[i];
            wait_h.observe(d.wait_s);
            latency_h.observe(d.latency_s);
            let m = &mut stats.per_model[i];
            if m.first_done_seq == u64::MAX {
                m.first_done_seq = stats.completed;
            }
            m.completed += 1;
            m.on_time += u64::from(d.on_time);
            m.wait_sum_s += d.wait_s;
            m.latency_sum_s += d.latency_s;
            m.batch_sum += u64::from(d.batch);
            m.latency_sketch.observe(d.latency_s);
            stats.completed += 1;
            stats.on_time += u64::from(d.on_time);
            stats.wait_sum_s += d.wait_s;
            stats.latency_sum_s += d.latency_s;
            stats.batch_sum += u64::from(d.batch);
            stats.latency_sketch.observe(d.latency_s);
            if let Some(burn) = self.burn.as_mut() {
                burn.record(d.finish_s, d.on_time);
            }
        }
        if let Some(cluster) = stats.phases.as_mut() {
            for (d, &phases) in batch.done.iter().zip(&batch.phases) {
                let i = d.mix_idx as usize;
                for (h, v) in self.phase_hists[i].iter().zip(phases) {
                    h.observe(v);
                }
                let model = stats.per_model[i].phases.as_mut();
                model.expect("attribution covers every model").observe(phases);
                cluster.observe(phases);
            }
        }
    }
}

/// The helper thread's side of the sink: folds batches until the loop
/// hangs up, handing each emptied buffer back for reuse.
fn fold_batches(mut folds: Folds, batches: Receiver<Batch>, spent: Sender<Batch>) -> Folds {
    for mut batch in batches {
        folds.absorb(&batch);
        batch.clear();
        // The loop stops taking buffers back once it has finished.
        let _ = spent.send(batch);
    }
    folds
}

/// The helper thread and its two channels.
struct Helper<'scope> {
    batches: SyncSender<Batch>,
    spent: Receiver<Batch>,
    thread: ScopedJoinHandle<'scope, Folds>,
}

/// Where the event loop's completion batches are folded: inline until
/// the run has completed `inline_limit` requests, then on a helper
/// thread (see the module docs). Dropping the sink, as a panic on the
/// loop's thread does, hangs up on the helper, which then ends.
struct CompletionSink<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    /// The folds, while they are absorbed inline.
    folds: Option<Folds>,
    /// The helper thread, once it owns the folds.
    helper: Option<Helper<'scope>>,
    /// Completions handed to the sink so far.
    seen: u64,
    inline_limit: u64,
    /// Whether the hand-off still depends on the host's CPU count.
    check_cpus: bool,
}

impl<'scope, 'env> CompletionSink<'scope, 'env> {
    /// A sink that hands off after `inline_limit` completions on any
    /// host, or by the default rule when `None`.
    fn new(scope: &'scope Scope<'scope, 'env>, folds: Folds, inline_limit: Option<u64>) -> Self {
        CompletionSink {
            scope,
            folds: Some(folds),
            helper: None,
            seen: 0,
            inline_limit: inline_limit.unwrap_or(INLINE_COMPLETIONS),
            check_cpus: inline_limit.is_none(),
        }
    }

    /// Whether the next batch should start the helper thread.
    fn hand_off_now(&mut self) -> bool {
        if self.seen < self.inline_limit {
            return false;
        }
        if std::mem::take(&mut self.check_cpus)
            && std::thread::available_parallelism().map_or(1, NonZeroUsize::get) < 2
        {
            self.inline_limit = u64::MAX;
            return false;
        }
        true
    }

    /// Takes the loop's full batch, leaving it an empty one to refill.
    fn absorb(&mut self, batch: &mut Batch) {
        if self.helper.is_none() && self.hand_off_now() {
            let folds = self.folds.take().expect("inline folds until the hand-off");
            let (batches, to_fold) = sync_channel(SINK_QUEUE_DEPTH);
            let (give_back, spent) = channel();
            let thread = self.scope.spawn(move || fold_batches(folds, to_fold, give_back));
            self.helper = Some(Helper { batches, spent, thread });
        }
        self.seen += batch.done.len() as u64;
        if let Some(folds) = self.folds.as_mut() {
            folds.absorb(batch);
            batch.clear();
            return;
        }
        let helper = self.helper.as_mut().expect("the helper owns the folds");
        let refill = helper.spent.try_recv().unwrap_or_else(|_| batch.empty_like());
        if helper.batches.send(std::mem::replace(batch, refill)).is_err() {
            // The helper hangs up early only by panicking: re-raise that here.
            let thread = self.helper.take().expect("checked above").thread;
            let panic = thread.join().err().expect("the helper stops early only by panicking");
            std::panic::resume_unwind(panic);
        }
    }

    /// Folds the last, partial batch and returns the folds, joining the
    /// helper thread if one ran.
    fn finish(mut self, batch: &mut Batch) -> Folds {
        let Some(helper) = self.helper.take() else {
            let mut folds = self.folds.take().expect("no helper, so the folds are inline");
            folds.absorb(batch);
            return folds;
        };
        let Helper { batches, thread, .. } = helper;
        if !batch.done.is_empty() {
            // A send fails only if the helper panicked; the join re-raises it.
            let _ = batches.send(std::mem::take(batch));
        }
        drop(batches);
        thread.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

struct Sim<'a> {
    cfg: &'a ScenarioCfg,
    queue: EventQueue<Event>,
    per_model: Vec<ModelInfo<'a>>,
    reqs: Vec<ReqState>,
    free: Vec<u32>,
    gpu_queues: Vec<VecDeque<u32>>,
    queued_work_s: Vec<f64>,
    queued_count: usize,
    running: Vec<Option<RunningBatch>>,
    vec_pool: Vec<Vec<u32>>,
    busy_s: Vec<f64>,
    /// Busy-span energy per GPU, joules: every launch adds
    /// `service_s × draw_w`. Zero cost when the profile is unmetered
    /// (draw is 0) — the accumulate is branch-free.
    energy_j: Vec<f64>,
    /// Busy seconds per model (mix order) — the energy report's
    /// J-per-request attribution base.
    model_busy_s: Vec<f64>,
    /// Arrivals per model (mix order), dropped ones included.
    model_arrivals: Vec<u64>,
    rr_next: usize,
    arrivals: u64,
    dropped: u64,
    abandoned: u64,
    abandoned_wait_s: f64,
    records: Vec<RequestRecord>,
    exemplars: Exemplars,
    /// Completions not yet handed to the completion sink.
    to_fold: Batch,
    batch_h: Histogram,
    area_requests_s: f64,
    last_event_s: f64,
    in_system: u64,
    in_flight_at_horizon: u64,
    horizon_snapped: bool,
    /// Flight recorder, when the caller asked for one
    /// ([`simulate_recorded`]). `None` keeps the fast path untouched:
    /// every hook site is guarded by an `Option` check.
    flight: Option<FlightRecorder>,
    /// The ratchet half of the health layer, when
    /// [`ScenarioCfg::slo_policy`] is set. Same contract as `flight`:
    /// `None` costs the fast path nothing.
    health: Option<HealthMonitor>,
}

impl<'a> Sim<'a> {
    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.reqs.push(ReqState::default());
            (self.reqs.len() - 1) as u32
        }
    }

    fn free_slot(&mut self, slot: u32) {
        let st = &mut self.reqs[slot as usize];
        st.gen = st.gen.wrapping_add(1);
        self.free.push(slot);
    }

    fn route(&mut self, mix_idx: usize) -> usize {
        match self.cfg.router {
            RouterKind::RoundRobin => {
                let gpu = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.cfg.gpus;
                gpu
            }
            RouterKind::LeastWork => self.least_work_of(0..self.cfg.gpus),
            RouterKind::ModelAffinity => {
                let n_models = self.per_model.len();
                if self.cfg.gpus >= n_models {
                    self.least_work_of(
                        (0..self.cfg.gpus).filter(|g| g % n_models == mix_idx),
                    )
                } else {
                    mix_idx % self.cfg.gpus
                }
            }
        }
    }

    fn least_work_of(&self, gpus: impl Iterator<Item = usize>) -> usize {
        let now = self.queue.now_s();
        gpus.map(|g| {
            let remaining = self.running[g]
                .as_ref()
                .map_or(0.0, |b| (b.finish_s - now).max(0.0));
            (g, remaining + self.queued_work_s[g])
        })
        // Strictly-less comparison keeps the first (lowest-index) GPU on
        // ties, so routing is deterministic.
        .fold(None::<(usize, f64)>, |best, cand| match best {
            Some((_, w)) if w <= cand.1 => best,
            _ => Some(cand),
        })
        .expect("at least one gpu")
        .0
    }

    /// Fills `out` with the batch to launch on `gpu`, or returns the
    /// instant to re-try at (static batching waiting out its timer).
    fn plan_batch(&self, gpu: usize, out: &mut Vec<u32>) -> Result<(), Option<f64>> {
        let q = &self.gpu_queues[gpu];
        if q.is_empty() {
            return Err(None);
        }
        let now = self.queue.now_s();
        match self.cfg.scheduler {
            SchedulerKind::Fifo => {
                out.push(q[0]);
                Ok(())
            }
            SchedulerKind::Static { batch, wait_s } => {
                let head = q[0];
                let mix_idx = self.reqs[head as usize].mix_idx;
                let target = batch.max(1);
                for &slot in q.iter() {
                    if self.reqs[slot as usize].mix_idx == mix_idx {
                        out.push(slot);
                        if out.len() >= target {
                            break;
                        }
                    }
                }
                let deadline = self.reqs[head as usize].arrival_s + wait_s;
                if out.len() >= target || now + 1e-12 >= deadline {
                    Ok(())
                } else {
                    out.clear();
                    Err(Some(deadline))
                }
            }
            SchedulerKind::Dynamic { max_batch } | SchedulerKind::Pods { max_batch } => {
                // Earliest-deadline-first leader, then same-model members
                // also in deadline order (ties in arrival order).
                let leader = q
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        self.reqs[a as usize]
                            .deadline_s
                            .total_cmp(&self.reqs[b as usize].deadline_s)
                            .then(
                                self.reqs[a as usize]
                                    .arrival_id
                                    .cmp(&self.reqs[b as usize].arrival_id),
                            )
                    })
                    .expect("non-empty queue");
                let mix_idx = self.reqs[leader as usize].mix_idx;
                out.extend(
                    q.iter().copied().filter(|&s| self.reqs[s as usize].mix_idx == mix_idx),
                );
                out.sort_by(|&a, &b| {
                    self.reqs[a as usize]
                        .deadline_s
                        .total_cmp(&self.reqs[b as usize].deadline_s)
                        .then(
                            self.reqs[a as usize]
                                .arrival_id
                                .cmp(&self.reqs[b as usize].arrival_id),
                        )
                });
                out.truncate(max_batch.max(1));
                Ok(())
            }
        }
    }

    /// Launches work on an idle `gpu` if its scheduler agrees.
    fn try_dispatch(&mut self, gpu: usize) {
        if self.running[gpu].is_some() {
            return;
        }
        let mut members = self.vec_pool.pop().unwrap_or_default();
        members.clear();
        match self.plan_batch(gpu, &mut members) {
            Ok(()) => {}
            Err(retry) => {
                self.vec_pool.push(members);
                if let Some(retry_at) = retry {
                    if retry_at > self.queue.now_s() {
                        self.queue.schedule(retry_at, Event::Timeout { gpu });
                        if let Some(fl) = self.flight.as_mut() {
                            fl.on_hold(self.queue.now_s(), gpu, retry_at);
                        }
                    }
                }
                return;
            }
        }
        let now = self.queue.now_s();
        let mix_idx = self.reqs[members[0] as usize].mix_idx as usize;
        let info = &self.per_model[mix_idx];
        let (curve, base_s) = (info.curve, info.base_s);
        let mut service_s = curve.batch_s(members.len());
        // Busy meter at launch: the GPU is idle here, so `busy_s` equals
        // completed busy seconds. The delta against each member's arrival
        // stamp is its queue-phase wait (GPU busy with other work); the
        // rest of the wait is the hold phase (scheduler withheld launch
        // on an idle GPU). Clamping keeps both non-negative against
        // float association error in the busy accumulator.
        let busy_done_now = self.busy_s[gpu];
        for &slot in &members {
            let st = &mut self.reqs[slot as usize];
            let wait = (now - st.arrival_s).max(0.0);
            st.queue_wait_s = (busy_done_now - st.busy_done_at_arrival).clamp(0.0, wait);
            st.hold_wait_s = wait - st.queue_wait_s;
            self.queued_work_s[gpu] -= base_s;
            let q = &mut self.gpu_queues[gpu];
            let pos = q.iter().position(|&x| x == slot).expect("queued member");
            q.remove(pos);
            self.queued_count -= 1;
        }
        self.queued_work_s[gpu] = self.queued_work_s[gpu].max(0.0);
        // Pod co-scheduling pays off when another batch is waiting to
        // interleave with this one (Section V: denoising pods overlap
        // compute- and memory-bound stages of concurrent requests).
        let mut pod_applied = false;
        if matches!(self.cfg.scheduler, SchedulerKind::Pods { .. })
            && !self.gpu_queues[gpu].is_empty()
        {
            service_s /= curve.pod_factor.max(1.0);
            pod_applied = true;
        }
        let finish_s = now + service_s;
        self.busy_s[gpu] += service_s;
        let draw_w = self.per_model[mix_idx].draw_w;
        self.energy_j[gpu] += service_s * draw_w;
        self.model_busy_s[mix_idx] += service_s;
        self.batch_h.observe(members.len() as f64);
        if let Some(fl) = self.flight.as_mut() {
            let wait_max_s = members
                .iter()
                .map(|&s| now - self.reqs[s as usize].arrival_s)
                .fold(0.0f64, f64::max);
            fl.on_launch(
                gpu,
                self.per_model[mix_idx].model,
                members.len(),
                now,
                finish_s,
                wait_max_s,
                self.gpu_queues[gpu].len(),
                pod_applied,
                draw_w,
            );
        }
        self.running[gpu] = Some(RunningBatch { ids: members, start_s: now, finish_s });
        self.queue.schedule(finish_s, Event::Depart { gpu });
    }

    fn on_arrival(&mut self, mix_idx: usize) {
        let now = self.queue.now_s();
        let arrival_id = self.arrivals;
        self.arrivals += 1;
        assert!(mix_idx < self.per_model.len(), "stream mix index out of range");
        self.model_arrivals[mix_idx] += 1;
        let info = &self.per_model[mix_idx];
        let deadline_s = now + info.slo_delta_s;
        let base_s = info.base_s;
        if let Some(cap) = self.cfg.max_queue {
            if self.queued_count >= cap {
                self.dropped += 1;
                if let Some(fl) = self.flight.as_mut() {
                    fl.on_drop(now);
                }
                return;
            }
        }
        self.in_system += 1;
        let depth_at_arrival = self.in_system;
        let gpu = self.route(mix_idx);
        let slot = self.alloc_slot();
        // Phase-attribution meter: busy seconds the GPU has *completed*
        // by now. The in-flight batch (if any) was pre-credited its full
        // service at launch, so subtract the portion still to run.
        let busy_done_at_arrival = self.busy_s[gpu]
            - self.running[gpu]
                .as_ref()
                .map_or(0.0, |b| (b.finish_s - now).max(0.0));
        {
            let st = &mut self.reqs[slot as usize];
            st.mix_idx = mix_idx as u32;
            st.gpu = gpu as u32;
            st.arrival_id = arrival_id;
            st.arrival_s = now;
            st.deadline_s = deadline_s;
            st.depth_at_arrival = depth_at_arrival;
            st.busy_done_at_arrival = busy_done_at_arrival;
        }
        self.gpu_queues[gpu].push_back(slot);
        self.queued_count += 1;
        self.queued_work_s[gpu] += base_s;
        if let Some(patience_s) = self.cfg.abandon_after_s {
            let gen = self.reqs[slot as usize].gen;
            self.queue.schedule(now + patience_s, Event::Abandon { slot, gen });
        }
        self.try_dispatch(gpu);
    }

    fn on_depart(&mut self, gpu: usize) {
        let batch = self.running[gpu].take().expect("depart from idle gpu");
        let size = batch.ids.len();
        let attrib = self.cfg.slo_policy.is_some();
        for i in 0..size {
            let slot = batch.ids[i];
            let st = &self.reqs[slot as usize];
            let mix_idx = st.mix_idx;
            let arrival_id = st.arrival_id;
            let arrival_s = st.arrival_s;
            let deadline_s = st.deadline_s;
            let depth_at_arrival = st.depth_at_arrival;
            let queue_s = st.queue_wait_s;
            let hold_s = st.hold_wait_s;
            self.in_system -= 1;
            self.free_slot(slot);

            let latency_s = batch.finish_s - arrival_s;
            let on_time = batch.finish_s <= deadline_s;
            self.to_fold.done.push(Done {
                wait_s: batch.start_s - arrival_s,
                latency_s,
                finish_s: batch.finish_s,
                mix_idx,
                batch: size as u32,
                on_time,
            });
            // Needed only by attribution, a retained exemplar or a record.
            let execute_s = || conserving_execute_s(queue_s, hold_s, latency_s);
            if attrib {
                self.to_fold.phases.push([queue_s, hold_s, execute_s()]);
            }
            let record = || RequestRecord {
                id: arrival_id,
                model: self.per_model[mix_idx as usize].model,
                arrival_s,
                start_s: batch.start_s,
                finish_s: batch.finish_s,
                deadline_s,
                gpu,
                batch: size,
                depth_at_arrival,
                queue_s,
                hold_s,
                execute_s: execute_s(),
            };
            self.exemplars.observe(latency_s, arrival_id, record);
            if let Some(fl) = self.flight.as_mut() {
                fl.on_complete(batch.finish_s, latency_s, on_time);
            }
            if self.cfg.full_records {
                self.records.push(record());
            }
        }
        let mut ids = batch.ids;
        ids.clear();
        self.vec_pool.push(ids);
        self.try_dispatch(gpu);
    }

    fn on_abandon(&mut self, slot: u32, gen: u32) {
        let st = &self.reqs[slot as usize];
        // A stale timer: the request already departed (or abandoned) and
        // the slot may have been recycled since.
        if st.gen != gen {
            return;
        }
        let gpu = st.gpu as usize;
        // Not on its GPU's queue: the request is running and can no
        // longer give up.
        let Some(pos) = self.gpu_queues[gpu].iter().position(|&x| x == slot) else {
            return;
        };
        self.gpu_queues[gpu].remove(pos);
        self.queued_count -= 1;
        let now = self.queue.now_s();
        let waited = now - st.arrival_s;
        let base_s = self.per_model[st.mix_idx as usize].base_s;
        self.queued_work_s[gpu] = (self.queued_work_s[gpu] - base_s).max(0.0);
        self.in_system -= 1;
        self.abandoned += 1;
        self.abandoned_wait_s += waited;
        if let Some(fl) = self.flight.as_mut() {
            fl.on_abandon(now, gpu, waited);
        }
        self.free_slot(slot);
    }
}

/// Runs a scenario to completion (arrivals stop at the horizon or
/// request cap; in-flight work drains) and returns the full result.
/// Metrics stream into `registry` under `serve_*` names.
///
/// # Panics
///
/// Panics with the message of [`ScenarioCfg::validate`] if the scenario
/// fails it (an arrival process [`crate::ArrivalGen::new`] refuses
/// panics first, there, with the same message), or if the scenario
/// references a model the profile has no curve for.
#[must_use]
pub fn simulate(cfg: &ScenarioCfg, profile: &ServiceProfile, registry: &Registry) -> SimResult {
    run(cfg, profile, registry, None, &mut scenario_stream(cfg), 0.0, None).0
}

/// Like [`simulate`], with a [`FlightRecorder`] attached: the returned
/// recorder holds the run's per-GPU batch timeline, scheduler instants,
/// and windowed counters, ready for
/// [`FlightRecorder::to_chrome_trace_object`]. Recording never changes
/// the simulated trajectory — the [`SimResult`] is identical to an
/// unrecorded run of the same scenario.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
#[must_use]
pub fn simulate_recorded(
    cfg: &ScenarioCfg,
    profile: &ServiceProfile,
    registry: &Registry,
    flight_cfg: FlightCfg,
) -> (SimResult, FlightRecorder) {
    let recorder = FlightRecorder::new(flight_cfg, cfg.gpus);
    let (result, flight) =
        run(cfg, profile, registry, Some(recorder), &mut scenario_stream(cfg), 0.0, None);
    (result, flight.expect("recorder threaded through the run"))
}

/// The scenario's own arrival stream: times seeded by `seed`, model
/// draws by `seed + 1`, capped at `max_requests`.
fn scenario_stream(cfg: &ScenarioCfg) -> RegionStream {
    let mix_seed = cfg.seed.wrapping_add(1);
    RegionStream::seeded(cfg.arrival, cfg.mix.clone(), cfg.seed, mix_seed, cfg.max_requests)
}

/// Runs a scenario on the arrivals `arrivals` holds in
/// `[offset, offset + duration_s)`, at times relative to `offset`; the
/// stream's mix indices address the scenario's mix. The completion sink
/// moves to a helper thread after `inline_limit` completions on any
/// host, or by the default rule (see the module docs) when it is `None`.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`], or on a mix index
/// out of range for the scenario's mix.
pub(crate) fn run(
    cfg: &ScenarioCfg,
    profile: &ServiceProfile,
    registry: &Registry,
    flight: Option<FlightRecorder>,
    arrivals: &mut RegionStream,
    offset: f64,
    inline_limit: Option<u64>,
) -> (SimResult, Option<FlightRecorder>) {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    for model in cfg.mix.models() {
        assert!(profile.curve(model).is_some(), "no service curve for {model}");
    }
    // Schedules the window's next arrival at its window-relative time.
    let window_end_s = offset + cfg.duration_s;
    let mut schedule_arrival = |queue: &mut EventQueue<Event>| {
        if let Some((t, mix_idx)) = arrivals.next_before(window_end_s) {
            queue.schedule(t - offset, Event::Arrival { mix_idx: mix_idx as u32 });
        }
    };

    // Resolve per-model curves, deadlines, and telemetry handles once;
    // the event loop then never touches the registry's lock or re-scans
    // the mix.
    let per_model: Vec<ModelInfo<'_>> = cfg
        .mix
        .entries()
        .iter()
        .map(|(model, _)| {
            let curve = profile.curve(*model).expect("checked above");
            ModelInfo {
                model: *model,
                curve,
                base_s: curve.base_s(),
                draw_w: curve.draw_w,
                slo_delta_s: cfg.slo.slo_s(curve),
            }
        })
        .collect();
    let folds = Folds::new(cfg, registry);

    let mut sim = Sim {
        cfg,
        queue: EventQueue::new(),
        per_model,
        reqs: Vec::new(),
        free: Vec::new(),
        gpu_queues: vec![VecDeque::new(); cfg.gpus],
        queued_work_s: vec![0.0; cfg.gpus],
        queued_count: 0,
        running: (0..cfg.gpus).map(|_| None).collect(),
        vec_pool: Vec::new(),
        busy_s: vec![0.0; cfg.gpus],
        energy_j: vec![0.0; cfg.gpus],
        model_busy_s: vec![0.0; cfg.mix.entries().len()],
        model_arrivals: vec![0; cfg.mix.entries().len()],
        rr_next: 0,
        arrivals: 0,
        dropped: 0,
        abandoned: 0,
        abandoned_wait_s: 0.0,
        records: Vec::new(),
        exemplars: Exemplars::new(),
        // A departure can push a whole launched batch past SINK_BATCH.
        to_fold: Batch::with_capacity(
            SINK_BATCH + cfg.scheduler.batch_cap().min(SINK_BATCH),
            cfg.slo_policy.is_some(),
        ),
        batch_h: registry
            .histogram("serve_batch_size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
        area_requests_s: 0.0,
        last_event_s: 0.0,
        in_system: 0,
        in_flight_at_horizon: 0,
        horizon_snapped: false,
        flight,
        health: cfg.slo_policy.as_ref().map(|policy| HealthMonitor::new(policy.window_s)),
    };

    schedule_arrival(&mut sim.queue);

    let (any_events, folds) = std::thread::scope(|scope| {
        let mut sink = CompletionSink::new(scope, folds, inline_limit);
        let mut any_events = false;
        while let Some((t, event)) = sim.queue.pop() {
            any_events = true;
            // n(t) is constant between events; accumulate the occupancy
            // integral before the state changes.
            sim.area_requests_s += sim.in_system as f64 * (t - sim.last_event_s);
            if let Some(fl) = sim.flight.as_mut() {
                if t > sim.last_event_s {
                    fl.on_occupancy(sim.last_event_s, t, sim.in_system);
                }
            }
            if let Some(hm) = sim.health.as_mut() {
                if t > sim.last_event_s {
                    hm.on_span(sim.last_event_s, t, sim.in_system as f64);
                }
            }
            sim.last_event_s = t;
            if !sim.horizon_snapped && t >= cfg.duration_s {
                sim.horizon_snapped = true;
                sim.in_flight_at_horizon = sim.in_system;
            }
            match event {
                Event::Arrival { mix_idx } => {
                    sim.on_arrival(mix_idx as usize);
                    schedule_arrival(&mut sim.queue);
                }
                Event::Depart { gpu } => {
                    sim.on_depart(gpu);
                    if sim.to_fold.done.len() >= SINK_BATCH {
                        sink.absorb(&mut sim.to_fold);
                    }
                }
                Event::Timeout { gpu } => sim.try_dispatch(gpu),
                Event::Abandon { slot, gen } => sim.on_abandon(slot, gen),
            }
        }
        (any_events, sink.finish(&mut sim.to_fold))
    });
    let Folds { mut stats, burn, .. } = folds;
    stats.flush();
    stats.exemplars = sim.exemplars;

    // Gauges are instantaneous: setting them once after the loop leaves
    // the same final values as the per-event updates the slow path did.
    if any_events {
        registry.gauge("serve_queue_depth").set(sim.queued_count as f64);
        registry.gauge("serve_in_flight").set(sim.in_system as f64);
    }

    let end_s = sim.last_event_s;
    for (g, busy) in sim.busy_s.iter().enumerate() {
        let gpu_label = g.to_string();
        registry
            .gauge_with("serve_gpu_utilization", &[("gpu", gpu_label.as_str())])
            .set(if end_s > 0.0 { busy / end_s } else { 0.0 });
    }

    // Energy close-out: busy spans were integrated at launch; the
    // result's accessors charge the idle remainder of each GPU's clock at
    // the profile's idle draw. Everything here is gated on the profile
    // actually carrying power figures, so unmetered runs emit no energy
    // metrics at all and their registries (and flight traces) stay
    // byte-identical to before the energy layer existed.
    let energy = profile.has_power().then(|| EnergyStats {
        idle_w: profile.idle_w,
        busy_energy_j: sim.energy_j,
        model_busy_s: sim.model_busy_s,
        model_draw_w: sim.per_model.iter().map(|m| m.draw_w).collect(),
    });
    if let (Some(e), Some(fl)) = (&energy, sim.flight.as_mut()) {
        fl.enable_power(e.idle_w);
    }

    debug_assert_eq!(sim.in_system, 0, "drain left requests in the system");

    // The counters are added once, from the run's exact counts.
    for (m, &arrivals) in stats.per_model.iter().zip(&sim.model_arrivals) {
        let labels = [("model", model_short_name(m.model))];
        registry.counter_with("serve_requests_total", &labels).add(arrivals);
        registry.counter_with("serve_slo_miss_total", &labels).add(m.completed - m.on_time);
    }
    registry.counter("serve_drops_total").add(sim.dropped);
    registry.counter("serve_abandons_total").add(sim.abandoned);

    let health = sim.health.take().zip(burn).map(|(mut hm, mut burn)| {
        hm.finish(end_s);
        burn.finish(end_s);
        let report = HealthReport {
            policy: burn.policy().clone(),
            alerts: burn.events().to_vec(),
            ratchet: hm.ratchet.events().to_vec(),
        };
        // Alert/ratchet transitions become flight-recorder instants and
        // registry counters only now, after the loop: both event vecs are
        // chronological, so the trace stays time-ordered, and the hot
        // loop never touches a counter for the health layer.
        for ev in &report.alerts {
            let fire = matches!(ev.kind, AlertKind::Fire);
            if let Some(fl) = sim.flight.as_mut() {
                fl.on_alert(ev.t_s, ev.rule as u32, fire, ev.long_burn, ev.short_burn);
            }
            registry
                .counter_with("serve_alert_transitions_total", &[("kind", ev.kind.label())])
                .inc();
        }
        for ev in &report.ratchet {
            let fire = matches!(ev.kind, AlertKind::Fire);
            if let Some(fl) = sim.flight.as_mut() {
                fl.on_ratchet(ev.t_s, fire, ev.depth);
            }
            registry
                .counter_with("serve_ratchet_transitions_total", &[("kind", ev.kind.label())])
                .inc();
        }
        if let Some(tta) = report.time_to_first_alert_s() {
            registry.gauge("serve_time_to_first_alert_s").set(tta);
        }
        registry.describe(
            "serve_alert_transitions_total",
            "burn-rate alert fire/clear transitions over the run",
        );
        registry.describe(
            "serve_ratchet_transitions_total",
            "ratcheting-queue-depth anomaly fire/clear transitions",
        );
        registry.describe(
            "serve_time_to_first_alert_s",
            "sim time of the first burn-rate alert fire, if any",
        );
        report
    });
    if cfg.slo_policy.is_some() {
        registry.describe(
            "serve_phase_s",
            "per-request latency attribution by phase (queue, hold, execute)",
        );
    }

    let result = SimResult {
        records: sim.records,
        stats,
        arrivals: sim.arrivals,
        dropped: sim.dropped,
        abandoned: sim.abandoned,
        in_flight_at_horizon: sim.in_flight_at_horizon,
        horizon_s: cfg.duration_s,
        end_s,
        area_requests_s: sim.area_requests_s,
        abandoned_wait_s: sim.abandoned_wait_s,
        busy_s: sim.busy_s,
        health,
        energy,
    };
    if let Some(total_wh) = result.total_energy_wh() {
        for g in 0..result.busy_s.len() {
            let gpu_label = g.to_string();
            registry
                .gauge_with("serve_gpu_energy_wh", &[("gpu", gpu_label.as_str())])
                .set(result.gpu_energy_j(g).expect("a metered run") / 3600.0);
        }
        registry.gauge("serve_energy_wh").set(total_wh);
        registry.gauge("serve_mean_power_w").set(result.mean_power_w().expect("a metered run"));
        registry.describe("serve_energy_wh", "modeled cluster energy over the run, watt-hours");
        registry
            .describe("serve_gpu_energy_wh", "modeled per-GPU energy over the run, watt-hours");
        registry
            .describe("serve_mean_power_w", "mean modeled board draw per GPU over the run, watts");
    }
    (result, sim.flight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::CLUSTER_LANE;

    fn constant_profile(service_s: f64) -> ServiceProfile {
        ServiceProfile::new(vec![ServiceCurve::constant(ModelId::StableDiffusion, service_s)])
    }

    /// A curve with strong batching benefit: batch of 16 costs only 2×
    /// batch 1 (decode-like amortization).
    fn batching_profile(service_s: f64) -> ServiceProfile {
        ServiceProfile::new(vec![ServiceCurve::new(
            ModelId::StableDiffusion,
            vec![(1, service_s), (4, 1.3 * service_s), (16, 2.0 * service_s)],
        )])
    }

    fn scenario(scheduler: SchedulerKind, rate: f64, duration_s: f64) -> ScenarioCfg {
        ScenarioCfg::new(
            2,
            RequestMix::single(ModelId::StableDiffusion),
            ArrivalProcess::poisson(rate),
            scheduler,
            SloSpec::FixedS(2.0),
            duration_s,
            7,
        )
    }

    #[test]
    fn validate_refuses_scenarios_that_cannot_terminate() {
        let ok = scenario(SchedulerKind::Fifo, 3.0, 200.0);
        assert_eq!(ok.validate(), Ok(()));
        let mut cfg = ok.clone();
        cfg.gpus = 0;
        assert!(cfg.validate().unwrap_err().contains("GPU"));
        for d in [f64::INFINITY, f64::NAN, 0.0] {
            let cfg = ScenarioCfg { duration_s: d, ..ok.clone() };
            assert!(cfg.validate().unwrap_err().contains("duration"), "{d}");
        }
        for r in [f64::INFINITY, f64::NAN, 0.0] {
            let cfg = ScenarioCfg { arrival: ArrivalProcess::poisson(r), ..ok.clone() };
            assert!(cfg.validate().unwrap_err().contains("arrival rate"), "{r}");
        }
        // 1e12 rps over 200 s expects 2e14 arrivals, unless a request
        // cap bounds the run first.
        let flood = ScenarioCfg { arrival: ArrivalProcess::poisson(1e12), ..ok.clone() };
        let err = flood.validate().unwrap_err();
        assert!(err.starts_with("expected arrival count 2.000e14 exceeds"), "{err}");
        let capped = ScenarioCfg { max_requests: Some(1_000), ..flood };
        assert_eq!(capped.validate(), Ok(()));
        // A request cap also bounds an endless horizon.
        let endless = ScenarioCfg { duration_s: f64::INFINITY, ..capped };
        assert_eq!(endless.validate(), Ok(()));
    }

    #[test]
    fn validate_refuses_a_static_wait_that_is_not_finite() {
        let ok = scenario(SchedulerKind::Static { batch: 8, wait_s: 1.0 }, 2.0, 100.0);
        assert_eq!(ok.validate(), Ok(()));
        for wait_s in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            let cfg =
                ScenarioCfg { scheduler: SchedulerKind::Static { batch: 8, wait_s }, ..ok.clone() };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("static batching wait must be finite"), "{wait_s}: {err}");
        }
    }

    #[test]
    fn validate_refuses_a_patience_that_is_negative_or_not_finite() {
        let ok = ScenarioCfg { abandon_after_s: Some(0.0), ..scenario(SchedulerKind::Fifo, 2.0, 100.0) };
        assert_eq!(ok.validate(), Ok(()));
        for patience_s in [f64::NAN, f64::INFINITY, -1.0] {
            let cfg = ScenarioCfg { abandon_after_s: Some(patience_s), ..ok.clone() };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("abandonment patience"), "{patience_s}: {err}");
        }
    }

    /// The scenario with its health policy edited by `edit`, and what
    /// `validate` says about it.
    fn with_policy(edit: impl FnOnce(&mut SloPolicy)) -> Result<(), String> {
        let mut cfg = scenario(SchedulerKind::Fifo, 2.0, 100.0).with_health(0.95);
        assert_eq!(cfg.validate(), Ok(()));
        edit(cfg.slo_policy.as_mut().expect("with_health sets a policy"));
        cfg.validate()
    }

    #[test]
    fn validate_refuses_an_slo_objective_outside_0_1() {
        for objective in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            let err = with_policy(|p| p.objective = objective).unwrap_err();
            assert!(err.starts_with("SLO objective must be in (0, 1), got"), "{objective}: {err}");
        }
    }

    #[test]
    fn validate_refuses_an_slo_base_window_that_is_not_positive() {
        for window_s in [0.0, -1.0, f64::NAN] {
            let err = with_policy(|p| p.window_s = window_s).unwrap_err();
            assert!(err.starts_with("SLO base window must be positive, got"), "{window_s}: {err}");
        }
    }

    #[test]
    fn validate_refuses_an_slo_policy_without_rules() {
        let err = with_policy(|p| p.rules.clear()).unwrap_err();
        assert_eq!(err, "SLO policy needs at least one burn-rate rule");
    }

    #[test]
    #[should_panic(expected = "abandonment patience must be non-negative and finite, got NaN")]
    fn simulate_panics_with_the_validation_message() {
        let cfg =
            ScenarioCfg { abandon_after_s: Some(f64::NAN), ..scenario(SchedulerKind::Fifo, 2.0, 100.0) };
        let _ = simulate(&cfg, &constant_profile(0.5), &Registry::new());
    }

    #[test]
    fn conserves_requests() {
        let cfg = scenario(SchedulerKind::Fifo, 3.0, 200.0);
        let r = simulate(&cfg, &constant_profile(0.5), &Registry::new());
        assert!(r.arrivals > 100);
        assert_eq!(
            r.arrivals,
            r.records.len() as u64 + r.dropped + r.abandoned,
            "every arrival must complete, drop, or abandon"
        );
        let done_by_horizon =
            r.records.iter().filter(|rec| rec.finish_s < r.horizon_s).count() as u64;
        assert_eq!(r.arrivals, done_by_horizon + r.in_flight_at_horizon);
    }

    #[test]
    fn littles_law_area_matches_sojourns() {
        let cfg = scenario(SchedulerKind::Fifo, 3.0, 300.0);
        let r = simulate(&cfg, &constant_profile(0.4), &Registry::new());
        let sojourn: f64 = r.records.iter().map(RequestRecord::latency_s).sum();
        let rel = (r.area_requests_s - sojourn).abs() / sojourn;
        assert!(rel < 1e-9, "area {} vs sojourn {sojourn}", r.area_requests_s);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = scenario(SchedulerKind::Dynamic { max_batch: 8 }, 4.0, 100.0);
        let a = simulate(&cfg, &batching_profile(0.5), &Registry::new());
        let b = simulate(&cfg, &batching_profile(0.5), &Registry::new());
        assert_eq!(a, b);
        let other = ScenarioCfg { seed: 8, ..cfg };
        let c = simulate(&other, &batching_profile(0.5), &Registry::new());
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn streaming_mode_matches_full_records_aggregates() {
        // Same seed, records on vs off: the trajectory must be identical,
        // so every streaming aggregate must equal the exact one.
        let cfg = scenario(SchedulerKind::Dynamic { max_batch: 8 }, 4.0, 200.0);
        let full = simulate(&cfg, &batching_profile(0.5), &Registry::new());
        let streaming_cfg = ScenarioCfg { full_records: false, ..cfg };
        let streaming = simulate(&streaming_cfg, &batching_profile(0.5), &Registry::new());
        assert!(streaming.records.is_empty());
        assert_eq!(streaming.stats, full.stats);
        assert_eq!(streaming.arrivals, full.arrivals);
        assert_eq!(streaming.area_requests_s, full.area_requests_s);
        assert_eq!(streaming.busy_s, full.busy_s);
        assert_eq!(full.stats.completed, full.records.len() as u64);
        let on_time = full.records.iter().filter(|r| r.on_time()).count() as u64;
        assert_eq!(full.stats.on_time, on_time);
        let lat: f64 = full.records.iter().map(RequestRecord::latency_s).sum();
        assert!((full.stats.latency_sum_s - lat).abs() < 1e-9);
    }

    #[test]
    fn dynamic_batching_beats_fifo_under_load() {
        // Offered utilization ~1.2 on a batch-1 basis: FIFO saturates,
        // dynamic batching rides the amortization curve.
        let profile = batching_profile(0.5);
        let fifo = simulate(&scenario(SchedulerKind::Fifo, 5.0, 300.0), &profile, &Registry::new());
        let dynamic = simulate(
            &scenario(SchedulerKind::Dynamic { max_batch: 16 }, 5.0, 300.0),
            &profile,
            &Registry::new(),
        );
        assert!(
            dynamic.goodput_rps() > 1.5 * fifo.goodput_rps(),
            "dynamic {} vs fifo {}",
            dynamic.goodput_rps(),
            fifo.goodput_rps()
        );
    }

    #[test]
    fn pods_beat_dynamic_when_factor_high() {
        let mut profile = batching_profile(0.5);
        profile.curves[0].pod_factor = 1.5;
        let dynamic = simulate(
            &scenario(SchedulerKind::Dynamic { max_batch: 8 }, 6.0, 300.0),
            &profile,
            &Registry::new(),
        );
        let pods = simulate(
            &scenario(SchedulerKind::Pods { max_batch: 8 }, 6.0, 300.0),
            &profile,
            &Registry::new(),
        );
        assert!(
            pods.throughput_rps() >= dynamic.throughput_rps(),
            "pods {} vs dynamic {}",
            pods.throughput_rps(),
            dynamic.throughput_rps()
        );
        assert!(pods.records.iter().all(|r| r.latency_s() > 0.0));
    }

    #[test]
    fn static_batching_waits_then_launches() {
        // One slow trickle: static must launch partial batches after the
        // timeout instead of waiting forever.
        let cfg = scenario(SchedulerKind::Static { batch: 8, wait_s: 0.25 }, 0.5, 60.0);
        let r = simulate(&cfg, &batching_profile(0.5), &Registry::new());
        assert!(!r.records.is_empty());
        assert_eq!(r.arrivals, r.records.len() as u64);
        // Light traffic: batches stay small, waits bounded by the timer
        // plus in-service time ahead of the request.
        for rec in &r.records {
            assert!(rec.batch < 8, "unexpected full batch in light traffic");
        }
    }

    #[test]
    fn abandonment_and_admission_control_count_drops() {
        let mut cfg = scenario(SchedulerKind::Fifo, 8.0, 60.0);
        cfg.abandon_after_s = Some(1.0);
        cfg.max_queue = Some(10);
        // Overloaded single GPU.
        cfg.gpus = 1;
        let reg = Registry::new();
        let r = simulate(&cfg, &constant_profile(0.5), &reg);
        assert!(r.dropped > 0, "admission control never fired");
        assert!(r.abandoned > 0, "abandonment never fired");
        assert_eq!(r.arrivals, r.records.len() as u64 + r.dropped + r.abandoned);
        assert_eq!(reg.counter("serve_drops_total").get(), r.dropped);
        assert_eq!(reg.counter("serve_abandons_total").get(), r.abandoned);
    }

    #[test]
    fn slot_pool_recycles_under_churn() {
        // Heavy abandonment churn: the pool must stay bounded by peak
        // concurrency, and stale abandon timers must never fire on
        // recycled slots (conservation would break if they did).
        let mut cfg = scenario(SchedulerKind::Fifo, 12.0, 120.0);
        cfg.abandon_after_s = Some(0.4);
        cfg.gpus = 1;
        cfg.full_records = false;
        let r = simulate(&cfg, &constant_profile(0.5), &Registry::new());
        assert!(r.abandoned > 100, "churn scenario must abandon plenty");
        assert_eq!(r.arrivals, r.stats.completed + r.dropped + r.abandoned);
    }

    #[test]
    fn depth_at_arrival_counts_outstanding_requests() {
        // Deterministic hand check: single GPU, service 1.0, arrivals
        // faster than service. The k-th arrival sees all earlier
        // unfinished requests plus itself.
        let cfg = ScenarioCfg {
            gpus: 1,
            ..scenario(SchedulerKind::Fifo, 4.0, 50.0)
        };
        let r = simulate(&cfg, &constant_profile(1.0), &Registry::new());
        for rec in &r.records {
            let outstanding = r
                .records
                .iter()
                .filter(|o| o.arrival_s < rec.arrival_s && o.finish_s > rec.arrival_s)
                .count() as u64;
            assert_eq!(
                rec.depth_at_arrival,
                outstanding + 1,
                "request {} depth mismatch",
                rec.id
            );
        }
    }

    #[test]
    fn routers_spread_load() {
        for router in [RouterKind::RoundRobin, RouterKind::LeastWork] {
            let mut cfg = scenario(SchedulerKind::Fifo, 3.0, 200.0);
            cfg.gpus = 4;
            cfg.router = router;
            let r = simulate(&cfg, &constant_profile(0.5), &Registry::new());
            let total: f64 = r.busy_s.iter().sum();
            for (g, b) in r.busy_s.iter().enumerate() {
                assert!(
                    *b > 0.1 * total / 4.0,
                    "{router:?}: gpu {g} starved ({b} of {total})"
                );
            }
        }
    }

    #[test]
    fn affinity_router_pools_same_model_requests() {
        let mix = RequestMix::new(vec![
            (ModelId::StableDiffusion, 1.0),
            (ModelId::Parti, 1.0),
        ]);
        let profile = ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 0.4),
            ServiceCurve::constant(ModelId::Parti, 0.4),
        ]);
        let cfg = ScenarioCfg {
            router: RouterKind::ModelAffinity,
            ..ScenarioCfg::new(
                4,
                mix,
                ArrivalProcess::poisson(4.0),
                SchedulerKind::Fifo,
                SloSpec::None,
                100.0,
                3,
            )
        };
        let r = simulate(&cfg, &profile, &Registry::new());
        // Even GPUs serve SD, odd GPUs serve Parti — never mixed.
        for rec in &r.records {
            let expected_parity = usize::from(rec.model == ModelId::Parti);
            assert_eq!(rec.gpu % 2, expected_parity, "{:?} on gpu {}", rec.model, rec.gpu);
        }
    }

    #[test]
    fn slo_service_multiple_scales_per_model() {
        let curve = ServiceCurve::constant(ModelId::Parti, 2.0);
        assert_eq!(SloSpec::ServiceMultiple(4.0).slo_s(&curve), 8.0);
        assert_eq!(SloSpec::FixedS(1.5).slo_s(&curve), 1.5);
        assert_eq!(SloSpec::None.slo_s(&curve), f64::INFINITY);
    }

    #[test]
    fn max_requests_caps_arrivals() {
        let mut cfg = scenario(SchedulerKind::Fifo, 10.0, 1e9);
        cfg.max_requests = Some(50);
        let r = simulate(&cfg, &constant_profile(0.1), &Registry::new());
        assert_eq!(r.arrivals, 50);
        assert_eq!(r.records.len(), 50);
    }

    #[test]
    fn parse_helpers() {
        assert_eq!(RouterKind::parse("round-robin").unwrap(), RouterKind::RoundRobin);
        assert_eq!(RouterKind::parse("AFFINITY").unwrap(), RouterKind::ModelAffinity);
        assert!(RouterKind::parse("hash").is_err());
        assert_eq!(
            SchedulerKind::parse("dynamic", 8).unwrap(),
            SchedulerKind::Dynamic { max_batch: 8 }
        );
        assert_eq!(SchedulerKind::parse("fifo", 8).unwrap().name(), "fifo");
        assert!(SchedulerKind::parse("edf", 8).is_err());
    }

    /// The conservation invariant, bitwise: for every completed request
    /// `(queue + hold) + execute == latency` with zero float slack,
    /// across schedulers with very different phase mixes.
    #[test]
    fn phases_conserve_latency_bitwise() {
        for scheduler in [
            SchedulerKind::Fifo,
            SchedulerKind::Static { batch: 8, wait_s: 0.25 },
            SchedulerKind::Dynamic { max_batch: 16 },
        ] {
            let cfg = scenario(scheduler, 5.0, 120.0).with_health(0.95);
            let r = simulate(&cfg, &batching_profile(0.5), &Registry::new());
            assert!(r.records.len() > 100, "{scheduler:?}: thin run");
            for rec in r.records.iter().chain(r.stats.exemplars.worst()) {
                assert!(
                    rec.queue_s >= 0.0 && rec.hold_s >= 0.0 && rec.execute_s >= 0.0,
                    "request {}: negative phase ({}, {}, {})",
                    rec.id,
                    rec.queue_s,
                    rec.hold_s,
                    rec.execute_s
                );
                let sum = (rec.queue_s + rec.hold_s) + rec.execute_s;
                assert!(
                    sum == rec.latency_s(),
                    "request {}: phases sum {} != latency {} ({scheduler:?})",
                    rec.id,
                    sum,
                    rec.latency_s()
                );
            }
            // The exact phase sums therefore telescope into the latency sum.
            let ph = r.stats.phases.as_ref().expect("attrib on");
            let total = ph.queue_sum_s + ph.hold_sum_s + ph.execute_sum_s;
            assert!(
                (total - r.stats.latency_sum_s).abs() < 1e-6 * r.stats.latency_sum_s.max(1.0),
                "{scheduler:?}: phase total {total} vs latency sum {}",
                r.stats.latency_sum_s
            );
        }
    }

    /// Instrumentation must be read-only: turning attribution and the
    /// health engine on cannot change the simulated sample path.
    #[test]
    fn attrib_and_health_do_not_change_trajectory() {
        let base = scenario(SchedulerKind::Dynamic { max_batch: 8 }, 5.0, 150.0);
        let plain = simulate(&base, &batching_profile(0.5), &Registry::new());
        let instrumented_cfg = base.clone().with_health(0.95);
        assert!(instrumented_cfg.slo_policy.is_some());
        let instrumented = simulate(&instrumented_cfg, &batching_profile(0.5), &Registry::new());
        assert_eq!(plain.records, instrumented.records);
        assert_eq!(plain.busy_s, instrumented.busy_s);
        assert_eq!(plain.arrivals, instrumented.arrivals);
        assert_eq!(plain.area_requests_s, instrumented.area_requests_s);
        assert_eq!(plain.stats.latency_sum_s, instrumented.stats.latency_sum_s);
        assert!(plain.health.is_none());
        assert!(instrumented.health.is_some());
    }

    /// Streaming phase quantiles respect the sketch's documented rank
    /// bound against the exact per-phase order statistics.
    #[test]
    fn phase_sketch_p99_respects_rank_bound() {
        let cfg = scenario(SchedulerKind::Dynamic { max_batch: 16 }, 20.0, 300.0).with_health(0.95);
        let r = simulate(&cfg, &batching_profile(0.2), &Registry::new());
        assert!(r.records.len() > 2_000, "want a dense run, got {}", r.records.len());
        let ph = r.stats.phases.as_ref().expect("attrib on");
        for (name, sketch, exact) in [
            ("queue", &ph.queue, r.records.iter().map(|x| x.queue_s).collect::<Vec<_>>()),
            ("hold", &ph.hold, r.records.iter().map(|x| x.hold_s).collect::<Vec<_>>()),
            ("execute", &ph.execute, r.records.iter().map(|x| x.execute_s).collect::<Vec<_>>()),
        ] {
            let mut exact = exact;
            exact.sort_by(f64::total_cmp);
            let n = exact.len();
            let err = sketch.rank_error_ranks().ceil() as usize + 1;
            let got = sketch.quantile(0.99).expect("non-empty phase sketch");
            let rank = (0.99 * (n - 1) as f64).round() as usize;
            let lo = exact[rank.saturating_sub(err)];
            let hi = exact[(rank + err).min(n - 1)];
            assert!(
                (lo..=hi).contains(&got),
                "{name} p99 {got} outside [{lo}, {hi}] (±{err} ranks of {n})"
            );
        }
    }

    /// Phase semantics: FIFO never idles with a non-empty queue, so its
    /// wait is almost all queue; static batching's wait timer withholds
    /// launches on an idle GPU, so it accrues genuine hold time.
    #[test]
    fn hold_phase_separates_static_from_fifo() {
        let profile = batching_profile(0.5);
        let fifo_cfg = scenario(SchedulerKind::Fifo, 3.0, 200.0).with_health(0.95);
        let fifo = simulate(&fifo_cfg, &profile, &Registry::new());
        let fifo_ph = fifo.stats.phases.as_ref().unwrap();
        assert!(
            fifo_ph.hold_sum_s <= 1e-9 * fifo_ph.queue_sum_s.max(1.0),
            "fifo accrued hold time: {} (queue {})",
            fifo_ph.hold_sum_s,
            fifo_ph.queue_sum_s
        );

        let static_scheduler = SchedulerKind::Static { batch: 8, wait_s: 0.25 };
        let static_cfg = scenario(static_scheduler, 3.0, 200.0).with_health(0.95);
        let st = simulate(&static_cfg, &profile, &Registry::new());
        let st_ph = st.stats.phases.as_ref().unwrap();
        assert!(
            st_ph.hold_sum_s > 0.1 * st_ph.queue_sum_s.max(1e-9),
            "static batching shows no hold time: {} (queue {})",
            st_ph.hold_sum_s,
            st_ph.queue_sum_s
        );
    }

    /// Energy integration: busy spans at the model draw, the idle
    /// remainder at idle draw, surfaced through the result accessors and
    /// the `serve_energy_*` gauges — and fully absent for unmetered
    /// profiles.
    #[test]
    fn energy_integrates_busy_at_draw_and_idle_at_idle() {
        let idle_w = 60.0;
        let draw_w = 310.0;
        let metered = ServiceProfile::new(vec![ServiceCurve::new(
            ModelId::StableDiffusion,
            vec![(1, 0.5), (4, 1.3 * 0.5), (16, 2.0 * 0.5)],
        )
        .with_draw_w(draw_w)])
        .with_idle_w(idle_w);
        let cfg = scenario(SchedulerKind::Dynamic { max_batch: 8 }, 4.0, 100.0);
        let reg = Registry::new();
        let r = simulate(&cfg, &metered, &reg);
        let e = r.energy.as_ref().expect("metered profile");
        assert_eq!(e.idle_w, idle_w);
        // Busy-span energy is exactly busy seconds × the single draw.
        for (g, &busy) in r.busy_s.iter().enumerate() {
            assert!(
                (e.busy_energy_j[g] - busy * draw_w).abs() < 1e-6,
                "gpu {g}: {} vs {}",
                e.busy_energy_j[g],
                busy * draw_w
            );
        }
        // Model busy seconds fold back to the per-GPU busy total.
        let model_busy: f64 = e.model_busy_s.iter().sum();
        let busy: f64 = r.busy_s.iter().sum();
        assert!((model_busy - busy).abs() < 1e-9);
        // Totals: per-GPU accessors sum to the cluster total, which the
        // gauges mirror in watt-hours.
        let total_j = r.total_energy_j().expect("metered");
        let by_gpu: f64 =
            (0..r.busy_s.len()).map(|g| r.gpu_energy_j(g).unwrap()).sum();
        assert_eq!(total_j, by_gpu);
        let expect_j = busy * draw_w + (2.0 * r.end_s - busy) * idle_w;
        assert!((total_j - expect_j).abs() < 1e-6 * expect_j, "{total_j} vs {expect_j}");
        assert!((reg.gauge("serve_energy_wh").get() - total_j / 3600.0).abs() < 1e-9);
        let mean_w = r.mean_power_w().expect("metered");
        assert!(mean_w > idle_w && mean_w < draw_w, "mean draw {mean_w}");
        assert_eq!(reg.gauge("serve_mean_power_w").get(), mean_w);

        // Unmetered profile: no energy stats, no energy gauges.
        let reg2 = Registry::new();
        let plain = simulate(&cfg, &batching_profile(0.5), &reg2);
        assert!(plain.energy.is_none());
        assert!(plain.total_energy_wh().is_none());
        assert!(!reg2.render_prometheus().contains("serve_energy_wh"));
    }

    /// The burn-rate engine fires under sustained overload and stays
    /// quiet on a well-provisioned cluster; the ratchet detector flags
    /// the unbounded FIFO queue collapse.
    #[test]
    fn health_engine_fires_under_overload_only() {
        // Overload: 1 GPU at capacity 2 req/s offered 8 req/s — latency
        // grows without bound, misses saturate, the queue ratchets.
        let overload_cfg = ScenarioCfg {
            gpus: 1,
            ..scenario(SchedulerKind::Fifo, 8.0, 100.0)
        }
        .with_health(0.95);
        let overload = simulate(&overload_cfg, &constant_profile(0.5), &Registry::new());
        let health = overload.health.as_ref().expect("policy set");
        let tta = health.time_to_first_alert_s().expect("overload must alert");
        assert!(tta > 0.0 && tta < 100.0, "tta {tta}");
        assert!(matches!(health.alerts[0].kind, AlertKind::Fire));
        let rta = health.time_to_first_ratchet_s().expect("collapse must ratchet");
        assert!(rta > 0.0, "ratchet at {rta}");
        assert!(matches!(health.ratchet[0].kind, AlertKind::Fire));

        // Provisioned: same traffic shape, 4x capacity — no alerts.
        let quiet_cfg = ScenarioCfg {
            gpus: 4,
            ..scenario(SchedulerKind::Fifo, 2.0, 100.0)
        }
        .with_health(0.95);
        let quiet = simulate(&quiet_cfg, &constant_profile(0.5), &Registry::new());
        let health = quiet.health.as_ref().expect("policy set");
        assert!(health.alerts.is_empty(), "spurious alerts: {:?}", health.alerts);
        assert!(health.time_to_first_alert_s().is_none());
        assert!(health.ratchet.is_empty(), "spurious ratchet: {:?}", health.ratchet);
    }

    /// Health transitions surface as flight-recorder instants and
    /// registry counters, but only when the layer is on.
    #[test]
    fn health_transitions_reach_flight_and_registry() {
        let cfg = ScenarioCfg {
            gpus: 1,
            ..scenario(SchedulerKind::Fifo, 8.0, 100.0)
        }
        .with_health(0.95);
        let reg = Registry::new();
        let (r, fl) = simulate_recorded(&cfg, &constant_profile(0.5), &reg, FlightCfg::default());
        let health = r.health.as_ref().expect("policy set");
        let fired: Vec<_> = fl
            .instants
            .iter()
            .filter(|e| matches!(e.kind, crate::flight::SchedKind::Alert { .. }))
            .collect();
        assert_eq!(fired.len(), health.alerts.len());
        assert!(fired.iter().all(|e| e.gpu == CLUSTER_LANE));
        let ratchets = fl
            .instants
            .iter()
            .filter(|e| matches!(e.kind, crate::flight::SchedKind::Ratchet { .. }))
            .count();
        assert_eq!(ratchets, health.ratchet.len());
        let fires = health
            .alerts
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::Fire))
            .count() as u64;
        assert_eq!(
            reg.counter_with("serve_alert_transitions_total", &[("kind", "fire")]).get(),
            fires
        );
        assert_eq!(
            reg.gauge("serve_time_to_first_alert_s").get(),
            health.time_to_first_alert_s().unwrap()
        );

        // Without the layer nothing is emitted, keeping default traces
        // byte-stable.
        let plain_cfg = ScenarioCfg { gpus: 1, ..scenario(SchedulerKind::Fifo, 8.0, 100.0) };
        let (_, fl) =
            simulate_recorded(&plain_cfg, &constant_profile(0.5), &Registry::new(), FlightCfg::default());
        assert!(fl.instants.iter().all(|e| !matches!(
            e.kind,
            crate::flight::SchedKind::Alert { .. } | crate::flight::SchedKind::Ratchet { .. }
        )));
    }

    /// A hand-off count that falls inside the fourth batch.
    const MID_BATCH: u64 = 3 * SINK_BATCH as u64 + 1_000;

    /// serve-stream's mix with batching curves: SD 1 s and Parti 4 s at
    /// batch 1, so 0.8 load on 4 GPUs is 2 requests/s.
    fn stream_mix_profile() -> ServiceProfile {
        ServiceProfile::new(vec![
            ServiceCurve::new(ModelId::StableDiffusion, vec![(1, 1.0), (4, 1.6), (16, 3.0)]),
            ServiceCurve::new(ModelId::Parti, vec![(1, 4.0), (4, 4.4), (16, 5.5)]),
        ])
    }

    fn stream_shape(scheduler: SchedulerKind, rate: f64) -> ScenarioCfg {
        let mix = RequestMix::parse("sd:8,parti:2").expect("valid mix");
        let mut cfg = ScenarioCfg::new(
            4,
            mix,
            ArrivalProcess::poisson(rate),
            scheduler,
            SloSpec::ServiceMultiple(4.0),
            80_000.0,
            11,
        );
        cfg.max_requests = Some(100_000);
        cfg.full_records = false;
        cfg
    }

    /// A stream of `cfg`'s arrival process over `mix` instead of the
    /// scenario's own, with its own seeds and the scenario's cap.
    fn foreign_stream(cfg: &ScenarioCfg, mix: &str, seed: u64) -> RegionStream {
        let mix = RequestMix::parse(mix).expect("valid mix");
        RegionStream::seeded(cfg.arrival, mix, seed, seed.wrapping_add(1), cfg.max_requests)
    }

    /// Runs `cfg` with the sink handing off after `inline_limit`
    /// completions — on a stream of one request in five for the mix's
    /// second model when `feed` is set — and returns the result, its
    /// report, its Prometheus dump and, when `recorded`, its recorder.
    fn run_with_hand_off(
        cfg: &ScenarioCfg,
        profile: &ServiceProfile,
        recorded: bool,
        feed: bool,
        inline_limit: u64,
    ) -> (SimResult, String, String, Option<FlightRecorder>) {
        let registry = Registry::new();
        let flight =
            recorded.then(|| FlightRecorder::new(FlightCfg::for_horizon(cfg.duration_s), cfg.gpus));
        let mut arrivals =
            if feed { foreign_stream(cfg, "sd:4,parti:1", 3) } else { scenario_stream(cfg) };
        let (r, flight) =
            run(cfg, profile, &registry, flight, &mut arrivals, 0.0, Some(inline_limit));
        let report = crate::report::SloReport::from_result(&r).render();
        (r, report, registry.render_prometheus(), flight)
    }

    /// Folding inline, on the helper thread from the first batch, or
    /// switching inside a batch gives the same bytes.
    fn assert_hand_off_is_invisible(cfg: &ScenarioCfg, recorded: bool, feed: bool) {
        let profile = stream_mix_profile();
        let inline = run_with_hand_off(cfg, &profile, recorded, feed, u64::MAX);
        assert!(
            inline.0.stats.completed > MID_BATCH + SINK_BATCH as u64,
            "{} completions never reach the helper",
            inline.0.stats.completed
        );
        for limit in [0, MID_BATCH] {
            let moved = run_with_hand_off(cfg, &profile, recorded, feed, limit);
            assert!(moved.0 == inline.0, "SimResult differs at hand-off {limit}");
            assert_eq!(moved.1, inline.1, "report differs at hand-off {limit}");
            assert_eq!(moved.2, inline.2, "Prometheus dump differs at hand-off {limit}");
            assert!(moved.3 == inline.3, "flight recorder differs at hand-off {limit}");
        }
    }

    #[test]
    fn hand_off_is_invisible_on_the_stream_shape() {
        let cfg = stream_shape(SchedulerKind::Dynamic { max_batch: 16 }, 2.0);
        assert_hand_off_is_invisible(&cfg, false, false);
    }

    #[test]
    fn hand_off_is_invisible_with_health() {
        let cfg = stream_shape(SchedulerKind::Dynamic { max_batch: 16 }, 2.0).with_health(0.95);
        assert_hand_off_is_invisible(&cfg, false, false);
    }

    #[test]
    fn hand_off_is_invisible_under_overload() {
        let mut cfg = stream_shape(SchedulerKind::Fifo, 3.0);
        cfg.abandon_after_s = Some(12.0);
        cfg.max_queue = Some(40);
        let (r, ..) = run_with_hand_off(&cfg, &stream_mix_profile(), false, false, 0);
        let (dropped, abandoned) = (r.dropped, r.abandoned);
        assert!(dropped > 1_000 && abandoned > 1_000, "{dropped} dropped, {abandoned} abandoned");
        assert_hand_off_is_invisible(&cfg, false, false);
    }

    #[test]
    fn hand_off_is_invisible_when_recorded() {
        let cfg = stream_shape(SchedulerKind::Dynamic { max_batch: 16 }, 2.0);
        assert_hand_off_is_invisible(&cfg, true, false);
    }

    #[test]
    fn hand_off_is_invisible_on_an_external_stream() {
        let scheduler = SchedulerKind::Static { batch: 4, wait_s: 0.5 };
        let cfg = stream_shape(scheduler, 2.0).with_health(0.95);
        assert_hand_off_is_invisible(&cfg, false, true);
    }

    /// A panic on the loop's thread while the helper runs ends the run
    /// with the loop's panic instead of hanging on the helper.
    #[test]
    #[should_panic(expected = "stream mix index out of range")]
    fn a_loop_panic_with_the_helper_running_propagates() {
        let cfg = stream_shape(SchedulerKind::Dynamic { max_batch: 16 }, 2.0);
        // A third model, about one arrival in 40,000: its index is out of
        // range for the scenario's two-model mix.
        let stream = || foreign_stream(&cfg, "sd:8,parti:2,muse:0.00025", 1);
        let mut probe = stream();
        let first_foreign = (1u64..).find(|_| probe.next().1 == 2).expect("endless stream");
        // Well after the helper took the folds, and before the cap.
        assert!((20_000..100_000).contains(&first_foreign), "first at arrival {first_foreign}");
        let profile = stream_mix_profile();
        let _ = run(&cfg, &profile, &Registry::new(), None, &mut stream(), 0.0, Some(0));
    }

    /// A panic on the helper thread reaches the loop's thread.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_helper_panic_propagates() {
        let cfg = stream_shape(SchedulerKind::Fifo, 2.0);
        let folds = Folds::new(&cfg, &Registry::new());
        std::thread::scope(|scope| {
            let mut sink = CompletionSink::new(scope, folds, Some(0));
            // Mix index 7 is out of range for a two-model mix.
            let mut batch = Batch::with_capacity(4, false);
            for _ in 0..2 * SINK_QUEUE_DEPTH + 2 {
                batch.done.push(Done {
                    wait_s: 0.0,
                    latency_s: 1.0,
                    finish_s: 1.0,
                    mix_idx: 7,
                    batch: 1,
                    on_time: true,
                });
                sink.absorb(&mut batch);
            }
            let _ = sink.finish(&mut batch);
        });
    }
}
