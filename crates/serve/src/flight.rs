//! `mmg-flight` — a bounded-overhead, deterministic flight recorder for
//! the serving cluster.
//!
//! Three coordinated pieces turn the streaming simulator's end-of-run
//! aggregates into an inspectable timeline without giving up either
//! determinism or the constant-memory fast path:
//!
//! - **Cluster timeline** ([`FlightRecorder`]): per-GPU lanes of
//!   batch-execution spans ([`BatchSpan`]), scheduler-decision instants
//!   ([`SchedEvent`]), and windowed counters, exported as Chrome-trace /
//!   Perfetto JSON through the same [`mmg_profiler::trace::TraceEvent`]
//!   machinery the roofline profiler uses
//!   ([`FlightRecorder::to_chrome_trace_object`]).
//! - **Windowed time series** ([`ServeWindow`] over
//!   [`mmg_telemetry::WindowedSeries`]): per-window completion and
//!   on-time counts, queue-depth integral, per-GPU busy time, busy-span
//!   energy and a latency [`QuantileSketch`] — exactly what the trace
//!   export's counter tracks and the `serve-timeline` experiment read,
//!   mergeable across seeds and worker pools. Drops, abandons and
//!   launches are scheduler instants and batch spans, not window counts.
//! - **Lifecycle exemplars** ([`Exemplars`]): the four worst-latency
//!   request lifecycles, retained exactly. These are always on (they
//!   live in [`crate::ServeStats`]) so tail latency stays explainable in
//!   streaming mode, where no [`crate::RequestRecord`]s are retained.
//!
//! Every structure here is a pure function of the simulated event
//! sequence — no wall clock, no randomness of its own — so traces are
//! byte-identical for a given seed regardless of host, `--jobs`, or
//! repetition. All retention is bounded: spans and instants by explicit
//! caps (with drop counters), the window ring by pair-folding (width
//! doubles when the cap is hit), exemplars by their fixed count.

use std::collections::BTreeMap;

use mmg_models::ModelId;
use mmg_profiler::trace::TraceEvent;
use mmg_telemetry::{QuantileSketch, WindowValue, WindowedSeries};
use serde_json::Value;

use crate::cluster::RequestRecord;
use crate::workload::model_short_name;

/// Rank-error bound of the per-window latency sketches. Coarser than
/// the run-level [`crate::LATENCY_SKETCH_EPS`]: a window holds a small
/// slice of the run, so a looser eps keeps the ring cheap while p99
/// stays useful for a timeline plot.
pub const FLIGHT_SKETCH_EPS: f64 = 0.005;

/// Sentinel GPU id for cluster-wide scheduler decisions (admission
/// drops) that no single GPU owns; the trace export maps these onto a
/// dedicated "scheduler" lane.
pub const CLUSTER_LANE: u32 = u32::MAX;

/// Flight-recorder configuration: sampling window and retention caps.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightCfg {
    /// Width of the counter-sampling window, simulated seconds.
    pub window_s: f64,
    /// Maximum retained windows; overflow doubles the width (pairwise
    /// fold), so the series always spans the full run.
    pub max_windows: usize,
    /// Maximum retained batch spans; later launches count into
    /// [`FlightRecorder::batches_dropped`] instead of growing memory.
    pub max_batches: usize,
    /// Maximum retained scheduler instants (same overflow policy).
    pub max_instants: usize,
}

impl Default for FlightCfg {
    fn default() -> Self {
        FlightCfg {
            window_s: 1.0,
            max_windows: 240,
            max_batches: 4096,
            max_instants: 8192,
        }
    }
}

impl FlightCfg {
    /// A config whose window width targets ~60 windows over an arrival
    /// horizon of `duration_s` (drain past the horizon may fold once).
    #[must_use]
    pub fn for_horizon(duration_s: f64) -> Self {
        FlightCfg {
            window_s: (duration_s / 60.0).max(1e-9),
            ..FlightCfg::default()
        }
    }
}

/// One executed batch: a complete (`ph:"X"`) span on its GPU's lane.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpan {
    /// GPU that ran the batch.
    pub gpu: u32,
    /// Model served.
    pub model: ModelId,
    /// Requests in the batch.
    pub batch: u32,
    /// Launch instant, simulated seconds.
    pub start_s: f64,
    /// Completion instant, simulated seconds.
    pub finish_s: f64,
    /// Longest queueing delay among the batch's members at launch.
    pub queue_wait_max_s: f64,
    /// Requests still queued on this GPU after the launch.
    pub queued_left: u32,
    /// Whether pod co-scheduling compressed the service time.
    pub pod: bool,
}

/// What the scheduler decided at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedKind {
    /// A batch launched.
    Launch {
        /// Model served.
        model: ModelId,
        /// Batch size.
        batch: u32,
        /// Requests left queued on the GPU.
        queued_left: u32,
    },
    /// Static batching deferred launch until its wait timer expires.
    Hold {
        /// The re-evaluation instant it scheduled.
        retry_at_s: f64,
    },
    /// Admission control rejected an arrival (cluster-wide decision;
    /// `gpu` is [`CLUSTER_LANE`]).
    Drop,
    /// A queued request gave up waiting.
    Abandon {
        /// How long it had waited.
        waited_s: f64,
    },
    /// An SLO burn-rate alert transition (cluster-wide; `gpu` is
    /// [`CLUSTER_LANE`]). Emitted only when the health layer is on, so
    /// default traces are byte-identical with or without this variant
    /// existing.
    Alert {
        /// Index into the policy's rules.
        rule: u32,
        /// `true` = fire, `false` = clear.
        fire: bool,
        /// Burn rate over the rule's long window at evaluation time.
        long_burn: f64,
        /// Burn rate over the rule's short window at evaluation time.
        short_burn: f64,
    },
    /// A ratcheting-queue-depth detector transition (cluster-wide).
    Ratchet {
        /// `true` = fire, `false` = clear.
        fire: bool,
        /// Mean queue depth of the triggering window.
        depth: f64,
    },
}

/// A scheduler-decision instant event on a GPU (or cluster) lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedEvent {
    /// When the decision happened, simulated seconds.
    pub t_s: f64,
    /// Owning GPU lane, or [`CLUSTER_LANE`].
    pub gpu: u32,
    /// The decision.
    pub kind: SchedKind,
}

/// Per-window aggregates of the serving timeline: what the trace
/// export's counter tracks and `serve-timeline` read.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWindow {
    /// Requests that completed in the window.
    pub completed: u64,
    /// Completions that met their deadline.
    pub on_time: u64,
    /// `∫ n(t) dt` restricted to the window — divide by the window
    /// width for the time-average in-system depth.
    pub depth_time_s: f64,
    /// Busy seconds per GPU inside the window (span overlap, so a batch
    /// crossing a boundary contributes to both sides).
    pub busy_per_gpu_s: Vec<f64>,
    /// Busy-span energy inside the window, joules: each batch overlap
    /// contributes `overlap_s × draw_w`. Zero when the profile carries
    /// no power figures (draw is 0).
    pub energy_j: f64,
    /// Latency sketch over completions in the window (rank error
    /// [`FLIGHT_SKETCH_EPS`]).
    pub latency: QuantileSketch,
}

impl Default for ServeWindow {
    fn default() -> Self {
        ServeWindow {
            completed: 0,
            on_time: 0,
            depth_time_s: 0.0,
            busy_per_gpu_s: Vec::new(),
            energy_j: 0.0,
            latency: QuantileSketch::new(FLIGHT_SKETCH_EPS),
        }
    }
}

impl WindowValue for ServeWindow {
    fn merge(&mut self, other: &Self) {
        self.completed += other.completed;
        self.on_time += other.on_time;
        self.depth_time_s += other.depth_time_s;
        self.energy_j += other.energy_j;
        if self.busy_per_gpu_s.len() < other.busy_per_gpu_s.len() {
            self.busy_per_gpu_s.resize(other.busy_per_gpu_s.len(), 0.0);
        }
        for (dst, src) in self.busy_per_gpu_s.iter_mut().zip(&other.busy_per_gpu_s) {
            *dst += *src;
        }
        self.latency.merge(&other.latency);
    }
}

impl ServeWindow {
    /// SLO attainment among the window's completions (1.0 when none).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.on_time as f64 / self.completed as f64
        }
    }
}

/// The flight recorder threaded through a [`crate::cluster`] run.
///
/// Construct via [`FlightRecorder::new`], pass to
/// [`crate::cluster::simulate_recorded`], then export with
/// [`FlightRecorder::to_chrome_trace_object`] or walk
/// [`FlightRecorder::series`] directly.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    cfg: FlightCfg,
    gpus: usize,
    /// Windowed timeline aggregates.
    pub series: WindowedSeries<ServeWindow>,
    /// Retained batch spans, launch order (bounded by
    /// [`FlightCfg::max_batches`]).
    pub batches: Vec<BatchSpan>,
    /// Launches not retained because the span cap was hit.
    pub batches_dropped: u64,
    /// Retained scheduler instants, event order (bounded by
    /// [`FlightCfg::max_instants`]).
    pub instants: Vec<SchedEvent>,
    /// Instants not retained because the cap was hit.
    pub instants_dropped: u64,
    /// Idle board draw in watts, set by the simulator when the run's
    /// profile carried power figures. `None` keeps the trace export
    /// byte-identical to a recorder from before the energy layer.
    pub idle_w: Option<f64>,
}

impl FlightRecorder {
    /// A recorder for a `gpus`-GPU run.
    #[must_use]
    pub fn new(cfg: FlightCfg, gpus: usize) -> Self {
        let series = WindowedSeries::new(cfg.window_s, cfg.max_windows.max(2));
        FlightRecorder {
            cfg,
            gpus,
            series,
            batches: Vec::new(),
            batches_dropped: 0,
            instants: Vec::new(),
            instants_dropped: 0,
            idle_w: None,
        }
    }

    /// Marks the recording as power-metered: the trace export gains a
    /// `serve_power_w` counter track whose idle remainder is charged at
    /// `idle_w`. Called by the simulator only when the profile carries
    /// power figures.
    pub(crate) fn enable_power(&mut self, idle_w: f64) {
        self.idle_w = Some(idle_w);
    }

    fn push_instant(&mut self, ev: SchedEvent) {
        if self.instants.len() < self.cfg.max_instants {
            self.instants.push(ev);
        } else {
            self.instants_dropped += 1;
        }
    }

    // -- hooks driven by the simulator event loop --------------------------

    pub(crate) fn on_drop(&mut self, t_s: f64) {
        self.push_instant(SchedEvent { t_s, gpu: CLUSTER_LANE, kind: SchedKind::Drop });
    }

    pub(crate) fn on_abandon(&mut self, t_s: f64, gpu: usize, waited_s: f64) {
        self.push_instant(SchedEvent {
            t_s,
            gpu: gpu as u32,
            kind: SchedKind::Abandon { waited_s },
        });
    }

    /// Records an SLO burn-rate alert transition on the cluster lane.
    pub(crate) fn on_alert(
        &mut self,
        t_s: f64,
        rule: u32,
        fire: bool,
        long_burn: f64,
        short_burn: f64,
    ) {
        self.push_instant(SchedEvent {
            t_s,
            gpu: CLUSTER_LANE,
            kind: SchedKind::Alert { rule, fire, long_burn, short_burn },
        });
    }

    /// Records a ratcheting-queue-depth transition on the cluster lane.
    pub(crate) fn on_ratchet(&mut self, t_s: f64, fire: bool, depth: f64) {
        self.push_instant(SchedEvent {
            t_s,
            gpu: CLUSTER_LANE,
            kind: SchedKind::Ratchet { fire, depth },
        });
    }

    pub(crate) fn on_hold(&mut self, t_s: f64, gpu: usize, retry_at_s: f64) {
        self.push_instant(SchedEvent {
            t_s,
            gpu: gpu as u32,
            kind: SchedKind::Hold { retry_at_s },
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_launch(
        &mut self,
        gpu: usize,
        model: ModelId,
        batch: usize,
        start_s: f64,
        finish_s: f64,
        queue_wait_max_s: f64,
        queued_left: usize,
        pod: bool,
        draw_w: f64,
    ) {
        let gpus = self.gpus;
        self.series.observe_span(start_s, finish_s, |w, overlap_s| {
            if w.busy_per_gpu_s.len() < gpus {
                w.busy_per_gpu_s.resize(gpus, 0.0);
            }
            w.busy_per_gpu_s[gpu] += overlap_s;
            w.energy_j += overlap_s * draw_w;
        });
        if self.batches.len() < self.cfg.max_batches {
            self.batches.push(BatchSpan {
                gpu: gpu as u32,
                model,
                batch: batch as u32,
                start_s,
                finish_s,
                queue_wait_max_s,
                queued_left: queued_left as u32,
                pod,
            });
        } else {
            self.batches_dropped += 1;
        }
        self.push_instant(SchedEvent {
            t_s: start_s,
            gpu: gpu as u32,
            kind: SchedKind::Launch {
                model,
                batch: batch as u32,
                queued_left: queued_left as u32,
            },
        });
    }

    pub(crate) fn on_complete(&mut self, t_s: f64, latency_s: f64, on_time: bool) {
        self.series.observe_at(t_s, |w| {
            w.completed += 1;
            w.on_time += u64::from(on_time);
            w.latency.observe(latency_s);
        });
    }

    pub(crate) fn on_occupancy(&mut self, t0_s: f64, t1_s: f64, in_system: u64) {
        let n = in_system as f64;
        self.series.observe_span(t0_s, t1_s, |w, overlap_s| {
            w.depth_time_s += n * overlap_s;
        });
    }

    // -- trace export ------------------------------------------------------

    /// Converts the recording into Chrome Trace Event Format entries:
    /// thread-name metadata, per-GPU lanes (batch spans + scheduler
    /// instants, time-ordered per lane), the cluster "scheduler" lane,
    /// and windowed `ph:"C"` counter tracks (queue depth, throughput,
    /// goodput, SLO attainment, per-GPU utilization).
    #[must_use]
    pub fn to_trace_events(&self) -> Vec<TraceEvent> {
        let gpus = self.gpus;
        let sched_tid = gpus as u32;
        let counter_tid = gpus as u32 + 1;
        let mut events: Vec<TraceEvent> = Vec::new();

        let meta = |tid: u32, label: String| {
            let mut args = BTreeMap::new();
            args.insert("name".to_string(), Value::String(label));
            TraceEvent {
                name: "thread_name".to_string(),
                cat: "__metadata".to_string(),
                ph: "M".to_string(),
                ts: 0.0,
                dur: 0.0,
                pid: 1,
                tid,
                args,
            }
        };
        {
            let mut args = BTreeMap::new();
            args.insert("name".to_string(), Value::from("mmg-serve cluster"));
            events.push(TraceEvent {
                name: "process_name".to_string(),
                cat: "__metadata".to_string(),
                ph: "M".to_string(),
                ts: 0.0,
                dur: 0.0,
                pid: 1,
                tid: 0,
                args,
            });
        }
        for g in 0..gpus {
            events.push(meta(g as u32, format!("gpu{g}")));
        }
        events.push(meta(sched_tid, "scheduler".to_string()));
        events.push(meta(counter_tid, "counters".to_string()));

        let instant_event = |ev: &SchedEvent| {
            let tid = if ev.gpu == CLUSTER_LANE { sched_tid } else { ev.gpu };
            let mut args = BTreeMap::new();
            let name = match ev.kind {
                SchedKind::Launch { model, batch, queued_left } => {
                    args.insert(
                        "model".to_string(),
                        Value::from(model_short_name(model)),
                    );
                    args.insert("batch".to_string(), Value::from(u64::from(batch)));
                    args.insert(
                        "queued_left".to_string(),
                        Value::from(u64::from(queued_left)),
                    );
                    "launch"
                }
                SchedKind::Hold { retry_at_s } => {
                    args.insert(
                        "retry_in_ms".to_string(),
                        Value::from(((retry_at_s - ev.t_s) * 1e3).max(0.0)),
                    );
                    "hold"
                }
                SchedKind::Drop => "drop",
                SchedKind::Abandon { waited_s } => {
                    args.insert("waited_ms".to_string(), Value::from(waited_s * 1e3));
                    "abandon"
                }
                SchedKind::Alert { rule, fire, long_burn, short_burn } => {
                    args.insert("rule".to_string(), Value::from(u64::from(rule)));
                    args.insert("long_burn".to_string(), Value::from(long_burn));
                    args.insert("short_burn".to_string(), Value::from(short_burn));
                    if fire {
                        "alert_fire"
                    } else {
                        "alert_clear"
                    }
                }
                SchedKind::Ratchet { fire, depth } => {
                    args.insert("mean_depth".to_string(), Value::from(depth));
                    if fire {
                        "ratchet_fire"
                    } else {
                        "ratchet_clear"
                    }
                }
            };
            TraceEvent {
                name: name.to_string(),
                cat: "serve:sched".to_string(),
                ph: "i".to_string(),
                ts: ev.t_s * 1e6,
                dur: 0.0,
                pid: 1,
                tid,
                args,
            }
        };

        // Per-GPU lanes: batch spans and this GPU's scheduler instants,
        // merged in time order (stable, so simultaneous events keep the
        // deterministic simulation order).
        for g in 0..gpus as u32 {
            let mut lane: Vec<TraceEvent> = Vec::new();
            for b in self.batches.iter().filter(|b| b.gpu == g) {
                let mut args = BTreeMap::new();
                args.insert(
                    "model".to_string(),
                    Value::from(model_short_name(b.model)),
                );
                args.insert("batch".to_string(), Value::from(u64::from(b.batch)));
                args.insert(
                    "queue_wait_max_ms".to_string(),
                    Value::from(b.queue_wait_max_s * 1e3),
                );
                args.insert(
                    "queued_left".to_string(),
                    Value::from(u64::from(b.queued_left)),
                );
                args.insert("pod".to_string(), Value::from(b.pod));
                lane.push(TraceEvent {
                    name: format!("{} x{}", model_short_name(b.model), b.batch),
                    cat: "serve:batch".to_string(),
                    ph: "X".to_string(),
                    ts: b.start_s * 1e6,
                    dur: (b.finish_s - b.start_s) * 1e6,
                    pid: 1,
                    tid: g,
                    args,
                });
            }
            lane.extend(
                self.instants.iter().filter(|ev| ev.gpu == g).map(instant_event),
            );
            lane.sort_by(|a, b| a.ts.total_cmp(&b.ts));
            events.extend(lane);
        }
        events.extend(
            self.instants
                .iter()
                .filter(|ev| ev.gpu == CLUSTER_LANE)
                .map(instant_event),
        );
        if self.batches_dropped > 0 || self.instants_dropped > 0 {
            let mut args = BTreeMap::new();
            args.insert("batches_dropped".to_string(), Value::from(self.batches_dropped));
            args.insert("instants_dropped".to_string(), Value::from(self.instants_dropped));
            events.push(TraceEvent {
                name: "flight_truncated".to_string(),
                cat: "serve:sched".to_string(),
                ph: "i".to_string(),
                ts: self.batches.last().map_or(0.0, |b| b.finish_s * 1e6),
                dur: 0.0,
                pid: 1,
                tid: sched_tid,
                args,
            });
        }

        // Counter tracks, one sample per window at the window start.
        let counter = |name: &str, ts_us: f64, args: BTreeMap<String, Value>| TraceEvent {
            name: name.to_string(),
            cat: "counter".to_string(),
            ph: "C".to_string(),
            ts: ts_us,
            dur: 0.0,
            pid: 1,
            tid: counter_tid,
            args,
        };
        let w_s = self.series.window_s();
        for (start_s, _end_s, win) in self.series.iter() {
            let ts_us = start_s * 1e6;
            let one = |v: f64| {
                let mut args = BTreeMap::new();
                args.insert("value".to_string(), Value::from(v));
                args
            };
            events.push(counter("serve_queue_depth", ts_us, one(win.depth_time_s / w_s)));
            events.push(counter(
                "serve_throughput_rps",
                ts_us,
                one(win.completed as f64 / w_s),
            ));
            events.push(counter(
                "serve_goodput_rps",
                ts_us,
                one(win.on_time as f64 / w_s),
            ));
            events.push(counter(
                "serve_slo_attainment",
                ts_us,
                one(win.slo_attainment()),
            ));
            let mut util = BTreeMap::new();
            for g in 0..gpus {
                let busy = win.busy_per_gpu_s.get(g).copied().unwrap_or(0.0);
                util.insert(format!("gpu{g}"), Value::from(busy / w_s));
            }
            events.push(counter("serve_gpu_util", ts_us, util));
            // Windowed mean cluster draw: busy-span energy plus the idle
            // remainder of every GPU's window at idle draw. Only emitted
            // for power-metered runs so unmetered traces stay
            // byte-identical.
            if let Some(idle_w) = self.idle_w {
                let busy: f64 = win.busy_per_gpu_s.iter().sum();
                let idle_j = (gpus as f64 * w_s - busy).max(0.0) * idle_w;
                events.push(counter(
                    "serve_power_w",
                    ts_us,
                    one((win.energy_j + idle_j) / w_s),
                ));
            }
        }
        events
    }

    /// Serializes the recording to the Perfetto JSON envelope
    /// (`{"traceEvents": [...], "displayTimeUnit": "us"}`) — the same
    /// form [`mmg_profiler::trace::to_chrome_trace_object`] emits, so
    /// the two trace families open in the same viewer.
    ///
    /// # Panics
    ///
    /// Never panics: events contain only serializable primitives.
    #[must_use]
    pub fn to_chrome_trace_object(&self) -> String {
        let events = serde_json::to_value(&self.to_trace_events())
            .expect("trace events always serialize");
        let envelope = Value::Object(vec![
            ("traceEvents".to_string(), events),
            ("displayTimeUnit".to_string(), Value::from("us")),
        ]);
        serde_json::to_string(&envelope).expect("trace envelope always serializes")
    }
}

// ---------------------------------------------------------------------------
// Exemplars
// ---------------------------------------------------------------------------

/// Number of worst-latency request lifecycles the [`Exemplars`] keep.
const WORST_N: usize = 4;

/// Bounded request-lifecycle exemplars that survive streaming mode: the
/// four worst-latency completions, retained exactly.
///
/// Determinism: the set uses the total order `(latency, arrival id)`, so
/// ties break identically on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplars {
    /// Worst completions, ascending `(latency, id)`; the global worst
    /// is last.
    worst: Vec<RequestRecord>,
    /// `(latency, id)` of `worst[0]`, cached so the per-completion
    /// admission check compares registers instead of chasing into the
    /// `Vec` (the worst list only changes on admission, which is rare).
    worst_floor: f64,
    worst_floor_id: u64,
}

impl Exemplars {
    /// An empty exemplar set.
    pub(crate) fn new() -> Self {
        Exemplars {
            worst: Vec::with_capacity(WORST_N),
            worst_floor: f64::NEG_INFINITY,
            worst_floor_id: 0,
        }
    }

    /// The exact worst-latency lifecycles, ascending by
    /// `(latency, arrival id)` — the run's worst request is last.
    #[must_use]
    pub fn worst(&self) -> &[RequestRecord] {
        &self.worst
    }

    /// Observes one completion. `make` is only invoked when the record
    /// is actually retained, so the streaming fast path usually pays one
    /// comparison.
    pub(crate) fn observe(
        &mut self,
        latency_s: f64,
        arrival_id: u64,
        make: impl FnOnce() -> RequestRecord,
    ) {
        let take = self.worst.len() < WORST_N
            || latency_s
                .total_cmp(&self.worst_floor)
                .then(arrival_id.cmp(&self.worst_floor_id))
                .is_gt();
        if !take {
            return;
        }
        let pos = self.worst.partition_point(|r| {
            r.latency_s().total_cmp(&latency_s).then(r.id.cmp(&arrival_id)).is_lt()
        });
        self.worst.insert(pos, make());
        if self.worst.len() > WORST_N {
            self.worst.remove(0);
        }
        if self.worst.len() == WORST_N {
            self.worst_floor = self.worst[0].latency_s();
            self.worst_floor_id = self.worst[0].id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{
        simulate, simulate_recorded, ScenarioCfg, SchedulerKind, SloSpec,
    };
    use crate::profile::{ServiceCurve, ServiceProfile};
    use crate::workload::{ArrivalProcess, RequestMix};
    use mmg_telemetry::Registry;

    fn profile() -> ServiceProfile {
        ServiceProfile::new(vec![ServiceCurve::new(
            ModelId::StableDiffusion,
            vec![(1, 0.5), (4, 0.65), (16, 1.0)],
        )])
    }

    fn scenario(rate: f64, duration_s: f64) -> ScenarioCfg {
        ScenarioCfg::new(
            2,
            RequestMix::single(ModelId::StableDiffusion),
            ArrivalProcess::poisson(rate),
            SchedulerKind::Dynamic { max_batch: 8 },
            SloSpec::FixedS(2.0),
            duration_s,
            11,
        )
    }

    fn record(rate: f64, duration_s: f64) -> (crate::SimResult, FlightRecorder) {
        let cfg = scenario(rate, duration_s);
        simulate_recorded(
            &cfg,
            &profile(),
            &Registry::new(),
            FlightCfg { window_s: 5.0, ..FlightCfg::default() },
        )
    }

    #[test]
    fn recording_does_not_change_the_simulation() {
        let cfg = scenario(3.0, 120.0);
        let plain = simulate(&cfg, &profile(), &Registry::new());
        let (recorded, _fl) = simulate_recorded(
            &cfg,
            &profile(),
            &Registry::new(),
            FlightCfg::default(),
        );
        assert_eq!(plain, recorded);
    }

    #[test]
    fn window_totals_match_run_aggregates() {
        let (r, fl) = record(3.0, 120.0);
        let completed: u64 = fl.series.iter().map(|(_, _, w)| w.completed).sum();
        let on_time: u64 = fl.series.iter().map(|(_, _, w)| w.on_time).sum();
        assert_eq!(completed, r.stats.completed);
        assert_eq!(on_time, r.stats.on_time);
        // Busy seconds split across windows sum back to the exact per-GPU
        // totals, and the depth integral matches the run's.
        for g in 0..2 {
            let busy: f64 = fl
                .series
                .iter()
                .map(|(_, _, w)| w.busy_per_gpu_s.get(g).copied().unwrap_or(0.0))
                .sum();
            assert!((busy - r.busy_s[g]).abs() < 1e-6, "gpu {g}: {busy} vs {}", r.busy_s[g]);
        }
        let area: f64 = fl.series.iter().map(|(_, _, w)| w.depth_time_s).sum();
        assert!((area - r.area_requests_s).abs() < 1e-6);
    }

    #[test]
    fn batch_spans_are_within_run_and_ordered() {
        let (r, fl) = record(3.0, 120.0);
        assert!(!fl.batches.is_empty());
        for b in &fl.batches {
            assert!(b.finish_s > b.start_s);
            assert!(b.finish_s <= r.end_s + 1e-9);
            assert!(b.queue_wait_max_s >= 0.0);
            assert!((b.gpu as usize) < 2);
        }
        // Launch order is chronological per GPU.
        for g in 0..2u32 {
            let starts: Vec<f64> =
                fl.batches.iter().filter(|b| b.gpu == g).map(|b| b.start_s).collect();
            assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn caps_bound_retention_and_count_drops() {
        let cfg = scenario(4.0, 400.0);
        let (_r, fl) = simulate_recorded(
            &cfg,
            &profile(),
            &Registry::new(),
            FlightCfg {
                window_s: 5.0,
                max_windows: 8,
                max_batches: 16,
                max_instants: 16,
            },
        );
        assert_eq!(fl.batches.len(), 16);
        assert!(fl.batches_dropped > 0);
        assert_eq!(fl.instants.len(), 16);
        assert!(fl.instants_dropped > 0);
        assert!(fl.series.len() <= 8);
        // The fold kept full-run coverage: windows span past the horizon.
        assert!(fl.series.window_s() > 5.0);
    }

    #[test]
    fn trace_events_shape() {
        let (_r, fl) = record(3.0, 120.0);
        let evs = fl.to_trace_events();
        // Lanes monotonically ordered per tid (complete events).
        for tid in 0..2u32 {
            let ts: Vec<f64> = evs
                .iter()
                .filter(|e| e.ph == "X" && e.tid == tid)
                .map(|e| e.ts)
                .collect();
            assert!(!ts.is_empty(), "no spans on gpu lane {tid}");
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "lane {tid} out of order");
        }
        // Scheduler instants present.
        assert!(evs.iter().any(|e| e.ph == "i" && e.name == "launch"));
        // At least 4 distinct counter tracks, all samples non-negative.
        let tracks: std::collections::BTreeSet<&str> = evs
            .iter()
            .filter(|e| e.ph == "C")
            .map(|e| e.name.as_str())
            .collect();
        assert!(tracks.len() >= 4, "tracks: {tracks:?}");
        for e in evs.iter().filter(|e| e.ph == "C") {
            for (k, v) in &e.args {
                let v = v.as_f64().unwrap_or_else(|| panic!("numeric {k}"));
                assert!(v >= 0.0, "negative counter {} {k}", e.name);
            }
        }
        // Envelope parses back.
        let json = fl.to_chrome_trace_object();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v.field("traceEvents").and_then(serde_json::Value::as_array).is_some());
    }

    #[test]
    fn power_track_appears_only_for_metered_profiles() {
        let cfg = scenario(3.0, 120.0);
        // Unmetered: no power track at all.
        let (_r, plain) = simulate_recorded(
            &cfg,
            &profile(),
            &Registry::new(),
            FlightCfg { window_s: 5.0, ..FlightCfg::default() },
        );
        assert!(plain.idle_w.is_none());
        assert!(plain.to_trace_events().iter().all(|e| e.name != "serve_power_w"));

        // Metered: every window samples a draw between idle and the
        // busy ceiling.
        let idle_w = 55.0;
        let draw_w = 320.0;
        let metered = ServiceProfile::new(vec![ServiceCurve::new(
            ModelId::StableDiffusion,
            vec![(1, 0.5), (4, 0.65), (16, 1.0)],
        )
        .with_draw_w(draw_w)])
        .with_idle_w(idle_w);
        let (r, fl) = simulate_recorded(
            &cfg,
            &metered,
            &Registry::new(),
            FlightCfg { window_s: 5.0, ..FlightCfg::default() },
        );
        assert_eq!(fl.idle_w, Some(idle_w));
        let samples: Vec<f64> = fl
            .to_trace_events()
            .iter()
            .filter(|e| e.ph == "C" && e.name == "serve_power_w")
            .map(|e| e.args["value"].as_f64().expect("float watts"))
            .collect();
        assert!(!samples.is_empty());
        for w in &samples {
            // Cluster draw: 2 GPUs each between idle and full draw.
            assert!((2.0 * idle_w * 0.99..=2.0 * draw_w * 1.01).contains(w), "draw {w}");
        }
        // Window energy folds back to the run's busy-span total.
        let win_j: f64 = fl.series.iter().map(|(_, _, w)| w.energy_j).sum();
        let busy_j: f64 =
            r.energy.as_ref().expect("metered").busy_energy_j.iter().sum();
        assert!((win_j - busy_j).abs() < 1e-6 * busy_j.max(1.0), "{win_j} vs {busy_j}");
    }

    #[test]
    fn trace_is_deterministic() {
        let (_ra, a) = record(3.0, 120.0);
        let (_rb, b) = record(3.0, 120.0);
        assert_eq!(a, b);
        assert_eq!(a.to_chrome_trace_object(), b.to_chrome_trace_object());
    }

    #[test]
    fn exemplars_worst_n_is_exact() {
        let cfg = scenario(4.0, 200.0);
        let r = simulate(&cfg, &profile(), &Registry::new());
        // Streaming mode must retain the same worst set.
        let streaming = simulate(
            &ScenarioCfg { full_records: false, ..cfg },
            &profile(),
            &Registry::new(),
        );
        let worst = streaming.stats.exemplars.worst();
        assert_eq!(worst.len(), 4.min(r.records.len()));
        // Exact: matches a full sort of the retained records.
        let mut by_latency: Vec<&crate::RequestRecord> = r.records.iter().collect();
        by_latency.sort_by(|a, b| {
            a.latency_s().total_cmp(&b.latency_s()).then(a.id.cmp(&b.id))
        });
        let expect: Vec<u64> =
            by_latency[by_latency.len() - worst.len()..].iter().map(|r| r.id).collect();
        let got: Vec<u64> = worst.iter().map(|r| r.id).collect();
        assert_eq!(got, expect);
        assert!(worst.windows(2).all(|w| w[0].latency_s() <= w[1].latency_s()));
    }

    #[test]
    fn exemplars_deterministic_per_seed_and_divergent_across_seeds() {
        let cfg = scenario(4.0, 200.0);
        let a = simulate(&cfg, &profile(), &Registry::new());
        let b = simulate(&cfg, &profile(), &Registry::new());
        assert_eq!(a.stats.exemplars, b.stats.exemplars);
        let c = simulate(&ScenarioCfg { seed: 12, ..cfg }, &profile(), &Registry::new());
        assert_ne!(
            a.stats.exemplars.worst(),
            c.stats.exemplars.worst(),
            "different seeds should retain different lifecycles"
        );
    }
}
