//! Chrome-trace export.
//!
//! Serializes a [`Timeline`] into the Trace Event Format consumed by
//! `chrome://tracing` / Perfetto, with operators on one track and their
//! kernels on another — the same two-level view PyTorch Profiler exports.
//! Operator events carry their telemetry counter deltas (and FLOP/byte
//! totals) in `args`, and cumulative device counters are emitted as
//! `ph:"C"` counter tracks so Perfetto plots them as area charts.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::Timeline;

/// One Trace Event Format entry (`ph = "X"` complete events and
/// `ph = "C"` counter samples).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event name (op path, kernel label, or counter name).
    pub name: String,
    /// Category (`op:<category>`, `kernel:<kind>`, or `counter`).
    pub cat: String,
    /// Phase — `"X"` (complete event) or `"C"` (counter sample).
    pub ph: String,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds (0 for counter samples).
    pub dur: f64,
    /// Process id (always 1).
    pub pid: u32,
    /// Track: 0 = operators, 1 = kernels, 2 = counters.
    pub tid: u32,
    /// Per-event payload: counter deltas and totals for op events, the
    /// sampled value for counter events.
    pub args: BTreeMap<String, Value>,
}

/// Counters promoted to `ph:"C"` tracks when present in op deltas.
/// Labelled (per-kind) series stay in `args` only — one track per label
/// set would swamp the trace viewer.
const COUNTER_TRACKS: &[&str] = &[
    "gpu_flops_total",
    "gpu_hbm_bytes_total",
    "gpu_energy_uj_total",
    "gpu_kernel_launches_total",
    "gpu_l1_hits_total",
    "gpu_l1_accesses_total",
    "gpu_l2_hits_total",
    "gpu_l2_accesses_total",
];

/// Converts a timeline into trace events, serializing ops back-to-back
/// from t = 0 (the simulator has no gaps).
#[must_use]
pub fn to_trace_events(timeline: &Timeline) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut t_us = 0.0f64;
    let mut cumulative: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in timeline.events() {
        let op_dur = ev.time_s * 1e6;
        let mut args = BTreeMap::new();
        args.insert("flops".to_string(), Value::from(ev.flops));
        args.insert("hbm_bytes".to_string(), Value::from(ev.hbm_bytes));
        for (name, delta) in ev.counters.iter() {
            args.insert(name.clone(), Value::from(*delta));
        }
        events.push(TraceEvent {
            name: ev.path.to_string(),
            cat: format!("op:{}", ev.category),
            ph: "X".into(),
            ts: t_us,
            dur: op_dur,
            pid: 1,
            tid: 0,
            args,
        });
        let mut k_ts = t_us;
        for k in ev.kernels.iter() {
            let dur = k.time_s * 1e6;
            let mut args = BTreeMap::new();
            args.insert("flops".to_string(), Value::from(k.flops));
            args.insert("hbm_bytes".to_string(), Value::from(k.hbm_bytes));
            events.push(TraceEvent {
                name: k.label.clone(),
                cat: format!("kernel:{}", k.kind),
                ph: "X".into(),
                ts: k_ts,
                dur,
                pid: 1,
                tid: 1,
                args,
            });
            k_ts += dur;
        }
        t_us += op_dur;
        // Power track: the op's mean modeled draw, sampled at its
        // boundary so Perfetto draws a step chart next to the kernel
        // lanes.
        if ev.time_s > 0.0 {
            let mut args = BTreeMap::new();
            args.insert("value".to_string(), Value::from(ev.energy_j / ev.time_s));
            events.push(TraceEvent {
                name: "gpu_power_w".to_string(),
                cat: "counter".into(),
                ph: "C".into(),
                ts: t_us,
                dur: 0.0,
                pid: 1,
                tid: 2,
                args,
            });
        }
        // Sample cumulative device counters at the op boundary.
        for &track in COUNTER_TRACKS {
            if let Some((_, delta)) = ev.counters.iter().find(|(name, _)| name == track) {
                let total = cumulative.entry(track).or_insert(0);
                *total += delta;
                let mut args = BTreeMap::new();
                args.insert("value".to_string(), Value::from(*total));
                events.push(TraceEvent {
                    name: track.to_string(),
                    cat: "counter".into(),
                    ph: "C".into(),
                    ts: t_us,
                    dur: 0.0,
                    pid: 1,
                    tid: 2,
                    args,
                });
            }
        }
    }
    events
}

/// Serializes a timeline to a bare-array Chrome-trace JSON string (the
/// legacy format `chrome://tracing` accepts directly).
///
/// # Panics
///
/// Never panics: trace events contain only serializable primitives.
#[must_use]
pub fn to_chrome_trace(timeline: &Timeline) -> String {
    serde_json::to_string(&to_trace_events(timeline)).expect("trace events always serialize")
}

/// Serializes a timeline to the JSON-object trace form Perfetto prefers:
/// `{"traceEvents": [...], "displayTimeUnit": "us"}`.
///
/// # Panics
///
/// Never panics: trace events contain only serializable primitives.
#[must_use]
pub fn to_chrome_trace_object(timeline: &Timeline) -> String {
    let events = serde_json::to_value(&to_trace_events(timeline))
        .expect("trace events always serialize");
    let envelope = Value::Object(vec![
        ("traceEvents".to_string(), events),
        ("displayTimeUnit".to_string(), Value::from("us")),
    ]);
    serde_json::to_string(&envelope).expect("trace envelope always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profiler;
    use mmg_attn::{AttentionShape, AttnImpl};
    use mmg_gpu::DeviceSpec;
    use mmg_graph::{AttnKind, Graph, Op};

    fn timeline() -> Timeline {
        let mut g = Graph::new();
        g.push("enc.fc", Op::Linear { tokens: 64, in_features: 64, out_features: 64 });
        g.push("enc.norm", Op::LayerNorm { rows: 64, cols: 64 });
        Profiler::with_registry(
            DeviceSpec::a100_80gb(),
            AttnImpl::Flash,
            &mmg_telemetry::Registry::new(),
        )
        .profile(&g)
    }

    #[test]
    fn ops_are_contiguous_from_zero() {
        let evs = to_trace_events(&timeline());
        let ops: Vec<&TraceEvent> = evs.iter().filter(|e| e.tid == 0).collect();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].ts, 0.0);
        assert!((ops[1].ts - ops[0].dur).abs() < 1e-9);
    }

    #[test]
    fn kernels_nest_within_their_op() {
        let evs = to_trace_events(&timeline());
        let ops: Vec<&TraceEvent> = evs.iter().filter(|e| e.tid == 0).collect();
        for k in evs.iter().filter(|e| e.tid == 1) {
            let host = ops
                .iter()
                .find(|o| k.ts >= o.ts - 1e-9 && k.ts + k.dur <= o.ts + o.dur + 1e-9);
            assert!(host.is_some(), "kernel {} escapes its op", k.name);
        }
    }

    #[test]
    fn json_round_trips() {
        let t = timeline();
        let json = to_chrome_trace(&t);
        let back: Vec<TraceEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, to_trace_events(&t));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn categories_are_tagged() {
        let evs = to_trace_events(&timeline());
        assert!(evs.iter().any(|e| e.cat == "op:Linear"));
        assert!(evs.iter().any(|e| e.cat.starts_with("kernel:")));
    }

    #[test]
    fn op_events_carry_counter_args() {
        let evs = to_trace_events(&timeline());
        let op = evs.iter().find(|e| e.tid == 0).expect("an op event");
        assert!(op.args.contains_key("flops"));
        assert!(op.args.contains_key("gpu_kernel_launches_total"), "args: {:?}", op.args);
    }

    #[test]
    fn counter_tracks_are_cumulative_and_monotone() {
        let evs = to_trace_events(&timeline());
        let samples: Vec<u64> = evs
            .iter()
            .filter(|e| e.ph == "C" && e.name == "gpu_kernel_launches_total")
            .map(|e| e.args["value"].as_u64().expect("integer counter"))
            .collect();
        assert!(samples.len() >= 2, "one sample per op");
        assert!(samples.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn power_track_samples_mean_op_draw() {
        let evs = to_trace_events(&timeline());
        let idle = DeviceSpec::a100_80gb().idle_w;
        let tdp = DeviceSpec::a100_80gb().tdp_w;
        let samples: Vec<f64> = evs
            .iter()
            .filter(|e| e.ph == "C" && e.name == "gpu_power_w")
            .map(|e| e.args["value"].as_f64().expect("float watts"))
            .collect();
        assert_eq!(samples.len(), 2, "one power sample per op");
        for w in samples {
            assert!(w >= idle * 0.9 && w <= tdp, "draw {w} outside envelope");
        }
        // The cumulative energy track rides along.
        assert!(evs.iter().any(|e| e.ph == "C" && e.name == "gpu_energy_uj_total"));
    }

    #[test]
    fn envelope_wraps_trace_events() {
        let t = timeline();
        let json = to_chrome_trace_object(&t);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.field("displayTimeUnit").and_then(serde_json::Value::as_str), Some("us"));
        let evs = v.field("traceEvents").and_then(serde_json::Value::as_array).expect("array");
        assert_eq!(evs.len(), to_trace_events(&t).len());
    }

    #[test]
    fn temporal_attention_trace_has_cache_counter_tracks() {
        let mut g = Graph::new();
        g.push(
            "unet.temporal_attn",
            Op::Attention {
                shape: AttentionShape::self_attn(4096, 8, 16, 40),
                kind: AttnKind::Temporal,
            },
        );
        let registry = mmg_telemetry::Registry::new();
        let t = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
            .with_cache_sim(10_000)
            .profile(&g);
        let evs = to_trace_events(&t);
        assert!(
            evs.iter().any(|e| e.ph == "C" && e.name == "gpu_l1_accesses_total"),
            "cache counter track missing"
        );
    }
}
