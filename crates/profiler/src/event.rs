//! Profile events.

use std::sync::Arc;

use mmg_graph::{AttnKind, OpCategory};

/// One simulated kernel launch inside an operator.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel family name (`gemm`, `softmax`, …).
    pub kind: String,
    /// Full kernel label with shape.
    pub label: String,
    /// Modelled duration in seconds.
    pub time_s: f64,
    /// Compute component of the roofline time, seconds.
    pub compute_s: f64,
    /// Memory component of the roofline time, seconds.
    pub memory_s: f64,
    /// FLOPs executed.
    pub flops: u64,
    /// HBM bytes moved.
    pub hbm_bytes: u64,
    /// Wave-quantization idle SM-tile slots charged by this launch.
    pub wave_quant_idle_slots: u64,
    /// Modeled board draw while the kernel body ran, watts.
    pub draw_w: f64,
    /// Modeled energy of the launch, joules.
    pub energy_j: f64,
}

/// Attention-specific annotation on an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnCallInfo {
    /// Role of the call.
    pub kind: AttnKind,
    /// Query sequence length.
    pub seq_q: usize,
    /// Key/value sequence length.
    pub seq_kv: usize,
    /// Effective batch.
    pub batch: usize,
    /// Head count.
    pub heads: usize,
}

/// One operator execution on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct OpEvent {
    /// Position in execution order.
    pub index: usize,
    /// Module path that launched the operator, shared with the graph
    /// node and the op's span.
    pub path: Arc<str>,
    /// Fig. 6 category.
    pub category: OpCategory,
    /// Total duration in seconds (sum of kernels).
    pub time_s: f64,
    /// FLOPs.
    pub flops: u64,
    /// HBM bytes.
    pub hbm_bytes: u64,
    /// Modeled energy in joules (sum of kernels, launch overhead at
    /// idle draw).
    pub energy_j: f64,
    /// Constituent kernels. Shared (`Arc`) with the operator-cost memo
    /// on replayed ops, so repeated structure (e.g. every step of a
    /// denoising loop) does not deep-clone the records per event.
    pub kernels: Arc<Vec<KernelRecord>>,
    /// Present when the operator is an attention call.
    pub attention: Option<AttnCallInfo>,
    /// Telemetry counter increments attributed to this operator (full
    /// metric name → delta), captured by the executor around the op.
    /// Shared with the memo entry's visible delta list on replay.
    pub counters: Arc<Vec<(String, u64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_construction() {
        let ev = OpEvent {
            index: 0,
            path: "unet.attn".into(),
            category: OpCategory::Attention,
            time_s: 1e-3,
            flops: 100,
            hbm_bytes: 200,
            energy_j: 0.3,
            kernels: Arc::new(vec![]),
            counters: Arc::new(vec![]),
            attention: Some(AttnCallInfo {
                kind: AttnKind::SpatialSelf,
                seq_q: 64,
                seq_kv: 64,
                batch: 1,
                heads: 8,
            }),
        };
        assert_eq!(ev.attention.unwrap().seq_q, 64);
    }
}
