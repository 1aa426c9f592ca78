//! Kernel descriptors.

use std::fmt;

use mmg_gpu::KernelCost;

/// The kernel families the profiler distinguishes, mirroring the kernel
/// names the paper reads out of Nsight Compute (`gemm`, `softmax`,
/// `elementwise`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Dense (possibly batched) matrix multiply.
    Gemm,
    /// Convolution lowered to implicit GEMM.
    ConvImplicitGemm,
    /// Row-wise softmax.
    Softmax,
    /// Pointwise arithmetic (activations, residual adds, scaling).
    Elementwise,
    /// Normalization reductions (GroupNorm / LayerNorm / RMSNorm).
    Norm,
    /// Data movement only (layout transforms, KV-cache appends).
    MemCopy,
    /// Embedding table gather.
    Gather,
    /// Fused tiled attention (FlashAttention-style single kernel).
    FusedAttention,
    /// GEMM with bandwidth-bound epilogues (bias/activation/softmax)
    /// folded into its tile loop by the fusion pass — the
    /// `gemm+bias_act`-style kernels Nsight shows for fused CUTLASS
    /// launches. The label carries the exact composition.
    GemmEpilogue,
    /// Implicit-GEMM convolution with fused epilogues.
    ConvEpilogue,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelKind::Gemm => "gemm",
            KernelKind::ConvImplicitGemm => "conv_implicit_gemm",
            KernelKind::Softmax => "softmax",
            KernelKind::Elementwise => "elementwise",
            KernelKind::Norm => "norm",
            KernelKind::MemCopy => "memcpy",
            KernelKind::Gather => "gather",
            KernelKind::FusedAttention => "fused_attention",
            KernelKind::GemmEpilogue => "gemm+epilogue",
            KernelKind::ConvEpilogue => "conv_implicit_gemm+epilogue",
        };
        f.write_str(s)
    }
}

/// One simulated kernel launch: a kind, a label, and its modelled cost.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel family.
    pub kind: KernelKind,
    /// Human-readable label, e.g. `"gemm_b16_m4096_n64_k64"`.
    pub label: String,
    /// Cost fed to [`mmg_gpu::TimingEngine`].
    pub cost: KernelCost,
    /// Idle SM-tile slots in the launch's final ragged wave (GEMM wave
    /// quantization). The profiler charges them to telemetry with the
    /// rest of the op's counters; lowering stays a pure function.
    pub wave_quant_idle_slots: u64,
    /// Bytes of the kernel's primary output tensor, counted inside
    /// `cost.hbm_bytes`. The fusion pass uses this to know how much HBM
    /// round-trip an epilogue fold eliminates; 0 means "unknown — not a
    /// fusion producer".
    pub out_bytes: u64,
    /// Whether the launch sits inside a captured CUDA graph, so the
    /// timing engine should drop its per-launch dispatch overhead.
    pub captured: bool,
}

impl KernelDesc {
    /// Creates a descriptor.
    #[must_use]
    pub fn new(kind: KernelKind, label: impl Into<String>, cost: KernelCost) -> Self {
        KernelDesc {
            kind,
            label: label.into(),
            cost,
            wave_quant_idle_slots: 0,
            out_bytes: 0,
            captured: false,
        }
    }

    /// Annotates the descriptor with wave-quantization idle slots.
    #[must_use]
    pub fn with_idle_slots(mut self, slots: u64) -> Self {
        self.wave_quant_idle_slots = slots;
        self
    }

    /// Annotates the descriptor with its output-tensor footprint
    /// (enables epilogue fusion into this kernel).
    #[must_use]
    pub fn with_out_bytes(mut self, bytes: u64) -> Self {
        self.out_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_nsight_vocabulary() {
        assert_eq!(KernelKind::Gemm.to_string(), "gemm");
        assert_eq!(KernelKind::Softmax.to_string(), "softmax");
        assert_eq!(KernelKind::Elementwise.to_string(), "elementwise");
        // Fused kernels use the Nsight-style `base+epilogue` spelling.
        assert_eq!(KernelKind::GemmEpilogue.to_string(), "gemm+epilogue");
        assert_eq!(KernelKind::ConvEpilogue.to_string(), "conv_implicit_gemm+epilogue");
    }

    #[test]
    fn desc_construction() {
        let d = KernelDesc::new(
            KernelKind::Gemm,
            "gemm_test",
            KernelCost { flops: 1, hbm_bytes: 2, compute_eff: 0.5, memory_eff: 0.5 },
        );
        assert_eq!(d.kind, KernelKind::Gemm);
        assert_eq!(d.label, "gemm_test");
    }
}
