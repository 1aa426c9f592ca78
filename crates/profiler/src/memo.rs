//! Memoized operator costs.
//!
//! Generative pipelines are dominated by *repeated* structure — a 50-step
//! denoising loop evaluates the same UNet kernel set every step, and the
//! paper's sweeps re-profile near-identical graphs point after point. A
//! [`CostMemo`] lets every profiler sharing it pay the roofline /
//! wave-quantization / cache-simulation cost once per *distinct* operator
//! configuration:
//!
//! - The [`MemoKey`] canonicalizes everything a cost depends on: the
//!   fully-shaped [`Op`], the attention implementation (only for
//!   attention ops), the element width, the convolution algorithm (only
//!   for convolutions), the cache-simulation probe budget (only for
//!   attention ops), and the [device fingerprint]
//!   (mmg_gpu::DeviceSpec::fingerprint).
//! - The [`OpCostEntry`] stores the op's timeline contribution *and* the
//!   counter deltas it charges (`synthetic_op_deltas`, the one
//!   definition of them). Every op lands its telemetry from its entry —
//!   a cold op from the one it builds, a hit from the stored one — so a
//!   hit leaves the registry bit-identical to a cold run; the property
//!   test in `tests/proptest_memo.rs` holds memoized and memo-less
//!   profiling to byte equality.
//!
//! A profile call resolves each *distinct* op of its graph once, in a
//! table of its own: through one memo lookup, or a store after a miss,
//! when a memo is attached, and through one costing otherwise. The
//! call's attention, width, conv, probe, pass and device settings are
//! fixed, so the op alone names its key, and every later node with an
//! equal op takes the same entry without probing the memo. A memo's
//! hits and misses therefore count one probe per distinct op per call.
//!
//! Telemetry lands in batches per profile call, under one contract: an
//! op's telemetry lands before any hook sees an event and before the
//! call returns. Until then the profiler counts each entry's pending
//! nodes and keeps the nodes in order. One flush then adds each pending
//! entry's counter deltas once, times its pending nodes (the same bits
//! as one add per node, since the sums wrap), and each counter's summed
//! deltas once. It observes every node's kernel times in launch order
//! through one batch histogram observe, since the histogram's sum is a
//! float fold, and sets the power gauge to the last launch's draw.
//! Nothing outside the call can tell the batch from one op at a time.
//!
//! The map itself is a [`ShardedLru`], safe to share across the worker
//! threads of a parallel experiment sweep.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use mmg_attn::AttnImpl;
use mmg_gpu::{HierarchyStats, ShardedLru};
use mmg_graph::optimize::{OptConfig, OptStats};
use mmg_graph::Op;
use mmg_kernels::conv::ConvAlgorithm;

use crate::KernelRecord;

/// Canonical identity of one operator-cost evaluation.
///
/// Fields that cannot influence an op's lowering are normalized away
/// (e.g. the attention implementation of a `Linear` op is `None`), which
/// is what lets the baseline and flash profilers of a speedup comparison
/// share every non-attention entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// The fully-shaped operator.
    pub op: Op,
    /// Attention implementation; `None` for non-attention ops.
    pub attn: Option<AttnImpl>,
    /// Activation element width in bytes.
    pub elem_bytes: usize,
    /// Convolution algorithm; `None` for non-convolution ops.
    pub conv_algo: Option<ConvAlgorithm>,
    /// Cache-simulation probe budget; 0 for non-attention ops or when
    /// cache simulation is disabled.
    pub cache_probes: usize,
    /// Optimization passes rewriting the lowered kernel stream. The
    /// identity config and any enabled pass produce different kernels,
    /// so they memoize separately.
    pub opt: OptConfig,
    /// [`mmg_gpu::DeviceSpec::fingerprint`] of the simulated device.
    pub device_fingerprint: u64,
}

impl MemoKey {
    /// Builds the key for one op under a profiler's configuration,
    /// normalizing away the knobs that cannot affect this op.
    #[must_use]
    pub fn for_op(
        op: &Op,
        attn: AttnImpl,
        elem_bytes: usize,
        conv_algo: ConvAlgorithm,
        cache_probes: usize,
        opt: OptConfig,
        device_fingerprint: u64,
    ) -> Self {
        let is_attn = matches!(op, Op::Attention { .. });
        MemoKey {
            op: op.clone(),
            attn: is_attn.then_some(attn),
            elem_bytes,
            conv_algo: matches!(op, Op::Conv2d { .. }).then_some(conv_algo),
            cache_probes: if is_attn { cache_probes } else { 0 },
            opt,
            device_fingerprint,
        }
    }
}

/// One operator's cost and telemetry: what its event, its span and its
/// counters are built from, whether the op was costed now or found in
/// the memo.
///
/// The per-kernel records and the visible delta list are behind `Arc`s
/// so the profiler can hand them to [`crate::OpEvent`]s and span records
/// by reference count — every node of a 50-step denoising loop that
/// repeats a UNet op attaches its entry to its event, about a million
/// events per suite run, and deep-cloning the string-heavy vectors per
/// event dominated replay cost.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCostEntry {
    /// Summed kernel time, seconds.
    pub time_s: f64,
    /// Summed kernel energy, joules.
    pub energy_j: f64,
    /// Summed FLOPs.
    pub flops: u64,
    /// Summed HBM bytes.
    pub hbm_bytes: u64,
    /// Per-kernel records, in launch order.
    pub records: Arc<Vec<KernelRecord>>,
    /// Every counter this op charges, as `(full metric name, delta)`
    /// sorted by name and labels, the order a registry lists its
    /// counters in. Zero deltas are *kept*: landing them creates the
    /// counter at zero (e.g. `kernel_flops_total` of a copy kernel);
    /// event and span attribution use [`OpCostEntry::visible`].
    pub counter_deltas: Vec<(String, u64)>,
    /// The non-zero subset of `counter_deltas`: the op's attribution on
    /// its event and span, precomputed once so each op attaches it
    /// without filtering or cloning.
    pub visible: Arc<Vec<(String, u64)>>,
    /// The [`counter_slots`] number of each `counter_deltas` name, in
    /// the same order, so a flush sums deltas by index, not by name.
    pub(crate) slots: Vec<u32>,
}

impl OpCostEntry {
    /// Builds an entry, precomputing the visible (non-zero) delta list
    /// from `counter_deltas`.
    #[must_use]
    pub fn new(
        time_s: f64,
        energy_j: f64,
        flops: u64,
        hbm_bytes: u64,
        records: Arc<Vec<KernelRecord>>,
        counter_deltas: Vec<(String, u64)>,
    ) -> Self {
        let visible =
            Arc::new(counter_deltas.iter().filter(|(_, d)| *d > 0).cloned().collect::<Vec<_>>());
        let slots = counter_slots(&counter_deltas);
        OpCostEntry { time_s, energy_j, flops, hbm_bytes, records, counter_deltas, visible, slots }
    }
}

/// Numbers the counter names of `deltas` process-wide, in order: a name
/// keeps the number it first got, and numbers count up from 0. A
/// profiler's replay table is indexed by these numbers. The names are
/// the counters a kernel stream can touch, a set the simulator fixes, so
/// the numbering stays small.
fn counter_slots(deltas: &[(String, u64)]) -> Vec<u32> {
    static SLOTS: OnceLock<Mutex<HashMap<String, u32>>> = OnceLock::new();
    let mut slots = SLOTS.get_or_init(Mutex::default).lock().expect("counter slots poisoned");
    deltas
        .iter()
        .map(|(name, _)| match slots.get(name) {
            Some(&slot) => slot,
            None => {
                let slot = u32::try_from(slots.len()).expect("counter slots fit in u32");
                slots.insert(name.clone(), slot);
                slot
            }
        })
        .collect()
}

/// A shared, bounded memo of operator costs (see module docs).
#[derive(Debug)]
pub struct CostMemo {
    lru: ShardedLru<MemoKey, OpCostEntry>,
}

impl Default for CostMemo {
    fn default() -> Self {
        CostMemo::new()
    }
}

impl CostMemo {
    /// Default capacity: generous for whole-suite runs (every distinct
    /// operator across all nine paper models fits with room to spare)
    /// while still bounding a pathological sweep.
    const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A memo with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        CostMemo::with_capacity(CostMemo::DEFAULT_CAPACITY)
    }

    /// A memo bounded to roughly `capacity` entries (LRU-evicted per
    /// shard beyond that).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        CostMemo { lru: ShardedLru::new(capacity) }
    }

    /// Looks up an entry, refreshing its recency.
    #[must_use]
    pub fn lookup(&self, key: &MemoKey) -> Option<Arc<OpCostEntry>> {
        self.lru.get(key)
    }

    /// Stores an entry computed by a miss path and hands it back shared.
    pub fn store(&self, key: MemoKey, entry: OpCostEntry) -> Arc<OpCostEntry> {
        self.lru.insert(key, entry)
    }

    /// Lookups served from the memo.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.lru.hits()
    }

    /// Lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.lru.misses()
    }

    /// `hits / (hits + misses)`, 0 before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.lru.hit_rate()
    }

    /// Distinct entries resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Drops all entries and statistics (e.g. between benchmark phases).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

/// The counter deltas one op charges, given its kernel records, its
/// cache statistics and its pass statistics: the one definition of an
/// op's telemetry. It covers the `gpu_*` launch, FLOP, byte, regime,
/// energy and wave-quantization counters, the per-kind `kernel_*`
/// counters, the pass counters and (for attention ops under cache
/// simulation) the L1/L2 counters. Sorted by `(name, labels)`; zero
/// deltas are kept so landing the list creates each counter it names
/// (the non-zero form is [`OpCostEntry::visible`]).
pub(crate) fn synthetic_op_deltas(
    records: &[KernelRecord],
    cache: Option<HierarchyStats>,
    opt_stats: OptStats,
) -> Vec<(String, u64)> {
    let mut map: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut bump = |name: &str, labels: String, delta: u64| {
        *map.entry((name.to_string(), labels)).or_default() += delta;
    };
    // Pass counters exist only once a pass charges them.
    if opt_stats.kernels_fused > 0 {
        bump("kernel_fused_total", String::new(), opt_stats.kernels_fused);
    }
    if opt_stats.launches_elided > 0 {
        bump("kernel_launches_elided_total", String::new(), opt_stats.launches_elided);
    }
    if opt_stats.hbm_bytes_saved > 0 {
        bump("kernel_opt_hbm_bytes_saved_total", String::new(), opt_stats.hbm_bytes_saved);
    }
    for k in records {
        let memory_bound = k.memory_s > k.compute_s;
        // Only a ragged final wave creates this counter.
        if k.wave_quant_idle_slots > 0 {
            bump("gpu_wave_quant_idle_slots_total", String::new(), k.wave_quant_idle_slots);
        }
        bump("gpu_kernel_launches_total", String::new(), 1);
        bump("gpu_flops_total", String::new(), k.flops);
        bump("gpu_hbm_bytes_total", String::new(), k.hbm_bytes);
        // Charged even at zero: the counter exists for a zero-quantum
        // kernel too.
        bump("gpu_energy_uj_total", String::new(), mmg_gpu::quantize_uj(k.energy_j));
        let regime = if memory_bound {
            bump("gpu_kernels_memory_bound_total", String::new(), 1);
            "memory"
        } else {
            bump("gpu_kernels_compute_bound_total", String::new(), 1);
            "compute"
        };
        let kind_label = format!("kind=\"{}\"", k.kind);
        bump("kernel_launches_total", kind_label.clone(), 1);
        bump("kernel_flops_total", kind_label.clone(), k.flops);
        bump("kernel_hbm_bytes_total", kind_label.clone(), k.hbm_bytes);
        bump("kernel_energy_uj_total", kind_label.clone(), mmg_gpu::quantize_uj(k.energy_j));
        bump(
            "kernel_regime_total",
            format!("kind=\"{}\",regime=\"{regime}\"", k.kind),
            1,
        );
    }
    if let Some(stats) = cache {
        bump("gpu_l1_accesses_total", String::new(), stats.l1.accesses);
        bump("gpu_l1_hits_total", String::new(), stats.l1.hits);
        bump("gpu_l2_accesses_total", String::new(), stats.l2.accesses);
        bump("gpu_l2_hits_total", String::new(), stats.l2.hits);
    }
    map.into_iter()
        .map(|((name, labels), v)| {
            let full = if labels.is_empty() { name } else { format!("{name}{{{labels}}}") };
            (full, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttentionShape;
    use mmg_graph::AttnKind;

    fn linear() -> Op {
        Op::Linear { tokens: 64, in_features: 128, out_features: 256 }
    }

    #[test]
    fn key_normalizes_irrelevant_knobs() {
        let fp = mmg_gpu::DeviceSpec::a100_80gb().fingerprint();
        let opt = OptConfig::default();
        let base = MemoKey::for_op(
            &linear(), AttnImpl::Baseline, 2, ConvAlgorithm::ImplicitGemm, 9, opt, fp,
        );
        let flash =
            MemoKey::for_op(&linear(), AttnImpl::Flash, 2, ConvAlgorithm::Winograd, 0, opt, fp);
        assert_eq!(base, flash, "linear ops ignore attention/conv/cache knobs");
        let attn_op = Op::Attention {
            shape: AttentionShape::self_attn(1, 8, 256, 64),
            kind: AttnKind::SpatialSelf,
        };
        let a = MemoKey::for_op(
            &attn_op, AttnImpl::Baseline, 2, ConvAlgorithm::ImplicitGemm, 0, opt, fp,
        );
        let b =
            MemoKey::for_op(&attn_op, AttnImpl::Flash, 2, ConvAlgorithm::ImplicitGemm, 0, opt, fp);
        assert_ne!(a, b, "attention ops key on the implementation");
    }

    #[test]
    fn key_separates_opt_configs() {
        let fp = mmg_gpu::DeviceSpec::a100_80gb().fingerprint();
        let id = MemoKey::for_op(
            &linear(), AttnImpl::Flash, 2, ConvAlgorithm::ImplicitGemm,
            0, OptConfig::default(), fp,
        );
        let opt = MemoKey::for_op(
            &linear(), AttnImpl::Flash, 2, ConvAlgorithm::ImplicitGemm,
            0, OptConfig::all(), fp,
        );
        assert_ne!(id, opt, "optimized streams must not replay eager entries");
    }

    #[test]
    fn key_separates_devices() {
        let a = MemoKey::for_op(
            &linear(),
            AttnImpl::Flash,
            2,
            ConvAlgorithm::ImplicitGemm,
            0,
            OptConfig::default(),
            mmg_gpu::DeviceSpec::a100_80gb().fingerprint(),
        );
        let v = MemoKey {
            device_fingerprint: mmg_gpu::DeviceSpec::v100_32gb().fingerprint(),
            ..a.clone()
        };
        assert_ne!(a, v);
    }

    #[test]
    fn memo_round_trips_entries() {
        let memo = CostMemo::new();
        let key = MemoKey::for_op(
            &linear(),
            AttnImpl::Flash,
            2,
            ConvAlgorithm::ImplicitGemm,
            0,
            OptConfig::default(),
            42,
        );
        assert!(memo.lookup(&key).is_none());
        let entry = OpCostEntry::new(
            1e-5,
            3e-3,
            100,
            200,
            Arc::new(vec![]),
            vec![("gpu_flops_total".to_string(), 100), ("zero_total".to_string(), 0)],
        );
        assert_eq!(*entry.visible, vec![("gpu_flops_total".to_string(), 100)]);
        memo.store(key.clone(), entry.clone());
        assert_eq!(memo.lookup(&key).as_deref(), Some(&entry));
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.len(), 1);
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn synthetic_deltas_match_live_recording() {
        // Records built from the timing engine's own outputs; the pinned
        // list is what per-kernel live recording charged for them.
        let costs = [
            // Compute-bound GEMM.
            ("gemm", mmg_gpu::KernelCost { flops: 1 << 34, hbm_bytes: 1 << 20, compute_eff: 0.9, memory_eff: 0.9 }),
            // Memory-bound softmax.
            ("softmax", mmg_gpu::KernelCost { flops: 100, hbm_bytes: 1 << 24, compute_eff: 1.0, memory_eff: 0.8 }),
            // Zero-FLOP copy: kernel_flops_total{kind="memcpy"} is charged 0.
            ("memcpy", mmg_gpu::KernelCost::memory_only(4096, 0.9)),
        ];
        let engine = mmg_gpu::TimingEngine::with_registry(
            mmg_gpu::DeviceSpec::a100_80gb(),
            &mmg_telemetry::Registry::new(),
        );
        let records: Vec<KernelRecord> = costs
            .iter()
            .map(|(kind, cost)| {
                let t = engine.kernel_time(cost);
                KernelRecord {
                    kind: (*kind).to_string(),
                    label: format!("{kind}_test"),
                    time_s: t.total_s,
                    compute_s: t.compute_s,
                    memory_s: t.memory_s,
                    flops: cost.flops,
                    hbm_bytes: cost.hbm_bytes,
                    wave_quant_idle_slots: 7,
                    draw_w: t.draw_w,
                    energy_j: t.energy_j,
                }
            })
            .collect();
        // The unfiltered list, pinned: the zero-FLOP copy keeps its
        // counter so landing the list creates it.
        let pinned: Vec<(String, u64)> =
            THREE_KERNEL_DELTAS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        assert_eq!(synthetic_op_deltas(&records, None, OptStats::default()), pinned);
    }

    /// Every counter the three kernels of
    /// `synthetic_deltas_match_live_recording` charge, with its delta,
    /// zero deltas included, as live per-kernel counter writes recorded
    /// them.
    const THREE_KERNEL_DELTAS: [(&str, u64); 22] = [
        ("gpu_energy_uj_total", 25114),
        ("gpu_flops_total", 17_179_869_284),
        ("gpu_hbm_bytes_total", 17_829_888),
        ("gpu_kernel_launches_total", 3),
        ("gpu_kernels_compute_bound_total", 1),
        ("gpu_kernels_memory_bound_total", 2),
        ("gpu_wave_quant_idle_slots_total", 21),
        ("kernel_energy_uj_total{kind=\"gemm\"}", 22147),
        ("kernel_energy_uj_total{kind=\"memcpy\"}", 330),
        ("kernel_energy_uj_total{kind=\"softmax\"}", 2637),
        ("kernel_flops_total{kind=\"gemm\"}", 17_179_869_184),
        ("kernel_flops_total{kind=\"memcpy\"}", 0),
        ("kernel_flops_total{kind=\"softmax\"}", 100),
        ("kernel_hbm_bytes_total{kind=\"gemm\"}", 1_048_576),
        ("kernel_hbm_bytes_total{kind=\"memcpy\"}", 4096),
        ("kernel_hbm_bytes_total{kind=\"softmax\"}", 16_777_216),
        ("kernel_launches_total{kind=\"gemm\"}", 1),
        ("kernel_launches_total{kind=\"memcpy\"}", 1),
        ("kernel_launches_total{kind=\"softmax\"}", 1),
        ("kernel_regime_total{kind=\"gemm\",regime=\"compute\"}", 1),
        ("kernel_regime_total{kind=\"memcpy\",regime=\"memory\"}", 1),
        ("kernel_regime_total{kind=\"softmax\",regime=\"memory\"}", 1),
    ];

    #[test]
    fn synthetic_deltas_include_cache_stats() {
        let stats = HierarchyStats {
            l1: mmg_gpu::CacheStats { accesses: 100, hits: 80 },
            l2: mmg_gpu::CacheStats { accesses: 20, hits: 5 },
        };
        let deltas = synthetic_op_deltas(&[], Some(stats), OptStats::default());
        assert_eq!(
            deltas,
            vec![
                ("gpu_l1_accesses_total".to_string(), 100),
                ("gpu_l1_hits_total".to_string(), 80),
                ("gpu_l2_accesses_total".to_string(), 20),
                ("gpu_l2_hits_total".to_string(), 5),
            ]
        );
    }

    #[test]
    fn synthetic_deltas_include_pass_counters_when_nonzero() {
        let none = synthetic_op_deltas(&[], None, OptStats::default());
        assert!(none.is_empty(), "identity passes add no counters");
        let stats =
            OptStats { kernels_fused: 3, launches_elided: 0, hbm_bytes_saved: 4096 };
        let deltas = synthetic_op_deltas(&[], None, stats);
        assert_eq!(
            deltas,
            vec![
                ("kernel_fused_total".to_string(), 3),
                ("kernel_opt_hbm_bytes_saved_total".to_string(), 4096),
            ]
        );
    }
}
