//! The performance-plane executor.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mmg_attn::{AttentionShape, AttnImpl};
use mmg_gpu::{DeviceSpec, HierarchyStats, TimingEngine, WordHasher};
use mmg_graph::optimize::{self, OptConfig};
use mmg_graph::{lower::lower_on, AttnKind, Graph, Op};
use mmg_kernels::access::{AttentionKernel, VideoAttentionAccess};
use mmg_kernels::conv::ConvAlgorithm;
use mmg_telemetry::{Counter, Registry};

use crate::memo::{synthetic_op_deltas, CostMemo, MemoKey, OpCostEntry};
use crate::{AttnCallInfo, KernelRecord, ModuleHook, OpEvent, Timeline};

/// One counter of a profiler's replay table.
#[derive(Debug, Default)]
struct ReplaySlot {
    /// The counter in the profiler's registry, resolved (and created at
    /// zero) the first time a flush meets it.
    counter: Option<Counter>,
    /// Summed deltas of the entries being flushed.
    pending: u64,
}

/// Counter handles that ops' entries land their telemetry through,
/// indexed by the process-wide counter slot of each name
/// (`OpCostEntry::slots`), so a flush adds by index without a name
/// lookup.
#[derive(Debug, Default)]
struct ReplayTable {
    slots: Vec<ReplaySlot>,
    /// Slots whose `pending` was raised since the last flush.
    touched: Vec<usize>,
    /// The table a profile call resolves its ops in, kept here between
    /// calls so a warm call allocates per graph, not per op.
    call: CallTable,
}

impl ReplayTable {
    /// Adds every counter delta of `entry`, times the `nodes` that ran
    /// its op, to its slot's pending sum. `wrapping_mul` is `nodes`
    /// repeated `wrapping_add`s, so the sum has the same bits as adding
    /// the entry once per node.
    fn add(&mut self, entry: &OpCostEntry, nodes: u64, registry: &Registry) {
        for (&slot, (name, delta)) in entry.slots.iter().zip(&entry.counter_deltas) {
            let slot = slot as usize;
            if slot >= self.slots.len() {
                self.slots.resize_with(slot + 1, ReplaySlot::default);
            }
            let s = &mut self.slots[slot];
            s.counter.get_or_insert_with(|| registry.counter_handle(name));
            if *delta > 0 {
                if s.pending == 0 {
                    self.touched.push(slot);
                }
                s.pending = s.pending.wrapping_add(delta.wrapping_mul(nodes));
            }
        }
    }

    /// Adds each pending sum to its counter, once, and clears it.
    fn apply(&mut self) {
        for slot in self.touched.drain(..) {
            let s = &mut self.slots[slot];
            let sum = std::mem::take(&mut s.pending);
            s.counter.as_ref().expect("a pending slot is resolved").add(sum);
        }
    }
}

/// The distinct ops of one profile call. A call's attention, width,
/// conv, probe, pass and device settings are fixed, so within it an op
/// alone names its [`MemoKey`]: each distinct op is resolved to an entry
/// once, and every later node with an equal op takes that entry.
#[derive(Debug, Default)]
struct CallTable {
    /// Each distinct op met so far → its index in `ops`. Keyed by full
    /// `Op` equality, hashed a word at a time as the memo hashes keys.
    index: HashMap<Op, usize, BuildHasherDefault<WordHasher>>,
    /// Each distinct op's entry, and how many of its nodes wait for
    /// their telemetry to land.
    ops: Vec<(Arc<OpCostEntry>, u64)>,
    /// The `ops` index of each node whose telemetry waits, in node order.
    pending: Vec<usize>,
}

impl CallTable {
    /// The `ops` index of `op`'s entry, calling `resolve` for it the
    /// first time the call meets the op.
    fn index_of(&mut self, op: &Op, resolve: impl FnOnce() -> Arc<OpCostEntry>) -> usize {
        if let Some(&i) = self.index.get(op) {
            return i;
        }
        let i = self.ops.len();
        self.ops.push((resolve(), 0));
        self.index.insert(op.clone(), i);
        i
    }

    /// Empties the table, keeping its buffers.
    fn clear(&mut self) {
        self.index.clear();
        self.ops.clear();
        self.pending.clear();
    }
}

/// Walks graphs and produces timelines.
///
/// # Example
///
/// ```
/// use mmg_attn::AttnImpl;
/// use mmg_gpu::DeviceSpec;
/// use mmg_graph::{Graph, Op};
/// use mmg_profiler::Profiler;
///
/// let mut g = Graph::new();
/// g.push("ffn", Op::Linear { tokens: 256, in_features: 1024, out_features: 4096 });
/// let profiler = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash);
/// let timeline = profiler.profile(&g);
/// assert!(timeline.total_time_s() > 0.0);
/// ```
#[derive(Debug)]
pub struct Profiler {
    engine: TimingEngine,
    attn: AttnImpl,
    elem_bytes: usize,
    conv_algo: ConvAlgorithm,
    /// Optimization passes applied to every op's lowered kernel stream.
    opt: OptConfig,
    registry: Registry,
    /// Max sector probes per attention op fed to the cache simulator;
    /// 0 disables per-op cache simulation.
    cache_probes: usize,
    /// Shared operator-cost memo; `None` profiles every op from scratch.
    memo: Option<Arc<CostMemo>>,
    /// Hash of the device spec, precomputed for memo keys.
    device_fingerprint: u64,
    /// Handle to the engine's `gpu_kernel_time_us` histogram, which a
    /// flush observes entries' kernel times into.
    kernel_time_us: mmg_telemetry::Histogram,
    /// Handle to the engine's `gpu_power_w` gauge, which a flush sets to
    /// the last launch's draw.
    power_w: mmg_telemetry::Gauge,
    /// Counter handles ops' entries land through, one per counter name
    /// this profiler has charged. Shared with
    /// [`Profiler::without_graph_capture`] copies, which record into
    /// the same registry.
    replay: Arc<Mutex<ReplayTable>>,
}

impl Profiler {
    /// Creates a profiler for a device using the given attention
    /// implementation and FP16 activations, recording telemetry to a
    /// private registry no one reads.
    #[must_use]
    pub fn new(spec: DeviceSpec, attn: AttnImpl) -> Self {
        Profiler::with_registry(spec, attn, &Registry::new())
    }

    /// Like [`Profiler::new`], recording telemetry to a specific
    /// registry.
    #[must_use]
    pub fn with_registry(spec: DeviceSpec, attn: AttnImpl, registry: &Registry) -> Self {
        let device_fingerprint = spec.fingerprint();
        Profiler {
            engine: TimingEngine::with_registry(spec, registry),
            attn,
            elem_bytes: 2,
            conv_algo: ConvAlgorithm::ImplicitGemm,
            opt: OptConfig::default(),
            registry: registry.clone(),
            cache_probes: 0,
            memo: None,
            device_fingerprint,
            kernel_time_us: registry
                .histogram("gpu_kernel_time_us", &mmg_telemetry::time_buckets_us()),
            power_w: registry.gauge("gpu_power_w"),
            replay: Arc::default(),
        }
    }

    /// Overrides the element width (e.g. 4 for FP32 studies).
    #[must_use]
    pub fn with_elem_bytes(mut self, bytes: usize) -> Self {
        self.elem_bytes = bytes;
        self
    }

    /// Selects the convolution kernel algorithm (default implicit GEMM).
    #[must_use]
    pub fn with_conv_algorithm(mut self, algo: ConvAlgorithm) -> Self {
        self.conv_algo = algo;
        self
    }

    /// Enables optimization passes ([`mmg_graph::optimize`]) over every
    /// op's lowered kernel stream: epilogue fusion, element-width
    /// rewrites, and CUDA-graph launch elision. The config participates
    /// in the memo key, so optimized and eager profilers sharing a memo
    /// never replay each other's entries.
    #[must_use]
    pub fn with_opt_config(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Enables per-op cache simulation for attention operators: each
    /// attention op replays up to `max_probes` sampled sector probes of
    /// its GEMM and softmax streams through a fresh L1/L2 hierarchy, so
    /// `gpu_l1_*`/`gpu_l2_*` counters (and per-op counter deltas)
    /// reflect the op's locality. Off by default — it adds simulation
    /// time proportional to `max_probes` per attention op.
    #[must_use]
    pub fn with_cache_sim(mut self, max_probes: usize) -> Self {
        self.cache_probes = max_probes;
        self
    }

    /// Attaches a shared operator-cost memo. Ops whose canonical
    /// [`MemoKey`] has been profiled before — by this profiler or any
    /// other sharing the memo — reuse the stored [`OpCostEntry`] instead
    /// of re-running lowering, roofline timing, and cache simulation.
    /// A profile call probes the memo once per distinct op of its graph.
    /// A hit lands the same entry a cold op builds, through the same
    /// flush, so memoized and unmemoized runs produce byte-identical
    /// artifacts (counters, histogram, gauge and span attribution).
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<CostMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The attention implementation in use.
    #[must_use]
    pub fn attn_impl(&self) -> AttnImpl {
        self.attn
    }

    /// The device spec this profiler simulates.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        self.engine.spec()
    }

    /// Whether the CUDA-graph launch-elision pass is enabled.
    #[must_use]
    pub fn captures_graphs(&self) -> bool {
        self.opt.graph_capture
    }

    /// A copy of this profiler with the CUDA-graph capture pass
    /// disabled, sharing the same registry, memo, and device. Capture
    /// only holds for static-shape kernel sequences (a denoising step
    /// replays identical kernels every iteration); autoregressive
    /// decode and MaskGIT resampling change shape every step, so
    /// pipeline-level callers profile those stages through this copy.
    /// The weakened [`OptConfig`] participates in memo keys, so the two
    /// profilers never replay each other's entries.
    #[must_use]
    pub fn without_graph_capture(&self) -> Profiler {
        Profiler {
            engine: self.engine.clone(),
            attn: self.attn,
            elem_bytes: self.elem_bytes,
            conv_algo: self.conv_algo,
            opt: OptConfig { graph_capture: false, ..self.opt },
            registry: self.registry.clone(),
            cache_probes: self.cache_probes,
            memo: self.memo.clone(),
            device_fingerprint: self.device_fingerprint,
            kernel_time_us: self.kernel_time_us.clone(),
            power_w: self.power_w.clone(),
            replay: Arc::clone(&self.replay),
        }
    }

    /// Profiles a graph into a timeline.
    #[must_use]
    pub fn profile(&self, graph: &Graph) -> Timeline {
        self.profile_with_hooks(graph, &mut [])
    }

    /// Profiles a graph, delivering each event to the hooks as it is
    /// produced — the analogue of the paper's forward-function hooks.
    ///
    /// Every op lands its telemetry from its [`OpCostEntry`]. The call
    /// resolves each distinct op once, in a table of its own: through
    /// one memo lookup or store when a memo is attached, through one
    /// costing otherwise. Every later node with an equal op takes the
    /// same entry. A flush lands each pending entry's counter deltas
    /// once, times its pending nodes, and observes every node's kernel
    /// times in launch order. It runs before any hook sees an event and
    /// before the call returns, so a hook and the caller see the
    /// registry exactly as one op at a time would have left it.
    #[must_use]
    pub fn profile_with_hooks(
        &self,
        graph: &Graph,
        hooks: &mut [&mut dyn ModuleHook],
    ) -> Timeline {
        let mut events = Vec::with_capacity(graph.len());
        let mut call = std::mem::take(&mut self.replay_table().call);
        for (index, node) in graph.nodes().iter().enumerate() {
            let started = self.registry.span_capture().then(Instant::now);
            let attn_shape = node.op.attention_shape();
            let i = call.index_of(&node.op, || self.entry_for(&node.op, attn_shape.as_ref()));
            let entry = &call.ops[i].0;
            if let Some(started) = started {
                let deltas = Arc::clone(&entry.visible);
                self.registry.record_span(Arc::clone(&node.path), started, deltas);
            }
            let event = OpEvent {
                index,
                path: Arc::clone(&node.path),
                category: node.op.category(),
                time_s: entry.time_s,
                flops: entry.flops,
                hbm_bytes: entry.hbm_bytes,
                energy_j: entry.energy_j,
                kernels: Arc::clone(&entry.records),
                attention: attn_shape.map(|(shape, kind)| AttnCallInfo {
                    kind,
                    seq_q: shape.seq_q,
                    seq_kv: shape.seq_kv,
                    batch: shape.batch,
                    heads: shape.heads,
                }),
                counters: Arc::clone(&entry.visible),
            };
            call.ops[i].1 += 1;
            call.pending.push(i);
            if !hooks.is_empty() {
                self.flush(&mut call);
                for h in hooks.iter_mut() {
                    h.on_op(&event);
                }
            }
            events.push(event);
        }
        self.flush(&mut call);
        call.clear();
        self.replay_table().call = call;
        Timeline::new(events)
    }

    /// The entry of one op: the memo's when it holds the op's key, else
    /// one costed now (and stored, when a memo is attached).
    fn entry_for(
        &self,
        op: &Op,
        attn_shape: Option<&(AttentionShape, AttnKind)>,
    ) -> Arc<OpCostEntry> {
        let Some(memo) = self.memo.as_deref() else {
            return Arc::new(self.cost_op(op, attn_shape));
        };
        let key = MemoKey::for_op(
            op,
            self.attn,
            self.elem_bytes,
            self.conv_algo,
            self.cache_probes,
            self.opt,
            self.device_fingerprint,
        );
        match memo.lookup(&key) {
            Some(entry) => entry,
            None => memo.store(key, self.cost_op(op, attn_shape)),
        }
    }

    /// Costs one op from scratch: lowers it, applies the optimization
    /// passes, times each kernel on the roofline and, for an attention op
    /// under cache simulation, replays its access streams. Writes no
    /// telemetry: the entry's counter deltas are what the op charges.
    fn cost_op(&self, op: &Op, attn_shape: Option<&(AttentionShape, AttnKind)>) -> OpCostEntry {
        let spec = self.engine.spec();
        let mut kernels =
            lower_on(op, self.attn, self.elem_bytes, self.conv_algo, spec.sm_count as usize);
        let opt_stats = optimize::apply(&mut kernels, &self.opt, spec);
        let mut records = Vec::with_capacity(kernels.len());
        let mut time_s = 0.0;
        let mut energy_j = 0.0;
        let mut flops = 0u64;
        let mut hbm = 0u64;
        for k in &kernels {
            let kt = if k.captured {
                self.engine.kernel_time_captured(&k.cost)
            } else {
                self.engine.kernel_time(&k.cost)
            };
            time_s += kt.total_s;
            energy_j += kt.energy_j;
            flops += k.cost.flops;
            hbm += k.cost.hbm_bytes;
            records.push(KernelRecord {
                kind: k.kind.to_string(),
                label: k.label.clone(),
                time_s: kt.total_s,
                compute_s: kt.compute_s,
                memory_s: kt.memory_s,
                flops: k.cost.flops,
                hbm_bytes: k.cost.hbm_bytes,
                wave_quant_idle_slots: k.wave_quant_idle_slots,
                draw_w: kt.draw_w,
                energy_j: kt.energy_j,
            });
        }
        let cache_stats = match attn_shape {
            Some((shape, kind)) if self.cache_probes > 0 => {
                Some(self.simulate_attention_caches(shape, *kind))
            }
            _ => None,
        };
        let deltas = synthetic_op_deltas(&records, cache_stats, opt_stats);
        OpCostEntry::new(time_s, energy_j, flops, hbm, Arc::new(records), deltas)
    }

    fn replay_table(&self) -> MutexGuard<'_, ReplayTable> {
        self.replay.lock().expect("replay table poisoned")
    }

    /// Lands the telemetry of the call's pending nodes and empties its
    /// pending list: each pending entry adds its counter deltas once,
    /// times its pending nodes, and each counter gets one add of its
    /// summed deltas (a counter an entry lists at zero is created);
    /// `gpu_kernel_time_us` takes every pending node's kernel times in
    /// launch order through one batch observe, since its sum is a float
    /// fold; and `gpu_power_w` takes the last launch's draw. Only the
    /// entries pending since the last flush are visited.
    fn flush(&self, call: &mut CallTable) {
        if call.pending.is_empty() {
            return;
        }
        {
            let mut table = self.replay_table();
            for &i in &call.pending {
                let (entry, nodes) = &mut call.ops[i];
                if *nodes > 0 {
                    table.add(entry, std::mem::take(nodes), &self.registry);
                }
            }
            table.apply();
        }
        let entries = || call.pending.iter().map(|&i| &call.ops[i].0);
        self.kernel_time_us
            .observe_batch(entries().flat_map(|e| e.records.iter()).map(|k| k.time_s * 1e6));
        if let Some(last) = entries().rev().find_map(|e| e.records.last()) {
            self.power_w.set(last.draw_w);
        }
        call.pending.clear();
    }

    /// Replays sampled GEMM and softmax sector streams for one attention
    /// call through a fresh L1/L2 hierarchy and returns their summed
    /// statistics; the hierarchy counts into a throwaway registry, since
    /// the op's entry charges them. The call's sequence geometry is
    /// mapped back onto the video activation layout: temporal attention
    /// attends across frames per pixel (`seq = frames`, `batch = H·W`),
    /// spatial attention attends across pixels per frame (`seq = H·W`,
    /// `batch = frames`).
    fn simulate_attention_caches(&self, shape: &AttentionShape, kind: AttnKind) -> HierarchyStats {
        let temporal = kind == AttnKind::Temporal;
        let channels = (shape.heads * shape.head_dim).max(1);
        let access = if temporal {
            VideoAttentionAccess {
                frames: shape.seq_q.max(1),
                channels,
                hw: shape.batch.max(1),
                elem_bytes: self.elem_bytes,
            }
        } else {
            VideoAttentionAccess {
                frames: shape.batch.max(1),
                channels,
                hw: shape.seq_q.max(1),
                elem_bytes: self.elem_bytes,
            }
        };
        let spec = self.engine.spec();
        let scratch = Registry::new();
        let mut total = HierarchyStats::default();
        for kernel in [AttentionKernel::Gemm, AttentionKernel::Softmax] {
            let stats =
                access.simulate_with_registry(kernel, temporal, spec, self.cache_probes, &scratch);
            total.l1.accesses += stats.l1.accesses;
            total.l1.hits += stats.l1.hits;
            total.l2.accesses += stats.l2.accesses;
            total.l2.hits += stats.l2.hits;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttentionShape;
    use mmg_graph::{AttnKind, Op, OpCategory};

    fn attn_graph() -> Graph {
        let mut g = Graph::new();
        g.push(
            "blk.attn",
            Op::Attention {
                shape: AttentionShape::self_attn(2, 8, 4096, 40),
                kind: AttnKind::SpatialSelf,
            },
        );
        g.push("blk.ffn", Op::Linear { tokens: 8192, in_features: 320, out_features: 1280 });
        g
    }

    #[test]
    fn profile_produces_event_per_node() {
        let t = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash).profile(&attn_graph());
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].category, OpCategory::Attention);
        assert!(t.events()[0].attention.is_some());
        assert!(t.events()[1].attention.is_none());
    }

    #[test]
    fn baseline_slower_than_flash_on_attention() {
        let g = attn_graph();
        let base = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Baseline).profile(&g);
        let flash = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash).profile(&g);
        assert!(base.total_time_s() > flash.total_time_s());
        // The linear layer is unchanged.
        assert!((base.events()[1].time_s - flash.events()[1].time_s).abs() < 1e-12);
    }

    #[test]
    fn kernel_records_sum_to_event_time() {
        let t = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Baseline).profile(&attn_graph());
        for ev in t.events() {
            let s: f64 = ev.kernels.iter().map(|k| k.time_s).sum();
            assert!((s - ev.time_s).abs() < 1e-12);
        }
    }

    #[test]
    fn op_events_carry_counter_deltas() {
        let registry = mmg_telemetry::Registry::new();
        registry.set_span_capture(true);
        let t = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
            .profile(&attn_graph());
        for ev in t.events() {
            let launches = ev
                .counters
                .iter()
                .find(|(name, _)| name == "gpu_kernel_launches_total")
                .map(|(_, delta)| *delta)
                .unwrap_or(0);
            assert_eq!(launches as usize, ev.kernels.len(), "op {}", ev.path);
            let flops = ev
                .counters
                .iter()
                .find(|(name, _)| name == "gpu_flops_total")
                .map(|(_, delta)| *delta)
                .unwrap_or(0);
            assert_eq!(flops, ev.flops, "op {}", ev.path);
        }
        // Spans were recorded per op with the same attribution.
        let spans = registry.finished_spans();
        assert_eq!(spans.len(), t.events().len());
        assert_eq!(&*spans[0].path, "blk.attn");
    }

    #[test]
    fn cache_sim_populates_l1_counters_for_attention() {
        let registry = mmg_telemetry::Registry::new();
        let t = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
            .with_cache_sim(20_000)
            .profile(&attn_graph());
        assert!(registry.counter("gpu_l1_accesses_total").get() > 0);
        assert!(registry.counter("gpu_l1_hits_total").get() > 0);
        // Only the attention op carries cache deltas.
        let attn_ev = &t.events()[0];
        assert!(attn_ev
            .counters
            .iter()
            .any(|(name, delta)| name == "gpu_l1_accesses_total" && *delta > 0));
        let linear_ev = &t.events()[1];
        assert!(!linear_ev
            .counters
            .iter()
            .any(|(name, _)| name == "gpu_l1_accesses_total"));
    }

    #[test]
    fn opt_passes_speed_up_eager_attention_and_record_counters() {
        let g = attn_graph();
        let eager_reg = mmg_telemetry::Registry::new();
        let eager = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &eager_reg)
            .profile(&g);
        let opt_reg = mmg_telemetry::Registry::new();
        let opt = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &opt_reg)
            .with_opt_config(OptConfig::all())
            .profile(&g);
        assert!(opt.total_time_s() < eager.total_time_s());
        assert!(opt_reg.counter("kernel_fused_total").get() > 0);
        assert!(opt_reg.counter("kernel_launches_elided_total").get() > 0);
        assert!(opt_reg.counter("kernel_opt_hbm_bytes_saved_total").get() > 0);
        // The eager run never creates the pass counters.
        assert!(!eager_reg.render_prometheus().contains("kernel_fused_total"));
    }

    #[test]
    fn memo_separates_opt_configs() {
        let g = attn_graph();
        let memo = Arc::new(CostMemo::new());
        let registry = mmg_telemetry::Registry::new();
        let eager = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &registry)
            .with_memo(Arc::clone(&memo))
            .profile(&g);
        let opt = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &registry)
            .with_opt_config(OptConfig::all())
            .with_memo(Arc::clone(&memo))
            .profile(&g);
        // The optimized profiler must miss on every op (different keys),
        // not replay the eager entries.
        assert!(opt.total_time_s() < eager.total_time_s());
        assert_eq!(memo.hits(), 0);
    }

    /// What a hook can read of its profiler's registry at one event:
    /// every counter, the kernel-time histogram's count and sum bits,
    /// and the power gauge's bits.
    type Reading = (Vec<(String, u64)>, u64, u64, u64);

    /// Records a [`Reading`] at each event.
    struct RegistryProbe {
        registry: Registry,
        seen: Vec<Reading>,
    }

    impl ModuleHook for RegistryProbe {
        fn on_op(&mut self, _: &OpEvent) {
            let times =
                self.registry.histogram("gpu_kernel_time_us", &mmg_telemetry::time_buckets_us());
            self.seen.push((
                self.registry.counters_snapshot().values().to_vec(),
                times.count(),
                times.sum().to_bits(),
                self.registry.gauge("gpu_power_w").get().to_bits(),
            ));
        }
    }

    #[test]
    fn batched_replay_is_flushed_before_every_hook_and_cold_op() {
        // Eager attention lowers to several kernels with uneven times, so
        // the kernel-time sum reads the order they are observed in.
        let attn = |seq| Op::Attention {
            shape: AttentionShape::self_attn(2, 8, seq, 40),
            kind: AttnKind::SpatialSelf,
        };
        let mut warm = Graph::new();
        warm.push("a", attn(900));
        warm.push("b", attn(1700));
        // Hit, hit, miss once `warm` is in the memo; the last op repeats
        // the first, so it takes the call's entry without a memo probe.
        let mut g = warm.clone();
        g.push("c", Op::Linear { tokens: 2048, in_features: 8192, out_features: 8192 });
        g.push("a", attn(900));
        // Without a hook every op lands at the return.
        for hooked in [true, false] {
            let memo = Arc::new(CostMemo::new());
            let _ = Profiler::with_registry(
                DeviceSpec::a100_80gb(),
                AttnImpl::Baseline,
                &Registry::new(),
            )
            .with_memo(Arc::clone(&memo))
            .profile(&warm);
            let run = |memo: Option<&Arc<CostMemo>>| {
                let registry = Registry::new();
                registry.set_span_capture(true);
                let mut profiler =
                    Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Baseline, &registry);
                if let Some(memo) = memo {
                    profiler = profiler.with_memo(Arc::clone(memo));
                }
                let mut probe = RegistryProbe { registry: registry.clone(), seen: Vec::new() };
                let timeline = if hooked {
                    profiler.profile_with_hooks(&g, &mut [&mut probe])
                } else {
                    profiler.profile(&g)
                };
                let spans: Vec<_> = registry
                    .finished_spans()
                    .into_iter()
                    .map(|s| (s.path, s.counter_deltas))
                    .collect();
                (probe.seen, timeline, spans, registry.render_prometheus())
            };
            let hits_before = memo.hits();
            let replayed = run(Some(&memo));
            assert_eq!(memo.hits() - hits_before, 2, "hit, hit, miss, then the call's entry");
            let cold = run(None);
            // The graph must be able to see a flush out of order: its
            // kernel-time sum moves if the first two ops swap, or if the
            // miss comes before them.
            let times: Vec<Vec<f64>> = cold
                .1
                .events()
                .iter()
                .map(|e| e.kernels.iter().map(|k| k.time_s * 1e6).collect())
                .collect();
            let sum = |order: [usize; 4]| {
                order.iter().flat_map(|&i| &times[i]).fold(0.0f64, |s, &v| s + v).to_bits()
            };
            assert_ne!(sum([0, 1, 2, 3]), sum([1, 0, 2, 3]));
            assert_ne!(sum([0, 1, 2, 3]), sum([2, 0, 1, 3]));
            // Both runs land through the same flush, so check the order
            // against the kernel times themselves: the histogram's sum
            // is their left fold in launch order.
            let landed = cold
                .3
                .lines()
                .find_map(|l| l.strip_prefix("gpu_kernel_time_us_sum "))
                .and_then(|v| v.parse::<f64>().ok())
                .expect("a kernel-time sum");
            assert_eq!(landed.to_bits(), sum([0, 1, 2, 3]), "kernel times landed out of order");
            assert_eq!(replayed.0.len(), if hooked { 4 } else { 0 });
            assert_eq!(replayed.0, cold.0, "a hook saw a different registry");
            assert_eq!(replayed.1.events(), cold.1.events());
            assert_eq!(replayed.2, cold.2, "span attribution moved");
            assert_eq!(replayed.3, cold.3, "hooked: {hooked}");
        }
    }

    /// The Prometheus text of a fresh registry after profiling
    /// [`one_norm`]: the timing family exists from the profiler's
    /// construction (`gpu_kernels_compute_bound_total 0` and both HELP
    /// lines), and the op's counters, kernel time and draw land in it.
    const ONE_NORM_PROM: &str = r#"# HELP gpu_energy_uj_total modeled kernel energy, microjoules
# TYPE gpu_energy_uj_total counter
gpu_energy_uj_total 3882
# HELP gpu_flops_total counter metric gpu_flops_total
# TYPE gpu_flops_total counter
gpu_flops_total 33554432
# HELP gpu_hbm_bytes_total counter metric gpu_hbm_bytes_total
# TYPE gpu_hbm_bytes_total counter
gpu_hbm_bytes_total 25165824
# HELP gpu_kernel_launches_total counter metric gpu_kernel_launches_total
# TYPE gpu_kernel_launches_total counter
gpu_kernel_launches_total 1
# HELP gpu_kernels_compute_bound_total counter metric gpu_kernels_compute_bound_total
# TYPE gpu_kernels_compute_bound_total counter
gpu_kernels_compute_bound_total 0
# HELP gpu_kernels_memory_bound_total counter metric gpu_kernels_memory_bound_total
# TYPE gpu_kernels_memory_bound_total counter
gpu_kernels_memory_bound_total 1
# HELP kernel_energy_uj_total counter metric kernel_energy_uj_total
# TYPE kernel_energy_uj_total counter
kernel_energy_uj_total{kind="norm"} 3882
# HELP kernel_flops_total counter metric kernel_flops_total
# TYPE kernel_flops_total counter
kernel_flops_total{kind="norm"} 33554432
# HELP kernel_hbm_bytes_total counter metric kernel_hbm_bytes_total
# TYPE kernel_hbm_bytes_total counter
kernel_hbm_bytes_total{kind="norm"} 25165824
# HELP kernel_launches_total counter metric kernel_launches_total
# TYPE kernel_launches_total counter
kernel_launches_total{kind="norm"} 1
# HELP kernel_regime_total counter metric kernel_regime_total
# TYPE kernel_regime_total counter
kernel_regime_total{kind="norm",regime="memory"} 1
# HELP gpu_power_w modeled board draw of the last kernel launch, watts
# TYPE gpu_power_w gauge
gpu_power_w 237.33526495726494
# HELP gpu_kernel_time_us histogram metric gpu_kernel_time_us
# TYPE gpu_kernel_time_us histogram
gpu_kernel_time_us_bucket{le="1"} 0
gpu_kernel_time_us_bucket{le="1.7782794100389228"} 0
gpu_kernel_time_us_bucket{le="3.162277660168379"} 0
gpu_kernel_time_us_bucket{le="5.62341325190349"} 0
gpu_kernel_time_us_bucket{le="9.999999999999998"} 0
gpu_kernel_time_us_bucket{le="17.782794100389225"} 0
gpu_kernel_time_us_bucket{le="31.622776601683785"} 1
gpu_kernel_time_us_bucket{le="56.234132519034894"} 1
gpu_kernel_time_us_bucket{le="99.99999999999997"} 1
gpu_kernel_time_us_bucket{le="177.82794100389222"} 1
gpu_kernel_time_us_bucket{le="316.22776601683785"} 1
gpu_kernel_time_us_bucket{le="562.3413251903489"} 1
gpu_kernel_time_us_bucket{le="999.9999999999997"} 1
gpu_kernel_time_us_bucket{le="1778.2794100389222"} 1
gpu_kernel_time_us_bucket{le="3162.277660168378"} 1
gpu_kernel_time_us_bucket{le="5623.413251903488"} 1
gpu_kernel_time_us_bucket{le="9999.999999999995"} 1
gpu_kernel_time_us_bucket{le="17782.79410038922"} 1
gpu_kernel_time_us_bucket{le="31622.776601683778"} 1
gpu_kernel_time_us_bucket{le="56234.13251903488"} 1
gpu_kernel_time_us_bucket{le="99999.99999999994"} 1
gpu_kernel_time_us_bucket{le="177827.94100389216"} 1
gpu_kernel_time_us_bucket{le="316227.76601683773"} 1
gpu_kernel_time_us_bucket{le="562341.3251903487"} 1
gpu_kernel_time_us_bucket{le="999999.9999999992"} 1
gpu_kernel_time_us_bucket{le="1778279.4100389213"} 1
gpu_kernel_time_us_bucket{le="3162277.6601683768"} 1
gpu_kernel_time_us_bucket{le="5623413.251903486"} 1
gpu_kernel_time_us_bucket{le="9999999.999999993"} 1
gpu_kernel_time_us_bucket{le="+Inf"} 1
gpu_kernel_time_us_sum 19.427797940166748
gpu_kernel_time_us_count 1
"#;

    /// The counter deltas attributed to [`one_norm`]'s op, on its event
    /// and on its span.
    const ONE_NORM_DELTAS: [(&str, u64); 10] = [
        ("gpu_energy_uj_total", 3882),
        ("gpu_flops_total", 33_554_432),
        ("gpu_hbm_bytes_total", 25_165_824),
        ("gpu_kernel_launches_total", 1),
        ("gpu_kernels_memory_bound_total", 1),
        ("kernel_energy_uj_total{kind=\"norm\"}", 3882),
        ("kernel_flops_total{kind=\"norm\"}", 33_554_432),
        ("kernel_hbm_bytes_total{kind=\"norm\"}", 25_165_824),
        ("kernel_launches_total{kind=\"norm\"}", 1),
        ("kernel_regime_total{kind=\"norm\",regime=\"memory\"}", 1),
    ];

    /// A one-op graph whose op lowers to one memory-bound kernel.
    fn one_norm() -> Graph {
        let mut g = Graph::new();
        g.push("blk.norm", Op::LayerNorm { rows: 4096, cols: 1024 });
        g
    }

    #[test]
    fn one_memory_bound_op_lands_the_pinned_telemetry() {
        let warm = Arc::new(CostMemo::new());
        let _ = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &Registry::new())
            .with_memo(Arc::clone(&warm))
            .profile(&one_norm());
        let want: Vec<(String, u64)> =
            ONE_NORM_DELTAS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        // No memo, a fresh memo (a miss that stores) and a warm one (a hit).
        for memo in [None, Some(Arc::new(CostMemo::new())), Some(Arc::clone(&warm))] {
            let registry = Registry::new();
            registry.set_span_capture(true);
            let mut profiler =
                Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry);
            if let Some(memo) = memo {
                profiler = profiler.with_memo(memo);
            }
            let timeline = profiler.profile(&one_norm());
            assert_eq!(*timeline.events()[0].counters, want);
            let spans = registry.finished_spans();
            assert_eq!(spans.len(), 1);
            assert_eq!(*spans[0].counter_deltas, want);
            assert_eq!(registry.render_prometheus(), ONE_NORM_PROM);
        }
        assert_eq!((warm.hits(), warm.misses()), (1, 1));
    }

    #[test]
    fn fp32_is_slower_than_fp16_for_memory_bound() {
        let mut g = Graph::new();
        g.push("n", Op::LayerNorm { rows: 1 << 16, cols: 1024 });
        let p16 = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash);
        let p32 = Profiler::new(DeviceSpec::a100_80gb(), AttnImpl::Flash).with_elem_bytes(4);
        assert!(p32.profile(&g).total_time_s() > p16.profile(&g).total_time_s());
    }
}
