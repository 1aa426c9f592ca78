//! The performance-plane executor.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mmg_attn::AttnImpl;
use mmg_gpu::{DeviceSpec, HierarchyStats, TimingEngine};
use mmg_graph::optimize::{self, OptConfig, OptStats};
use mmg_graph::{lower::lower_on, AttnKind, Graph};
use mmg_kernels::access::{AttentionKernel, VideoAttentionAccess};
use mmg_kernels::conv::ConvAlgorithm;
use mmg_telemetry::{Counter, Registry};

use crate::memo::{synthetic_op_deltas, CostMemo, MemoKey, OpCostEntry};
use crate::{AttnCallInfo, KernelRecord, ModuleHook, OpEvent, Timeline};

/// One counter of a profiler's replay table.
#[derive(Debug, Default)]
struct ReplaySlot {
    /// The counter in the profiler's registry, resolved (and created at
    /// zero, as a cold op creates it) the first time a flush meets it.
    counter: Option<Counter>,
    /// Summed deltas of the entries being flushed.
    pending: u64,
}

/// Counter handles for memo replay, indexed by the process-wide counter
/// slot of each name (`OpCostEntry::slots`), so a flush adds by index
/// without a name lookup.
#[derive(Debug, Default)]
struct ReplayTable {
    slots: Vec<ReplaySlot>,
    /// Slots whose `pending` was raised since the last flush.
    touched: Vec<usize>,
    /// The buffer a profile call collects its memo hits in, kept here
    /// between calls so a warm call allocates none.
    replayed: Vec<Arc<OpCostEntry>>,
}

impl ReplayTable {
    /// Adds every counter delta of `entry` to its slot's pending sum.
    fn add(&mut self, entry: &OpCostEntry, registry: &Registry) {
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
                s.pending = s.pending.wrapping_add(*delta);
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
    /// Handle to the engine's `gpu_kernel_time_us` histogram, so memo
    /// replay can observe stored kernel times without the engine.
    kernel_time_us: mmg_telemetry::Histogram,
    /// Handle to the engine's `gpu_power_w` gauge; replay restores the
    /// last-launch draw a cold execution would have left.
    power_w: mmg_telemetry::Gauge,
    /// Counter handles memo replay adds through, one per counter name
    /// this profiler has replayed. Shared with
    /// [`Profiler::without_graph_capture`] copies, which record into
    /// the same registry.
    replay: Arc<Mutex<ReplayTable>>,
}

impl Profiler {
    /// Creates a profiler for a device using the given attention
    /// implementation and FP16 activations, recording telemetry to the
    /// global registry.
    #[must_use]
    pub fn new(spec: DeviceSpec, attn: AttnImpl) -> Self {
        Profiler::with_registry(spec, attn, &mmg_telemetry::global())
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
    /// other sharing the memo — replay their stored cost and telemetry
    /// instead of re-running lowering, roofline timing, and cache
    /// simulation. Replay leaves the registry (counters, histogram, and
    /// span attribution) identical to a cold computation, so memoized
    /// and unmemoized runs produce byte-identical artifacts.
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
    /// Memo hits apply their telemetry in batches: the call keeps the
    /// entries its hits return and flushes them before a cold op starts
    /// its counter attribution, before any hook sees an event, and
    /// before it returns. So a hook, a cold op's span and the caller see
    /// the registry exactly as one replay per op would have left it.
    #[must_use]
    pub fn profile_with_hooks(
        &self,
        graph: &Graph,
        hooks: &mut [&mut dyn ModuleHook],
    ) -> Timeline {
        let mut events = Vec::with_capacity(graph.len());
        // Memo hits whose telemetry has not been applied yet, in op order.
        let mut replayed = std::mem::take(&mut self.replay_table().replayed);
        for (index, node) in graph.nodes().iter().enumerate() {
            let attn_shape = node.op.attention_shape();
            let attention = attn_shape.as_ref().map(|(shape, kind)| AttnCallInfo {
                kind: *kind,
                seq_q: shape.seq_q,
                seq_kv: shape.seq_kv,
                batch: shape.batch,
                heads: shape.heads,
            });
            let key = self.memo.as_ref().map(|_| {
                MemoKey::for_op(
                    &node.op,
                    self.attn,
                    self.elem_bytes,
                    self.conv_algo,
                    self.cache_probes,
                    self.opt,
                    self.device_fingerprint,
                )
            });
            if let (Some(memo), Some(key)) = (self.memo.as_deref(), key.as_ref()) {
                if let Some(entry) = memo.lookup(key) {
                    let event = self.replay_op(index, &node.path, &node.op, &entry, attention);
                    replayed.push(entry);
                    if !hooks.is_empty() {
                        self.flush_replayed(&mut replayed);
                        for h in hooks.iter_mut() {
                            h.on_op(&event);
                        }
                    }
                    events.push(event);
                    continue;
                }
            }
            self.flush_replayed(&mut replayed);
            let started = self.registry.span_capture().then(Instant::now);
            let mark = self.registry.counters_mark();
            let mut kernels = lower_on(
                &node.op,
                self.attn,
                self.elem_bytes,
                self.conv_algo,
                self.engine.spec().sm_count as usize,
            );
            let opt_stats =
                optimize::apply(&mut kernels, &self.opt, self.engine.spec());
            self.record_opt_stats(opt_stats);
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
                mmg_kernels::record_kernel(&self.registry, k, &kt);
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
            let mut cache_stats = None;
            if self.cache_probes > 0 {
                if let Some((shape, kind)) = &attn_shape {
                    cache_stats = Some(self.simulate_attention_caches(shape, *kind));
                }
            }
            let records = Arc::new(records);
            if let (Some(memo), Some(key)) = (self.memo.as_deref(), key) {
                memo.store(
                    key,
                    OpCostEntry::new(
                        time_s,
                        energy_j,
                        flops,
                        hbm,
                        Arc::clone(&records),
                        synthetic_op_deltas(&records, cache_stats, opt_stats),
                    ),
                );
            }
            let counters = Arc::new(mark.delta_since(&self.registry));
            if let Some(started) = started {
                self.registry.record_span(Arc::clone(&node.path), started, Arc::clone(&counters));
            }
            let event = OpEvent {
                index,
                path: Arc::clone(&node.path),
                category: node.op.category(),
                time_s,
                flops,
                hbm_bytes: hbm,
                energy_j,
                kernels: records,
                attention,
                counters,
            };
            for h in hooks.iter_mut() {
                h.on_op(&event);
            }
            events.push(event);
        }
        self.flush_replayed(&mut replayed);
        self.replay_table().replayed = replayed;
        Timeline::new(events)
    }

    /// Records one op's optimization-pass telemetry. Counters are
    /// created only on a non-zero charge (mirrored by
    /// `synthetic_op_deltas`, so memo replay stays byte-identical).
    fn record_opt_stats(&self, stats: OptStats) {
        if stats.kernels_fused > 0 {
            self.registry.counter("kernel_fused_total").add(stats.kernels_fused);
        }
        if stats.launches_elided > 0 {
            self.registry.counter("kernel_launches_elided_total").add(stats.launches_elided);
        }
        if stats.hbm_bytes_saved > 0 {
            self.registry
                .counter("kernel_opt_hbm_bytes_saved_total")
                .add(stats.hbm_bytes_saved);
        }
    }

    /// Memo-hit fast path: builds the [`OpEvent`] of executing `op`, and
    /// a span record with the op's counter attribution while the
    /// registry captures spans, from the stored entry, without lowering,
    /// roofline evaluation, or cache simulation. The entry's counters,
    /// kernel times and power draw wait for
    /// [`Profiler::flush_replayed`].
    fn replay_op(
        &self,
        index: usize,
        path: &Arc<str>,
        op: &mmg_graph::Op,
        entry: &Arc<OpCostEntry>,
        attention: Option<AttnCallInfo>,
    ) -> OpEvent {
        if self.registry.span_capture() {
            self.registry.record_span(Arc::clone(path), Instant::now(), Arc::clone(&entry.visible));
        }
        OpEvent {
            index,
            path: Arc::clone(path),
            category: op.category(),
            time_s: entry.time_s,
            flops: entry.flops,
            hbm_bytes: entry.hbm_bytes,
            energy_j: entry.energy_j,
            kernels: Arc::clone(&entry.records),
            attention,
            counters: Arc::clone(&entry.visible),
        }
    }

    fn replay_table(&self) -> MutexGuard<'_, ReplayTable> {
        self.replay.lock().expect("replay table poisoned")
    }

    /// Applies the telemetry of the memo hits in `replayed`, in op
    /// order, and empties it, leaving the registry as one replay per
    /// op would: each counter gets one add of its summed deltas
    /// (counters a cold op creates at zero are created here too),
    /// `gpu_kernel_time_us` takes every kernel time in launch order
    /// through one batch observe, and `gpu_power_w` takes the last
    /// replayed draw.
    fn flush_replayed(&self, replayed: &mut Vec<Arc<OpCostEntry>>) {
        if replayed.is_empty() {
            return;
        }
        {
            let mut table = self.replay_table();
            for entry in replayed.iter() {
                table.add(entry, &self.registry);
            }
            table.apply();
        }
        self.kernel_time_us
            .observe_batch(replayed.iter().flat_map(|e| e.records.iter()).map(|k| k.time_s * 1e6));
        if let Some(last) = replayed.iter().rev().find_map(|e| e.records.last()) {
            self.power_w.set(last.draw_w);
        }
        replayed.clear();
    }

    /// Replays sampled GEMM and softmax sector streams for one attention
    /// call through a fresh L1/L2 hierarchy wired to this profiler's
    /// registry. The call's sequence geometry is mapped back onto the
    /// video activation layout: temporal attention attends across frames
    /// per pixel (`seq = frames`, `batch = H·W`), spatial attention
    /// attends across pixels per frame (`seq = H·W`, `batch = frames`).
    fn simulate_attention_caches(
        &self,
        shape: &mmg_attn::AttentionShape,
        kind: AttnKind,
    ) -> HierarchyStats {
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
        let mut total = HierarchyStats::default();
        for kernel in [AttentionKernel::Gemm, AttentionKernel::Softmax] {
            let stats = access.simulate_with_registry(
                kernel,
                temporal,
                spec,
                self.cache_probes,
                &self.registry,
            );
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
        // Hit, hit, miss, hit once `warm` is in the memo.
        let mut g = warm.clone();
        g.push("c", Op::Linear { tokens: 2048, in_features: 8192, out_features: 8192 });
        g.push("a", attn(900));
        // Without a hook the hits flush at the miss and at the return.
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
            assert_eq!(memo.hits() - hits_before, 3, "hit, hit, miss, hit");
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
            assert_eq!(replayed.0.len(), if hooked { 4 } else { 0 });
            assert_eq!(replayed.0, cold.0, "a hook saw a different registry");
            assert_eq!(replayed.1.events(), cold.1.events());
            assert_eq!(replayed.2, cold.2, "span attribution moved");
            assert_eq!(replayed.3, cold.3, "hooked: {hooked}");
        }
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
