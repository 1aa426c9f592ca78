//! Property test: memoized profiling is observationally identical to
//! unmemoized profiling.
//!
//! For arbitrary graphs (with repeated ops, so the memo actually hits),
//! a profiler with a [`CostMemo`] must produce bit-identical
//! [`mmg_profiler::KernelRecord`]s and [`mmg_profiler::OpEvent`]s,
//! identical per-op span attribution, and a byte-identical Prometheus
//! rendering of the registry — whether entries are computed cold,
//! replayed within one run, or replayed from a previous run's memo.
//! A graph profiled in one call must also leave exactly what profiling
//! its nodes one at a time leaves, memoized or not, so a fault both
//! paths share still shows.

use std::collections::HashSet;
use std::sync::Arc;

use mmg_attn::{AttentionShape, AttnImpl};
use mmg_gpu::DeviceSpec;
use mmg_graph::optimize::{ElemWidth, OptConfig};
use mmg_graph::{AttnKind, Graph, Op};
use mmg_profiler::{CostMemo, ModuleHook, OpEvent, Profiler, Timeline};
use mmg_telemetry::Registry;
use proptest::prelude::*;

/// Expands one generated seed into an operator, cycling through every
/// family the lowering pass distinguishes (the vendored proptest stub
/// has no `prop_oneof`, so variant choice rides on the seed).
fn op_from_seed(seed: u64) -> Op {
    let mut s = seed;
    let mut next = move |span: u64| {
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + (s ^ (s >> 31)) % span
    };
    match seed % 7 {
        0 => Op::Linear {
            tokens: next(512) as usize,
            in_features: next(256) as usize,
            out_features: next(256) as usize,
        },
        1 => {
            let hw = 3 + next(20) as usize;
            Op::Conv2d {
                batch: next(2) as usize,
                c_in: next(24) as usize,
                c_out: next(24) as usize,
                h: hw,
                w: hw,
                kernel: next(3) as usize,
                stride: next(2) as usize,
            }
        }
        2 => {
            let kind = [AttnKind::SpatialSelf, AttnKind::Cross, AttnKind::Temporal, AttnKind::Causal]
                [(next(4) - 1) as usize];
            Op::Attention {
                shape: AttentionShape::self_attn(
                    next(2) as usize,
                    next(8) as usize,
                    7 + next(180) as usize,
                    7 + next(56) as usize,
                ),
                kind,
            }
        }
        3 => Op::LayerNorm { rows: next(1024) as usize, cols: next(512) as usize },
        4 => Op::Elementwise { elems: next(100_000) as usize, inputs: next(3) as usize },
        5 => Op::GroupNorm {
            batch: next(2) as usize,
            channels: 32 * next(8) as usize,
            h: next(32) as usize,
            w: next(32) as usize,
            groups: 32,
        },
        _ => Op::Memcpy { bytes: next(1_000_000), amplification: 1.0 + next(4) as f64 * 0.25 },
    }
}

/// Builds a graph that walks `seeds`' ops twice, so every op repeats at
/// least once and the memo's intra-run hit path is exercised.
fn graph_of(seeds: &[u64]) -> Graph {
    let mut g = Graph::new();
    for pass in 0..2 {
        for (i, &seed) in seeds.iter().enumerate() {
            g.push(format!("pass{pass}.op{i}"), op_from_seed(seed));
        }
    }
    g
}

/// The number of distinct ops in `g`: the memo probes a profile call
/// makes, one per distinct op.
fn distinct_ops(g: &Graph) -> u64 {
    g.nodes().iter().map(|n| &n.op).collect::<HashSet<_>>().len() as u64
}

/// Expands a seed into one of the eight pass combinations × three widths.
fn opt_from_seed(seed: u64) -> OptConfig {
    OptConfig {
        fuse: seed & 1 != 0,
        width: [ElemWidth::Fp16, ElemWidth::Fp8, ElemWidth::Int8][(seed / 2 % 3) as usize],
        graph_capture: seed & 8 != 0,
    }
}

/// Profiles `g` on a fresh registry with span capture on, so the span
/// comparison below has spans to compare.
fn profile(
    g: &Graph,
    attn: AttnImpl,
    opt: OptConfig,
    memo: Option<Arc<CostMemo>>,
) -> (Timeline, Registry) {
    profile_capturing(g, attn, opt, memo, true)
}

fn profile_capturing(
    g: &Graph,
    attn: AttnImpl,
    opt: OptConfig,
    memo: Option<Arc<CostMemo>>,
    capture: bool,
) -> (Timeline, Registry) {
    let registry = Registry::new();
    registry.set_span_capture(capture);
    let mut p = Profiler::with_registry(DeviceSpec::a100_80gb(), attn, &registry)
        .with_cache_sim(4096)
        .with_opt_config(opt);
    if let Some(memo) = memo {
        p = p.with_memo(memo);
    }
    (p.profile(g), registry)
}

fn assert_identical(
    label: &str,
    (cold_t, cold_r): &(Timeline, Registry),
    (memo_t, memo_r): &(Timeline, Registry),
) {
    assert_eq!(cold_t.events().len(), memo_t.events().len(), "{label}: event count");
    for (a, b) in cold_t.events().iter().zip(memo_t.events()) {
        assert_eq!(a.index, b.index, "{label}: index of {}", a.path);
        assert_eq!(a.path, b.path, "{label}: path");
        assert_eq!(a.category, b.category, "{label}: category of {}", a.path);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{label}: time of {}", a.path);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "{label}: energy of {}", a.path);
        assert_eq!(a.flops, b.flops, "{label}: flops of {}", a.path);
        assert_eq!(a.hbm_bytes, b.hbm_bytes, "{label}: bytes of {}", a.path);
        assert_eq!(a.kernels, b.kernels, "{label}: kernel records of {}", a.path);
        assert_eq!(a.attention, b.attention, "{label}: attention info of {}", a.path);
        assert_eq!(a.counters, b.counters, "{label}: counter deltas of {}", a.path);
    }
    // Registry totals, bucket for bucket and byte for byte.
    assert_eq!(cold_r.render_prometheus(), memo_r.render_prometheus(), "{label}: registry");
    // Span attribution (durations are wall time and legitimately differ).
    let cold_s = cold_r.finished_spans();
    let memo_s = memo_r.finished_spans();
    assert!(!cold_s.is_empty(), "{label}: no spans captured");
    assert_eq!(cold_s.len(), memo_s.len(), "{label}: span count");
    for (a, b) in cold_s.iter().zip(&memo_s) {
        assert_eq!(a.path, b.path, "{label}: span path");
        assert_eq!(a.counter_deltas, b.counter_deltas, "{label}: span deltas of {}", a.path);
    }
}

/// Keeps the registry's Prometheus text as each event reaches it.
struct Snapshots {
    registry: Registry,
    seen: Vec<String>,
}

impl ModuleHook for Snapshots {
    fn on_op(&mut self, _: &OpEvent) {
        self.seen.push(self.registry.render_prometheus());
    }
}

/// What profiling a list of graphs in turn leaves behind: the events
/// (their indices zeroed, since a one-node graph numbers its op 0), the
/// registry's Prometheus text, every span's path and deltas and, when
/// hooked, the Prometheus text each hook call saw.
type Observed = (Vec<OpEvent>, String, Vec<(Arc<str>, Arc<Vec<(String, u64)>>)>, Vec<String>);

/// Profiles `graphs` in order through one profiler on a fresh registry
/// with span capture on.
fn observe(
    graphs: &[Graph],
    attn: AttnImpl,
    opt: OptConfig,
    memo: Option<Arc<CostMemo>>,
    hooked: bool,
) -> Observed {
    let registry = Registry::new();
    registry.set_span_capture(true);
    let mut p = Profiler::with_registry(DeviceSpec::a100_80gb(), attn, &registry)
        .with_cache_sim(4096)
        .with_opt_config(opt);
    if let Some(memo) = memo {
        p = p.with_memo(memo);
    }
    let mut hook = Snapshots { registry: registry.clone(), seen: Vec::new() };
    let mut events = Vec::new();
    for g in graphs {
        let t = if hooked { p.profile_with_hooks(g, &mut [&mut hook]) } else { p.profile(g) };
        events.extend(t.events().iter().map(|e| OpEvent { index: 0, ..e.clone() }));
    }
    let spans = registry.finished_spans().into_iter().map(|s| (s.path, s.counter_deltas)).collect();
    (events, registry.render_prometheus(), spans, hook.seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold, intra-run-memoized, and warm-memoized profiling all agree,
    /// under any combination of optimization passes.
    #[test]
    fn memoized_profiling_is_bit_identical(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        flash in 0usize..2,
        opt_seed in 0u64..48,
    ) {
        let attn = if flash == 1 { AttnImpl::Flash } else { AttnImpl::Baseline };
        let opt = opt_from_seed(opt_seed);
        let g = graph_of(&seeds);
        let cold = profile(&g, attn, opt, None);

        // First memoized run: every distinct op probes the memo once and
        // misses (pass 0); its repetitions take the call's entry (pass 1).
        let distinct = distinct_ops(&g);
        let memo = Arc::new(CostMemo::new());
        let first = profile(&g, attn, opt, Some(Arc::clone(&memo)));
        prop_assert_eq!(
            (memo.hits(), memo.misses()),
            (0, distinct),
            "one probe per distinct op, each a miss"
        );
        assert_identical("intra-run", &cold, &first);

        // Second run against the warm memo: pure replay.
        let hits_before = memo.hits();
        let warm = profile(&g, attn, opt, Some(Arc::clone(&memo)));
        prop_assert_eq!(
            memo.hits(),
            hits_before + distinct,
            "warm run must hit once per distinct op"
        );
        assert_identical("warm", &cold, &warm);
    }

    /// Span capture changes nothing but the spans: with it off, the
    /// memo-less and memoized profiles give the same events and registry
    /// and keep no spans; with it on, cold and replayed ops alike leave
    /// exactly one span each, carrying the event's path and deltas.
    #[test]
    fn span_capture_only_adds_one_span_per_event(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        flash in 0usize..2,
        opt_seed in 0u64..48,
    ) {
        let attn = if flash == 1 { AttnImpl::Flash } else { AttnImpl::Baseline };
        let opt = opt_from_seed(opt_seed);
        let g = graph_of(&seeds);
        let memo = Arc::new(CostMemo::new());
        let (cold_t, cold_r) = profile_capturing(&g, attn, opt, None, false);
        let (memo_t, memo_r) = profile_capturing(&g, attn, opt, Some(Arc::clone(&memo)), false);
        prop_assert_eq!(
            (memo.hits(), memo.misses()),
            (0, distinct_ops(&g)),
            "the memoized run must probe once per distinct op and replay its repeats"
        );
        prop_assert_eq!(cold_t.events(), memo_t.events());
        prop_assert_eq!(cold_r.render_prometheus(), memo_r.render_prometheus());
        prop_assert!(cold_r.finished_spans().is_empty(), "memo-less run kept spans");
        prop_assert!(memo_r.finished_spans().is_empty(), "memoized run kept spans");

        for memo in [None, Some(memo)] {
            let (t, r) = profile_capturing(&g, attn, opt, memo, true);
            prop_assert_eq!(t.events(), cold_t.events());
            let spans = r.finished_spans();
            prop_assert_eq!(spans.len(), t.events().len());
            for (span, event) in spans.iter().zip(t.events()) {
                prop_assert_eq!(&span.path, &event.path);
                prop_assert_eq!(&span.counter_deltas, &event.counters);
            }
        }
    }

    /// A graph profiled in one call leaves what its nodes leave when
    /// each is profiled as its own one-node graph, in order: the same
    /// events, registry, spans and, with a hook, the same registry at
    /// every event. Every op repeats, so a call that lands a repeated
    /// op's telemetry the wrong number of times or out of order differs.
    #[test]
    fn a_graph_profiles_exactly_as_its_nodes_do_one_at_a_time(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        flash in 0usize..2,
        opt_seed in 0u64..48,
    ) {
        let attn = if flash == 1 { AttnImpl::Flash } else { AttnImpl::Baseline };
        let opt = opt_from_seed(opt_seed);
        let g = graph_of(&seeds);
        let nodes: Vec<Graph> = g
            .nodes()
            .iter()
            .map(|n| {
                let mut one = Graph::new();
                one.push(&*n.path, n.op.clone());
                one
            })
            .collect();
        for memoized in [false, true] {
            let memo = || memoized.then(|| Arc::new(CostMemo::new()));
            for hooked in [false, true] {
                let whole = observe(std::slice::from_ref(&g), attn, opt, memo(), hooked);
                let apart = observe(&nodes, attn, opt, memo(), hooked);
                let label = format!("memoized {memoized}, hooked {hooked}");
                prop_assert_eq!(&whole.0, &apart.0, "{}: events", label);
                prop_assert_eq!(&whole.1, &apart.1, "{}: registry", label);
                prop_assert_eq!(whole.2.len(), g.len(), "{}: one span per node", label);
                prop_assert_eq!(&whole.2, &apart.2, "{}: spans", label);
                prop_assert_eq!(whole.3.len(), if hooked { g.len() } else { 0 });
                prop_assert_eq!(&whole.3, &apart.3, "{}: registry at each event", label);
            }
        }
    }

    /// Energy conservation, bit for bit: every op's joules are exactly
    /// the in-order sum of its kernels' joules, the timeline total is
    /// exactly the in-order sum of the ops', every kernel draw sits in
    /// the device's [idle, TDP] envelope, and a warm memo replays the
    /// `gpu_energy_uj_total` counter to the same integer.
    #[test]
    fn per_kernel_joules_conserve_through_timeline_and_memo(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        flash in 0usize..2,
        opt_seed in 0u64..48,
    ) {
        let attn = if flash == 1 { AttnImpl::Flash } else { AttnImpl::Baseline };
        let opt = opt_from_seed(opt_seed);
        let spec = DeviceSpec::a100_80gb();
        let g = graph_of(&seeds);
        let (cold_t, cold_r) = profile(&g, attn, opt, None);

        let mut op_sum = 0.0f64;
        for e in cold_t.events() {
            let kernel_sum = e.kernels.iter().map(|k| k.energy_j).fold(0.0f64, |a, b| a + b);
            prop_assert_eq!(
                kernel_sum.to_bits(),
                e.energy_j.to_bits(),
                "op {} energy is not the exact sum of its kernels", &e.path
            );
            for k in e.kernels.iter() {
                prop_assert!(
                    k.draw_w >= spec.idle_w && k.draw_w <= spec.tdp_w,
                    "kernel {} draws {} W outside [{}, {}]",
                    &k.label, k.draw_w, spec.idle_w, spec.tdp_w
                );
                prop_assert!(k.energy_j >= 0.0, "negative joules on {}", &k.label);
            }
            op_sum += e.energy_j;
        }
        prop_assert_eq!(
            op_sum.to_bits(),
            cold_t.total_energy_j().to_bits(),
            "timeline total energy is not the exact sum of its ops"
        );

        // Warm replay must land the integrated-energy counter on the
        // same integer microjoule total the cold run produced.
        let counter = |r: &Registry| {
            r.counters_snapshot()
                .values()
                .iter()
                .find(|(name, _)| name == "gpu_energy_uj_total")
                .map(|(_, v)| *v)
        };
        let memo = Arc::new(CostMemo::new());
        let _ = profile(&g, attn, opt, Some(Arc::clone(&memo)));
        let (warm_t, warm_r) = profile(&g, attn, opt, Some(memo));
        prop_assert_eq!(
            cold_t.total_energy_j().to_bits(),
            warm_t.total_energy_j().to_bits(),
            "memo replay changed the integrated timeline energy"
        );
        prop_assert_eq!(counter(&cold_r), counter(&warm_r), "memo replay changed gpu_energy_uj_total");
    }
}
