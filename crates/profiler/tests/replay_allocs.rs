//! Memo replay allocates nothing per op.
//!
//! A counting global allocator watches a fully warm pass over Llama2's
//! stage graphs: every distinct op of a graph is a memo hit whose
//! counter handles are already resolved, and its repeats take the
//! call's entry, so the pass may allocate per graph (the event vector)
//! and, with span capture on, when the registry's span list grows, but
//! not per op. The bound holds with capture off (the default) and on
//! (JSON metrics runs). The file holds a single test so no other test
//! thread shares the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mmg_attn::AttnImpl;
use mmg_gpu::DeviceSpec;
use mmg_models::{suite, ModelId};
use mmg_profiler::{CostMemo, Profiler};
use mmg_telemetry::Registry;

/// Counts every allocation, including growth by `realloc`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_replay_allocates_less_than_once_per_four_ops() {
    for capture in [false, true] {
        warm_replay_allocations(capture);
    }
}

fn warm_replay_allocations(capture: bool) {
    let pipeline = suite::build(ModelId::Llama2);
    let registry = Registry::new();
    registry.set_span_capture(capture);
    let memo = Arc::new(CostMemo::new());
    let profiler = Profiler::with_registry(DeviceSpec::a100_80gb(), AttnImpl::Flash, &registry)
        .with_memo(Arc::clone(&memo));
    let pass = || {
        pipeline.stages.iter().map(|s| profiler.profile(&s.graph).events().len()).sum::<usize>()
    };
    // A profile call probes the memo once per distinct op of its graph.
    let probes: u64 = pipeline
        .stages
        .iter()
        .map(|s| s.graph.nodes().iter().map(|n| &n.op).collect::<HashSet<_>>().len() as u64)
        .sum();
    // First pass fills the memo; the second resolves replay handles.
    pass();
    pass();
    let (hits_before, misses_before) = (memo.hits(), memo.misses());
    let before = ALLOCS.load(Ordering::Relaxed);
    let ops = pass();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        (memo.hits() - hits_before, memo.misses() - misses_before),
        (probes, 0),
        "the measured pass hits once per distinct op of each graph"
    );
    let per_op = allocs as f64 / ops as f64;
    assert!(
        per_op < 0.25,
        "span capture {capture}: {allocs} allocations over {ops} replayed ops ({per_op:.2} per op)"
    );
}
