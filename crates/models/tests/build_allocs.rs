//! A repeated suite build allocates per stage, not per node.
//!
//! A counting global allocator watches a second pass of `suite::build`
//! over every model, and the drops of its pipelines. Once a model's
//! pipeline is built, a copy allocates its name and stage vector, and
//! each stage's name and weight group, while every stage graph is shared:
//! no node path is formatted and none is freed. The file holds a single
//! test so no other test thread shares the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use mmg_models::{suite, ModelId};

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
fn repeated_builds_allocate_per_stage_not_per_node() {
    let first = ModelId::ALL.map(suite::build);
    let pipelines = first.len() as u64;
    let stages = first.iter().map(|p| p.stages.len() as u64).sum::<u64>();
    let nodes = first.iter().flat_map(|p| &p.stages).map(|s| s.graph.len() as u64).sum::<u64>();
    drop(first);

    let before = ALLOCS.load(Ordering::Relaxed);
    drop(black_box(ModelId::ALL.map(suite::build)));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    // Two strings per stage (name, weight group); a name and a stage
    // vector per pipeline.
    let bound = 2 * stages + 2 * pipelines;
    assert!(
        allocs <= bound,
        "{allocs} allocations to copy {pipelines} pipelines of {stages} stages (bound {bound})"
    );
    assert!(
        100 * allocs < nodes,
        "{allocs} allocations for {nodes} nodes: a copy must not allocate per node"
    );
}
