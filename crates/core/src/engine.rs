//! Execution contexts and the multi-threaded experiment engine.
//!
//! Two pieces turn the serial `repro` loop into a deterministic parallel
//! sweep:
//!
//! * [`ExecContext`] bundles what every experiment needs — the simulated
//!   device, the telemetry [`Registry`] to record into, and the shared
//!   operator-cost memo ([`CostMemo`]). The process-wide
//!   [`ExecContext::shared`] context keeps the classic serial behaviour
//!   (global registry, global memo); [`ExecContext::isolated`] gives
//!   standalone work its own registry.
//! * [`run_suite`] executes a list of experiments across a worker pool,
//!   starting the heaviest first. Each experiment runs on its own fresh
//!   registry (a [`Registry::child`] of the target); at join time the
//!   per-experiment registries are merged into the target registry *in
//!   experiment order*, and outputs are returned in experiment order —
//!   so counter totals and printed output are identical to a serial run
//!   regardless of worker count or scheduling.
//!
//! A profiled op lands its telemetry from its memo entry, whether this
//! worker computed the entry or found it in the memo, through one flush
//! per profile call that runs before any hook sees an event and before
//! the call returns (see `mmg-profiler`'s memo module). That is what
//! makes sharing one memo across workers — and across serial runs —
//! safe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mmg_attn::AttnImpl;
use mmg_gpu::DeviceSpec;
use mmg_profiler::{CostMemo, Profiler};
use mmg_telemetry::Registry;

use crate::runner::{run_experiment_with, ExperimentId};

/// The process-wide operator-cost memo used by [`ExecContext::shared`]
/// and as the default memo for suite runs. Shared so a whole `repro all`
/// invocation — serial or parallel — profiles each distinct operator
/// once.
#[must_use]
pub fn global_memo() -> Arc<CostMemo> {
    static MEMO: OnceLock<Arc<CostMemo>> = OnceLock::new();
    Arc::clone(MEMO.get_or_init(|| Arc::new(CostMemo::new())))
}

/// Everything an experiment run needs: device, telemetry sink, and the
/// shared cost memo.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Simulated device.
    pub spec: DeviceSpec,
    /// Registry the experiment's profilers record into.
    pub registry: Registry,
    /// Shared operator-cost memo.
    pub memo: Arc<CostMemo>,
}

impl ExecContext {
    /// The classic serial context: global registry, global memo.
    #[must_use]
    pub fn shared(spec: DeviceSpec) -> Self {
        ExecContext { spec, registry: mmg_telemetry::global(), memo: global_memo() }
    }

    /// A context with its own fresh registry, sharing `memo`. Work whose
    /// telemetry is merged into another registry runs on a child of that
    /// registry instead, as the worker pool's cells do.
    #[must_use]
    pub fn isolated(spec: DeviceSpec, memo: Arc<CostMemo>) -> Self {
        ExecContext { spec, registry: Registry::new(), memo }
    }

    /// A context for work whose telemetry is merged into `target`
    /// afterwards: its registry is a [`Registry::child`] of `target`,
    /// so merged spans share `target`'s epoch and are captured only
    /// when `target` captures them.
    #[must_use]
    pub(crate) fn merging_into(spec: DeviceSpec, memo: Arc<CostMemo>, target: &Registry) -> Self {
        ExecContext { spec, registry: target.child(), memo }
    }

    /// A profiler wired to this context's registry and memo.
    #[must_use]
    pub fn profiler(&self, attn: AttnImpl) -> Profiler {
        Profiler::with_registry(self.spec.clone(), attn, &self.registry)
            .with_memo(Arc::clone(&self.memo))
    }

    /// A profiler with kernel-graph optimization passes enabled, wired to
    /// this context's registry and memo (the [`mmg_graph::OptConfig`]
    /// participates in memo keys, so sharing the memo with eager
    /// profilers is safe).
    #[must_use]
    pub fn profiler_opt(&self, attn: AttnImpl, opt: mmg_graph::OptConfig) -> Profiler {
        self.profiler(attn).with_opt_config(opt)
    }
}

/// Runs `produce(i, ctx)` for every cell index `0..n` on up to `jobs`
/// worker threads, each cell on its own fresh [`Registry`] (a
/// [`Registry::child`] of `target`) sharing `memo`. Workers start the
/// cells in index order. Returns the cell outputs in index order and
/// merges each cell's registry into `target` in index order, so counter
/// totals match a serial run byte for byte no matter how the workers
/// interleave. This is the general engine under [`run_suite_with`]
/// (cells = experiments) and the serving replication sweep (cells =
/// seed × scheduler × utilization grid points).
///
/// # Panics
///
/// Propagates a panic from any cell after all workers stop.
pub fn run_cells_with<T, F>(
    n: usize,
    spec: &DeviceSpec,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
    produce: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &ExecContext) -> T + Sync,
{
    let claim: Vec<usize> = (0..n).collect();
    run_cells_claiming(&claim, spec, jobs, memo, target, produce)
}

/// [`run_cells_with`] over the cells `0..claim.len()`, which workers
/// start in the order `claim` lists them (a permutation of the cell
/// indices). Outputs and registry merges stay in index order.
fn run_cells_claiming<T, F>(
    claim: &[usize],
    spec: &DeviceSpec,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
    produce: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &ExecContext) -> T + Sync,
{
    let n = claim.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(T, Registry)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            scope.spawn(|| {
                while let Some(&i) = claim.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let ctx = ExecContext::merging_into(spec.clone(), Arc::clone(memo), target);
                    let out = produce(i, &ctx);
                    *slots[i].lock().expect("cell slot lock poisoned") = Some((out, ctx.registry));
                }
            });
        }
    });
    let mut outputs = Vec::with_capacity(n);
    for slot in slots {
        let (out, registry) = slot
            .into_inner()
            .expect("cell slot lock poisoned")
            .expect("every claimed slot is filled before join");
        target.merge_from(&registry);
        outputs.push(out);
    }
    outputs
}

/// Runs `produce` for every experiment in `ids` on the worker pool —
/// [`run_cells_with`] with cells addressed by [`ExperimentId`]. Workers
/// start the experiments in [`ExperimentId::HEAVIEST_FIRST`] order, so
/// the longest ones do not start last; outputs and telemetry merge in
/// `ids` order, independent of `jobs`.
pub fn run_suite_with<F>(
    ids: &[ExperimentId],
    spec: &DeviceSpec,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
    produce: F,
) -> Vec<String>
where
    F: Fn(ExperimentId, &ExecContext) -> String + Sync,
{
    let mut claim: Vec<usize> = (0..ids.len()).collect();
    claim.sort_by_key(|&i| ids[i].claim_rank());
    run_cells_claiming(&claim, spec, jobs, memo, target, |i, ctx| produce(ids[i], ctx))
}

/// [`run_suite_with`] specialized to the rendered-report form the CLI
/// prints: one ASCII report per experiment, in `ids` order.
pub fn run_suite(
    ids: &[ExperimentId],
    spec: &DeviceSpec,
    jobs: usize,
    memo: &Arc<CostMemo>,
    target: &Registry,
) -> Vec<String> {
    run_suite_with(ids, spec, jobs, memo, target, run_experiment_with)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;

    const SMOKE: [ExperimentId; 5] = [
        ExperimentId::Fig4,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Tp,
        ExperimentId::Table3,
    ];

    #[test]
    fn parallel_output_matches_serial_for_any_job_count() {
        let spec = DeviceSpec::a100_80gb();
        let serial: Vec<String> =
            SMOKE.iter().map(|&id| run_experiment(id, &spec)).collect();
        for jobs in [1, 2, 8] {
            let memo = Arc::new(CostMemo::new());
            let target = Registry::new();
            let parallel = run_suite(&SMOKE, &spec, jobs, &memo, &target);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn suite_merges_counters_deterministically() {
        let spec = DeviceSpec::a100_80gb();
        let ids = [ExperimentId::Fig12, ExperimentId::Fig13];
        let totals = |jobs: usize| {
            let memo = Arc::new(CostMemo::new());
            let target = Registry::new();
            let _ = run_suite(&ids, &spec, jobs, &memo, &target);
            target.counters_snapshot().values().to_vec()
        };
        assert_eq!(totals(1), totals(2));
    }

    #[test]
    fn merged_cell_spans_count_from_the_target_epoch() {
        use std::time::{Duration, Instant};
        // Cell i records one span once offsets[i] has passed since the
        // target was built, so its merged start_us is at least that.
        let offsets = [Duration::from_millis(30), Duration::from_millis(60)];
        for jobs in [1, 2] {
            let target = Registry::new();
            target.set_span_capture(true);
            let built = Instant::now();
            let memo = Arc::new(CostMemo::new());
            let spec = DeviceSpec::a100_80gb();
            run_cells_with(offsets.len(), &spec, jobs, &memo, &target, |i, ctx| {
                if let Some(wait) = offsets[i].checked_sub(built.elapsed()) {
                    std::thread::sleep(wait);
                }
                let path = format!("cell{i}").into();
                ctx.registry.record_span(path, Instant::now(), Arc::default());
            });
            let spans = target.finished_spans();
            assert_eq!(spans.len(), offsets.len(), "jobs={jobs}: cells capture as the target does");
            for (span, offset) in spans.iter().zip(offsets) {
                let (start_us, floor_us) = (span.start_us, offset.as_secs_f64() * 1e6);
                assert!(start_us >= floor_us, "jobs={jobs}: {} at {start_us} us", span.path);
            }
            assert!(spans[0].start_us <= spans[1].start_us, "jobs={jobs}: spans out of order");
        }
    }

    #[test]
    fn suite_starts_heaviest_first_and_merges_in_ids_order() {
        let ids = [ExperimentId::Fig4, ExperimentId::Tp, ExperimentId::FleetSweep];
        let started = Mutex::new(Vec::new());
        let outputs = run_suite_with(
            &ids,
            &DeviceSpec::a100_80gb(),
            1,
            &Arc::new(CostMemo::new()),
            &Registry::new(),
            |id, _| {
                started.lock().expect("start list lock poisoned").push(id);
                id.to_string()
            },
        );
        assert_eq!(outputs, ["fig4", "tp", "fleet-sweep"]);
        let mut heaviest_first = ids;
        heaviest_first.sort_by_key(|id| id.claim_rank());
        assert_eq!(started.into_inner().expect("start list lock poisoned"), heaviest_first);
    }

    #[test]
    fn shared_context_uses_global_registry() {
        let ctx = ExecContext::shared(DeviceSpec::a100_80gb());
        // Telemetry recorded via the context lands in the global registry.
        ctx.registry.counter("engine_test_shared_counter_total").inc();
        assert_eq!(
            mmg_telemetry::global().counter("engine_test_shared_counter_total").get(),
            1
        );
    }
}
