//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer of the simulator from outside,
//! under a span named after the call. The probes are the same for every
//! workload, so every traced run reports every layer; the DES probes run
//! one rep of serve-stream, fleet-fifo and token-kv at the run's seed.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mmg_attn::AttnImpl;
use mmg_core::experiments::table2;
use mmg_core::{run_experiment_with, run_suite_with, ExecContext};
use mmg_gpu::{DeviceSpec, TimingEngine};
use mmg_graph::lower::lower_on;
use mmg_graph::optimize::apply;
use mmg_graph::{OptConfig, OptStats};
use mmg_kernels::conv::ConvAlgorithm;
use mmg_models::{suite, ModelId};
use mmg_profiler::{CostMemo, Profiler};
use mmg_serve::{
    simulate, simulate_token, ArrivalGen, FleetReport, FleetResult, RegionStream, SloReport,
    TokenReport, LATENCY_SKETCH_EPS,
};
use mmg_telemetry::{QuantileSketch, Registry};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::exp_metric;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{self, digest, set_up, suite_ids, Inputs, Workload};

/// Repeats of the sub-millisecond probes; their median is reported.
const REPEATS: usize = 9;

struct Probe<'a> {
    tracer: &'a Tracer,
    parent: Option<u64>,
    out: Vec<(String, f64)>,
}

impl Probe<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }

    /// Runs `f` once under a span, returning its value and host seconds.
    fn time<T>(&self, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.tracer.span(span, self.parent);
        let started = Instant::now();
        let value = f();
        (value, started.elapsed().as_secs_f64())
    }

    /// Median host seconds of `REPEATS` runs of `f`, each under a span.
    fn median_time<T>(&self, span: &str, mut f: impl FnMut() -> T) -> f64 {
        let samples: Vec<f64> = (0..REPEATS)
            .map(|_| self.time(span, || black_box(f())).1)
            .collect();
        Summary::of(&samples).median
    }
}

/// Measures every per-layer metric except `trace.overhead_frac`, which
/// comes from the workload's own reps. Fails if the fleet report depends
/// on the worker count.
pub fn measure(
    seed: u64,
    quick: bool,
    jobs: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Vec<(String, f64)>, String> {
    let mut p = Probe {
        tracer,
        parent,
        out: Vec::new(),
    };
    let spec = DeviceSpec::a100_80gb();

    // models → graph → gpu, over every op of every suite pipeline.
    let build_s = p.median_time("models.build", || ModelId::ALL.map(suite::build));
    let pipelines = ModelId::ALL.map(suite::build);
    let ops: Vec<_> = pipelines
        .iter()
        .flat_map(|pl| &pl.stages)
        .flat_map(|st| st.graph.nodes())
        .map(|node| &node.op)
        .collect();
    let sms = spec.sm_count as usize;
    // Baseline attention lowers to GEMM + softmax + GEMM, the multi-kernel
    // streams the fusion pass rewrites; flash leaves it nothing to fold.
    let lower_all = || -> Vec<_> {
        ops.iter()
            .map(|op| lower_on(op, AttnImpl::Baseline, 2, ConvAlgorithm::ImplicitGemm, sms))
            .collect()
    };
    let lower_s = p.median_time("graph.lower", lower_all);
    let lowered = lower_all();
    let kernels: usize = lowered.iter().map(Vec::len).sum();
    let optimize_pass = || {
        let mut streams = lowered.clone();
        let mut stats = OptStats::default();
        let started = Instant::now();
        for k in &mut streams {
            stats.absorb(apply(k, &OptConfig::all(), &spec));
        }
        (stats, started.elapsed().as_secs_f64())
    };
    // The clone is outside the timed part: only `apply` is measured.
    let optimize_samples: Vec<(OptStats, f64)> = (0..REPEATS)
        .map(|_| p.time("graph.optimize", optimize_pass).0)
        .collect();
    let optimize_s = Summary::of(&optimize_samples.iter().map(|s| s.1).collect::<Vec<_>>()).median;
    let engine = TimingEngine::with_registry(spec.clone(), &Registry::new());
    let timing_s = p.median_time("gpu.kernel_time", || {
        lowered
            .iter()
            .flatten()
            .map(|k| engine.kernel_time(&k.cost).total_s)
            .sum::<f64>()
    });
    let per_op = |s: f64| s * 1e9 / ops.len() as f64;
    p.put("models.build_s", build_s);
    p.put("models.ops", ops.len() as f64);
    p.put("graph.lower_ns_per_op", per_op(lower_s));
    p.put("graph.kernels", kernels as f64);
    p.put("graph.optimize_ns_per_op", per_op(optimize_s));
    p.put(
        "graph.kernels_fused",
        optimize_samples[0].0.kernels_fused as f64,
    );
    p.put("gpu.timing_ns_per_kernel", timing_s * 1e9 / kernels as f64);

    // profiler: the suite pipelines on a cold memo, then again warm.
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..REPEATS {
        let profiler = Profiler::with_registry(spec.clone(), AttnImpl::Flash, &Registry::new())
            .with_memo(Arc::new(CostMemo::new()));
        let profile_all = || {
            pipelines
                .iter()
                .map(|pl| pl.profile(&profiler).total_time_s())
                .sum::<f64>()
        };
        cold.push(p.time("profiler.cold", profile_all).1);
        warm.push(p.time("profiler.warm", profile_all).1);
    }
    p.put("profiler.cold_s", Summary::of(&cold).median);
    p.put("profiler.warm_s", Summary::of(&warm).median);

    // core: the suite serially (clean per-experiment attribution), then
    // on the worker pool, each on a cold memo.
    let ids = suite_ids(quick);
    let exp_s = Mutex::new(Vec::new());
    let serial_s = {
        let span = tracer.span("core.run_suite_serial", parent);
        let serial_span = span.id();
        let started = Instant::now();
        run_suite_with(
            &ids,
            &spec,
            1,
            &Arc::new(CostMemo::new()),
            &Registry::new(),
            |id, ctx| {
                let _span = tracer.span(&format!("core.exp.{id}"), serial_span);
                let started = Instant::now();
                let report = run_experiment_with(id, ctx);
                exp_s
                    .lock()
                    .expect("timing list lock poisoned")
                    .push((id, started.elapsed().as_secs_f64()));
                report
            },
        );
        started.elapsed().as_secs_f64()
    };
    for (id, s) in exp_s.into_inner().expect("timing list lock poisoned") {
        p.put(&exp_metric(id), s);
    }
    let memo = Arc::new(CostMemo::new());
    let registry = Registry::new();
    let started = Instant::now();
    workloads::suite(&ids, jobs, &memo, &registry, tracer, parent);
    let parallel_s = started.elapsed().as_secs_f64();
    p.put("profiler.memo_entries", memo.len() as f64);
    p.put("profiler.memo_hits", memo.hits() as f64);
    p.put(
        "profiler.memo_dup_misses",
        memo.misses().saturating_sub(memo.len() as u64) as f64,
    );
    p.put("core.suite_serial_s", serial_s);
    p.put("core.parallel_speedup", serial_s / parallel_s);
    let rows = table2::run_ctx(&ExecContext::isolated(spec.clone(), memo)).rows;
    let errs: Vec<f64> = rows
        .iter()
        .filter_map(|r| {
            r.paper_e2e
                .map(|paper| (r.e2e_speedup - paper).abs() / paper * 100.0)
        })
        .collect();
    p.put(
        "core.table2_err_pct",
        errs.iter().sum::<f64>() / errs.len() as f64,
    );

    // serve: set-up, the event loop, and the arrivals it consumes.
    let (inputs, profile_s) = p.time("serve.set_up", || {
        set_up(Workload::ServeStream, seed, quick)
    });
    let Inputs::Serve(cfg, profile) = inputs else {
        unreachable!("serve-stream sets up a scenario")
    };
    let (result, simulate_s) = p.time("serve.simulate", || {
        simulate(&cfg, &profile, &Registry::new())
    });
    let arrivals = result.arrivals;
    let (_, arrivals_s) = p.time("serve.arrivals", || {
        let mut gen = ArrivalGen::new(cfg.arrival, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let unit = Uniform::new(0.0, 1.0);
        let (mut t, mut picks) = (0.0, 0usize);
        for _ in 0..arrivals {
            t = gen.next_after(t);
            picks += cfg.mix.sample_index(unit.sample(&mut rng));
        }
        black_box((t, picks))
    });
    let report_s = p.median_time("serve.report", || SloReport::from_result(&result).render());
    p.put("serve.profile_s", profile_s);
    p.put(
        "serve.arrivals_ns_per_req",
        arrivals_s * 1e9 / arrivals as f64,
    );
    p.put("serve.simulate_s", simulate_s);
    p.put(
        "serve.loop_ns_per_req",
        (simulate_s - arrivals_s) * 1e9 / arrivals as f64,
    );
    p.put(
        "serve.batch_mean",
        result.stats.batch_sum as f64 / result.stats.completed as f64,
    );
    p.put("serve.report_s", report_s);

    // fleet: shards on the pool and serially; the reports must agree.
    let (inputs, profile_s) = p.time("fleet.set_up", || set_up(Workload::FleetFifo, seed, quick));
    let Inputs::Fleet(cfg, profiles) = inputs else {
        unreachable!("fleet-fifo sets up a fleet")
    };
    let pooled = workloads::fleet(&cfg, &profiles, jobs, tracer, parent);
    let serial = workloads::fleet(&cfg, &profiles, 1, tracer, parent);
    let render = |r: &FleetResult| FleetReport::new(&cfg, r).render().to_string();
    if digest(&render(&pooled.result)) != digest(&render(&serial.result)) {
        return Err(format!(
            "fleet: report at jobs={jobs} differs from the report at jobs=1"
        ));
    }
    let report_s = p.median_time("fleet.report", || render(&pooled.result));
    let horizon_s = cfg.horizon_s();
    let (count, arrivals_s) = p.time("fleet.arrivals", || {
        let mut count = 0u64;
        for i in 0..cfg.clusters.len() {
            let mut stream = RegionStream::new(&cfg, i);
            while stream.next().0 < horizon_s {
                count += 1;
            }
        }
        count
    });
    let shard_max = pooled.shard_s.iter().copied().fold(0.0, f64::max);
    let shard_mean = pooled.shard_s.iter().sum::<f64>() / pooled.shard_s.len() as f64;
    p.put("fleet.profile_s", profile_s);
    p.put("fleet.arrivals_ns_per_req", arrivals_s * 1e9 / count as f64);
    p.put("fleet.shard_max_s", shard_max);
    p.put("fleet.shard_mean_s", shard_mean);
    p.put("fleet.shard_imbalance", shard_max / shard_mean);
    p.put("fleet.merge_s", pooled.merge_s);
    p.put("fleet.report_s", report_s);

    // token: the iteration loop and the KV ledger under preemption.
    let (inputs, curve_s) = p.time("token.set_up", || set_up(Workload::TokenKv, seed, quick));
    let Inputs::Token(cfg, curve, budget) = inputs else {
        unreachable!("token-kv sets up a scenario")
    };
    let (result, simulate_s) = p.time("token.simulate", || {
        simulate_token(&cfg, &curve, budget, &Registry::new())
    });
    let s = &result.stats;
    let report_s = p.median_time("token.report", || {
        TokenReport::from_result(&result).render()
    });
    p.put("token.curve_s", curve_s);
    p.put("token.simulate_s", simulate_s);
    p.put(
        "token.ns_per_iteration",
        simulate_s * 1e9 / s.iterations as f64,
    );
    p.put("token.iterations", s.iterations as f64);
    p.put("token.preemptions", result.preemptions() as f64);
    p.put(
        "token.prefill_tokens_per_completed",
        s.prefilled_tokens as f64 / s.completed as f64,
    );
    p.put("token.decode_batch_mean", result.mean_decode_batch());
    p.put("token.report_s", report_s);

    // telemetry: sketch inserts at the cluster DES's rank bound, and a
    // Prometheus render of a full suite regeneration's registry.
    let n = if quick { 20_000 } else { 2_000_000 };
    let mut rng = StdRng::seed_from_u64(seed);
    let unit = Uniform::new(f64::EPSILON, 1.0);
    let values: Vec<f64> = (0..n).map(|_| -unit.sample(&mut rng).ln()).collect();
    let (_, sketch_s) = p.time("telemetry.sketch", || {
        let mut sketch = QuantileSketch::new(LATENCY_SKETCH_EPS);
        for &v in &values {
            sketch.observe(v);
        }
        sketch.flush();
        black_box(sketch.count())
    });
    p.put("telemetry.sketch_ns_per_insert", sketch_s * 1e9 / n as f64);
    p.put(
        "telemetry.prom_render_s",
        p.median_time("telemetry.render_prometheus", || {
            registry.render_prometheus()
        }),
    );

    Ok(p.out)
}
