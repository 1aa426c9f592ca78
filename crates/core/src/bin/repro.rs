//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                    # every experiment, paper order
//! repro table2 fig6            # selected experiments
//! repro --list                 # available experiment ids
//! repro --device v100 …        # run on a different simulated device
//! repro --jobs 4 …             # worker threads (default: all cores)
//! repro --json …               # one {"experiment", "result"} line each
//! repro --metrics m.txt …      # Prometheus dump of telemetry counters
//! repro --trace-out t.json …   # Perfetto trace of one SD UNet step
//! repro --manifest run.json …  # run manifest (device, ids, counters)
//! repro bench-snapshot         # time each experiment → BENCH_<date>.json
//! repro bench-check old new    # diff two snapshots; exit 1 on regression
//! repro serve --gpus 4 --mix sd:8,parti:2 --scheduler dynamic --slo-ms 2000
//!                              # serving-cluster DES (see `serve` below)
//! repro token --model llama --gpus 2 --scheduler continuous --util 0.8
//!                              # token-level serving DES (see `token` below)
//! repro optimize --fuse --width int8 --graph-capture --sampler-steps 4
//!                              # suite under one explicit pass config
//! ```
//!
//! The `serve` subcommand runs one scenario on the `mmg-serve`
//! discrete-event cluster simulator — profiler-grounded service curves,
//! a mixed request stream, and a chosen router/scheduler — and prints
//! the per-model latency/SLO report. Flags: `--gpus`, `--mix`
//! (`model:weight,…`), `--arrival` (poisson | bursty | diurnal),
//! `--rate` (requests/s; default targets 0.8 utilization),
//! `--scheduler` (fifo | static | dynamic | pods), `--batch`,
//! `--router` (rr | least-work | affinity), `--slo-ms` (default: 4x
//! each model's own service time), `--duration-s`, `--requests`
//! (arrival cap), `--seed`, `--metrics <path>` (Prometheus dump of the
//! `serve_*` series), `--trace-out <path>` (Perfetto flight-recorder
//! trace: per-GPU batch lanes, scheduler instants, counter tracks), and
//! `--full-records`. One seed fixes the whole sample path, so stdout —
//! and the flight trace — is byte-identical across runs, machines, and
//! job counts.
//!
//! By default `serve` runs in streaming mode: constant memory no matter
//! how many requests are simulated, with report quantiles from a
//! mergeable GK sketch (rank error ≤ 0.001·n + 1, i.e. well inside the
//! printed precision). `--full-records` retains every per-request
//! record and reports exact quantiles — same trajectory, more memory. A
//! perf line (wall seconds, simulated requests/s) goes to stderr so
//! stdout stays byte-deterministic.
//!
//! The `token` subcommand runs one scenario on the token-granularity
//! autoregressive serving engine: GPUs advance in decode *iterations*
//! with continuous (in-flight) batching or run-to-completion static
//! batching, chunked prefill interleaved with decode, and a per-GPU
//! KV-cache ledger balanced against the SKU's HBM budget. Flags:
//! `--model` (llama | parti | muse), `--gpus`, `--arrival`, `--rate`
//! (default: `--util` × cluster capacity from the profiled curve),
//! `--prompt-len` / `--output-len` (median tokens), `--kv-budget`
//! (GiB/GPU; default HBM − weights), `--scheduler`
//! (static | continuous), `--batch`, `--policy` (decode | prefill
//! priority), `--admission` (prompt | reserve), `--chunk`,
//! `--duration-s`, `--requests`, `--seed`, `--metrics-out`,
//! `--trace-out`, `--jobs`. Prints the TTFT/TPOT phase table, the
//! per-GPU KV table, and the goodput line; stdout and the metrics dump
//! are byte-identical for every `--jobs` value.
//!
//! Experiments run on a worker pool (`--jobs`); outputs are printed and
//! telemetry merged in experiment order, so stdout and counter totals
//! are byte-identical for every job count. Randomness is seed-stable
//! too: the only stochastic experiment (Fig. 1's fleet sampler) uses a
//! fixed seed, so two invocations of the same command — serial or
//! parallel, warm or cold memo — produce identical stdout.
//! Every run ends with a
//! run-manifest JSON line: the simulated device, the experiments
//! executed, and final telemetry counter totals. The line is printed
//! to stdout and is deterministic — the wall-clock `elapsed_s` goes to
//! stderr on its own, so byte-comparing two runs' stdout (CI's `--jobs`
//! determinism gate) is a plain `cmp`. With `--manifest <path>` the
//! manifest is written to the file instead, with `elapsed_s` included.

use std::process::ExitCode;
use std::time::Instant;

use mmg_attn::AttnImpl;
use mmg_core::{
    global_memo, run_experiment_value_with, run_experiment_with, run_manifest, run_suite,
    run_suite_with, ExecContext, ExperimentId,
};
use mmg_gpu::DeviceSpec;
use mmg_models::{suite, ModelId};
use mmg_profiler::trace::to_chrome_trace_object;
use mmg_profiler::Profiler;
use serde_json::Value;

fn device_by_name(name: &str) -> Option<DeviceSpec> {
    match name.to_lowercase().as_str() {
        "a100" | "a100-80gb" => Some(DeviceSpec::a100_80gb()),
        "a100-40gb" => Some(DeviceSpec::a100_40gb()),
        "v100" => Some(DeviceSpec::v100_32gb()),
        "h100" => Some(DeviceSpec::h100_80gb()),
        "l4" | "l4-24gb" => Some(DeviceSpec::l4_24gb()),
        "h200" | "h200-141gb" => Some(DeviceSpec::h200_141gb()),
        _ => None,
    }
}

/// Profiles one Stable Diffusion UNet denoising step with per-op cache
/// simulation on the global registry and returns the Perfetto trace
/// object (`{"traceEvents": [...], "displayTimeUnit": "us"}`).
fn unet_step_trace(spec: &DeviceSpec) -> Result<String, String> {
    let pipeline = suite::build(ModelId::StableDiffusion);
    let stage = pipeline
        .stages
        .iter()
        .find(|s| s.name == "unet_step")
        .ok_or_else(|| "StableDiffusion pipeline has no unet_step stage".to_string())?;
    let profiler = Profiler::new(spec.clone(), AttnImpl::Flash).with_cache_sim(20_000);
    Ok(to_chrome_trace_object(&profiler.profile(&stage.graph)))
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {what} to '{path}': {e}"))
}

/// Days-since-epoch → proleptic Gregorian `(year, month, day)`
/// (Howard Hinnant's `civil_from_days`), so the bench snapshot can stamp
/// its filename without a calendar dependency.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn today_stamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let (y, m, d) = civil_from_days(secs.div_euclid(86_400));
    format!("{y:04}-{m:02}-{d:02}")
}

/// Times every experiment serially (sharing the process memo, so later
/// experiments see the warm entries earlier ones created — the shipped
/// behaviour) and writes `{experiment → wall seconds}` plus memo
/// statistics to `path` (default `BENCH_<date>.json`).
fn bench_snapshot(spec: &DeviceSpec, path: Option<String>) -> Result<String, String> {
    let memo = global_memo();
    let ctx = ExecContext::isolated(spec.clone(), memo.clone());
    let started = Instant::now();
    let mut entries = Vec::new();
    for &id in &ExperimentId::ALL {
        let t0 = Instant::now();
        let _ = run_experiment_with(id, &ctx);
        entries.push((id.to_string(), Value::from(t0.elapsed().as_secs_f64())));
    }
    // Serving fast-path figure: one streaming (constant-memory) run of
    // the cluster DES at ~0.8 utilization, sized to ~2M arrivals, so the
    // snapshot tracks simulated-requests-per-second alongside the
    // experiment timings.
    let serve = {
        use mmg_serve::{
            simulate, ArrivalProcess, RequestMix, ScenarioCfg, SchedulerKind, ServiceProfile,
            SloSpec,
        };
        let profiler = ctx.profiler(AttnImpl::Flash);
        let mix = RequestMix::parse("sd:8,parti:2")?;
        let models: Vec<ModelId> = mix.models().collect();
        let profile = ServiceProfile::from_profiler(&profiler, &models, &[1, 2, 4, 8, 16]);
        let rate = 0.8 * 4.0 / profile.mean_base_s(&mix);
        let duration_s = 2_000_000.0 / rate;
        let mut cfg = ScenarioCfg::new(
            4,
            mix,
            ArrivalProcess::poisson(rate),
            SchedulerKind::Dynamic { max_batch: 16 },
            SloSpec::ServiceMultiple(4.0),
            duration_s,
            42,
        );
        cfg.full_records = false;
        let t0 = Instant::now();
        let result = simulate(&cfg, &profile, &ctx.registry);
        let wall_s = t0.elapsed().as_secs_f64();
        Value::Object(vec![
            ("wall_s".to_string(), Value::from(wall_s)),
            ("simulated_requests".to_string(), Value::from(result.arrivals)),
            (
                "requests_per_sec".to_string(),
                Value::from(result.arrivals as f64 / wall_s.max(1e-9)),
            ),
        ])
    };
    // Fleet fast-path figure: the multi-cluster DES on a 128-GPU
    // heterogeneous fleet (8 clusters cycling the four SKUs), Poisson
    // arrivals at ~0.8 offered utilization, FIFO + round-robin so every
    // cluster takes the O(1)-per-request fast lane. Sized to >100M
    // aggregate arrivals — the committed throughput headline.
    let fleet = {
        let t0 = Instant::now();
        let result = run_fleet(
            &FleetRunCfg {
                clusters: 8,
                gpus_per_cluster: 16,
                requests: Some(100_000_000),
                ..FleetRunCfg::default()
            },
            &ctx.registry,
            &memo,
            1,
        )?;
        let wall_s = t0.elapsed().as_secs_f64();
        Value::Object(vec![
            ("wall_s".to_string(), Value::from(wall_s)),
            ("simulated_requests".to_string(), Value::from(result.result.arrivals())),
            (
                "requests_per_sec".to_string(),
                Value::from(result.result.arrivals() as f64 / wall_s.max(1e-9)),
            ),
        ])
    };
    // Token fast-path figure: one run of the token-level (iteration
    // granularity) serving DES — continuous batching on 4 GPUs at ~0.8
    // utilization, sized to >2M decoded tokens — so the snapshot tracks
    // simulated-tokens-per-second alongside the request-level figures.
    let token = {
        use mmg_serve::{
            simulate_token, ArrivalProcess, KvAdmission, KvLedger, LengthDist, PhasePriority,
            TokenBatching, TokenScenarioCfg, TokenServiceCurve, TokenSlo,
        };
        let profiler = ctx.profiler(AttnImpl::Flash);
        let curve = TokenServiceCurve::from_profiler(&profiler, ModelId::Llama2);
        let gpus = 4usize;
        let cap = 32usize;
        let prompt = LengthDist::new(512.0, 0.3, 16, 4096);
        let output = LengthDist::new(128.0, 0.3, 4, 1024);
        let slo = TokenSlo::from_curve(&curve, prompt.mean(), output.mean(), cap);
        let rate = 0.8 * gpus as f64 / curve.request_gpu_s(prompt.mean(), output.mean(), cap);
        let duration_s = 2_000_000.0 / (rate * output.mean());
        let cfg = TokenScenarioCfg {
            gpus,
            model: ModelId::Llama2,
            arrival: ArrivalProcess::poisson(rate),
            batching: TokenBatching::Continuous { max_batch: cap },
            priority: PhasePriority::Decode,
            admission: KvAdmission::Prompt,
            chunk_tokens: 512,
            prompt,
            output,
            slo,
            duration_s,
            max_requests: None,
            seed: 42,
        };
        let budget = KvLedger::default_budget(spec, curve.weight_bytes);
        let t0 = Instant::now();
        let result = simulate_token(&cfg, &curve, budget, &ctx.registry);
        let wall_s = t0.elapsed().as_secs_f64();
        Value::Object(vec![
            ("wall_s".to_string(), Value::from(wall_s)),
            ("simulated_tokens".to_string(), Value::from(result.stats.decoded_tokens)),
            (
                "tokens_per_sec".to_string(),
                Value::from(result.stats.decoded_tokens as f64 / wall_s.max(1e-9)),
            ),
        ])
    };
    // Optimization-pass figure: the all-passes geomean speedup across
    // model families, plus the wall time of re-running the experiment
    // against the now-warm memo. `speedup_all_passes` is gated by
    // bench-check the way the throughput figures are: a drop means a
    // pass stopped firing.
    let optimize_fig = {
        let t0 = Instant::now();
        let r = mmg_core::experiments::optimize::run_ctx(&ctx);
        let wall_s = t0.elapsed().as_secs_f64();
        Value::Object(vec![
            ("wall_s".to_string(), Value::from(wall_s)),
            ("speedup_all_passes".to_string(), Value::from(r.speedup_all_passes)),
        ])
    };
    // Energy figure: the best on-time-requests-per-Wh cell of the
    // power-capped batching frontier, re-run against the warm memo.
    // Gated by bench-check like the throughput figures: a drop means
    // the power model or the energy-optimal batch size shifted, not
    // runner jitter.
    let energy_fig = {
        let t0 = Instant::now();
        let r = mmg_core::experiments::energy::run_ctx(&ctx);
        let wall_s = t0.elapsed().as_secs_f64();
        Value::Object(vec![
            ("wall_s".to_string(), Value::from(wall_s)),
            ("best_good_per_wh".to_string(), Value::from(r.best_good_per_wh)),
        ])
    };
    let snapshot = Value::Object(vec![
        ("date".to_string(), Value::from(today_stamp())),
        ("device".to_string(), Value::from(spec.name.clone())),
        ("experiments".to_string(), Value::Object(entries)),
        ("serve".to_string(), serve),
        ("fleet".to_string(), fleet),
        ("token".to_string(), token),
        ("optimize".to_string(), optimize_fig),
        ("energy".to_string(), energy_fig),
        ("total_s".to_string(), Value::from(started.elapsed().as_secs_f64())),
        (
            "memo".to_string(),
            Value::Object(vec![
                ("hits".to_string(), Value::from(memo.hits())),
                ("misses".to_string(), Value::from(memo.misses())),
                ("entries".to_string(), Value::from(memo.len() as u64)),
            ]),
        ),
    ]);
    let path = path.unwrap_or_else(|| format!("BENCH_{}.json", today_stamp()));
    let body = serde_json::to_string_pretty(&snapshot).expect("snapshots always serialize");
    write_file(&path, &body, "bench snapshot")?;
    Ok(path)
}

/// `repro optimize` — the kernel-graph optimization-pass experiment.
/// With no pass flags, runs the full per-family grid on the suite
/// engine (deterministic for every `--jobs` value). With any of
/// `--fuse`, `--width`, `--graph-capture`, or `--sampler-steps`, runs
/// the suite under exactly that pass configuration and prints the
/// eager-vs-optimized table.
fn optimize_main(args: &[String]) -> Result<(), String> {
    use mmg_core::experiments::optimize;
    use mmg_graph::{ElemWidth, OptConfig};

    let mut spec = DeviceSpec::a100_80gb();
    let mut fuse = false;
    let mut width: Option<ElemWidth> = None;
    let mut graph_capture = false;
    let mut sampler_steps: Option<usize> = None;
    let mut jobs = 1usize;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        if flag == "--fuse" {
            fuse = true;
            continue;
        }
        if flag == "--graph-capture" {
            graph_capture = true;
            continue;
        }
        let value = args
            .get(i)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--device" => {
                spec = device_by_name(value).ok_or_else(|| format!("unknown device '{value}'"))?;
            }
            "--width" => {
                width = Some(match value.to_lowercase().as_str() {
                    "fp16" => ElemWidth::Fp16,
                    "fp8" => ElemWidth::Fp8,
                    "int8" => ElemWidth::Int8,
                    other => return Err(format!("unknown width '{other}'; expected fp16 | fp8 | int8")),
                });
            }
            "--sampler-steps" => {
                sampler_steps = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| "--sampler-steps requires a positive integer".to_string())?,
                );
            }
            "--jobs" => {
                jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--jobs requires a positive integer".to_string())?;
            }
            other => {
                return Err(format!(
                    "unknown optimize flag '{other}'; expected --device | --fuse | --width | --graph-capture | --sampler-steps | --jobs"
                ));
            }
        }
        i += 1;
    }

    let custom = fuse || width.is_some() || graph_capture || sampler_steps.is_some();
    if custom {
        let opt = OptConfig { fuse, width: width.unwrap_or(ElemWidth::Fp16), graph_capture };
        let ctx = ExecContext::shared(spec.clone());
        println!("{}", optimize::render_single(&optimize::run_single_ctx(&ctx, opt, sampler_steps)));
    } else {
        // Full grid through the suite engine: stdout is byte-identical
        // for every --jobs value (one experiment, merged in id order).
        let memo = global_memo();
        let registry = mmg_telemetry::global();
        println!("device: {}\n", spec.name);
        for report in run_suite(&[ExperimentId::Optimize], &spec, jobs, &memo, &registry) {
            println!("{report}");
        }
    }
    Ok(())
}

/// Runs one serving scenario on the `mmg-serve` cluster DES and prints
/// the per-model SLO report. Deterministic: one seed fixes the sample
/// path, so stdout is byte-identical across invocations.
fn serve_main(args: &[String]) -> Result<(), String> {
    use mmg_serve::{
        simulate, simulate_recorded, ArrivalProcess, FlightCfg, RequestMix, ScenarioCfg,
        SchedulerKind, ServiceProfile, SloReport, SloSpec,
    };

    let mut spec = DeviceSpec::a100_80gb();
    let mut gpus = 4usize;
    let mut mix_spec = "sd:8,parti:2".to_string();
    let mut arrival_name = "poisson".to_string();
    let mut rate: Option<f64> = None;
    let mut scheduler_name = "dynamic".to_string();
    let mut batch = 16usize;
    let mut router_name: Option<String> = None;
    let mut slo_ms: Option<f64> = None;
    let mut duration_s = 120.0f64;
    let mut max_requests: Option<u64> = None;
    let mut seed = 42u64;
    let mut metrics_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut full_records = false;
    let mut attrib = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        if flag == "--full-records" {
            full_records = true;
            continue;
        }
        if flag == "--attrib" {
            attrib = true;
            continue;
        }
        let value = args
            .get(i)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--device" => {
                spec = device_by_name(value).ok_or_else(|| format!("unknown device '{value}'"))?;
            }
            "--gpus" => {
                gpus = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--gpus requires a positive integer".to_string())?;
            }
            "--mix" => mix_spec = value.clone(),
            "--arrival" => arrival_name = value.clone(),
            "--rate" => {
                rate = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|r| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| "--rate requires a positive finite number".to_string())?,
                );
            }
            "--scheduler" => scheduler_name = value.clone(),
            "--batch" => {
                batch = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--batch requires a positive integer".to_string())?;
            }
            "--router" => router_name = Some(value.clone()),
            "--slo-ms" => {
                slo_ms = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| "--slo-ms requires a positive number".to_string())?,
                );
            }
            "--duration-s" => {
                duration_s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|d| d.is_finite() && *d > 0.0)
                    .ok_or_else(|| "--duration-s requires a positive finite number".to_string())?;
            }
            "--requests" => {
                max_requests = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| "--requests requires a positive integer".to_string())?,
                );
            }
            "--seed" => {
                seed = value
                    .parse::<u64>()
                    .map_err(|_| "--seed requires a non-negative integer".to_string())?;
            }
            "--metrics" => metrics_path = Some(value.clone()),
            "--metrics-out" => metrics_out = Some(value.clone()),
            "--trace-out" => trace_path = Some(value.clone()),
            "--jobs" => {
                // The scenario DES is inherently serial; the flag exists so
                // determinism harnesses can assert the trace bytes do not
                // depend on the advertised worker count.
                value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--jobs requires a positive integer".to_string())?;
            }
            other => {
                return Err(format!(
                    "unknown serve flag '{other}'; expected --device | --gpus | --mix | --arrival | --rate | --scheduler | --batch | --router | --slo-ms | --duration-s | --requests | --seed | --metrics | --metrics-out | --trace-out | --jobs | --full-records | --attrib"
                ));
            }
        }
        i += 1;
    }

    let mix = RequestMix::parse(&mix_spec)?;
    let scheduler = SchedulerKind::parse(&scheduler_name, batch)?;

    // Service curves come from the real profiler (shared memo + global
    // registry), at power-of-two batch sizes up to the scheduler's cap.
    let ctx = ExecContext::shared(spec.clone());
    let profiler = ctx.profiler(AttnImpl::Flash);
    let models: Vec<ModelId> = mix.models().collect();
    let cap = match scheduler {
        SchedulerKind::Fifo => 1,
        SchedulerKind::Static { batch, .. } => batch,
        SchedulerKind::Dynamic { max_batch } | SchedulerKind::Pods { max_batch } => max_batch,
    };
    let batches: Vec<usize> = (0..).map(|i| 1usize << i).take_while(|&b| b <= cap).collect();
    let mut profile = ServiceProfile::from_profiler(&profiler, &models, &batches);
    if matches!(scheduler, SchedulerKind::Pods { .. }) {
        let factors: Vec<(ModelId, f64)> = models
            .iter()
            .map(|&m| (m, mmg_core::experiments::serve_sweep::pod_factor(&profiler, m)))
            .collect();
        profile = profile.with_pod_factors(&factors);
    }

    let mean_service_s = profile.mean_base_s(&mix);
    let rate = rate.unwrap_or(0.8 * gpus as f64 / mean_service_s);
    let arrival = ArrivalProcess::parse(&arrival_name, rate)?;
    let slo = match slo_ms {
        Some(ms) => SloSpec::FixedS(ms / 1e3),
        None => SloSpec::ServiceMultiple(4.0),
    };
    let mut cfg = ScenarioCfg::new(gpus, mix, arrival, scheduler, slo, duration_s, seed);
    cfg.full_records = full_records;
    cfg.max_requests = max_requests;
    if attrib {
        // Latency attribution plus the SRE-style burn-rate alert engine,
        // budgeted against a 95% on-time objective over the horizon.
        cfg = cfg.with_health(0.95);
    }
    if let Some(name) = &router_name {
        cfg.router = mmg_serve::RouterKind::parse(name)?;
    }

    let sim_started = Instant::now();
    let (result, flight) = if trace_path.is_some() {
        let (result, flight) =
            simulate_recorded(&cfg, &profile, &ctx.registry, FlightCfg::for_horizon(duration_s));
        (result, Some(flight))
    } else {
        (simulate(&cfg, &profile, &ctx.registry), None)
    };
    let sim_wall_s = sim_started.elapsed().as_secs_f64();
    println!(
        "device: {} | gpus: {gpus} | mix: {mix_spec} | arrival: {arrival_name} @ {rate:.3}/s",
        spec.name
    );
    println!(
        "scheduler: {} (batch cap {cap}) | slo: {} | duration: {duration_s}s | seed: {seed}\n",
        scheduler.name(),
        match slo {
            SloSpec::FixedS(s) => format!("{:.0} ms", s * 1e3),
            _ => "4.0x service".to_string(),
        },
    );
    println!("{}", SloReport::from_result(&result).render());
    // Perf to stderr: stdout must stay byte-identical across machines.
    eprintln!(
        "serve: {} arrivals simulated in {sim_wall_s:.3}s wall ({:.0} simulated req/s, {})",
        result.arrivals,
        result.arrivals as f64 / sim_wall_s.max(1e-9),
        if full_records { "full records" } else { "streaming" },
    );
    if let Some(path) = &metrics_path {
        write_file(path, &ctx.registry.render_prometheus(), "metrics")?;
    }
    if let Some(path) = &metrics_out {
        // Extension-dispatched export of the final registry: `.json`
        // gets the structured snapshot, anything else the Prometheus
        // text exposition.
        let body = if path.ends_with(".json") {
            let mut s = serde_json::to_string_pretty(&ctx.registry.snapshot_json())
                .expect("registry snapshots always serialize");
            s.push('\n');
            s
        } else {
            ctx.registry.render_prometheus()
        };
        write_file(path, &body, "metrics")?;
    }
    if let (Some(path), Some(flight)) = (&trace_path, &flight) {
        write_file(path, &flight.to_chrome_trace_object(), "serve flight trace")?;
        eprintln!(
            "flight trace: {} batch spans, {} scheduler events, {} windows",
            flight.batches.len(),
            flight.instants.len(),
            flight.series.iter().count(),
        );
    }
    Ok(())
}

/// Runs one token-level (iteration-granularity) serving scenario on the
/// `mmg-serve::token` engine and prints the TTFT/TPOT/KV report.
/// Deterministic: one seed fixes the sample path, so stdout — and the
/// `--metrics-out` dump — is byte-identical across invocations and
/// `--jobs` values.
fn token_main(args: &[String]) -> Result<(), String> {
    use mmg_serve::{
        parse_model, simulate_token, simulate_token_recorded, ArrivalProcess, FlightCfg,
        KvAdmission, KvLedger, LengthDist, PhasePriority, TokenBatching, TokenReport,
        TokenScenarioCfg, TokenServiceCurve, TokenSlo, GIB,
    };

    let mut spec = DeviceSpec::a100_80gb();
    let mut model_name = "llama".to_string();
    let mut gpus = 2usize;
    let mut arrival_name = "poisson".to_string();
    let mut rate: Option<f64> = None;
    let mut util = 0.8f64;
    let mut prompt_len = 512.0f64;
    let mut output_len = 128.0f64;
    let mut kv_budget_gib: Option<f64> = None;
    let mut scheduler_name = "continuous".to_string();
    let mut batch = 16usize;
    let mut policy_name = "decode".to_string();
    let mut admission_name = "prompt".to_string();
    let mut chunk = 256usize;
    let mut duration_s: Option<f64> = None;
    let mut max_requests: Option<u64> = None;
    let mut seed = 42u64;
    let mut metrics_out: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args
            .get(i)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--device" => {
                spec = device_by_name(value).ok_or_else(|| format!("unknown device '{value}'"))?;
            }
            "--model" => model_name = value.clone(),
            "--gpus" => {
                gpus = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--gpus requires a positive integer".to_string())?;
            }
            "--arrival" => arrival_name = value.clone(),
            "--rate" => {
                rate = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|r| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| "--rate requires a positive finite number".to_string())?,
                );
            }
            "--util" => {
                util = value
                    .parse::<f64>()
                    .ok()
                    .filter(|u| *u > 0.0)
                    .ok_or_else(|| "--util requires a positive fraction".to_string())?;
            }
            "--prompt-len" => {
                prompt_len = value
                    .parse::<f64>()
                    .ok()
                    .filter(|n| *n > 0.0)
                    .ok_or_else(|| "--prompt-len requires a positive number".to_string())?;
            }
            "--output-len" => {
                output_len = value
                    .parse::<f64>()
                    .ok()
                    .filter(|n| *n > 0.0)
                    .ok_or_else(|| "--output-len requires a positive number".to_string())?;
            }
            "--kv-budget" => {
                kv_budget_gib = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|g| *g > 0.0)
                        .ok_or_else(|| "--kv-budget requires a positive GiB count".to_string())?,
                );
            }
            "--scheduler" => scheduler_name = value.clone(),
            "--batch" => {
                batch = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--batch requires a positive integer".to_string())?;
            }
            "--policy" => policy_name = value.clone(),
            "--admission" => admission_name = value.clone(),
            "--chunk" => {
                chunk = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--chunk requires a positive integer".to_string())?;
            }
            "--duration-s" => {
                duration_s = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|d| d.is_finite() && *d > 0.0)
                        .ok_or_else(|| "--duration-s requires a positive finite number".to_string())?,
                );
            }
            "--requests" => {
                max_requests = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| "--requests requires a positive integer".to_string())?,
                );
            }
            "--seed" => {
                seed = value
                    .parse::<u64>()
                    .map_err(|_| "--seed requires a non-negative integer".to_string())?;
            }
            "--metrics-out" => metrics_out = Some(value.clone()),
            "--trace-out" => trace_path = Some(value.clone()),
            "--jobs" => {
                // The token DES is inherently serial; the flag exists so
                // determinism harnesses can assert the report bytes do
                // not depend on the advertised worker count.
                value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--jobs requires a positive integer".to_string())?;
            }
            other => {
                return Err(format!(
                    "unknown token flag '{other}'; expected --device | --model | --gpus | --arrival | --rate | --util | --prompt-len | --output-len | --kv-budget | --scheduler | --batch | --policy | --admission | --chunk | --duration-s | --requests | --seed | --metrics-out | --trace-out | --jobs"
                ));
            }
        }
        i += 1;
    }

    let model = parse_model(&model_name)?;
    if !TokenServiceCurve::supports(model) {
        return Err(format!(
            "model '{model_name}' is not autoregressive; token serving needs llama | parti | muse"
        ));
    }
    let batching = TokenBatching::parse(&scheduler_name, batch)?;
    let priority = PhasePriority::parse(&policy_name)?;
    let admission = KvAdmission::parse(&admission_name)?;

    // The per-step decode and cumulative prefill costs come from the
    // real profiler (shared memo + global registry).
    let ctx = ExecContext::shared(spec.clone());
    let profiler = ctx.profiler(AttnImpl::Flash);
    let curve = TokenServiceCurve::from_profiler(&profiler, model);
    let kv_budget_bytes = match kv_budget_gib {
        Some(g) => (g * GIB) as u64,
        None => KvLedger::default_budget(&spec, curve.weight_bytes),
    };
    let prompt = LengthDist::new(prompt_len, 0.3, 16, 8192);
    let output = LengthDist::new(output_len, 0.3, 1, 4096);
    let cap = batching.cap();
    let slo = TokenSlo::from_curve(&curve, prompt.mean(), output.mean(), cap);
    let rate = rate.unwrap_or_else(|| {
        util * gpus as f64 / curve.request_gpu_s(prompt.mean(), output.mean(), cap)
    });
    let arrival = ArrivalProcess::parse(&arrival_name, rate)?;
    // `--requests` without an explicit horizon sizes the horizon so the
    // realized arrival count reaches the cap (with 0.5% headroom).
    let duration_s = duration_s.unwrap_or_else(|| match max_requests {
        Some(n) => n as f64 / rate * 1.005,
        None => 120.0,
    });
    let cfg = TokenScenarioCfg {
        gpus,
        model,
        arrival,
        batching,
        priority,
        admission,
        chunk_tokens: chunk,
        prompt,
        output,
        slo,
        duration_s,
        max_requests,
        seed,
    };
    cfg.validate()?;

    let sim_started = Instant::now();
    let (result, flight) = if trace_path.is_some() {
        let (result, flight) = simulate_token_recorded(
            &cfg,
            &curve,
            kv_budget_bytes,
            &ctx.registry,
            FlightCfg::for_horizon(duration_s),
        );
        (result, Some(flight))
    } else {
        (simulate_token(&cfg, &curve, kv_budget_bytes, &ctx.registry), None)
    };
    let sim_wall_s = sim_started.elapsed().as_secs_f64();
    println!(
        "device: {} | arrival: {arrival_name} @ {rate:.3}/s | prompt ~{prompt_len:.0} tok | output ~{output_len:.0} tok",
        spec.name
    );
    println!(
        "kv budget: {:.1} GiB/GPU ({}) | chunk: {chunk} tok | duration: {duration_s:.0}s | seed: {seed}\n",
        kv_budget_bytes as f64 / GIB,
        if kv_budget_gib.is_some() { "explicit" } else { "HBM - weights" },
    );
    println!("{}", TokenReport::from_result(&result).render());
    // Perf to stderr: stdout must stay byte-identical across machines.
    eprintln!(
        "token: {} decoded tokens over {} iterations in {sim_wall_s:.3}s wall ({:.0} simulated tok/s)",
        result.stats.decoded_tokens,
        result.stats.iterations,
        result.stats.decoded_tokens as f64 / sim_wall_s.max(1e-9),
    );
    if let Some(path) = &metrics_out {
        // Extension-dispatched export of the final registry: `.json`
        // gets the structured snapshot, anything else the Prometheus
        // text exposition.
        let body = if path.ends_with(".json") {
            let mut s = serde_json::to_string_pretty(&ctx.registry.snapshot_json())
                .expect("registry snapshots always serialize");
            s.push('\n');
            s
        } else {
            ctx.registry.render_prometheus()
        };
        write_file(path, &body, "metrics")?;
    }
    if let (Some(path), Some(flight)) = (&trace_path, &flight) {
        write_file(path, &flight.to_chrome_trace_object(), "token flight trace")?;
        eprintln!(
            "flight trace: {} batch spans, {} scheduler events, {} windows",
            flight.batches.len(),
            flight.instants.len(),
            flight.series.iter().count(),
        );
    }
    Ok(())
}

/// Parameters for one multi-cluster fleet run — shared by the `fleet`
/// subcommand and the bench-snapshot fleet figure.
struct FleetRunCfg {
    /// Cluster count; SKUs cycle a100 → h100 → l4 → h200.
    clusters: usize,
    /// Initially provisioned GPUs per cluster.
    gpus_per_cluster: usize,
    /// Arrival family (`poisson` | `diurnal`; bursty is not splittable).
    arrival_name: String,
    /// Offered fraction of the fleet's aggregate batch-1 capacity.
    utilization: f64,
    /// Explicit fleet-wide rate, requests/s (overrides `utilization`).
    rate: Option<f64>,
    /// Autoscaler policy name (`fixed` | `reactive` | `reactive+spot`).
    policy_name: String,
    /// Expected-arrival target; sizes the horizon as `requests / rate`
    /// (with 0.5% headroom so the realized Poisson count reaches it).
    requests: Option<u64>,
    /// Explicit horizon, seconds (used when `requests` is unset).
    duration_s: f64,
    /// Evaluation windows over the horizon.
    windows: usize,
    /// Per-GPU scheduler (fifo takes the O(1) fast lane).
    scheduler_name: String,
    /// Batch cap for batching schedulers.
    batch: usize,
    /// Fleet seed.
    seed: u64,
}

impl Default for FleetRunCfg {
    fn default() -> Self {
        FleetRunCfg {
            clusters: 4,
            gpus_per_cluster: 16,
            arrival_name: "poisson".to_string(),
            utilization: 0.8,
            rate: None,
            policy_name: "fixed".to_string(),
            requests: None,
            duration_s: 600.0,
            windows: 12,
            scheduler_name: "fifo".to_string(),
            batch: 16,
            seed: 42,
        }
    }
}

/// A completed fleet run: the resolved scenario and its merged result.
struct FleetRun {
    cfg: mmg_serve::FleetCfg,
    result: mmg_serve::FleetResult,
}

/// Builds the heterogeneous fleet (SKUs cycling, capacity-proportional
/// region weights, quarter-period diurnal phase stagger), profiles each
/// SKU once, and shards the simulation by cluster over the
/// [`mmg_core::run_cells_with`] worker pool. Results and telemetry
/// merge in cluster order, so stdout and the metrics snapshot are
/// byte-identical for every `jobs` value.
fn run_fleet(
    rc: &FleetRunCfg,
    registry: &mmg_telemetry::Registry,
    memo: &std::sync::Arc<mmg_profiler::CostMemo>,
    jobs: usize,
) -> Result<FleetRun, String> {
    use mmg_core::experiments::fleet_sweep::{device_for_sku, sku_price_per_gpu_hr, SKUS};
    use mmg_core::experiments::serve_common::profile_mix;
    use mmg_serve::{
        run_cluster, ArrivalProcess, ClusterCfg, FleetCfg, FleetResult, RequestMix, RouterKind,
        SchedulerKind, SloSpec,
    };

    if rc.clusters == 0 {
        return Err("--clusters requires at least one cluster".to_string());
    }
    if rc.windows == 0 {
        return Err("--windows requires at least one window".to_string());
    }
    let scheduler = SchedulerKind::parse(&rc.scheduler_name, rc.batch)?;
    let cap = match scheduler {
        SchedulerKind::Fifo => 1,
        SchedulerKind::Static { batch, .. } => batch,
        SchedulerKind::Dynamic { max_batch } | SchedulerKind::Pods { max_batch } => max_batch,
    };
    let policy = mmg_core::experiments::fleet_sweep::policies()
        .into_iter()
        .find(|p| p.name() == rc.policy_name)
        .ok_or_else(|| {
            format!("unknown policy '{}'; expected fixed | reactive | reactive+spot", rc.policy_name)
        })?;

    // Profile each deployed SKU once, in cycle order, before any cell
    // runs — merge order into `registry` is then independent of `jobs`.
    let mix_str = "sd:8,parti:2";
    let n_skus = rc.clusters.min(SKUS.len());
    let profiled: Vec<_> = SKUS[..n_skus]
        .iter()
        .map(|sku| {
            profile_mix(
                &device_for_sku(sku),
                memo,
                registry,
                mix_str,
                cap,
                matches!(scheduler, SchedulerKind::Pods { .. }),
            )
        })
        .collect();

    // Capacity-proportional weights: every cluster is offered the same
    // relative load despite the SKU service-time spread.
    let mut clusters = Vec::with_capacity(rc.clusters);
    let mut total_capacity = 0.0;
    for i in 0..rc.clusters {
        let sku_idx = i % n_skus;
        let sku = SKUS[sku_idx];
        let capacity = rc.gpus_per_cluster as f64 / profiled[sku_idx].mean_base_s;
        total_capacity += capacity;
        clusters.push(ClusterCfg {
            name: format!("{sku}-{i}"),
            sku: sku.to_string(),
            gpus: rc.gpus_per_cluster,
            price_per_gpu_hr: sku_price_per_gpu_hr(sku),
            weight: capacity,
            phase_s: 0.0, // set below once the arrival period is known
        });
    }
    let rate = match rc.rate {
        Some(r) => r,
        None => rc.utilization * total_capacity,
    };
    let arrival = ArrivalProcess::parse(&rc.arrival_name, rate)?;
    if let ArrivalProcess::Diurnal { period_s, .. } = arrival {
        // Stagger regional peaks evenly across one diurnal period.
        for (i, c) in clusters.iter_mut().enumerate() {
            c.phase_s = period_s * i as f64 / rc.clusters as f64;
        }
    }
    let duration_s = match rc.requests {
        Some(n) => n as f64 / rate * 1.005,
        None => rc.duration_s,
    };

    let cfg = FleetCfg {
        clusters,
        mix: RequestMix::parse(mix_str)?,
        arrival,
        scheduler,
        router: RouterKind::RoundRobin,
        slo: SloSpec::ServiceMultiple(4.0),
        window_s: duration_s / rc.windows as f64,
        windows: rc.windows,
        autoscaler: policy,
        seed: rc.seed,
    };
    cfg.validate()?;

    let spec = DeviceSpec::a100_80gb(); // cell contexts need a spec; clusters use their SKU
    let results = mmg_core::run_cells_with(
        cfg.clusters.len(),
        &spec,
        jobs,
        memo,
        registry,
        |i, cell_ctx| run_cluster(&cfg, i, &profiled[i % n_skus].profile, &cell_ctx.registry),
    );
    Ok(FleetRun { result: FleetResult::from_clusters(results), cfg })
}

/// Runs one multi-cluster fleet scenario, sharded by cluster across the
/// worker pool, and prints the fleet report. Stdout is byte-identical
/// for every `--jobs` value; the perf line goes to stderr.
fn fleet_main(args: &[String]) -> Result<(), String> {
    let mut rc = FleetRunCfg::default();
    let mut jobs = 1usize;
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args
            .get(i)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--clusters" => {
                rc.clusters = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--clusters requires a positive integer".to_string())?;
            }
            "--gpus" => {
                rc.gpus_per_cluster = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--gpus requires a positive integer".to_string())?;
            }
            "--arrival" => rc.arrival_name = value.clone(),
            "--util" => {
                rc.utilization = value
                    .parse::<f64>()
                    .ok()
                    .filter(|u| *u > 0.0)
                    .ok_or_else(|| "--util requires a positive fraction".to_string())?;
            }
            "--rate" => {
                rc.rate = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|r| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| "--rate requires a positive finite number".to_string())?,
                );
            }
            "--policy" => rc.policy_name = value.clone(),
            "--requests" => {
                rc.requests = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| "--requests requires a positive integer".to_string())?,
                );
            }
            "--duration-s" => {
                rc.duration_s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|d| d.is_finite() && *d > 0.0)
                    .ok_or_else(|| "--duration-s requires a positive finite number".to_string())?;
            }
            "--windows" => {
                rc.windows = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--windows requires a positive integer".to_string())?;
            }
            "--scheduler" => rc.scheduler_name = value.clone(),
            "--batch" => {
                rc.batch = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--batch requires a positive integer".to_string())?;
            }
            "--seed" => {
                rc.seed = value
                    .parse::<u64>()
                    .map_err(|_| "--seed requires a non-negative integer".to_string())?;
            }
            "--jobs" => {
                jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--jobs requires a positive integer".to_string())?;
            }
            "--metrics-out" => metrics_out = Some(value.clone()),
            other => {
                return Err(format!(
                    "unknown fleet flag '{other}'; expected --clusters | --gpus | --arrival | --util | --rate | --policy | --requests | --duration-s | --windows | --scheduler | --batch | --seed | --jobs | --metrics-out"
                ));
            }
        }
        i += 1;
    }

    let registry = mmg_telemetry::Registry::new();
    let memo = global_memo();
    let sim_started = Instant::now();
    let run = run_fleet(&rc, &registry, &memo, jobs)?;
    let sim_wall_s = sim_started.elapsed().as_secs_f64();

    print!("{}", mmg_serve::FleetReport::new(&run.cfg, &run.result).render());
    // Perf to stderr: stdout must stay byte-identical across machines
    // and job counts.
    eprintln!(
        "fleet: {} arrivals across {} clusters simulated in {sim_wall_s:.3}s wall ({:.0} aggregate simulated req/s)",
        run.result.arrivals(),
        run.cfg.clusters.len(),
        run.result.arrivals() as f64 / sim_wall_s.max(1e-9),
    );
    if let Some(path) = &metrics_out {
        let body = if path.ends_with(".json") {
            let mut s = serde_json::to_string_pretty(&registry.snapshot_json())
                .expect("registry snapshots always serialize");
            s.push('\n');
            s
        } else {
            registry.render_prometheus()
        };
        write_file(path, &body, "metrics")?;
    }
    Ok(())
}

/// `repro bench-check <old> <new>` — compare two `bench-snapshot`
/// outputs and exit nonzero when any figure regressed.
fn bench_check_main(args: &[String]) -> Result<bool, String> {
    use mmg_core::benchcheck;

    let mut threshold = benchcheck::DEFAULT_THRESHOLD;
    let mut min_wall_s = benchcheck::DEFAULT_MIN_WALL_S;
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--threshold" | "--min-wall-s" => {
                i += 1;
                let parsed = args
                    .get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| *v >= 0.0)
                    .ok_or_else(|| format!("{arg} requires a non-negative number"))?;
                if arg == "--threshold" {
                    threshold = parsed;
                } else {
                    min_wall_s = parsed;
                }
            }
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown bench-check flag '{other}'; expected --threshold | --min-wall-s"
                ));
            }
            _ => paths.push(&args[i]),
        }
        i += 1;
    }
    let [old_path, new_path] = paths[..] else {
        return Err(
            "usage: repro bench-check <old.json> <new.json> [--threshold <frac>] [--min-wall-s <s>]"
                .to_string(),
        );
    };
    let read = |path: &String| -> Result<serde_json::Value, String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read snapshot {path}: {e}"))?;
        serde_json::from_str(&body).map_err(|e| format!("snapshot {path} is not valid JSON: {e}"))
    };
    let old = read(old_path)?;
    let new = read(new_path)?;
    let check = benchcheck::compare(&old, &new, threshold, min_wall_s);
    print!("{}", benchcheck::render(&check));
    Ok(check.regressed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `repro optimize` with any pass flag takes the dedicated
    // single-configuration path; a bare `repro optimize` flows through
    // the generic experiment loop below (full grid, --jobs/--json/...).
    let opt_flags = ["--fuse", "--width", "--graph-capture", "--sampler-steps"];
    if args.first().map(String::as_str) == Some("optimize")
        && args.iter().any(|a| opt_flags.contains(&a.as_str()))
    {
        return match optimize_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("serve") {
        return match serve_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("token") {
        return match token_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("fleet") {
        return match fleet_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("bench-check") {
        return match bench_check_main(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut spec = DeviceSpec::a100_80gb();
    let mut json = false;
    let mut bench = false;
    let mut replications: Option<u64> = None;
    let mut sweep_seed = 42u64;
    let mut jobs: Option<usize> = None;
    let mut out_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut manifest_path: Option<String> = None;
    let mut targets: Vec<ExperimentId> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for e in ExperimentId::ALL {
                    println!("{e}");
                }
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--device" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!(
                        "--device requires a name (a100 | a100-40gb | v100 | h100 | l4 | h200)"
                    );
                    return ExitCode::FAILURE;
                };
                let Some(d) = device_by_name(name) else {
                    eprintln!("unknown device '{name}'");
                    return ExitCode::FAILURE;
                };
                spec = d;
            }
            "--jobs" => {
                i += 1;
                let parsed = args.get(i).and_then(|n| n.parse::<usize>().ok());
                let Some(n) = parsed.filter(|&n| n > 0) else {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                };
                jobs = Some(n);
            }
            "--replications" => {
                i += 1;
                let parsed = args.get(i).and_then(|n| n.parse::<u64>().ok());
                let Some(n) = parsed.filter(|&n| n > 0) else {
                    eprintln!("--replications requires a positive integer");
                    return ExitCode::FAILURE;
                };
                replications = Some(n);
            }
            "--sweep-seed" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|n| n.parse::<u64>().ok()) else {
                    eprintln!("--sweep-seed requires a non-negative integer");
                    return ExitCode::FAILURE;
                };
                sweep_seed = n;
            }
            flag @ ("--metrics" | "--trace-out" | "--manifest" | "--out") => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("{flag} requires an output path");
                    return ExitCode::FAILURE;
                };
                match flag {
                    "--metrics" => metrics_path = Some(path.clone()),
                    "--trace-out" => trace_path = Some(path.clone()),
                    "--out" => out_path = Some(path.clone()),
                    _ => manifest_path = Some(path.clone()),
                }
            }
            "bench-snapshot" => bench = true,
            "all" => targets.extend(ExperimentId::ALL),
            other => match other.parse::<ExperimentId>() {
                Ok(id) => targets.push(id),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
        }
        i += 1;
    }
    if bench {
        return match bench_snapshot(&spec, out_path) {
            Ok(path) => {
                eprintln!("bench snapshot written to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    // Repeated targets (e.g. `repro fig6 all`) run once, first-mention order.
    let mut seen = std::collections::HashSet::new();
    targets.retain(|id| seen.insert(*id));
    if let Some(reps) = replications {
        // Replicated serving sweep: seed × scheduler × utilization grid
        // on the worker pool, deterministic for every --jobs.
        if !targets.iter().all(|&t| t == ExperimentId::ServeSweep) {
            eprintln!("--replications applies only to the serve-sweep target");
            return ExitCode::FAILURE;
        }
        let jobs = jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        });
        let started = Instant::now();
        let memo = global_memo();
        let registry = mmg_telemetry::global();
        let result = mmg_core::experiments::serve_sweep::run_replicated(
            &spec, reps, sweep_seed, jobs, &memo, &registry,
        );
        println!("device: {}\n", spec.name);
        println!("{}", mmg_core::experiments::serve_sweep::render_replicated(&result));
        let targets = [ExperimentId::ServeSweep];
        if let Err(e) =
            emit_manifest(&spec, &targets, started.elapsed().as_secs_f64(), &registry, &manifest_path)
        {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    if targets.is_empty() {
        eprintln!("usage: repro [--device <name>] [--jobs <n>] [--json] [--metrics <path>] [--trace-out <path>] [--manifest <path>] [--replications <n> [--sweep-seed <n>]] <bench-snapshot | all | fig1 | table1 | fig4 | fig5 | fig6 | table2 | table3 | fig7 | fig8 | fig9 | fig11 | fig12 | fig13 | secv | flashdec | optimize | pods | batch | tp | ablations | serve-sweep | serve-timeline | serve-attrib | fleet-sweep | token-sweep | energy>…");
        eprintln!("       repro optimize [--device <name>] [--fuse] [--width <fp16|fp8|int8>] [--graph-capture] [--sampler-steps <n>] [--jobs <n>]");
        eprintln!("       repro serve [--device <name>] [--gpus <n>] [--mix <model:weight,…>] [--arrival <poisson|bursty|diurnal>] [--rate <rps>] [--scheduler <fifo|static|dynamic|pods>] [--batch <n>] [--router <rr|least-work|affinity>] [--slo-ms <ms>] [--duration-s <s>] [--requests <n>] [--seed <n>] [--metrics <path>] [--metrics-out <path>] [--trace-out <path>] [--jobs <n>] [--full-records] [--attrib]");
        eprintln!("       repro fleet [--clusters <n>] [--gpus <per-cluster>] [--arrival <poisson|diurnal>] [--util <frac>] [--rate <rps>] [--policy <fixed|reactive|reactive+spot>] [--requests <n>] [--duration-s <s>] [--windows <n>] [--scheduler <fifo|static|dynamic|pods>] [--batch <n>] [--seed <n>] [--jobs <n>] [--metrics-out <path>]");
        eprintln!("       repro token [--device <name>] [--model <llama|parti|muse>] [--gpus <n>] [--arrival <poisson|bursty|diurnal>] [--rate <rps>] [--util <frac>] [--prompt-len <tokens>] [--output-len <tokens>] [--kv-budget <gib>] [--scheduler <static|continuous>] [--batch <n>] [--policy <decode|prefill>] [--admission <prompt|reserve>] [--chunk <tokens>] [--duration-s <s>] [--requests <n>] [--seed <n>] [--metrics-out <path>] [--trace-out <path>] [--jobs <n>]");
        eprintln!("       repro bench-check <old.json> <new.json> [--threshold <frac>] [--min-wall-s <s>]");
        return ExitCode::FAILURE;
    }
    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    });
    let started = Instant::now();
    let memo = global_memo();
    let registry = mmg_telemetry::global();
    // Experiments run on the worker pool; printing and telemetry merge
    // happen in target order after the join, so stdout and counter
    // totals do not depend on `--jobs`.
    if json {
        let lines = run_suite_with(&targets, &spec, jobs, &memo, &registry, |id, ctx| {
            let envelope = Value::Object(vec![
                ("experiment".to_string(), Value::from(id.to_string())),
                ("result".to_string(), run_experiment_value_with(id, ctx)),
            ]);
            serde_json::to_string(&envelope).expect("experiment envelopes always serialize")
        });
        for line in lines {
            println!("{line}");
        }
    } else {
        println!("device: {}\n", spec.name);
        for report in run_suite(&targets, &spec, jobs, &memo, &registry) {
            println!("{report}");
        }
    }
    if let Some(path) = &trace_path {
        let trace = match unet_step_trace(&spec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = write_file(path, &trace, "Chrome trace") {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let registry = mmg_telemetry::global();
    if let Some(path) = &metrics_path {
        if let Err(e) = write_file(path, &registry.render_prometheus(), "metrics") {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = emit_manifest(&spec, &targets, started.elapsed().as_secs_f64(), &registry, &manifest_path) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Emits the end-of-run manifest. Default: the deterministic form (no
/// wall clock) on stdout — byte-identical for every `--jobs`, so CI's
/// determinism gates compare with plain `cmp` — and `elapsed_s` alone
/// on stderr. With `--manifest <path>`, the full manifest (wall clock
/// included) goes to the file and nothing extra is printed.
fn emit_manifest(
    spec: &DeviceSpec,
    targets: &[ExperimentId],
    elapsed_s: f64,
    registry: &mmg_telemetry::Registry,
    manifest_path: &Option<String>,
) -> Result<(), String> {
    match manifest_path {
        Some(path) => {
            let manifest = run_manifest(spec, targets, Some(elapsed_s), registry);
            let line =
                serde_json::to_string(&manifest).expect("run manifests always serialize");
            write_file(path, &line, "run manifest")
        }
        None => {
            let manifest = run_manifest(spec, targets, None, registry);
            let line =
                serde_json::to_string(&manifest).expect("run manifests always serialize");
            println!("{line}");
            eprintln!("{{\"elapsed_s\":{elapsed_s}}}");
            Ok(())
        }
    }
}
