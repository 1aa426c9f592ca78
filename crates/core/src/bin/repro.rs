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
//! repro serve --gpus 4 --mix sd:8,parti:2 --scheduler dynamic --slo-ms 2000
//!                              # serving-cluster DES (see `serve` below)
//! repro token --model llama --gpus 2 --scheduler continuous --util 0.8
//!                              # token-level serving DES (see `token` below)
//! repro optimize --fuse --width int8 --graph-capture --sampler-steps 4
//!                              # suite under one explicit pass config
//! ```
//!
//! Every entry point checks its arguments against one flag table;
//! `repro` with no target prints the usage block generated from those
//! tables, which names every flag and the values it takes.
//!
//! The `serve` subcommand runs one scenario on the `mmg-serve`
//! discrete-event cluster simulator — profiler-grounded service curves,
//! a mixed request stream, and a chosen router/scheduler — and prints
//! the per-model latency/SLO report. `--rate` defaults to 0.8
//! utilization, `--slo-ms` to 4x each model's own service time, and
//! `--requests` caps arrivals. `--metrics-out` dumps the registry (for
//! a `.json` path the JSON snapshot, the only dump for which profiled
//! ops are captured as spans; else the Prometheus text of the `serve_*`
//! series) and `--trace-out` the Perfetto flight-recorder
//! trace (per-GPU batch lanes, scheduler instants, counter tracks). One
//! seed fixes the whole sample path, so stdout — and the flight trace —
//! is byte-identical across runs and machines.
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
//! KV-cache ledger balanced against the SKU's HBM budget. `--rate`
//! defaults to `--util` × cluster capacity from the profiled curve,
//! `--prompt-len` / `--output-len` are median tokens, and `--kv-budget`
//! is GiB per GPU (default HBM − weights). Prints the TTFT/TPOT phase
//! table, the per-GPU KV table, and the goodput line; stdout and the
//! metrics dump are byte-identical across runs.
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
//! stderr on its own, so byte-comparing two runs' stdout (the `--jobs`
//! determinism tests) is a plain string compare. With `--manifest <path>` the
//! manifest is written to the file instead, with `elapsed_s` included.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mmg_attn::AttnImpl;
use mmg_core::{
    run_experiment_value_with, run_manifest, run_suite, run_suite_with, ExecContext, ExperimentId,
};
use mmg_gpu::DeviceSpec;
use mmg_models::{suite, ModelId};
use mmg_profiler::trace::to_chrome_trace_object;
use mmg_profiler::{CostMemo, Profiler};
use mmg_serve::FlightRecorder;
use mmg_telemetry::Registry;
use serde_json::Value;
use Kind::{Count, Device, Positive, Seed, Switch, Text};

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

/// What a flag's value must be. Each kind owns one error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Takes no value.
    Switch,
    /// A `usize` of at least 1.
    Count,
    /// Any `u64`.
    Seed,
    /// A finite `f64` above 0.
    Positive,
    /// A simulated device name, resolved by [`device_by_name`].
    Device,
    /// Any text; the entry point checks it.
    Text,
}

/// A value that passed its [`Kind`]'s check.
enum Val<'a> {
    On,
    Count(usize),
    Seed(u64),
    Num(f64),
    Device(DeviceSpec),
    Text(&'a str),
}

impl Kind {
    /// Checks `v` as the value of `flag`.
    fn check<'a>(self, flag: &str, v: &'a str) -> Result<Val<'a>, String> {
        let num = v.parse::<f64>().ok().filter(|x| x.is_finite());
        let (val, wants) = match self {
            Switch => unreachable!("switches take no value"),
            Count => (v.parse().ok().filter(|&n| n > 0).map(Val::Count), "a positive integer"),
            Seed => (v.parse().ok().map(Val::Seed), "a non-negative integer"),
            Positive => (num.filter(|&x| x > 0.0).map(Val::Num), "a positive finite number"),
            Device => {
                let device = device_by_name(v).map(Val::Device);
                return device.ok_or_else(|| format!("unknown device '{v}'"));
            }
            Text => (Some(Val::Text(v)), ""),
        };
        val.ok_or_else(|| format!("{flag} requires {wants}"))
    }
}

/// One `repro` entry point: its flag table, as `(flag, kind, usage
/// placeholder)` rows, and the usage text of its operands (empty when
/// it takes none).
struct Cmd {
    name: &'static str,
    operands: &'static str,
    flags: &'static [(&'static str, Kind, &'static str)],
}

/// The experiment suite (every invocation no subcommand claims).
const SUITE: Cmd = Cmd {
    name: "repro",
    operands: "<all | <experiment>>…",
    flags: &[
        ("--device", Device, "name"),
        ("--jobs", Count, "n"),
        ("--json", Switch, ""),
        ("--list", Switch, ""),
        ("--metrics", Text, "path"),
        ("--trace-out", Text, "path"),
        ("--manifest", Text, "path"),
        ("--replications", Count, "n"),
        ("--sweep-seed", Seed, "n"),
    ],
};

/// `repro optimize` with a pass flag: one explicit pass configuration.
const OPTIMIZE: Cmd = Cmd {
    name: "optimize",
    operands: "",
    flags: &[
        ("--device", Device, "name"),
        ("--fuse", Switch, ""),
        ("--width", Text, "fp16|fp8|int8"),
        ("--graph-capture", Switch, ""),
        ("--sampler-steps", Count, "n"),
    ],
};

const SERVE: Cmd = Cmd {
    name: "serve",
    operands: "",
    flags: &[
        ("--device", Device, "name"),
        ("--gpus", Count, "n"),
        ("--mix", Text, "model:weight,…"),
        ("--arrival", Text, "poisson|bursty|diurnal"),
        ("--rate", Positive, "rps"),
        ("--scheduler", Text, "fifo|static|dynamic|pods"),
        ("--batch", Count, "n"),
        ("--router", Text, "rr|least-work|affinity"),
        ("--slo-ms", Positive, "ms"),
        ("--duration-s", Positive, "s"),
        ("--requests", Count, "n"),
        ("--seed", Seed, "n"),
        ("--metrics-out", Text, "path"),
        ("--trace-out", Text, "path"),
        ("--full-records", Switch, ""),
        ("--attrib", Switch, ""),
    ],
};

const FLEET: Cmd = Cmd {
    name: "fleet",
    operands: "",
    flags: &[
        ("--clusters", Count, "n"),
        ("--gpus", Count, "per-cluster"),
        ("--arrival", Text, "poisson|diurnal"),
        ("--util", Positive, "frac"),
        ("--rate", Positive, "rps"),
        ("--policy", Text, "fixed|reactive|reactive+spot"),
        ("--requests", Count, "n"),
        ("--duration-s", Positive, "s"),
        ("--windows", Count, "n"),
        ("--scheduler", Text, "fifo|static|dynamic|pods"),
        ("--batch", Count, "n"),
        ("--seed", Seed, "n"),
        ("--jobs", Count, "n"),
        ("--metrics-out", Text, "path"),
    ],
};

const TOKEN: Cmd = Cmd {
    name: "token",
    operands: "",
    flags: &[
        ("--device", Device, "name"),
        ("--model", Text, "llama|parti|muse"),
        ("--gpus", Count, "n"),
        ("--arrival", Text, "poisson|bursty|diurnal"),
        ("--rate", Positive, "rps"),
        ("--util", Positive, "frac"),
        ("--prompt-len", Positive, "tokens"),
        ("--output-len", Positive, "tokens"),
        ("--kv-budget", Positive, "gib"),
        ("--scheduler", Text, "static|continuous"),
        ("--batch", Count, "n"),
        ("--policy", Text, "decode|prefill"),
        ("--admission", Text, "prompt|reserve"),
        ("--chunk", Count, "tokens"),
        ("--duration-s", Positive, "s"),
        ("--requests", Count, "n"),
        ("--seed", Seed, "n"),
        ("--metrics-out", Text, "path"),
        ("--trace-out", Text, "path"),
    ],
};

/// Every entry point, in usage order.
const COMMANDS: [&Cmd; 5] = [&SUITE, &OPTIMIZE, &SERVE, &FLEET, &TOKEN];

/// `cmd`'s usage line.
fn usage_line(cmd: &Cmd) -> String {
    let mut line = String::from("repro");
    if cmd.name != SUITE.name {
        line += " ";
        line += cmd.name;
    }
    for &(flag, kind, placeholder) in cmd.flags {
        line += &match kind {
            Switch => format!(" [{flag}]"),
            _ => format!(" [{flag} <{placeholder}>]"),
        };
    }
    if !cmd.operands.is_empty() {
        line += " ";
        line += cmd.operands;
    }
    line
}

/// The usage block: one line per entry point, then the experiment ids.
fn usage() -> String {
    let lines: Vec<String> = COMMANDS.iter().map(|cmd| usage_line(cmd)).collect();
    let ids: Vec<String> = ExperimentId::ALL.iter().map(ToString::to_string).collect();
    format!("usage: {}\n<experiment>: {}", lines.join("\n       "), ids.join(" | "))
}

/// Arguments checked against one [`Cmd`] table: a value per row (the
/// last one given wins) and the operands in order.
struct Flags<'a> {
    cmd: &'static Cmd,
    values: Vec<Option<Val<'a>>>,
    operands: Vec<&'a str>,
}

/// Checks `args` against `cmd`'s table. An argument that is not a flag
/// in the table is an operand when `cmd` takes operands and does not
/// start with `--`; otherwise it is refused.
fn parse<'a>(cmd: &'static Cmd, args: &'a [String]) -> Result<Flags<'a>, String> {
    let values = cmd.flags.iter().map(|_| None).collect();
    let mut out = Flags { cmd, values, operands: Vec::new() };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(row) = cmd.flags.iter().position(|&(flag, ..)| flag == arg) else {
            if cmd.operands.is_empty() || arg.starts_with("--") {
                let names: Vec<&str> = cmd.flags.iter().map(|&(flag, ..)| flag).collect();
                return Err(format!(
                    "unknown {} flag '{arg}'; expected {}",
                    cmd.name,
                    names.join(" | ")
                ));
            }
            out.operands.push(arg);
            continue;
        };
        let (flag, kind, _) = cmd.flags[row];
        out.values[row] = Some(if kind == Switch {
            Val::On
        } else {
            let v = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
            kind.check(flag, v)?
        });
    }
    Ok(out)
}

impl<'a> Flags<'a> {
    /// The value given for `flag`, read through `pick`. Panics when
    /// `flag` is not in the table or `pick` does not fit its kind: both
    /// are bugs in the caller.
    fn get<T>(&self, flag: &str, pick: fn(&Val<'a>) -> Option<T>) -> Option<T> {
        let row = self.cmd.flags.iter().position(|&(f, ..)| f == flag);
        let row = row.unwrap_or_else(|| panic!("{flag} is not a {} flag", self.cmd.name));
        let value = self.values[row].as_ref()?;
        Some(pick(value).unwrap_or_else(|| panic!("{flag} read as the wrong kind")))
    }

    fn switch(&self, flag: &str) -> bool {
        self.get(flag, |v| matches!(v, Val::On).then_some(())).is_some()
    }

    fn count(&self, flag: &str) -> Option<usize> {
        self.get(flag, |v| if let Val::Count(n) = v { Some(*n) } else { None })
    }

    fn seed(&self, flag: &str) -> Option<u64> {
        self.get(flag, |v| if let Val::Seed(n) = v { Some(*n) } else { None })
    }

    fn num(&self, flag: &str) -> Option<f64> {
        self.get(flag, |v| if let Val::Num(x) = v { Some(*x) } else { None })
    }

    fn device(&self) -> Option<DeviceSpec> {
        self.get("--device", |v| if let Val::Device(d) = v { Some(d.clone()) } else { None })
    }

    fn text(&self, flag: &str) -> Option<&'a str> {
        self.get(flag, |v| if let Val::Text(s) = v { Some(*s) } else { None })
    }
}

/// Profiles one Stable Diffusion UNet denoising step with per-op cache
/// simulation and returns the Perfetto trace object
/// (`{"traceEvents": [...], "displayTimeUnit": "us"}`). The step's
/// telemetry lands in `registry`, the run's own.
fn unet_step_trace(spec: &DeviceSpec, registry: &Registry) -> Result<String, String> {
    let pipeline = suite::build(ModelId::StableDiffusion);
    let stage = pipeline
        .stages
        .iter()
        .find(|s| s.name == "unet_step")
        .ok_or_else(|| "StableDiffusion pipeline has no unet_step stage".to_string())?;
    let profiler =
        Profiler::with_registry(spec.clone(), AttnImpl::Flash, registry).with_cache_sim(20_000);
    Ok(to_chrome_trace_object(&profiler.profile(&stage.graph)))
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {what} to '{path}': {e}"))
}

/// Whether a `--metrics-out` path gets the JSON snapshot, the only
/// dump that carries spans; any other path gets Prometheus text.
fn is_json(path: &str) -> bool {
    path.ends_with(".json")
}

/// Turns span capture on in `registry` when `--metrics-out` asks for the
/// JSON snapshot. Spans are recorded as ops are profiled, so this runs
/// before any profiling.
fn capture_spans_for(metrics_out: Option<&str>, registry: &Registry) {
    if metrics_out.is_some_and(is_json) {
        registry.set_span_capture(true);
    }
}

/// Writes `registry` to `path`: the JSON snapshot for a `.json` path,
/// the Prometheus text exposition otherwise.
fn write_metrics(path: &str, registry: &Registry) -> Result<(), String> {
    let body = if is_json(path) {
        let mut s = serde_json::to_string_pretty(&registry.snapshot_json())
            .expect("registry snapshots always serialize");
        s.push('\n');
        s
    } else {
        registry.render_prometheus()
    };
    write_file(path, &body, "metrics")
}

/// Writes a serving flight recorder's Perfetto trace to `path` and its
/// size to stderr.
fn write_flight_trace(path: &str, flight: &FlightRecorder, what: &str) -> Result<(), String> {
    write_file(path, &flight.to_chrome_trace_object(), what)?;
    eprintln!(
        "flight trace: {} batch spans, {} scheduler events, {} windows",
        flight.batches.len(),
        flight.instants.len(),
        flight.series.iter().count(),
    );
    Ok(())
}

/// `repro optimize` with any of `--fuse`, `--width`, `--graph-capture`
/// or `--sampler-steps`: runs the suite under exactly that pass
/// configuration and prints the eager-vs-optimized table. Without a
/// pass flag, `repro optimize` is the suite's full per-family grid.
fn optimize_main(args: &[String]) -> Result<(), String> {
    use mmg_core::experiments::optimize;
    use mmg_graph::{ElemWidth, OptConfig};

    let f = parse(&OPTIMIZE, args)?;
    let width = match f.text("--width").map(str::to_lowercase).as_deref() {
        None | Some("fp16") => ElemWidth::Fp16,
        Some("fp8") => ElemWidth::Fp8,
        Some("int8") => ElemWidth::Int8,
        Some(other) => return Err(format!("unknown width '{other}'; expected fp16 | fp8 | int8")),
    };
    let opt =
        OptConfig { fuse: f.switch("--fuse"), width, graph_capture: f.switch("--graph-capture") };
    let spec = f.device().unwrap_or_else(DeviceSpec::a100_80gb);
    let ctx = ExecContext::isolated(spec, Arc::new(CostMemo::new()));
    let result = optimize::run_single_ctx(&ctx, opt, f.count("--sampler-steps"));
    println!("{}", optimize::render_single(&result));
    Ok(())
}

/// Runs one serving scenario on the `mmg-serve` cluster DES and prints
/// the per-model SLO report. Deterministic: one seed fixes the sample
/// path, so stdout is byte-identical across invocations.
fn serve_main(args: &[String]) -> Result<(), String> {
    use mmg_serve::{
        simulate, simulate_recorded, ArrivalProcess, FlightCfg, RequestMix, RouterKind,
        ScenarioCfg, SchedulerKind, ServiceProfile, SloReport, SloSpec,
    };

    let f = parse(&SERVE, args)?;
    let spec = f.device().unwrap_or_else(DeviceSpec::a100_80gb);
    let gpus = f.count("--gpus").unwrap_or(4);
    let mix_spec = f.text("--mix").unwrap_or("sd:8,parti:2");
    let arrival_name = f.text("--arrival").unwrap_or("poisson");
    let duration_s = f.num("--duration-s").unwrap_or(120.0);
    let seed = f.seed("--seed").unwrap_or(42);
    let full_records = f.switch("--full-records");
    let trace_path = f.text("--trace-out");

    let mix = RequestMix::parse(mix_spec)?;
    let scheduler = SchedulerKind::parse(
        f.text("--scheduler").unwrap_or("dynamic"),
        f.count("--batch").unwrap_or(16),
    )?;

    // Service curves come from the real profiler (the run's own memo and
    // registry), at power-of-two batch sizes up to the scheduler's cap.
    let ctx = ExecContext::isolated(spec.clone(), Arc::new(CostMemo::new()));
    capture_spans_for(f.text("--metrics-out"), &ctx.registry);
    let profiler = ctx.profiler(AttnImpl::Flash);
    let models: Vec<ModelId> = mix.models().collect();
    let cap = scheduler.batch_cap();
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
    let rate = f.num("--rate").unwrap_or(0.8 * gpus as f64 / mean_service_s);
    let arrival = ArrivalProcess::parse(arrival_name, rate)?;
    let slo = match f.num("--slo-ms") {
        Some(ms) => SloSpec::FixedS(ms / 1e3),
        None => SloSpec::ServiceMultiple(4.0),
    };
    let mut cfg = ScenarioCfg::new(gpus, mix, arrival, scheduler, slo, duration_s, seed);
    cfg.full_records = full_records;
    cfg.max_requests = f.count("--requests").map(|n| n as u64);
    cfg.validate()?;
    if f.switch("--attrib") {
        // Latency attribution plus the SRE-style burn-rate alert engine,
        // budgeted against a 95% on-time objective over the horizon.
        cfg = cfg.with_health(0.95);
    }
    if let Some(name) = f.text("--router") {
        cfg.router = RouterKind::parse(name)?;
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
    if let Some(path) = f.text("--metrics-out") {
        write_metrics(path, &ctx.registry)?;
    }
    if let (Some(path), Some(flight)) = (trace_path, &flight) {
        write_flight_trace(path, flight, "serve flight trace")?;
    }
    Ok(())
}

/// Runs one token-level (iteration-granularity) serving scenario on the
/// `mmg-serve::token` engine and prints the TTFT/TPOT/KV report.
/// Deterministic: one seed fixes the sample path, so stdout — and the
/// `--metrics-out` dump — is byte-identical across invocations.
fn token_main(args: &[String]) -> Result<(), String> {
    use mmg_serve::{
        parse_model, simulate_token, simulate_token_recorded, ArrivalProcess, FlightCfg,
        KvAdmission, KvLedger, LengthDist, PhasePriority, TokenBatching, TokenReport,
        TokenScenarioCfg, TokenServiceCurve, TokenSlo, GIB,
    };

    let f = parse(&TOKEN, args)?;
    let spec = f.device().unwrap_or_else(DeviceSpec::a100_80gb);
    let model_name = f.text("--model").unwrap_or("llama");
    let gpus = f.count("--gpus").unwrap_or(2);
    let arrival_name = f.text("--arrival").unwrap_or("poisson");
    let util = f.num("--util").unwrap_or(0.8);
    let prompt_len = f.num("--prompt-len").unwrap_or(512.0);
    let output_len = f.num("--output-len").unwrap_or(128.0);
    let kv_budget_gib = f.num("--kv-budget");
    let chunk = f.count("--chunk").unwrap_or(256);
    let max_requests = f.count("--requests").map(|n| n as u64);
    let seed = f.seed("--seed").unwrap_or(42);
    let trace_path = f.text("--trace-out");

    let model = parse_model(model_name)?;
    if !TokenServiceCurve::supports(model) {
        return Err(format!(
            "model '{model_name}' is not autoregressive; token serving needs llama | parti | muse"
        ));
    }
    let batching = TokenBatching::parse(
        f.text("--scheduler").unwrap_or("continuous"),
        f.count("--batch").unwrap_or(16),
    )?;
    let priority = PhasePriority::parse(f.text("--policy").unwrap_or("decode"))?;
    let admission = KvAdmission::parse(f.text("--admission").unwrap_or("prompt"))?;

    // The per-step decode and cumulative prefill costs come from the
    // real profiler (the run's own memo and registry).
    let ctx = ExecContext::isolated(spec.clone(), Arc::new(CostMemo::new()));
    capture_spans_for(f.text("--metrics-out"), &ctx.registry);
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
    let rate = f.num("--rate").unwrap_or_else(|| {
        util * gpus as f64 / curve.request_gpu_s(prompt.mean(), output.mean(), cap)
    });
    let arrival = ArrivalProcess::parse(arrival_name, rate)?;
    // `--requests` without an explicit horizon sizes the horizon so the
    // realized arrival count reaches the cap (with 0.5% headroom).
    let duration_s = f.num("--duration-s").unwrap_or_else(|| match max_requests {
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
    cfg.validate_kv_budget(&curve, kv_budget_bytes)?;

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
    if let Some(path) = f.text("--metrics-out") {
        write_metrics(path, &ctx.registry)?;
    }
    if let (Some(path), Some(flight)) = (trace_path, &flight) {
        write_flight_trace(path, flight, "token flight trace")?;
    }
    Ok(())
}

/// Builds the heterogeneous fleet that `fleet`'s flags describe (SKUs
/// cycling a100 → h100 → l4 → h200, capacity-proportional region
/// weights, quarter-period diurnal phase stagger), profiles each SKU
/// once, and shards the simulation by cluster over the
/// [`mmg_core::run_cells_with`] worker pool. Results and telemetry merge
/// in cluster order, so stdout and the metrics snapshot are
/// byte-identical for every `--jobs` value.
fn run_fleet(
    f: &Flags<'_>,
    registry: &Registry,
) -> Result<(mmg_serve::FleetCfg, mmg_serve::FleetResult), String> {
    use mmg_core::experiments::fleet_sweep::{device_for_sku, sku_price_per_gpu_hr, SKUS};
    use mmg_core::experiments::serve_common::profile_mix;
    use mmg_serve::{
        run_cluster, ArrivalProcess, ClusterCfg, FleetCfg, FleetResult, RequestMix, RouterKind,
        SchedulerKind, SloSpec,
    };

    let n_clusters = f.count("--clusters").unwrap_or(4);
    let gpus_per_cluster = f.count("--gpus").unwrap_or(16);
    let windows = f.count("--windows").unwrap_or(12);
    let scheduler = SchedulerKind::parse(
        f.text("--scheduler").unwrap_or("fifo"),
        f.count("--batch").unwrap_or(16),
    )?;
    let policy_name = f.text("--policy").unwrap_or("fixed");
    let policy = mmg_core::experiments::fleet_sweep::policies()
        .into_iter()
        .find(|p| p.name() == policy_name)
        .ok_or_else(|| {
            format!("unknown policy '{policy_name}'; expected fixed | reactive | reactive+spot")
        })?;

    // Profile each deployed SKU once, in cycle order, before any cell
    // runs — merge order into `registry` is then independent of `jobs`.
    let memo = Arc::new(CostMemo::new());
    let mix_str = "sd:8,parti:2";
    let n_skus = n_clusters.min(SKUS.len());
    let profiled: Vec<_> = SKUS[..n_skus]
        .iter()
        .map(|sku| {
            profile_mix(
                &device_for_sku(sku),
                &memo,
                registry,
                mix_str,
                scheduler.batch_cap(),
                matches!(scheduler, SchedulerKind::Pods { .. }),
            )
        })
        .collect();

    // Capacity-proportional weights: every cluster is offered the same
    // relative load despite the SKU service-time spread.
    let mut clusters = Vec::with_capacity(n_clusters);
    let mut total_capacity = 0.0;
    for i in 0..n_clusters {
        let sku_idx = i % n_skus;
        let sku = SKUS[sku_idx];
        let capacity = gpus_per_cluster as f64 / profiled[sku_idx].mean_base_s;
        total_capacity += capacity;
        clusters.push(ClusterCfg {
            name: format!("{sku}-{i}"),
            sku: sku.to_string(),
            gpus: gpus_per_cluster,
            price_per_gpu_hr: sku_price_per_gpu_hr(sku),
            weight: capacity,
            phase_s: 0.0, // set below once the arrival period is known
        });
    }
    let rate = match f.num("--rate") {
        Some(r) => r,
        None => f.num("--util").unwrap_or(0.8) * total_capacity,
    };
    let arrival = ArrivalProcess::parse(f.text("--arrival").unwrap_or("poisson"), rate)?;
    if let ArrivalProcess::Diurnal { period_s, .. } = arrival {
        // Stagger regional peaks evenly across one diurnal period.
        for (i, c) in clusters.iter_mut().enumerate() {
            c.phase_s = period_s * i as f64 / n_clusters as f64;
        }
    }
    // `--requests` sizes the horizon as `requests / rate`, with 0.5%
    // headroom so the realized Poisson count reaches it.
    let duration_s = match f.count("--requests") {
        Some(n) => n as f64 / rate * 1.005,
        None => f.num("--duration-s").unwrap_or(600.0),
    };

    let cfg = FleetCfg {
        clusters,
        mix: RequestMix::parse(mix_str)?,
        arrival,
        scheduler,
        router: RouterKind::RoundRobin,
        slo: SloSpec::ServiceMultiple(4.0),
        window_s: duration_s / windows as f64,
        windows,
        autoscaler: policy,
        seed: f.seed("--seed").unwrap_or(42),
    };
    cfg.validate()?;

    let spec = DeviceSpec::a100_80gb(); // cell contexts need a spec; clusters use their SKU
    let results = mmg_core::run_cells_with(
        cfg.clusters.len(),
        &spec,
        f.count("--jobs").unwrap_or(1),
        &memo,
        registry,
        |i, cell_ctx| run_cluster(&cfg, i, &profiled[i % n_skus].profile, &cell_ctx.registry),
    );
    Ok((cfg, FleetResult::from_clusters(results)))
}

/// Runs one multi-cluster fleet scenario, sharded by cluster across the
/// worker pool, and prints the fleet report. Stdout is byte-identical
/// for every `--jobs` value; the perf line goes to stderr.
fn fleet_main(args: &[String]) -> Result<(), String> {
    let f = parse(&FLEET, args)?;
    let registry = Registry::new();
    capture_spans_for(f.text("--metrics-out"), &registry);
    let sim_started = Instant::now();
    let (cfg, result) = run_fleet(&f, &registry)?;
    let sim_wall_s = sim_started.elapsed().as_secs_f64();

    print!("{}", mmg_serve::FleetReport::new(&cfg, &result).render());
    // Perf to stderr: stdout must stay byte-identical across machines
    // and job counts.
    eprintln!(
        "fleet: {} arrivals across {} clusters simulated in {sim_wall_s:.3}s wall ({:.0} aggregate simulated req/s)",
        result.arrivals(),
        cfg.clusters.len(),
        result.arrivals() as f64 / sim_wall_s.max(1e-9),
    );
    if let Some(path) = f.text("--metrics-out") {
        write_metrics(path, &registry)?;
    }
    Ok(())
}

/// The experiment suite: runs the named targets (or the replicated
/// serving sweep) and ends with the run manifest.
fn suite_main(args: &[String]) -> Result<(), String> {
    use mmg_core::experiments::serve_sweep;

    let f = parse(&SUITE, args)?;
    if f.switch("--list") {
        for e in ExperimentId::ALL {
            println!("{e}");
        }
        return Ok(());
    }
    let spec = f.device().unwrap_or_else(DeviceSpec::a100_80gb);
    let manifest = f.text("--manifest");
    let mut targets: Vec<ExperimentId> = Vec::new();
    for &operand in &f.operands {
        match operand {
            "all" => targets.extend(ExperimentId::ALL),
            other => targets.push(other.parse().map_err(|e| format!("{e}"))?),
        }
    }
    // Repeated targets (e.g. `repro fig6 all`) run once, first-mention order.
    let mut seen = std::collections::HashSet::new();
    targets.retain(|id| seen.insert(*id));
    let jobs = f
        .count("--jobs")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get));
    let started = Instant::now();
    let memo = Arc::new(CostMemo::new());
    // Never freed: the process exit reclaims it at no cost, while
    // dropping its thousands of entries would lengthen every run.
    std::mem::forget(Arc::clone(&memo));
    let registry = Registry::new();
    if let Some(reps) = f.count("--replications") {
        // Replicated serving sweep: seed × scheduler × utilization grid
        // on the worker pool, deterministic for every --jobs.
        if !targets.iter().all(|&t| t == ExperimentId::ServeSweep) {
            return Err("--replications applies only to the serve-sweep target".to_string());
        }
        let seed = f.seed("--sweep-seed").unwrap_or(42);
        let result = serve_sweep::run_replicated(&spec, reps as u64, seed, jobs, &memo, &registry);
        println!("device: {}\n", spec.name);
        println!("{}", serve_sweep::render_replicated(&result));
        return emit_manifest(&spec, &[ExperimentId::ServeSweep], started, &registry, manifest);
    }
    if targets.is_empty() {
        return Err(usage());
    }
    // Experiments run on the worker pool; printing and telemetry merge
    // happen in target order after the join, so stdout and counter
    // totals do not depend on `--jobs`.
    if f.switch("--json") {
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
    if let Some(path) = f.text("--trace-out") {
        write_file(path, &unet_step_trace(&spec, &registry)?, "Chrome trace")?;
    }
    if let Some(path) = f.text("--metrics") {
        write_file(path, &registry.render_prometheus(), "metrics")?;
    }
    emit_manifest(&spec, &targets, started, &registry, manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    // `repro optimize` with a pass flag runs one explicit configuration;
    // a bare `repro optimize` (with --jobs/--json/...) is the suite's
    // full grid.
    let pass_flag = |a: &String| OPTIMIZE.flags.iter().any(|&(f, ..)| f == a && f != "--device");
    let outcome = match args.first().map(String::as_str) {
        Some("optimize") if rest.iter().any(pass_flag) => optimize_main(rest),
        Some("serve") => serve_main(rest),
        Some("token") => token_main(rest),
        Some("fleet") => fleet_main(rest),
        _ => suite_main(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Emits the end-of-run manifest. Default: the deterministic form (no
/// wall clock) on stdout — byte-identical for every `--jobs`, so the
/// determinism tests compare it as a plain string — and `elapsed_s` alone
/// on stderr. With `--manifest <path>`, the full manifest (wall clock
/// included) goes to the file and nothing extra is printed.
fn emit_manifest(
    spec: &DeviceSpec,
    targets: &[ExperimentId],
    started: Instant,
    registry: &Registry,
    manifest_path: Option<&str>,
) -> Result<(), String> {
    let elapsed_s = started.elapsed().as_secs_f64();
    let manifest = run_manifest(spec, targets, manifest_path.map(|_| elapsed_s), registry);
    let line = serde_json::to_string(&manifest).expect("run manifests always serialize");
    match manifest_path {
        Some(path) => write_file(path, &line, "run manifest"),
        None => {
            println!("{line}");
            eprintln!("{{\"elapsed_s\":{elapsed_s}}}");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmd: &'static Cmd, args: &[&str]) -> Result<Flags<'static>, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse(cmd, Vec::leak(args))
    }

    fn refused(cmd: &'static Cmd, args: &[&str]) -> String {
        match run(cmd, args) {
            Ok(_) => panic!("{args:?} must be refused"),
            Err(e) => e,
        }
    }

    #[test]
    fn each_kind_refuses_its_boundary_values() {
        // (table, flag, refused values, message; empty for the device kind)
        let cases: [(&'static Cmd, &str, &[&str], &str); 4] = [
            (&SERVE, "--gpus", &["0", "-1", "inf", "NaN", "1.5"], "a positive integer"),
            (&SERVE, "--seed", &["-1", "inf", "NaN", "1e3"], "a non-negative integer"),
            (&SERVE, "--rate", &["0", "-1", "inf", "-inf", "NaN"], "a positive finite number"),
            (&SERVE, "--device", &["0", "-1", "inf", "NaN"], ""),
        ];
        for (cmd, flag, bad, wants) in cases {
            for v in bad {
                let want = match wants {
                    "" => format!("unknown device '{v}'"),
                    _ => format!("{flag} requires {wants}"),
                };
                assert_eq!(refused(cmd, &[flag, v]), want);
            }
            assert_eq!(refused(cmd, &[flag]), format!("{flag} requires a value"));
        }

        let ok = run(&SERVE, &["--gpus", "1", "--seed", "0", "--rate", "1e-9", "--device", "H100"])
            .expect("boundary values are accepted");
        assert_eq!(ok.count("--gpus"), Some(1));
        assert_eq!(ok.seed("--seed"), Some(0));
        assert_eq!(ok.num("--rate"), Some(1e-9));
        assert_eq!(ok.device().map(|d| d.name), Some(DeviceSpec::h100_80gb().name));
        assert_eq!(ok.num("--slo-ms"), None);
        // Text takes the next argument whatever it looks like; a switch
        // takes none, so what follows it is parsed as a flag.
        let ok = run(&SERVE, &["--mix", "-1", "--attrib"]).expect("text and switch");
        assert_eq!(ok.text("--mix"), Some("-1"));
        assert!(ok.switch("--attrib") && !ok.switch("--full-records"));
        assert!(refused(&SERVE, &["--attrib", "1"]).starts_with("unknown serve flag '1'"));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let f = run(&SERVE, &["--gpus", "2", "--mix", "sd", "--gpus", "3", "--mix", "parti"])
            .expect("valid flags");
        assert_eq!(f.count("--gpus"), Some(3));
        assert_eq!(f.text("--mix"), Some("parti"));
    }

    #[test]
    fn subcommands_refuse_operands() {
        for cmd in [&OPTIMIZE, &SERVE, &FLEET, &TOKEN] {
            let err = refused(cmd, &["extra"]);
            let names: Vec<&str> = cmd.flags.iter().map(|&(flag, ..)| flag).collect();
            let want = format!("unknown {} flag 'extra'; expected {}", cmd.name, names.join(" | "));
            assert_eq!(err, want);
        }
        let f = run(&SUITE, &["fig4", "--json", "all"]).expect("suite targets are operands");
        assert_eq!(f.operands, ["fig4", "all"]);
        let names: Vec<&str> = SUITE.flags.iter().map(|&(flag, ..)| flag).collect();
        assert_eq!(
            refused(&SUITE, &["fig4", "--bogus"]),
            format!("unknown repro flag '--bogus'; expected {}", names.join(" | "))
        );
    }

    #[test]
    fn flag_names_are_unique_within_each_table() {
        let usage = usage();
        for cmd in COMMANDS {
            for (i, &(flag, kind, placeholder)) in cmd.flags.iter().enumerate() {
                assert!(flag.starts_with("--"), "{flag}");
                assert!(
                    cmd.flags[..i].iter().all(|&(other, ..)| other != flag),
                    "{flag} appears twice in the {} table",
                    cmd.name
                );
                assert_eq!(kind == Switch, placeholder.is_empty(), "{flag} placeholder");
            }
            assert!(usage.contains(&usage_line(cmd)), "{} missing from usage", cmd.name);
        }
    }
}
