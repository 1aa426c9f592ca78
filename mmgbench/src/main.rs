//! `mmgbench` — host-time benchmark of the mmgen simulator.
//!
//! ```text
//! mmgbench --workload <suite-cold | serve-stream | fleet-fifo | token-kv>
//!          [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! ```
//!
//! Untraced (`--trace 0`, the default), the run sets the workload up,
//! discards one warm-up rep, then runs reps back to back for `--seconds`
//! and prints every end-to-end metric with its unit, sample count and
//! quartiles. Traced (`--trace 1`), it alternates untraced and traced
//! reps to measure the tracing overhead, runs the per-layer probes, and
//! writes `trace.json` (Perfetto) and `layers.json` to `--out` (default
//! `mmgbench/out/<workload>`). Every rep's output is checked; a rep that
//! fails a check or panics counts as a failed op. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The exit code is 0 when every op passed, 1 when one failed, and 2 on
//! bad arguments.

mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{digest, run_rep, set_up, Inputs, Rep, Workload};

/// Timed reps a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: mmgbench --workload <suite-cold | serve-stream | fleet-fifo | token-kv> \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Smoke size: about 1% of each workload, no pinned digests.
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::SuiteCold,
        seed: 42,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'; expected 0 or 1")),
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Counts ops and checks each rep's report against the first rep's and
/// against the pinned digest.
struct Ledger {
    attempted: u64,
    failed: u64,
    first_digest: Option<u64>,
    pinned: Option<u64>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

impl Ledger {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("mmgbench: op {} failed: {what}", self.attempted);
    }

    /// Runs one rep under a `rep` span; `None` when it failed.
    fn rep(&mut self, inputs: &Inputs, jobs: usize, tracer: &Tracer) -> Option<Rep> {
        self.attempted += 1;
        let outcome = {
            let root = tracer.span("rep", None);
            catch_unwind(AssertUnwindSafe(|| {
                run_rep(inputs, jobs, tracer, root.id())
            }))
            .unwrap_or_else(|panic| Err(panic_message(panic.as_ref())))
        };
        let checked = outcome.and_then(|rep| {
            let d = digest(&rep.report);
            let first = *self.first_digest.get_or_insert(d);
            if d != first {
                return Err(format!(
                    "report digest {d:016x} differs from the first rep's {first:016x}"
                ));
            }
            match self.pinned {
                Some(p) if p != d => Err(format!("report digest {d:016x}, pinned {p:016x}")),
                _ => Ok(rep),
            }
        });
        checked.map_err(|e| self.fail(&e)).ok()
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Declared metrics that were measured, in catalog order.
    metrics: Vec<(String, &'static str, Summary)>,
    /// Declared metrics the run could not measure.
    missing: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.missing.is_empty()
    }
}

fn run(args: &Args) -> Outcome {
    let jobs = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        first_digest: None,
        pinned: args.workload.pinned_digest(args.seed, args.quick),
    };
    let (measured, decls) = if args.trace {
        (traced(args, jobs, &mut ledger), metrics::per_layer())
    } else {
        (untraced(args, jobs, &mut ledger), metrics::end_to_end())
    };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for d in decls {
        let samples: Vec<f64> = measured
            .iter()
            .filter(|(n, _)| *n == d.name)
            .map(|(_, v)| *v)
            .collect();
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            missing.push(d.name);
        } else {
            metrics.push((d.name, d.unit, Summary::of(&samples)));
        }
    }
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        missing,
    }
}

/// Sets the workload up, recording the host seconds it took.
fn set_up_timed(args: &Args, out: &mut Vec<(String, f64)>) -> Inputs {
    let started = Instant::now();
    let inputs = set_up(args.workload, args.seed, args.quick);
    out.push(("setup_s".to_string(), started.elapsed().as_secs_f64()));
    inputs
}

/// Samples of every end-to-end metric, as `(name, sample)` pairs.
fn untraced(args: &Args, jobs: usize, ledger: &mut Ledger) -> Vec<(String, f64)> {
    let off = Tracer::new(false);
    let mut out = Vec::new();
    let mut inputs = set_up_timed(args, &mut out);
    let warm_up = ledger.rep(&inputs, jobs, &off);
    // The suite builds everything inside each rep, so its set-up is the
    // cold first regeneration of the process: the warm-up rep. The
    // simulators set up again before every rep, so set-up samples span
    // the run just as rep samples do.
    let suite = args.workload == Workload::SuiteCold;
    if suite {
        out = warm_up
            .map(|r| ("setup_s".to_string(), r.host_s))
            .into_iter()
            .collect();
    }
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        if !suite {
            inputs = set_up_timed(args, &mut out);
        }
        if let Some(rep) = ledger.rep(&inputs, jobs, &off) {
            out.push(("work_per_s".to_string(), rep.units / rep.host_s));
        }
    }
    if let Some(mib) = peak_rss_mib() {
        out.push(("peak_rss_mib".to_string(), mib));
    }
    out
}

/// Every per-layer metric, plus the trace and `layers.json` on disk.
fn traced(args: &Args, jobs: usize, ledger: &mut Ledger) -> Vec<(String, f64)> {
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let inputs = {
        let _span = tracer.span("set_up", None);
        set_up(args.workload, args.seed, args.quick)
    };
    ledger.rep(&inputs, jobs, &off);
    // Alternate untraced and traced reps so drift hits both alike.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while spanned.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let traced_rep = plain.len() > spanned.len();
        let rep = ledger.rep(&inputs, jobs, if traced_rep { &tracer } else { &off });
        let Some(rep) = rep else { break };
        if traced_rep { &mut spanned } else { &mut plain }.push(rep.host_s);
    }
    let mut out = Vec::new();
    if !plain.is_empty() && !spanned.is_empty() {
        let (p, s) = (Summary::of(&plain).median, Summary::of(&spanned).median);
        out.push(("trace.overhead_frac".to_string(), (s - p) / p));
    }
    ledger.attempted += 1;
    let probed = {
        let root = tracer.span("layers", None);
        catch_unwind(AssertUnwindSafe(|| {
            layers::measure(args.seed, args.quick, jobs, &tracer, root.id())
        }))
        .unwrap_or_else(|panic| Err(panic_message(panic.as_ref())))
    };
    match probed {
        Ok(values) => out.extend(values),
        Err(e) => ledger.fail(&e),
    }
    let dir = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(args.workload.name())
    });
    if let Err(e) = write_trace(&dir, args, jobs, &tracer, &out) {
        ledger.fail(&format!("cannot write the trace to {}: {e}", dir.display()));
    }
    out
}

fn write_trace(
    dir: &std::path::Path,
    args: &Args,
    jobs: usize,
    tracer: &Tracer,
    values: &[(String, f64)],
) -> std::io::Result<()> {
    let spans = tracer.spans();
    let units: Vec<_> = metrics::per_layer();
    let metric_values = values
        .iter()
        .map(|(name, v)| {
            let unit = units
                .iter()
                .find(|d| d.name == *name)
                .map_or("", |d| d.unit);
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::from(*v)),
                    ("unit".into(), Value::from(unit)),
                ]),
            )
        })
        .collect();
    let self_time = trace::self_times(&spans)
        .into_iter()
        .map(|(name, s)| (name, Value::from(s)))
        .collect();
    let layers = Value::Object(vec![
        ("workload".into(), Value::from(args.workload.name())),
        ("seed".into(), Value::from(args.seed)),
        ("jobs".into(), Value::from(jobs as u64)),
        ("metrics".into(), Value::Object(metric_values)),
        ("self_time_s".into(), Value::Object(self_time)),
    ]);
    std::fs::create_dir_all(dir)?;
    let json = |v: &Value| serde_json::to_string_pretty(v).expect("value trees always serialize");
    std::fs::write(dir.join("trace.json"), json(&trace::to_perfetto(&spans)))?;
    std::fs::write(dir.join("layers.json"), json(&layers))
}

/// The closing JSON line.
fn result_json(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, unit, s)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::from(s.median)),
                    ("unit".into(), Value::from(*unit)),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::from(o.correct())),
        ("attempted".into(), Value::from(o.attempted)),
        ("failed".into(), Value::from(o.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("value trees always serialize")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    println!(
        "mmgbench {}: seed {}, {} s, {}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        if args.quick { ", quick" } else { "" },
    );
    println!(
        "{:<40} {:>6} {:>4} {:>14} {:>14} {:>14}",
        "metric", "unit", "n", "q1", "median", "q3"
    );
    for (name, unit, s) in &outcome.metrics {
        println!(
            "{name:<40} {unit:>6} {:>4} {:>14.6e} {:>14.6e} {:>14.6e}",
            s.n, s.q1, s.median, s.q3
        );
    }
    for name in &outcome.missing {
        println!("{name:<40} not measured");
    }
    println!("ops {} failed_ops {}", outcome.attempted, outcome.failed);
    println!("{}", result_json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool, out: Option<PathBuf>) -> Outcome {
        run(&Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            quick: true,
            out,
        })
    }

    #[test]
    fn arguments_parse_and_garbage_is_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload token-kv --seed 9 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.quick),
            (Workload::TokenKv, 9, 20.0, true, false)
        );
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload suite-cold --trace 2",
            "--workload suite-cold --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        let names: Vec<String> = metrics::end_to_end().into_iter().map(|d| d.name).collect();
        for w in Workload::ALL {
            let o = smoke(w, false, None);
            assert_eq!(o.failed, 0, "{}", w.name());
            assert!(o.attempted > MIN_REPS as u64, "{}", w.name());
            let printed: Vec<&String> = o.metrics.iter().map(|(n, _, _)| n).collect();
            assert_eq!(printed, names.iter().collect::<Vec<_>>(), "{}", w.name());
            assert!(o.correct(), "{}", w.name());
        }
    }

    #[test]
    fn traced_smoke_run_reports_every_layer_and_writes_the_trace() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-trace"));
        let o = smoke(Workload::ServeStream, true, Some(dir.clone()));
        assert_eq!(o.failed, 0);
        // The quick suite runs a handful of experiments; every other
        // per-layer metric is measured.
        let quick: Vec<String> = workloads::suite_ids(true)
            .into_iter()
            .map(metrics::exp_metric)
            .collect();
        let skipped: Vec<String> = mmg_core::ExperimentId::ALL
            .into_iter()
            .map(metrics::exp_metric)
            .filter(|n| !quick.contains(n))
            .collect();
        assert_eq!(o.missing, skipped);
        let read = |f: &str| -> Value {
            serde_json::from_str(&std::fs::read_to_string(dir.join(f)).expect("trace file written"))
                .expect("valid JSON")
        };
        let events = read("trace.json");
        let events = events
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        for span in [
            "rep",
            "serve.simulate",
            "layers",
            "fleet.run_cluster",
            "core.exp.tp",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Value::as_str) == Some(span)),
                "no {span} span"
            );
        }
        let layers = read("layers.json");
        assert!(layers
            .get("metrics")
            .and_then(|m| m.get("trace.overhead_frac"))
            .is_some());
        assert!(layers
            .get("self_time_s")
            .and_then(|m| m.get("serve.simulate"))
            .is_some());
    }
}
