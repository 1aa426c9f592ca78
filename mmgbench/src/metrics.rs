//! The metric catalog: every metric the benchmark prints, with its unit
//! and direction, in the order `BENCHMARK.json` declares them.

use mmg_core::ExperimentId;

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn decl(name: &str, unit: &'static str, better: &'static str) -> Decl {
    Decl {
        name: name.to_string(),
        unit,
        better,
    }
}

/// End-to-end metrics: printed by every untraced run.
#[must_use]
pub fn end_to_end() -> Vec<Decl> {
    vec![
        decl("work_per_s", "1/s", "higher"),
        decl("setup_s", "s", "lower"),
        decl("peak_rss_mib", "MiB", "lower"),
    ]
}

/// Per-layer metrics: printed by every traced run.
#[must_use]
pub fn per_layer() -> Vec<Decl> {
    let mut out = vec![
        decl("models.build_s", "s", "lower"),
        decl("models.ops", "count", "lower"),
        decl("graph.lower_ns_per_op", "ns", "lower"),
        decl("graph.kernels", "count", "lower"),
        decl("graph.optimize_ns_per_op", "ns", "lower"),
        decl("graph.kernels_fused", "count", "higher"),
        decl("gpu.timing_ns_per_kernel", "ns", "lower"),
        decl("profiler.cold_s", "s", "lower"),
        decl("profiler.warm_s", "s", "lower"),
        decl("profiler.memo_entries", "count", "lower"),
        decl("profiler.memo_hits", "count", "higher"),
        decl("profiler.memo_dup_misses", "count", "lower"),
    ];
    out.extend(
        ExperimentId::ALL
            .iter()
            .map(|id| decl(&exp_metric(*id), "s", "lower")),
    );
    out.extend([
        decl("core.suite_serial_s", "s", "lower"),
        decl("core.parallel_speedup", "ratio", "higher"),
        decl("core.table2_err_pct", "%", "lower"),
        decl("serve.profile_s", "s", "lower"),
        decl("serve.arrivals_ns_per_req", "ns", "lower"),
        decl("serve.simulate_s", "s", "lower"),
        decl("serve.loop_ns_per_req", "ns", "lower"),
        decl("serve.batch_mean", "req", "higher"),
        decl("serve.report_s", "s", "lower"),
        decl("fleet.profile_s", "s", "lower"),
        decl("fleet.arrivals_ns_per_req", "ns", "lower"),
        decl("fleet.shard_max_s", "s", "lower"),
        decl("fleet.shard_mean_s", "s", "lower"),
        decl("fleet.shard_imbalance", "ratio", "lower"),
        decl("fleet.merge_s", "s", "lower"),
        decl("fleet.report_s", "s", "lower"),
        decl("token.curve_s", "s", "lower"),
        decl("token.simulate_s", "s", "lower"),
        decl("token.ns_per_iteration", "ns", "lower"),
        decl("token.iterations", "count", "lower"),
        decl("token.preemptions", "count", "lower"),
        decl("token.prefill_tokens_per_completed", "tok", "lower"),
        decl("token.decode_batch_mean", "seq", "higher"),
        decl("token.report_s", "s", "lower"),
        decl("telemetry.sketch_ns_per_insert", "ns", "lower"),
        decl("telemetry.prom_render_s", "s", "lower"),
        decl("trace.overhead_frac", "ratio", "lower"),
    ]);
    out
}

/// The per-layer metric holding one experiment's serial host seconds.
#[must_use]
pub fn exp_metric(id: ExperimentId) -> String {
    format!("core.exp.{id}_s")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    type Triple = (String, String, String);

    fn declared(json: &Value, key: &str) -> Vec<Triple> {
        json.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{key} entry lacks {k}"))
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn triples(decls: Vec<Decl>) -> Vec<Triple> {
        decls
            .into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<Decl> = end_to_end().into_iter().chain(per_layer()).collect();
        for d in &all {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(declared(&json, "end_to_end"), triples(end_to_end()));
        assert_eq!(declared(&json, "per_layer"), triples(per_layer()));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
