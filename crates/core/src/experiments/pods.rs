//! Extension — quantifying Section V's proposed denoising-pod scheduling.

use mmg_analytics::scheduling::{pod_estimate, simulated_pod_speedup, PodEstimate};
use mmg_attn::AttnImpl;
use mmg_models::{suite, ModelId};
use mmg_profiler::report::render_table;

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// One model's pod-scheduling headroom.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodsRow {
    /// Model name.
    pub model: String,
    /// Serial per-inference seconds.
    pub serial_s: f64,
    /// Lower-bound per-inference seconds under staggered pods.
    pub pod_s: f64,
    /// Throughput speedup bound.
    pub speedup: f64,
    /// Event-driven simulated speedup with 2 staggered pods, on the
    /// dominant repeated stage.
    pub simulated_speedup_k2: f64,
    /// Busier-pipe utilization in the serial schedule.
    pub dominant_utilization: f64,
}

/// Pod experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodsResult {
    /// Rows in suite order.
    pub rows: Vec<PodsRow>,
}

impl PodsResult {
    /// A named row.
    #[must_use]
    pub fn row(&self, model: &str) -> Option<&PodsRow> {
        self.rows.iter().find(|r| r.model == model)
    }
}

/// Estimates pod headroom for the diffusion members of the suite (the
/// proposal targets denoising loops) plus LLaMA2 for contrast, on
/// `ctx`'s registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> PodsResult {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let targets = [
        ModelId::StableDiffusion,
        ModelId::Imagen,
        ModelId::ProdImage,
        ModelId::MakeAVideo,
        ModelId::Llama2,
    ];
    let rows = targets
        .iter()
        .map(|&id| {
            let prof = suite::build(id).profile(&profiler);
            // Aggregate the estimate over all stages, weighted by repeats.
            let mut agg = PodEstimate {
                serial_s: 0.0,
                compute_s: 0.0,
                memory_s: 0.0,
                overhead_s: 0.0,
                pod_s: 0.0,
            };
            for s in &prof.stages {
                let e = pod_estimate(&s.timeline);
                let w = s.repeats as f64;
                agg.serial_s += w * e.serial_s;
                agg.compute_s += w * e.compute_s;
                agg.memory_s += w * e.memory_s;
                agg.overhead_s += w * e.overhead_s;
            }
            agg.pod_s = agg.compute_s.max(agg.memory_s).max(agg.overhead_s);
            // Simulate on the most repeated stage (the denoising/decode
            // loop body dominates the pipeline).
            let hot = prof
                .stages
                .iter()
                .max_by_key(|s| s.repeats)
                .expect("pipeline has stages");
            let simulated = simulated_pod_speedup(&hot.timeline, 2);
            PodsRow {
                model: id.to_string(),
                serial_s: agg.serial_s,
                pod_s: agg.pod_s,
                speedup: agg.speedup(),
                simulated_speedup_k2: simulated,
                dominant_utilization: agg.dominant_pipe_utilization(),
            }
        })
        .collect();
    PodsResult { rows }
}

/// Renders the pod study.
#[must_use]
pub fn render(r: &PodsResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.model.clone(),
                vec![
                    format!("{:.0} ms", row.serial_s * 1e3),
                    format!("{:.0} ms", row.pod_s * 1e3),
                    format!("{:.2}x", row.speedup),
                    format!("{:.2}x", row.simulated_speedup_k2),
                    format!("{:.0}%", row.dominant_utilization * 100.0),
                ],
            )
        })
        .collect();
    format!(
        "Extension — denoising-pod co-scheduling headroom (Section V proposal)\n{}",
        render_table(
            &["Model", "Serial/infer", "Pod bound/infer", "Bound gain", "Simulated (k=2)", "Busy pipe"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> PodsResult {
        run_ctx(&test_ctx())
    }

    #[test]
    fn diffusion_models_have_headroom() {
        let r = result();
        for name in ["StableDiffusion", "Imagen", "ProdImage"] {
            let row = r.row(name).unwrap();
            assert!(row.speedup > 1.1, "{name}: {}", row.speedup);
            assert!(row.speedup < 3.0, "{name}: bound too loose");
        }
    }

    #[test]
    fn simulation_confirms_headroom() {
        let r = result();
        let sd = r.row("StableDiffusion").unwrap();
        assert!(sd.simulated_speedup_k2 > 1.1, "simulated {}", sd.simulated_speedup_k2);
        assert!(sd.simulated_speedup_k2 <= sd.speedup + 1e-6);
    }

    #[test]
    fn pod_bound_never_exceeds_serial() {
        for row in &result().rows {
            assert!(row.pod_s <= row.serial_s * (1.0 + 1e-9), "{}", row.model);
        }
    }

    #[test]
    fn renders() {
        assert!(render(&result()).contains("pod"));
    }
}
