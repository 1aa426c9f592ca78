//! Extension — token-level autoregressive serving sweep on the
//! `mmg-serve::token` engine.
//!
//! The paper's autoregressive models (LLaMA text, Parti image tokens)
//! decode one step at a time, so the serving-relevant unit is the
//! *iteration*, not the request. This experiment sweeps the two
//! token-granularity batching disciplines across offered utilizations
//! and KV-cache budgets on a profiler-grounded LLaMA decode curve
//! ([`TokenServiceCurve::from_profiler`]):
//!
//! * `static` — request-level batching: a batch is admitted only when
//!   the GPU is idle and runs to completion, so slots freed by short
//!   sequences idle until the longest member finishes;
//! * `continuous` — iteration-level (Orca/vLLM-style) batching:
//!   sequences join and leave the running batch at every decode
//!   iteration, with chunked prefill interleaved into decode steps.
//!
//! The second axis is the KV-cache budget: shrinking it below the
//! working set pushes the engine into preemption-and-recompute, and
//! goodput falls off a cliff while the preemption counter climbs —
//! the capacity analogue of the paper's memory-bound decode argument.

use mmg_attn::AttnImpl;
use mmg_models::ModelId;
use mmg_profiler::report::render_table;
use mmg_serve::{
    simulate_token, ArrivalProcess, KvAdmission, KvLedger, LengthDist, PhasePriority,
    TokenBatching, TokenScenarioCfg, TokenServiceCurve, TokenSlo, GIB,
};

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// GPUs in the simulated token-serving cluster.
pub const GPUS: usize = 2;
/// Batch cap for both disciplines.
pub const MAX_BATCH: usize = 16;
/// Prefill chunk size, tokens per iteration slice.
pub const CHUNK_TOKENS: usize = 256;
/// Offered utilizations swept at the ample (default) KV budget.
pub const UTILIZATIONS: [f64; 3] = [0.5, 0.8, 0.95];
/// Constrained per-GPU KV budgets (GiB) swept at
/// [`KV_SWEEP_UTILIZATION`] under continuous batching.
pub const KV_BUDGETS_GIB: [f64; 2] = [1.0, 0.5];
/// Utilization the KV-budget axis is swept at.
pub const KV_SWEEP_UTILIZATION: f64 = 0.9;
/// Median prompt length, tokens.
pub const PROMPT_MEDIAN: f64 = 512.0;
/// Median output length, tokens.
pub const OUTPUT_MEDIAN: f64 = 128.0;
/// Lognormal spread of both length distributions.
const SIGMA: f64 = 0.3;
/// Simulated seconds of arrivals per cell (the run drains afterwards).
const DURATION_S: f64 = 150.0;
/// Fixed seed: one sample path per cell, reproducible everywhere.
const SEED: u64 = 42;

/// One (scheduler, utilization, KV budget) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenSweepCell {
    /// Batching discipline (`static` | `continuous`).
    pub scheduler: String,
    /// Offered utilization target (fraction of batch-cap capacity).
    pub utilization: f64,
    /// Per-GPU KV budget, GiB.
    pub kv_budget_gib: f64,
    /// Whether this cell uses the SKU-default budget (HBM − weights).
    pub default_budget: bool,
    /// Offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// Completed requests/s over the run.
    pub throughput_rps: f64,
    /// Completed-within-SLO (TTFT and TPOT) requests/s over the run.
    pub goodput_rps: f64,
    /// Fraction of completions that met both SLO bounds.
    pub slo_attainment: f64,
    /// 95th-percentile time-to-first-token, seconds.
    pub p95_ttft_s: f64,
    /// 95th-percentile time-per-output-token, seconds.
    pub p95_tpot_s: f64,
    /// Mean decode batch size over decode-carrying iterations.
    pub mean_decode_batch: f64,
    /// Sequences evicted for recompute (summed over GPUs).
    pub preemptions: u64,
    /// Arrivals dropped because they could never fit the budget.
    pub dropped: u64,
    /// Measured GPU-time utilization.
    pub measured_utilization: f64,
}

/// Token-serving sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenSweepResult {
    /// Cluster size.
    pub gpus: usize,
    /// The model served (short name).
    pub model: String,
    /// Median prompt length, tokens.
    pub prompt_median: f64,
    /// Median output length, tokens.
    pub output_median: f64,
    /// TTFT SLO bound, seconds (derived from the curve).
    pub ttft_slo_s: f64,
    /// TPOT SLO bound, seconds (derived from the curve).
    pub tpot_slo_s: f64,
    /// The SKU-default per-GPU KV budget (HBM − weights), GiB.
    pub default_budget_gib: f64,
    /// KV bytes per token of the served model.
    pub kv_bytes_per_token: u64,
    /// Sweep cells: the scheduler × utilization grid at the default
    /// budget, then the constrained-budget axis.
    pub cells: Vec<TokenSweepCell>,
}

impl TokenSweepResult {
    /// The default-budget cell for a scheduler at an offered utilization.
    #[must_use]
    pub fn cell(&self, scheduler: &str, utilization: f64) -> Option<&TokenSweepCell> {
        self.cells.iter().find(|c| {
            c.scheduler == scheduler
                && c.default_budget
                && (c.utilization - utilization).abs() < 1e-9
        })
    }

    /// The constrained-budget cell closest to `budget_gib`.
    #[must_use]
    pub fn kv_cell(&self, budget_gib: f64) -> Option<&TokenSweepCell> {
        self.cells
            .iter()
            .find(|c| !c.default_budget && (c.kv_budget_gib - budget_gib).abs() < 1e-9)
    }
}

/// Runs the sweep on `ctx`'s device, registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext) -> TokenSweepResult {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let curve = TokenServiceCurve::from_profiler(&profiler, ModelId::Llama2);
    let default_budget = KvLedger::default_budget(&ctx.spec, curve.weight_bytes);
    let prompt = LengthDist::new(PROMPT_MEDIAN, SIGMA, 16, 4096);
    let output = LengthDist::new(OUTPUT_MEDIAN, SIGMA, 4, 1024);
    let slo = TokenSlo::from_curve(&curve, prompt.mean(), output.mean(), MAX_BATCH);
    let request_gpu_s = curve.request_gpu_s(prompt.mean(), output.mean(), MAX_BATCH);

    let run_cell = |batching: TokenBatching, utilization: f64, budget: u64, default: bool| {
        let offered_rps = utilization * GPUS as f64 / request_gpu_s;
        let cfg = TokenScenarioCfg {
            gpus: GPUS,
            model: ModelId::Llama2,
            arrival: ArrivalProcess::poisson(offered_rps),
            batching,
            priority: PhasePriority::Decode,
            admission: KvAdmission::Prompt,
            chunk_tokens: CHUNK_TOKENS,
            prompt,
            output,
            slo,
            duration_s: DURATION_S,
            max_requests: None,
            seed: SEED,
        };
        let r = simulate_token(&cfg, &curve, budget, &ctx.registry);
        TokenSweepCell {
            scheduler: batching.name().to_string(),
            utilization,
            kv_budget_gib: budget as f64 / GIB,
            default_budget: default,
            offered_rps,
            throughput_rps: r.throughput_rps(),
            goodput_rps: r.goodput_rps(),
            slo_attainment: r.slo_attainment(),
            p95_ttft_s: r.stats.phases.ttft.quantile(0.95).unwrap_or(0.0),
            p95_tpot_s: r.stats.phases.tpot.quantile(0.95).unwrap_or(0.0),
            mean_decode_batch: r.mean_decode_batch(),
            preemptions: r.preemptions(),
            dropped: r.stats.dropped_oversized,
            measured_utilization: r.utilization(),
        }
    };

    let mut cells = Vec::new();
    for batching in [
        TokenBatching::Static { batch: MAX_BATCH },
        TokenBatching::Continuous { max_batch: MAX_BATCH },
    ] {
        for utilization in UTILIZATIONS {
            cells.push(run_cell(batching, utilization, default_budget, true));
        }
    }
    // The cache-pressure axis: same offered load, shrinking budget.
    for budget_gib in KV_BUDGETS_GIB {
        cells.push(run_cell(
            TokenBatching::Continuous { max_batch: MAX_BATCH },
            KV_SWEEP_UTILIZATION,
            (budget_gib * GIB) as u64,
            false,
        ));
    }

    TokenSweepResult {
        gpus: GPUS,
        model: mmg_serve::model_short_name(ModelId::Llama2).to_string(),
        prompt_median: PROMPT_MEDIAN,
        output_median: OUTPUT_MEDIAN,
        ttft_slo_s: slo.ttft_s,
        tpot_slo_s: slo.tpot_s,
        default_budget_gib: default_budget as f64 / GIB,
        kv_bytes_per_token: curve.kv_bytes_per_token,
        cells,
    }
}

/// Renders the token-serving sweep.
#[must_use]
pub fn render(r: &TokenSweepResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .cells
        .iter()
        .map(|c| {
            let label = if c.default_budget {
                format!("{}@{:.2}", c.scheduler, c.utilization)
            } else {
                format!("{}@{:.2}/{:.1}GiB", c.scheduler, c.utilization, c.kv_budget_gib)
            };
            (
                label,
                vec![
                    format!("{:.2}/s", c.offered_rps),
                    format!("{:.2}/s", c.throughput_rps),
                    format!("{:.2}/s", c.goodput_rps),
                    format!("{:.0}%", c.slo_attainment * 100.0),
                    format!("{:.0} ms", c.p95_ttft_s * 1e3),
                    format!("{:.1} ms", c.p95_tpot_s * 1e3),
                    format!("{:.1}", c.mean_decode_batch),
                    format!("{}", c.preemptions),
                    format!("{:.0}%", c.measured_utilization * 100.0),
                ],
            )
        })
        .collect();
    format!(
        "Extension — token-serving sweep ({} on {} GPUs, prompt ~{:.0}, output ~{:.0} tokens, \
         KV {} KiB/token, default budget {:.1} GiB/GPU, SLO TTFT <= {:.0} ms, TPOT <= {:.1} ms)\n{}",
        r.model,
        r.gpus,
        r.prompt_median,
        r.output_median,
        r.kv_bytes_per_token / 1024,
        r.default_budget_gib,
        r.ttft_slo_s * 1e3,
        r.tpot_slo_s * 1e3,
        render_table(
            &[
                "Scheduler@util",
                "Offered",
                "Throughput",
                "Goodput",
                "SLO attain",
                "p95 TTFT",
                "p95 TPOT",
                "Decode batch",
                "Preempt",
                "GPU busy",
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;
    use std::sync::OnceLock;

    fn result() -> &'static TokenSweepResult {
        static RESULT: OnceLock<TokenSweepResult> = OnceLock::new();
        RESULT.get_or_init(|| run_ctx(&test_ctx()))
    }

    #[test]
    fn covers_the_full_grid() {
        let r = result();
        assert_eq!(r.cells.len(), 2 * UTILIZATIONS.len() + KV_BUDGETS_GIB.len());
        for s in ["static", "continuous"] {
            for u in UTILIZATIONS {
                assert!(r.cell(s, u).is_some(), "{s}@{u}");
            }
        }
        for b in KV_BUDGETS_GIB {
            assert!(r.kv_cell(b).is_some(), "kv cell {b} GiB");
        }
    }

    #[test]
    fn continuous_beats_static_on_goodput_at_load() {
        // The acceptance bar: at ≥0.8 offered utilization iteration-level
        // batching must out-serve run-to-completion static batching.
        let r = result();
        for u in [0.8, 0.95] {
            let st = r.cell("static", u).unwrap();
            let ct = r.cell("continuous", u).unwrap();
            assert!(
                ct.goodput_rps > st.goodput_rps,
                "util {u}: continuous {} vs static {}",
                ct.goodput_rps,
                st.goodput_rps
            );
        }
    }

    #[test]
    fn cache_pressure_preempts_and_costs_goodput() {
        let r = result();
        let ample = r.cell("continuous", 0.95).unwrap();
        assert_eq!(ample.preemptions, 0, "default budget must not preempt");
        let tight = r.kv_cell(KV_BUDGETS_GIB[KV_BUDGETS_GIB.len() - 1]).unwrap();
        assert!(tight.preemptions > 0, "tight budget must preempt");
        // The cliff: the same offered load completes less useful work.
        let roomy = r.kv_cell(KV_BUDGETS_GIB[0]).unwrap();
        assert!(
            tight.goodput_rps < roomy.goodput_rps,
            "tight {} vs roomy {}",
            tight.goodput_rps,
            roomy.goodput_rps
        );
    }

    #[test]
    fn light_load_is_mostly_on_time() {
        let r = result();
        let c = r.cell("continuous", 0.5).unwrap();
        assert!(c.slo_attainment > 0.8, "attainment {}", c.slo_attainment);
    }

    #[test]
    fn renders() {
        let out = render(result());
        assert!(out.contains("token-serving sweep") && out.contains("continuous@0.95"));
        assert!(out.contains("Preempt"));
    }
}
