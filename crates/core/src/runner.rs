//! Experiment dispatch for the `repro` CLI.

use std::fmt;
use std::str::FromStr;

use mmg_gpu::DeviceSpec;

use crate::engine::ExecContext;
use crate::experiments::{
    ablations, batch, energy, fig1, fig11, fig12, fig13, fig4, fig5, fig6, fig7, fig8, fig9,
    flashdec, fleet_sweep, optimize, pods, secv, serve_attrib, serve_sweep, serve_timeline, table1,
    table2, table3, token_sweep, tp,
};

/// Identifier of one reproducible artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Fleet study.
    Fig1,
    /// Model taxonomy.
    Table1,
    /// Pareto landscape.
    Fig4,
    /// Roofline.
    Fig5,
    /// Operator breakdown.
    Fig6,
    /// Flash speedups.
    Table2,
    /// Prefill/decode correspondence.
    Table3,
    /// Sequence-length traces.
    Fig7,
    /// Sequence-length distributions.
    Fig8,
    /// Attention/conv image-size scaling.
    Fig9,
    /// Temporal vs spatial attention.
    Fig11,
    /// Cache hit rates.
    Fig12,
    /// Frame scaling.
    Fig13,
    /// Section V analytics.
    SecV,
    /// Extension: Flash-Decoding comparison.
    FlashDec,
    /// Extension: kernel-graph optimization passes per model family.
    Optimize,
    /// Extension: denoising-pod co-scheduling headroom.
    Pods,
    /// Extension: batch-size sensitivity.
    Batch,
    /// Extension: tensor-parallel decode.
    Tp,
    /// Extension: conv-algorithm and precision ablations.
    Ablations,
    /// Extension: serving-cluster scheduler sweep on the DES.
    ServeSweep,
    /// Extension: windowed serving timeline (FIFO vs dynamic over time).
    ServeTimeline,
    /// Extension: latency attribution and SLO burn-rate alerts per cell.
    ServeAttrib,
    /// Extension: heterogeneous multi-cluster fleet policy sweep.
    FleetSweep,
    /// Extension: token-level serving sweep (static vs continuous
    /// batching × utilization × KV-cache budget).
    TokenSweep,
    /// Extension: per-kernel power regimes, energy per request, and the
    /// goodput/Wh serving frontier under a power cap.
    Energy,
}

impl ExperimentId {
    /// All experiments in paper order.
    pub const ALL: [ExperimentId; 26] = [
        ExperimentId::Fig1,
        ExperimentId::Table1,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::SecV,
        ExperimentId::FlashDec,
        ExperimentId::Optimize,
        ExperimentId::Pods,
        ExperimentId::Batch,
        ExperimentId::Tp,
        ExperimentId::Ablations,
        ExperimentId::ServeSweep,
        ExperimentId::ServeTimeline,
        ExperimentId::ServeAttrib,
        ExperimentId::FleetSweep,
        ExperimentId::TokenSweep,
        ExperimentId::Energy,
    ];

    /// All experiments, heaviest first by host time (`core.exp.<id>_s`
    /// of a traced `mmgbench` suite-cold run): the order in which the
    /// worker pool starts them, so that no long experiment starts last
    /// and leaves the other workers idle.
    pub const HEAVIEST_FIRST: [ExperimentId; 26] = [
        ExperimentId::FleetSweep,
        ExperimentId::Optimize,
        ExperimentId::TokenSweep,
        ExperimentId::FlashDec,
        ExperimentId::Energy,
        ExperimentId::ServeSweep,
        ExperimentId::Table2,
        ExperimentId::Fig6,
        ExperimentId::ServeAttrib,
        ExperimentId::ServeTimeline,
        ExperimentId::Fig7,
        ExperimentId::Ablations,
        ExperimentId::Fig12,
        ExperimentId::Fig9,
        ExperimentId::Table1,
        ExperimentId::Pods,
        ExperimentId::Fig8,
        ExperimentId::Fig5,
        ExperimentId::Batch,
        ExperimentId::Table3,
        ExperimentId::Fig11,
        ExperimentId::SecV,
        ExperimentId::Fig1,
        ExperimentId::Fig13,
        ExperimentId::Fig4,
        ExperimentId::Tp,
    ];

    /// This experiment's position in [`ExperimentId::HEAVIEST_FIRST`].
    pub(crate) fn claim_rank(self) -> usize {
        ExperimentId::HEAVIEST_FIRST
            .iter()
            .position(|&e| e == self)
            .expect("HEAVIEST_FIRST lists every experiment")
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExperimentId::Fig1 => "fig1",
            ExperimentId::Table1 => "table1",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::SecV => "secv",
            ExperimentId::FlashDec => "flashdec",
            ExperimentId::Optimize => "optimize",
            ExperimentId::Pods => "pods",
            ExperimentId::Batch => "batch",
            ExperimentId::Tp => "tp",
            ExperimentId::Ablations => "ablations",
            ExperimentId::ServeSweep => "serve-sweep",
            ExperimentId::ServeTimeline => "serve-timeline",
            ExperimentId::ServeAttrib => "serve-attrib",
            ExperimentId::FleetSweep => "fleet-sweep",
            ExperimentId::TokenSweep => "token-sweep",
            ExperimentId::Energy => "energy",
        };
        f.write_str(s)
    }
}

/// Error for unknown experiment names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExperimentError(String);

impl fmt::Display for ParseExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown experiment '{}'; expected one of ", self.0)?;
        for (i, e) in ExperimentId::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseExperimentError {}

impl FromStr for ExperimentId {
    type Err = ParseExperimentError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExperimentId::ALL
            .iter()
            .find(|e| e.to_string() == s.to_lowercase())
            .copied()
            .ok_or_else(|| ParseExperimentError(s.to_owned()))
    }
}

/// Runs one experiment with default parameters and returns its rendered
/// report. Uses the shared context (global registry + global memo).
#[must_use]
pub fn run_experiment(id: ExperimentId, spec: &DeviceSpec) -> String {
    run_experiment_with(id, &ExecContext::shared(spec.clone()))
}

/// Runs one experiment with default parameters against an explicit
/// [`ExecContext`], returning its rendered report. Experiments that
/// profile graphs record telemetry into `ctx.registry` and share
/// `ctx.memo`; the purely analytic ones just use `ctx.spec`.
#[must_use]
pub fn run_experiment_with(id: ExperimentId, ctx: &ExecContext) -> String {
    let spec = &ctx.spec;
    match id {
        ExperimentId::Fig1 => fig1::render(&fig1::run(42)),
        ExperimentId::Table1 => table1::render(&table1::run()),
        ExperimentId::Fig4 => fig4::render(&fig4::run()),
        ExperimentId::Fig5 => fig5::render(&fig5::run(spec)),
        ExperimentId::Fig6 => fig6::render(&fig6::run_ctx(ctx)),
        ExperimentId::Table2 => table2::render(&table2::run_ctx(ctx)),
        ExperimentId::Table3 => table3::render(&table3::run()),
        ExperimentId::Fig7 => fig7::render(&fig7::run_ctx(ctx)),
        ExperimentId::Fig8 => fig8::render(&fig8::run_ctx(ctx, &fig8::default_sizes())),
        ExperimentId::Fig9 => fig9::render(&fig9::run_ctx(ctx, &fig9::default_sizes())),
        ExperimentId::Fig11 => fig11::render(&fig11::run_ctx(ctx)),
        ExperimentId::Fig12 => fig12::render(&fig12::run_ctx(ctx, 200_000)),
        ExperimentId::Fig13 => fig13::render(&fig13::run(16, &fig13::default_frames())),
        ExperimentId::SecV => secv::render(&secv::run_ctx(ctx, 512)),
        ExperimentId::FlashDec => flashdec::render(&flashdec::run_ctx(ctx)),
        ExperimentId::Optimize => optimize::render(&optimize::run_ctx(ctx)),
        ExperimentId::Pods => pods::render(&pods::run_ctx(ctx)),
        ExperimentId::Batch => batch::render(&batch::run_ctx(ctx, &batch::default_batches())),
        ExperimentId::Tp => tp::render(&tp::run(spec, &tp::default_widths())),
        ExperimentId::Ablations => ablations::render(&ablations::run_ctx(ctx)),
        ExperimentId::ServeSweep => serve_sweep::render(&serve_sweep::run_ctx(ctx)),
        ExperimentId::ServeTimeline => serve_timeline::render(&serve_timeline::run_ctx(ctx)),
        ExperimentId::ServeAttrib => serve_attrib::render(&serve_attrib::run_ctx(ctx)),
        ExperimentId::FleetSweep => fleet_sweep::render(&fleet_sweep::run_ctx(ctx)),
        ExperimentId::TokenSweep => token_sweep::render(&token_sweep::run_ctx(ctx)),
        ExperimentId::Energy => energy::render(&energy::run_ctx(ctx)),
    }
}

/// Runs one experiment and returns its result as a JSON value tree
/// (same defaults as [`run_experiment`]; shared context).
///
/// # Panics
///
/// Never panics: every experiment result is serializable.
#[must_use]
pub fn run_experiment_value(id: ExperimentId, spec: &DeviceSpec) -> serde_json::Value {
    run_experiment_value_with(id, &ExecContext::shared(spec.clone()))
}

/// Runs one experiment against an explicit [`ExecContext`] and returns
/// its result as a JSON value tree (same defaults as
/// [`run_experiment_with`]).
///
/// # Panics
///
/// Never panics: every experiment result is serializable.
#[must_use]
pub fn run_experiment_value_with(id: ExperimentId, ctx: &ExecContext) -> serde_json::Value {
    fn v<T: serde::Serialize>(x: &T) -> serde_json::Value {
        serde_json::to_value(x).expect("experiment results always serialize")
    }
    let spec = &ctx.spec;
    match id {
        ExperimentId::Fig1 => v(&fig1::run(42)),
        ExperimentId::Table1 => v(&table1::run()),
        ExperimentId::Fig4 => v(&fig4::run()),
        ExperimentId::Fig5 => v(&fig5::run(spec)),
        ExperimentId::Fig6 => v(&fig6::run_ctx(ctx)),
        ExperimentId::Table2 => v(&table2::run_ctx(ctx)),
        ExperimentId::Table3 => v(&table3::run()),
        ExperimentId::Fig7 => v(&fig7::run_ctx(ctx)),
        ExperimentId::Fig8 => v(&fig8::run_ctx(ctx, &fig8::default_sizes())),
        ExperimentId::Fig9 => v(&fig9::run_ctx(ctx, &fig9::default_sizes())),
        ExperimentId::Fig11 => v(&fig11::run_ctx(ctx)),
        ExperimentId::Fig12 => v(&fig12::run_ctx(ctx, 200_000)),
        ExperimentId::Fig13 => v(&fig13::run(16, &fig13::default_frames())),
        ExperimentId::SecV => v(&secv::run_ctx(ctx, 512)),
        ExperimentId::FlashDec => v(&flashdec::run_ctx(ctx)),
        ExperimentId::Optimize => v(&optimize::run_ctx(ctx)),
        ExperimentId::Pods => v(&pods::run_ctx(ctx)),
        ExperimentId::Batch => v(&batch::run_ctx(ctx, &batch::default_batches())),
        ExperimentId::Tp => v(&tp::run(spec, &tp::default_widths())),
        ExperimentId::Ablations => v(&ablations::run_ctx(ctx)),
        ExperimentId::ServeSweep => v(&serve_sweep::run_ctx(ctx)),
        ExperimentId::ServeTimeline => v(&serve_timeline::run_ctx(ctx)),
        ExperimentId::ServeAttrib => v(&serve_attrib::run_ctx(ctx)),
        ExperimentId::FleetSweep => v(&fleet_sweep::run_ctx(ctx)),
        ExperimentId::TokenSweep => v(&token_sweep::run_ctx(ctx)),
        ExperimentId::Energy => v(&energy::run_ctx(ctx)),
    }
}

/// Runs one experiment and returns its result as pretty JSON (for
/// machine-readable pipelines; same defaults as [`run_experiment`]).
///
/// # Panics
///
/// Never panics: every experiment result is serializable.
#[must_use]
pub fn run_experiment_json(id: ExperimentId, spec: &DeviceSpec) -> String {
    serde_json::to_string_pretty(&run_experiment_value(id, spec))
        .expect("experiment results always serialize")
}

/// Builds the run manifest for one CLI invocation: the simulated device,
/// the experiments executed, optionally the elapsed wall time, and the
/// final telemetry counter totals from `registry`.
///
/// Pass `elapsed_s: None` for the stdout summary line — everything left
/// is a pure function of the run, so two invocations (any `--jobs`)
/// byte-compare with plain `cmp`. Pass `Some(wall)` for the
/// `--manifest` file, where the wall clock belongs in the run record.
///
/// # Panics
///
/// Never panics: the manifest contains only serializable primitives.
#[must_use]
pub fn run_manifest(
    spec: &DeviceSpec,
    ids: &[ExperimentId],
    elapsed_s: Option<f64>,
    registry: &mmg_telemetry::Registry,
) -> serde_json::Value {
    use serde_json::Value;
    let counters = registry
        .counters_snapshot()
        .values()
        .iter()
        .map(|(name, value)| (name.clone(), Value::from(*value)))
        .collect();
    let mut fields = vec![
        (
            "device".to_string(),
            serde_json::to_value(spec).expect("device specs always serialize"),
        ),
        (
            "experiments".to_string(),
            Value::Array(ids.iter().map(|id| Value::from(id.to_string())).collect()),
        ),
    ];
    if let Some(wall) = elapsed_s {
        fields.push(("elapsed_s".to_string(), Value::from(wall)));
    }
    fields.push(("counters".to_string(), Value::Object(counters)));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for e in ExperimentId::ALL {
            assert_eq!(e.to_string().parse::<ExperimentId>().unwrap(), e);
        }
        assert!("fig99".parse::<ExperimentId>().is_err());
    }

    #[test]
    fn claim_order_lists_every_experiment_once() {
        let mut ranks: Vec<usize> = ExperimentId::ALL.iter().map(|e| e.claim_rank()).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..ExperimentId::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("FIG6".parse::<ExperimentId>().unwrap(), ExperimentId::Fig6);
    }

    #[test]
    fn error_lists_options() {
        let e = "nope".parse::<ExperimentId>().unwrap_err();
        assert!(e.to_string().contains("table2"));
    }

    #[test]
    fn cheap_experiments_render() {
        let spec = DeviceSpec::a100_80gb();
        for id in [ExperimentId::Fig1, ExperimentId::Fig4, ExperimentId::Fig13, ExperimentId::Table3]
        {
            let out = run_experiment(id, &spec);
            assert!(!out.is_empty(), "{id}");
        }
    }

    #[test]
    fn cheap_experiments_emit_valid_json() {
        let spec = DeviceSpec::a100_80gb();
        for id in [ExperimentId::Fig4, ExperimentId::Fig13, ExperimentId::Tp] {
            let out = run_experiment_json(id, &spec);
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert!(v.is_object() || v.is_array(), "{id}");
        }
    }
}
