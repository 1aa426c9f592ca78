//! # mmg-core
//!
//! The facade of the suite: one experiment runner per table and figure of
//! *"Generative AI Beyond LLMs: System Implications of Multi-Modal
//! Generation"* (ISPASS 2024), plus the `repro` CLI that renders them.
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | `fig1` | fleet GPUs/param + memory utilization | [`experiments::fig1`] |
//! | `table1` | model taxonomy | [`experiments::table1`] |
//! | `fig4` | FID/params Pareto frontier | [`experiments::fig4`] |
//! | `fig5` | A100 roofline placement | [`experiments::fig5`] |
//! | `fig6` | operator breakdown, baseline vs flash | [`experiments::fig6`] |
//! | `table2` | end-to-end Flash Attention speedup | [`experiments::table2`] |
//! | `table3` | prefill/decode correspondence | [`experiments::table3`] |
//! | `fig7` | sequence-length traces | [`experiments::fig7`] |
//! | `fig8` | SD sequence-length distribution vs image size | [`experiments::fig8`] |
//! | `fig9` | attention vs convolution scaling with image size | [`experiments::fig9`] |
//! | `fig11` | temporal vs spatial attention time/FLOPs | [`experiments::fig11`] |
//! | `fig12` | L1/L2 hit rates, spatial vs temporal | [`experiments::fig12`] |
//! | `fig13` | temporal FLOPs vs frame count | [`experiments::fig13`] |
//! | `secv` | Section V analytical memory model | [`experiments::secv`] |
//! | `flashdec` | extension: Flash-Decoding across the suite | [`experiments::flashdec`] |
//! | `optimize` | extension: optimization passes per model family | [`experiments::optimize`] |
//! | `pods` | extension: denoising-pod co-scheduling headroom | [`experiments::pods`] |
//! | `batch` | extension: batch-size sensitivity | [`experiments::batch`] |
//! | `tp` | extension: tensor-parallel decode | [`experiments::tp`] |
//! | `ablations` | extension: conv-algorithm and precision ablations | [`experiments::ablations`] |
//! | `serve-sweep` | extension: serving scheduler sweep on the DES | [`experiments::serve_sweep`] |
//! | `serve-timeline` | extension: windowed serving timeline | [`experiments::serve_timeline`] |
//! | `serve-attrib` | extension: latency attribution, SLO alerts | [`experiments::serve_attrib`] |
//! | `fleet-sweep` | extension: multi-cluster fleet policy sweep | [`experiments::fleet_sweep`] |
//! | `token-sweep` | extension: token-level serving sweep | [`experiments::token_sweep`] |
//! | `energy` | extension: power regimes, goodput/Wh frontier | [`experiments::energy`] |
//!
//! Every runner is deterministic and returns a serializable result; the
//! renderers produce the ASCII tables the CLI prints. An experiment that
//! profiles graphs has one entry point, `run_ctx`, which takes the
//! [`ExecContext`] holding the registry its telemetry lands in and the
//! operator-cost memo it shares; the analytic ones take plain `run`
//! arguments.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use mmg_core::experiments::table2;
//! use mmg_core::ExecContext;
//! use mmg_profiler::CostMemo;
//!
//! let ctx = ExecContext::isolated(mmg_gpu::DeviceSpec::a100_80gb(), Arc::new(CostMemo::new()));
//! let result = table2::run_ctx(&ctx);
//! assert_eq!(result.rows.len(), 8);
//! println!("{}", table2::render(&result));
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod experiments;
mod runner;

pub use engine::{run_cells_with, run_suite, run_suite_with, ExecContext};
pub use runner::{run_experiment_value_with, run_experiment_with, run_manifest, ExperimentId};
