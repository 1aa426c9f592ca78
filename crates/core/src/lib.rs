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
//!
//! Every runner is deterministic and returns a serializable result; the
//! renderers produce the ASCII tables the CLI prints.
//!
//! # Example
//!
//! ```
//! use mmg_core::experiments::table2;
//!
//! let result = table2::run(&mmg_gpu::DeviceSpec::a100_80gb());
//! assert_eq!(result.rows.len(), 8);
//! println!("{}", table2::render(&result));
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod experiments;
mod runner;

pub use engine::{global_memo, run_cells_with, run_suite, run_suite_with, ExecContext};
pub use runner::{
    run_experiment, run_experiment_json, run_experiment_value, run_experiment_value_with,
    run_experiment_with, run_manifest, ExperimentId,
};
