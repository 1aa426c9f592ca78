//! # mmg-analytics
//!
//! The paper's analytical studies, separate from the trace-driven
//! simulation:
//!
//! * [`fleet`] — the Fig. 1 fleet-wide study (GPUs per parameter, memory
//!   utilization) over a synthetic industry-scale training-job dataset.
//! * [`pareto`] — the Fig. 4 quality/size landscape and Pareto frontier
//!   over published (FID, parameters) points.
//! * [`roofline`] — the Fig. 5 roofline placement of the model suite.
//! * [`seqlen_model`] — Section V's closed-form framework for sequence
//!   length, similarity-matrix memory, and the `O(L⁴)` image-size law.
//! * [`temporal`] — Section VI's frame-scaling projection (Fig. 13).
//! * [`training`] — first-principles training-resource model behind Fig. 1.
//! * [`scheduling`] — the denoising-pod co-scheduling study Section V
//!   proposes as future work.

#![deny(missing_docs)]

pub mod fleet;
pub mod parallel;
pub mod pareto;
pub mod roofline;
pub mod scheduling;
pub mod seqlen_model;
pub mod temporal;
pub mod training;

/// Imagen-style base UNet training-step graph (64×64 pixel space), shared
/// by the training model.
#[must_use]
pub fn suite_imagen_base() -> mmg_graph::Graph {
    let cfg = mmg_models::suite::imagen::ImagenConfig::default();
    mmg_models::blocks::unet_step_graph(&cfg.base_unet(), 64, 1)
}
