//! # mmg-gpu
//!
//! The simulated measurement substrate that replaces the paper's NVIDIA
//! A100 GPUs. It has three parts:
//!
//! * [`DeviceSpec`] — published hardware constants (SM count, peak FLOP/s,
//!   HBM bandwidth, cache geometry, launch overhead) for A100/V100/H100.
//! * A trace-driven, set-associative, LRU [`cache`] model of the L1/L2
//!   hierarchy, used to reproduce the paper's Nsight Compute cache-hit-rate
//!   analysis (Fig. 12).
//! * A roofline-based timing engine ([`TimingEngine`]): a kernel's
//!   duration is the larger of its compute time (FLOPs over effective
//!   FLOP/s) and its memory time (HBM bytes over effective bandwidth),
//!   floored by a minimum kernel duration and charged a per-launch
//!   overhead. Effective rates are scaled by shape-dependent efficiency
//!   factors supplied by `mmg-kernels`.
//!
//! [`multistream`] adds an event-driven simulation of concurrent kernel
//! streams sharing the compute and memory pipes, used by the Section V
//! pod-scheduling study.
//!
//! The device model is calibrated to public A100 specifications; nothing in
//! it is fitted to the paper's figures.

#![deny(missing_docs)]

pub mod cache;
pub mod memo;
pub mod multistream;
mod roofline;
mod specs;
mod timing;

pub use cache::{
    CacheConfig, CacheGeometryError, CacheHierarchy, CacheStats, HierarchyStats, ProbeRun,
    SetAssociativeCache,
};
pub use memo::ShardedLru;
pub use roofline::{Roofline, RooflinePoint};
pub use specs::DeviceSpec;
pub use timing::{quantize_uj, KernelCost, KernelTime, TimingEngine};
