//! `mmg-serve` — a deterministic discrete-event simulation of a
//! multi-GPU inference cluster serving the paper's model suite.
//!
//! The paper closes on "designing efficient and *deployable* systems"
//! for TTI/TTV workloads; this crate is the deployment story. It
//! simulates a fleet of GPUs serving a mixed request stream of suite
//! models, with service times grounded in the repo's roofline profiler
//! (per-model, per-batch-size cost curves — not hand-picked constants),
//! so the paper's system observations surface as cluster-level effects:
//!
//! - **Batching regimes** (Fig. 5): memory-bandwidth-bound
//!   autoregressive decode amortizes dramatically with batch size, the
//!   compute-bound diffusion UNet barely — so a dynamic batcher wins
//!   big on Parti/LLaMA traffic and modestly on Stable Diffusion.
//! - **Latency heterogeneity** (Table I / Fig. 4): the mix spans two
//!   orders of magnitude of service time, which is why SLOs here can be
//!   per-model multiples rather than one fixed deadline.
//! - **Pod co-scheduling** (Section V): overlapping compute- and
//!   memory-bound stages of concurrent requests buys throughput at
//!   load; the `pods` scheduler models that with per-model factors.
//!
//! Layering:
//!
//! - [`des`] — the event-queue kernel: virtual clock, deterministic
//!   `(time, insertion-seq)` ordering, no wall clock anywhere.
//! - [`workload`] — Poisson / bursty (Markov-modulated) / diurnal
//!   arrival processes, the weighted model [`RequestMix`], and
//!   [`RegionStream`], the one seeded `(time, model)` request stream
//!   every engine below draws its arrivals from, its uniforms drawn in
//!   blocks of 256.
//! - [`profile`] — [`ServiceProfile`]: per-model batch-size cost curves
//!   queried from the real profiler.
//! - [`cluster`] — routers (round-robin, least-work, model-affinity),
//!   schedulers (FIFO, static, deadline-aware dynamic, pods), SLOs,
//!   admission control and abandonment; [`simulate`] runs a scenario.
//! - [`report`] — the rendered reports: per-model p50/p95/p99, SLO
//!   attainment, goodput.
//! - [`flight`] — the bounded flight recorder: per-GPU batch timelines,
//!   scheduler instants, windowed counters (Chrome-trace export) and
//!   the always-on worst-latency request lifecycles; [`simulate_recorded`]
//!   runs a scenario with the recorder attached.
//!
//! Determinism: one seed fixes the entire sample path. Runs are
//! byte-identical across processes and thread counts. Each event loop
//! runs on one thread and all randomness flows from seeded
//! [`rand::rngs::StdRng`] streams. The one helper thread, which folds a
//! cluster run's completions into its stats, histograms and burn-rate
//! engine past 2^16 completions, sees the same values in the same order
//! as the loop's own thread would (see [`cluster`]).

#![deny(missing_docs)]

pub mod cluster;
pub mod des;
pub mod fleet;
pub mod flight;
pub mod kv;
pub mod profile;
pub mod report;
pub mod token;
pub mod workload;

pub use cluster::{
    simulate, simulate_recorded, EnergyStats, HealthReport, ModelStats, PhaseStats,
    RequestRecord, RouterKind, ScenarioCfg, SchedulerKind, ServeStats, SimResult, SloSpec,
    LATENCY_SKETCH_EPS,
};
pub use fleet::{
    run_cluster, AutoscalerPolicy, ClusterCfg, ClusterResult, FleetCfg, FleetReport, FleetResult,
    SpotChurn, FLEET_SKETCH_EPS, PRICE_PER_KWH,
};
pub use flight::{
    BatchSpan, Exemplars, FlightCfg, FlightRecorder, SchedEvent, SchedKind, ServeWindow,
    CLUSTER_LANE, FLIGHT_SKETCH_EPS,
};
pub use des::EventQueue;
pub use kv::{KvAdmission, KvLedger, GIB};
pub use profile::{kv_bytes_per_token, ServiceCurve, ServiceProfile, TokenServiceCurve};
pub use report::{SloReport, TokenReport};
pub use token::{
    simulate_token, simulate_token_recorded, PhasePriority, TokenBatching, TokenPhaseStats,
    TokenScenarioCfg, TokenSimResult, TokenSlo, TokenStats,
};
pub use workload::{
    model_short_name, parse_model, ArrivalGen, ArrivalProcess, LengthDist, LengthSampler,
    RegionStream, RequestMix, MAX_EXPECTED_ARRIVALS,
};
