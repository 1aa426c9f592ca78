//! Token-level autoregressive serving: continuous batching over a
//! KV-cache memory model.
//!
//! The cluster DES ([`crate::cluster`]) prices a request as one opaque
//! service-curve lookup; this engine opens that box for the paper's
//! autoregressive models (LLaMA, Parti, Muse). Requests carry sampled
//! prompt/output token lengths, and each GPU advances in **decode
//! iterations**:
//!
//! - **Continuous (in-flight) batching** — new requests join the
//!   running batch at iteration boundaries instead of waiting for the
//!   batch to drain (Orca/vLLM iteration-level scheduling).
//! - **Chunked prefill** — prompts are processed `chunk_tokens` at a
//!   time, interleaved with decode (Sarathi-style), under a
//!   decode-priority or prefill-priority policy.
//! - **KV-cache pressure** — every resident sequence pins
//!   `kv_bytes_per_token × (prompt + generated)` bytes against the
//!   SKU's HBM budget ([`KvLedger`]); admission is cache-aware and
//!   overflow is resolved by preempting the youngest sequence for
//!   later recompute.
//! - **Profiler-grounded step costs** — every iteration's duration is
//!   a [`TokenServiceCurve`] query, so batch-size amortization and
//!   context-length KV traffic come from the real kernel lowering.
//!
//! Latency decomposes into the phases production serving is judged on:
//! queue wait, TTFT (time-to-first-token) and TPOT (time-per-output-
//! token), each tracked in Greenwald–Khanna sketches. Determinism
//! matches the rest of the crate: one seed fixes the sample path and
//! runs are byte-identical across processes.

use std::collections::VecDeque;

use mmg_models::ModelId;
use mmg_telemetry::{latency_buckets_s, Histogram, QuantileSketch, Registry};

use crate::cluster::LATENCY_SKETCH_EPS;
use crate::des::EventQueue;
use crate::flight::{FlightCfg, FlightRecorder};
use crate::kv::{KvAdmission, KvLedger};
use crate::profile::{StepTable, TokenServiceCurve};
use crate::workload::{
    check_expected_arrivals, model_short_name, ArrivalProcess, LengthDist, LengthSampler,
    RegionStream, RequestMix,
};

/// How requests are grouped onto a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenBatching {
    /// Request-level batching: admit up to `batch` requests onto an
    /// idle GPU, run the whole group to completion, only then admit
    /// again. The pre-Orca baseline.
    Static {
        /// Maximum requests per batch.
        batch: usize,
    },
    /// Iteration-level (continuous) batching: admit waiting requests
    /// into the running batch at every iteration boundary, up to
    /// `max_batch` concurrent sequences.
    Continuous {
        /// Maximum concurrent sequences per GPU.
        max_batch: usize,
    },
}

impl TokenBatching {
    /// Parses `static` | `continuous` with a shared batch cap.
    pub fn parse(name: &str, batch: usize) -> Result<Self, String> {
        match name.to_lowercase().as_str() {
            "static" => Ok(TokenBatching::Static { batch }),
            "continuous" => Ok(TokenBatching::Continuous { max_batch: batch }),
            other => Err(format!(
                "unknown scheduler '{other}'; expected static | continuous"
            )),
        }
    }

    /// The batch-size cap.
    #[must_use]
    pub fn cap(&self) -> usize {
        match *self {
            TokenBatching::Static { batch } => batch,
            TokenBatching::Continuous { max_batch } => max_batch,
        }
    }

    /// The CLI name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TokenBatching::Static { .. } => "static",
            TokenBatching::Continuous { .. } => "continuous",
        }
    }
}

/// Which phase wins an iteration when both prefill and decode work is
/// pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePriority {
    /// Decode every ready sequence each iteration and piggyback at
    /// most `chunk_tokens` of prefill alongside (Sarathi-style chunked
    /// prefill: steady TPOT, slightly slower TTFT).
    Decode,
    /// Dedicate iterations to prefill whenever any sequence is still
    /// prefilling (fastest TTFT, but decode stalls — TPOT jitter).
    Prefill,
}

impl PhasePriority {
    /// Parses `decode` | `prefill`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_lowercase().as_str() {
            "decode" => Ok(PhasePriority::Decode),
            "prefill" => Ok(PhasePriority::Prefill),
            other => Err(format!(
                "unknown phase priority '{other}'; expected decode | prefill"
            )),
        }
    }

    /// The CLI name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PhasePriority::Decode => "decode",
            PhasePriority::Prefill => "prefill",
        }
    }
}

/// Per-request token-latency SLO: both bounds must hold for a request
/// to count toward goodput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenSlo {
    /// Time-to-first-token bound, seconds.
    pub ttft_s: f64,
    /// Time-per-output-token bound, seconds.
    pub tpot_s: f64,
}

impl TokenSlo {
    /// A deadline pair derived from the service curve itself: TTFT
    /// within `4×` an uncontended prefill + first step, TPOT within
    /// `4×` the per-token cost of a full batch at mid-generation
    /// context — tight enough that schedulers differ, loose enough
    /// that an unloaded cluster passes comfortably.
    #[must_use]
    pub fn from_curve(curve: &TokenServiceCurve, prompt_mean: f64, output_mean: f64, cap: usize) -> Self {
        let out = curve.fixed_output_tokens.map_or(output_mean, |n| n as f64);
        let ctx = prompt_mean + out / 2.0;
        TokenSlo {
            ttft_s: 4.0 * (curve.prefill_cum_s(prompt_mean) + curve.step_s(cap, prompt_mean)),
            tpot_s: 4.0 * curve.step_s(cap, ctx) / curve.tokens_per_step as f64,
        }
    }
}

/// A token-serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenScenarioCfg {
    /// GPUs in the cluster.
    pub gpus: usize,
    /// The (autoregressive) model served.
    pub model: ModelId,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Batching discipline.
    pub batching: TokenBatching,
    /// Prefill/decode phase priority.
    pub priority: PhasePriority,
    /// KV-cache admission policy.
    pub admission: KvAdmission,
    /// Prefill chunk size, tokens per iteration.
    pub chunk_tokens: usize,
    /// Prompt-length distribution.
    pub prompt: LengthDist,
    /// Output-length distribution (ignored for fixed-grid models).
    pub output: LengthDist,
    /// The goodput SLO.
    pub slo: TokenSlo,
    /// Arrival horizon, seconds: requests arrive in `[0, duration_s)`,
    /// and the run drains afterwards.
    pub duration_s: f64,
    /// Hard cap on arrivals (`None` = horizon only); `Some(0)` runs no
    /// arrivals at all.
    pub max_requests: Option<u64>,
    /// Master seed for arrivals and length sampling.
    pub seed: u64,
}

impl TokenScenarioCfg {
    /// Checks the scenario can run and terminate.
    ///
    /// # Errors
    ///
    /// Zero GPUs, a zero batch cap, a zero prefill chunk, a prompt or
    /// output length bound above `u32::MAX` tokens, a horizon or mean
    /// arrival rate that is not positive and finite (an infinite one
    /// never stops generating arrivals), more expected arrivals than
    /// [`crate::MAX_EXPECTED_ARRIVALS`], or a non-AR model.
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus == 0 {
            return Err("need at least one GPU".into());
        }
        if self.batching.cap() == 0 {
            return Err("batch cap must be positive".into());
        }
        if self.chunk_tokens == 0 {
            return Err("prefill chunk must be positive".into());
        }
        for (name, dist) in [("prompt", &self.prompt), ("output", &self.output)] {
            if u32::try_from(dist.max).is_err() {
                return Err(format!(
                    "{name} length bound of {} tokens exceeds the {} a sequence can hold",
                    dist.max,
                    u32::MAX
                ));
            }
        }
        // Spelled to reject NaN too, which fails every comparison.
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(format!("duration must be positive and finite, got {}", self.duration_s));
        }
        check_expected_arrivals(
            self.arrival,
            self.duration_s,
            self.max_requests,
            "--util, --rate or --duration-s, or cap the run with --requests",
        )?;
        if !TokenServiceCurve::supports(self.model) {
            return Err(format!(
                "{} is not autoregressive; token serving needs llama | parti | muse",
                self.model
            ));
        }
        Ok(())
    }

    /// Checks that a per-GPU KV budget fits the smallest request this
    /// scenario can draw: the shortest prompt (when the model keeps
    /// prompt KV) plus the shortest output, sized by
    /// [`TokenServiceCurve::request_kv_bytes`] as the drop-at-door rule
    /// sizes every arrival.
    ///
    /// # Errors
    ///
    /// A budget below that floor, under which every arrival would be
    /// dropped at the door and the run would decode nothing.
    pub fn validate_kv_budget(
        &self,
        curve: &TokenServiceCurve,
        kv_budget_bytes: u64,
    ) -> Result<(), String> {
        let output = curve.fixed_output_tokens.unwrap_or(self.output.min);
        let floor = curve.request_kv_bytes(self.prompt.min as u64, output as u64);
        if kv_budget_bytes < floor {
            return Err(format!(
                "KV budget of {kv_budget_bytes} B per GPU is below the smallest request's \
                 KV footprint of {floor} B ({:.1} MiB); every arrival would be dropped, \
                 so raise --kv-budget",
                floor as f64 / (1u64 << 20) as f64
            ));
        }
        Ok(())
    }
}

/// Streaming phase-latency aggregates for a token run.
#[derive(Debug, Clone)]
pub struct TokenPhaseStats {
    /// Queue wait (arrival → first admission into a running batch).
    pub queue: QuantileSketch,
    /// Time-to-first-token (arrival → first output token).
    pub ttft: QuantileSketch,
    /// Time-per-output-token (steady decode pace after first token).
    pub tpot: QuantileSketch,
    /// End-to-end latency (arrival → last token).
    pub e2e: QuantileSketch,
    /// Exact sums, seconds, for mean computation.
    pub queue_sum_s: f64,
    /// Exact TTFT sum, seconds.
    pub ttft_sum_s: f64,
    /// Exact TPOT sum, seconds.
    pub tpot_sum_s: f64,
    /// Exact end-to-end sum, seconds.
    pub e2e_sum_s: f64,
}

impl TokenPhaseStats {
    fn new() -> Self {
        TokenPhaseStats {
            queue: QuantileSketch::new(LATENCY_SKETCH_EPS),
            ttft: QuantileSketch::new(LATENCY_SKETCH_EPS),
            tpot: QuantileSketch::new(LATENCY_SKETCH_EPS),
            e2e: QuantileSketch::new(LATENCY_SKETCH_EPS),
            queue_sum_s: 0.0,
            ttft_sum_s: 0.0,
            tpot_sum_s: 0.0,
            e2e_sum_s: 0.0,
        }
    }

    fn observe(&mut self, queue_s: f64, ttft_s: f64, tpot_s: f64, e2e_s: f64) {
        self.queue.observe(queue_s);
        self.ttft.observe(ttft_s);
        self.tpot.observe(tpot_s);
        self.e2e.observe(e2e_s);
        self.queue_sum_s += queue_s;
        self.ttft_sum_s += ttft_s;
        self.tpot_sum_s += tpot_s;
        self.e2e_sum_s += e2e_s;
    }

    fn flush(&mut self) {
        self.queue.flush();
        self.ttft.flush();
        self.tpot.flush();
        self.e2e.flush();
    }
}

/// Counters and sketches aggregated over a token run.
#[derive(Debug, Clone)]
pub struct TokenStats {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that completed (all output tokens produced).
    pub completed: u64,
    /// Completions that met both SLO bounds.
    pub on_time: u64,
    /// Arrivals dropped because a single sequence could never fit the
    /// KV budget.
    pub dropped_oversized: u64,
    /// Output tokens decoded.
    pub decoded_tokens: u64,
    /// Prompt tokens prefilled (recompute counts again).
    pub prefilled_tokens: u64,
    /// Decode iterations executed.
    pub iterations: u64,
    /// Sum of decode batch sizes over iterations with decode work.
    pub decode_batch_sum: u64,
    /// Iterations that carried decode work.
    pub decode_iterations: u64,
    /// Phase-latency aggregates.
    pub phases: TokenPhaseStats,
}

impl TokenStats {
    fn new() -> Self {
        TokenStats {
            arrivals: 0,
            completed: 0,
            on_time: 0,
            dropped_oversized: 0,
            decoded_tokens: 0,
            prefilled_tokens: 0,
            iterations: 0,
            decode_batch_sum: 0,
            decode_iterations: 0,
            phases: TokenPhaseStats::new(),
        }
    }
}

/// The outcome of a token-serving simulation.
#[derive(Debug, Clone)]
pub struct TokenSimResult {
    /// The model served.
    pub model: ModelId,
    /// GPUs simulated.
    pub gpus: usize,
    /// Scheduler name (`static` | `continuous`).
    pub scheduler: &'static str,
    /// Phase-priority name.
    pub priority: &'static str,
    /// Admission-policy name.
    pub admission: &'static str,
    /// The SLO judged against.
    pub slo: TokenSlo,
    /// Aggregated counters and sketches.
    pub stats: TokenStats,
    /// Final per-GPU KV ledgers (resident must be zero after drain).
    pub kv: Vec<KvLedger>,
    /// Per-GPU busy seconds.
    pub busy_s: Vec<f64>,
    /// Time of the last simulated event (≥ `duration_s`).
    pub end_s: f64,
}

impl TokenSimResult {
    /// Simulated decoded tokens per simulated second.
    #[must_use]
    pub fn tokens_per_sim_s(&self) -> f64 {
        self.stats.decoded_tokens as f64 / self.end_s.max(1e-9)
    }

    /// Completed requests per second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        self.stats.completed as f64 / self.end_s.max(1e-9)
    }

    /// On-time completions per second.
    #[must_use]
    pub fn goodput_rps(&self) -> f64 {
        self.stats.on_time as f64 / self.end_s.max(1e-9)
    }

    /// Fraction of completions that met both SLO bounds.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.stats.completed == 0 {
            return 1.0;
        }
        self.stats.on_time as f64 / self.stats.completed as f64
    }

    /// Mean GPU busy fraction.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.busy_s.iter().sum();
        busy / (self.gpus as f64 * self.end_s.max(1e-9))
    }

    /// Mean decode batch size over decode-carrying iterations.
    #[must_use]
    pub fn mean_decode_batch(&self) -> f64 {
        if self.stats.decode_iterations == 0 {
            return 0.0;
        }
        self.stats.decode_batch_sum as f64 / self.stats.decode_iterations as f64
    }

    /// Preemptions summed over GPUs.
    #[must_use]
    pub fn preemptions(&self) -> u64 {
        self.kv.iter().map(|l| l.preemptions).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival,
    Step { gpu: u32 },
}

/// One in-flight (or queued) sequence. Slots are pooled and reused.
#[derive(Debug, Clone, Copy)]
struct Seq {
    arrival_s: f64,
    admitted_s: f64,
    first_token_s: f64,
    prompt: u32,
    output: u32,
    prefilled: u32,
    decoded: u32,
}

struct GpuState {
    waiting: VecDeque<u32>,
    running: Vec<u32>,
    ledger: KvLedger,
    busy_s: f64,
    stepping: bool,
}

struct TokenSim<'a> {
    cfg: &'a TokenScenarioCfg,
    curve: &'a TokenServiceCurve,
    steps: StepTable<'a>,
    queue: EventQueue<Event>,
    gpus: Vec<GpuState>,
    slots: Vec<Seq>,
    free_slots: Vec<u32>,
    arrivals: RegionStream,
    prompt_len: LengthSampler,
    output_len: LengthSampler,
    stats: TokenStats,
    flight: Option<FlightRecorder>,
    ttft_hist: Histogram,
    tpot_hist: Histogram,
    // Reusable per-iteration buffers (no allocation on the hot path).
    decode_members: Vec<u32>,
    prefill_work: Vec<(u32, u32, u32)>,
    has_prompt_kv: bool,
}

impl<'a> TokenSim<'a> {
    fn new(
        cfg: &'a TokenScenarioCfg,
        curve: &'a TokenServiceCurve,
        kv_budget_bytes: u64,
        registry: &Registry,
        flight: Option<FlightRecorder>,
    ) -> Self {
        let model = model_short_name(cfg.model);
        let buckets = latency_buckets_s();
        TokenSim {
            cfg,
            curve,
            steps: StepTable::new(curve),
            queue: EventQueue::new(),
            gpus: (0..cfg.gpus)
                .map(|_| GpuState {
                    waiting: VecDeque::new(),
                    running: Vec::new(),
                    ledger: KvLedger::new(kv_budget_bytes),
                    busy_s: 0.0,
                    stepping: false,
                })
                .collect(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            arrivals: RegionStream::seeded(
                cfg.arrival,
                RequestMix::single(cfg.model),
                cfg.seed,
                cfg.seed.wrapping_add(1),
                cfg.max_requests,
            ),
            prompt_len: LengthSampler::new(cfg.prompt, cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            output_len: LengthSampler::new(cfg.output, cfg.seed ^ 0x5851_f42d_4c95_7f2d),
            stats: TokenStats::new(),
            flight,
            ttft_hist: registry.histogram_with("serve_token_ttft_s", &[("model", model)], &buckets),
            tpot_hist: registry.histogram_with("serve_token_tpot_s", &[("model", model)], &buckets),
            decode_members: Vec::new(),
            prefill_work: Vec::new(),
            has_prompt_kv: !curve.prefill_s.is_empty(),
        }
    }

    fn run(mut self, registry: &Registry) -> (TokenSimResult, Option<FlightRecorder>) {
        self.drive();
        // The run ends at its last event, or at the horizon if that is
        // later.
        let end_s = self.queue.now_s().max(self.cfg.duration_s);
        self.stats.phases.flush();
        self.publish(registry, end_s);
        let result = TokenSimResult {
            model: self.cfg.model,
            gpus: self.cfg.gpus,
            scheduler: self.cfg.batching.name(),
            priority: self.cfg.priority.name(),
            admission: self.cfg.admission.name(),
            slo: self.cfg.slo,
            stats: self.stats,
            kv: self.gpus.iter().map(|g| g.ledger.clone()).collect(),
            busy_s: self.gpus.iter().map(|g| g.busy_s).collect(),
            end_s,
        };
        (result, self.flight)
    }

    /// Runs the event loop until the last sequence drains.
    fn drive(&mut self) {
        self.schedule_next_arrival();
        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                Event::Arrival => self.on_arrival(t),
                Event::Step { gpu } => {
                    self.gpus[gpu as usize].stepping = false;
                    self.plan(gpu as usize, t);
                }
            }
        }
    }

    /// KV-resident tokens of a sequence's prompt (zero for models whose
    /// conditioning lives outside the cache).
    fn prompt_kv_tokens(&self, seq: &Seq) -> u64 {
        if self.has_prompt_kv {
            seq.prompt as u64
        } else {
            0
        }
    }

    /// KV bytes a sequence holds: its prefilled prompt (when the model
    /// keeps prompt KV) and its decoded tokens.
    fn resident_bytes(&self, seq: &Seq) -> u64 {
        let prefilled = if self.has_prompt_kv { seq.prefilled } else { 0 };
        (u64::from(prefilled) + u64::from(seq.decoded)) * self.curve.kv_bytes_per_token
    }

    /// KV bytes a running sequence holds reserved: the admission demand
    /// it was admitted with, which depends only on its lengths.
    fn admission_demand(&self, seq: &Seq) -> u64 {
        let prompt = self.prompt_kv_tokens(seq);
        let total = match self.cfg.admission {
            KvAdmission::Prompt => prompt,
            KvAdmission::Reserve => prompt + seq.output as u64,
        };
        total * self.curve.kv_bytes_per_token
    }

    fn on_arrival(&mut self, t: f64) {
        self.stats.arrivals += 1;
        let prompt = self.prompt_len.sample() as u32;
        let output = self
            .curve
            .fixed_output_tokens
            .map_or_else(|| self.output_len.sample() as u32, |n| n as u32);
        let seq = Seq {
            arrival_s: t,
            admitted_s: -1.0,
            first_token_s: -1.0,
            prompt,
            output,
            prefilled: if self.has_prompt_kv { 0 } else { prompt },
            decoded: 0,
        };
        // A sequence whose full footprint can never fit is dropped at
        // the door — admitting it would deadlock the preemption loop.
        let max_bytes = self.curve.request_kv_bytes(u64::from(seq.prompt), u64::from(seq.output));
        if max_bytes > self.gpus[0].ledger.budget_bytes {
            self.stats.dropped_oversized += 1;
        } else {
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.slots[s as usize] = seq;
                    s
                }
                None => {
                    self.slots.push(seq);
                    (self.slots.len() - 1) as u32
                }
            };
            // Join the shortest queue (waiting + running), lowest GPU
            // index on ties — deterministic least-outstanding routing.
            let gpu = (0..self.gpus.len())
                .min_by_key(|&g| self.gpus[g].waiting.len() + self.gpus[g].running.len())
                .expect("at least one GPU");
            self.gpus[gpu].waiting.push_back(slot);
            if !self.gpus[gpu].stepping {
                self.plan(gpu, t);
            }
        }
        self.schedule_next_arrival();
    }

    /// Schedules the stream's next arrival, if it falls before the
    /// horizon within the request cap.
    fn schedule_next_arrival(&mut self) {
        if let Some((t, _)) = self.arrivals.next_before(self.cfg.duration_s) {
            self.queue.schedule(t, Event::Arrival);
        }
    }

    /// Retires finished sequences, admits waiting ones, plans and
    /// launches the next iteration on `gpu`. Called at every iteration
    /// boundary (and on arrival to an idle GPU).
    fn plan(&mut self, gpu: usize, now: f64) {
        self.retire(gpu, now);
        let admit_wait_max = self.admit(gpu, now);

        // Plan the iteration's work; re-plan after every preemption
        // until the KV growth fits the budget.
        let bpt = self.curve.kv_bytes_per_token;
        let tokens_per_step = self.curve.tokens_per_step as u32;
        // No prompt is longer than `u32::MAX` tokens (`validate`), so a
        // larger chunk plans exactly as an unbounded one.
        let chunk = u32::try_from(self.cfg.chunk_tokens).unwrap_or(u32::MAX);
        loop {
            self.decode_members.clear();
            self.prefill_work.clear();
            let g = &self.gpus[gpu];
            let mut prefill_budget = chunk;
            let decode_allowed = self.cfg.priority == PhasePriority::Decode
                || !g.running.iter().any(|&s| {
                    let q = &self.slots[s as usize];
                    q.prefilled < q.prompt
                });
            let mut growth_tokens: u64 = 0;
            for &s in &g.running {
                let q = &self.slots[s as usize];
                if q.prefilled < q.prompt {
                    if prefill_budget > 0 {
                        let take = (q.prompt - q.prefilled).min(prefill_budget);
                        self.prefill_work.push((s, q.prefilled, q.prefilled + take));
                        prefill_budget -= take;
                        growth_tokens += take as u64;
                    }
                } else if decode_allowed && q.decoded < q.output {
                    self.decode_members.push(s);
                    growth_tokens += tokens_per_step.min(q.output - q.decoded) as u64;
                }
            }
            if self.gpus[gpu].ledger.fits(growth_tokens * bpt) {
                break;
            }
            self.preempt_youngest(gpu);
        }

        if self.decode_members.is_empty() && self.prefill_work.is_empty() {
            // Idle: running is empty (or exclusively prefill-starved,
            // impossible since chunk_tokens > 0) and nothing waited.
            debug_assert!(self.gpus[gpu].running.is_empty());
            return;
        }

        // Apply the iteration: advance counters, grow the cache, price
        // the step, and schedule the boundary.
        let mut iter_s = 0.0;
        let mut growth_bytes: u64 = 0;
        let mut decode_tokens: u64 = 0;
        let mut ctx_sum: u64 = 0;
        for &(s, from, to) in &self.prefill_work {
            iter_s += self.curve.prefill_chunk_s(from as usize, to as usize);
            self.slots[s as usize].prefilled = to;
            let grown = (to - from) as u64;
            growth_bytes += grown * bpt;
            self.stats.prefilled_tokens += grown;
        }
        let n_decode = self.decode_members.len();
        let mut awaiting_first_token = false;
        for &s in &self.decode_members {
            let q = &mut self.slots[s as usize];
            let prompt_kv = if self.has_prompt_kv { q.prompt as u64 } else { 0 };
            ctx_sum += prompt_kv + q.decoded as u64;
            let new = tokens_per_step.min(q.output - q.decoded);
            q.decoded += new;
            growth_bytes += new as u64 * bpt;
            decode_tokens += new as u64;
            awaiting_first_token |= q.first_token_s < 0.0;
        }
        if n_decode > 0 {
            let mean_ctx = ctx_sum as f64 / n_decode as f64;
            iter_s += self.steps.step_s(n_decode, mean_ctx);
            self.stats.decode_batch_sum += n_decode as u64;
            self.stats.decode_iterations += 1;
        }
        self.stats.decoded_tokens += decode_tokens;
        self.stats.iterations += 1;

        let ledger = &mut self.gpus[gpu].ledger;
        ledger.alloc(growth_bytes);
        // The conservation invariant, per GPU, per iteration.
        ledger.assert_conserved();
        #[cfg(debug_assertions)]
        {
            let resident: u64 = self.gpus[gpu]
                .running
                .iter()
                .map(|&s| self.resident_bytes(&self.slots[s as usize]))
                .sum();
            debug_assert_eq!(resident, self.gpus[gpu].ledger.resident_bytes);
        }

        debug_assert!(iter_s > 0.0, "an iteration with work must take time");
        let finish = now + iter_s;
        // First-token instants land at the end of the iteration that
        // produced them.
        if awaiting_first_token {
            for &s in &self.decode_members {
                let q = &mut self.slots[s as usize];
                if q.first_token_s < 0.0 && q.decoded > 0 {
                    q.first_token_s = finish;
                }
            }
        }
        let g = &mut self.gpus[gpu];
        g.busy_s += iter_s;
        g.stepping = true;
        let queued_left = g.waiting.len();
        let members = n_decode + self.prefill_work.len();
        if let Some(f) = self.flight.as_mut() {
            f.on_launch(
                gpu,
                self.cfg.model,
                members,
                now,
                finish,
                admit_wait_max,
                queued_left,
                false,
                // The token-level sim has no power model yet; its flight
                // windows stay unmetered.
                0.0,
            );
        }
        self.queue.schedule(finish, Event::Step { gpu: gpu as u32 });
    }

    fn retire(&mut self, gpu: usize, now: f64) {
        let mut i = 0;
        while i < self.gpus[gpu].running.len() {
            let slot = self.gpus[gpu].running[i];
            let q = self.slots[slot as usize];
            if q.decoded < q.output {
                i += 1;
                continue;
            }
            self.gpus[gpu].running.remove(i);
            let (resident, reserved) = (self.resident_bytes(&q), self.admission_demand(&q));
            let ledger = &mut self.gpus[gpu].ledger;
            ledger.free(resident);
            ledger.unreserve(reserved);
            let queue_s = q.admitted_s - q.arrival_s;
            let ttft_s = q.first_token_s - q.arrival_s;
            let tpot_s = (now - q.first_token_s) / f64::from((q.output - 1).max(1));
            let e2e_s = now - q.arrival_s;
            let on_time = ttft_s <= self.cfg.slo.ttft_s && tpot_s <= self.cfg.slo.tpot_s;
            self.stats.completed += 1;
            self.stats.on_time += u64::from(on_time);
            self.stats.phases.observe(queue_s, ttft_s, tpot_s, e2e_s);
            self.ttft_hist.observe(ttft_s);
            self.tpot_hist.observe(tpot_s);
            if let Some(f) = self.flight.as_mut() {
                f.on_complete(now, e2e_s, on_time);
            }
            self.free_slots.push(slot);
        }
    }

    /// Admits waiting sequences at an iteration boundary; returns the
    /// longest wait among the newly admitted (for the flight lane).
    fn admit(&mut self, gpu: usize, now: f64) -> f64 {
        if matches!(self.cfg.batching, TokenBatching::Static { .. })
            && !self.gpus[gpu].running.is_empty()
        {
            return 0.0; // static batching: drain fully before re-admitting
        }
        let cap = self.cfg.batching.cap();
        let mut wait_max = 0.0f64;
        while self.gpus[gpu].running.len() < cap {
            let Some(&slot) = self.gpus[gpu].waiting.front() else {
                break;
            };
            let demand = self.admission_demand(&self.slots[slot as usize]);
            if !self.gpus[gpu].ledger.can_admit(demand) {
                break; // cache-aware admission: head-of-line blocks
            }
            self.gpus[gpu].waiting.pop_front();
            self.gpus[gpu].ledger.reserve(demand);
            let q = &mut self.slots[slot as usize];
            if q.admitted_s < 0.0 {
                q.admitted_s = now;
                wait_max = wait_max.max(now - q.arrival_s);
            }
            self.gpus[gpu].running.push(slot);
        }
        wait_max
    }

    /// Evicts the youngest running sequence for recompute. The oldest
    /// sequence is never preempted, which guarantees forward progress
    /// (its full footprint fits the budget by the arrival-time check).
    fn preempt_youngest(&mut self, gpu: usize) {
        assert!(
            self.gpus[gpu].running.len() > 1,
            "single sequence cannot outgrow the budget (oversized arrivals are dropped)"
        );
        let slot = self.gpus[gpu].running.pop().expect("non-empty running set");
        let q = &self.slots[slot as usize];
        let (resident, reserved) = (self.resident_bytes(q), self.admission_demand(q));
        let g = &mut self.gpus[gpu];
        g.ledger.free(resident);
        g.ledger.unreserve(reserved);
        g.ledger.count_preemption();
        // Eviction-and-recompute: all progress is lost; the sequence
        // re-enters at the head of the queue and replays prefill and
        // decode (TTFT keeps the first delivery instant).
        let q = &mut self.slots[slot as usize];
        q.decoded = 0;
        q.prefilled = if self.has_prompt_kv { 0 } else { q.prompt };
        g.waiting.push_front(slot);
    }

    fn publish(&self, registry: &Registry, end_s: f64) {
        let model = model_short_name(self.cfg.model);
        let labels: &[(&str, &str)] = &[("model", model)];
        registry.describe("serve_token_requests_total", "token-serving arrivals");
        registry.describe("serve_token_completed_total", "token-serving completions");
        registry.describe(
            "serve_token_dropped_total",
            "arrivals dropped because one sequence exceeds the KV budget",
        );
        registry.describe("serve_token_decoded_tokens_total", "output tokens decoded");
        registry.describe(
            "serve_token_prefill_tokens_total",
            "prompt tokens prefilled (recompute counts again)",
        );
        registry.describe("serve_token_iterations_total", "decode iterations executed");
        registry.describe(
            "serve_kv_preemptions_total",
            "sequences evicted for recompute under KV-cache pressure",
        );
        registry.describe("serve_kv_bytes_allocated_total", "cumulative KV bytes allocated");
        registry.describe("serve_kv_bytes_freed_total", "cumulative KV bytes freed");
        registry.describe("serve_kv_peak_bytes", "per-GPU peak resident KV bytes");
        registry.describe("serve_kv_resident_bytes", "per-GPU final resident KV bytes");
        registry.describe("serve_token_ttft_s", "time-to-first-token, seconds");
        registry.describe("serve_token_tpot_s", "time-per-output-token, seconds");
        registry.describe("serve_token_gpu_utilization", "per-GPU busy fraction");
        let s = &self.stats;
        registry.counter_with("serve_token_requests_total", labels).add(s.arrivals);
        registry.counter_with("serve_token_completed_total", labels).add(s.completed);
        registry.counter_with("serve_token_dropped_total", labels).add(s.dropped_oversized);
        registry
            .counter_with("serve_token_decoded_tokens_total", labels)
            .add(s.decoded_tokens);
        registry
            .counter_with("serve_token_prefill_tokens_total", labels)
            .add(s.prefilled_tokens);
        registry.counter_with("serve_token_iterations_total", labels).add(s.iterations);
        let preemptions: u64 = self.gpus.iter().map(|g| g.ledger.preemptions).sum();
        registry.counter_with("serve_kv_preemptions_total", labels).add(preemptions);
        let allocated: u64 = self.gpus.iter().map(|g| g.ledger.allocated_total).sum();
        let freed: u64 = self.gpus.iter().map(|g| g.ledger.freed_total).sum();
        registry.counter_with("serve_kv_bytes_allocated_total", labels).add(allocated);
        registry.counter_with("serve_kv_bytes_freed_total", labels).add(freed);
        for (i, g) in self.gpus.iter().enumerate() {
            let gpu = i.to_string();
            let glabels: &[(&str, &str)] = &[("gpu", &gpu)];
            registry
                .gauge_with("serve_kv_peak_bytes", glabels)
                .set(g.ledger.peak_resident_bytes as f64);
            registry
                .gauge_with("serve_kv_resident_bytes", glabels)
                .set(g.ledger.resident_bytes as f64);
            registry
                .gauge_with("serve_token_gpu_utilization", glabels)
                .set(g.busy_s / end_s.max(1e-9));
        }
    }
}

/// Runs a token-serving scenario against a service curve, streaming
/// telemetry into `registry`. Deterministic: one seed fixes the whole
/// sample path.
///
/// # Panics
///
/// Panics on an invalid scenario ([`TokenScenarioCfg::validate`]) or a
/// curve/model mismatch.
#[must_use]
pub fn simulate_token(
    cfg: &TokenScenarioCfg,
    curve: &TokenServiceCurve,
    kv_budget_bytes: u64,
    registry: &Registry,
) -> TokenSimResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid token scenario: {e}");
    }
    assert_eq!(cfg.model, curve.model, "scenario/curve model mismatch");
    TokenSim::new(cfg, curve, kv_budget_bytes, registry, None).run(registry).0
}

/// Like [`simulate_token`] with the flight recorder attached: iteration
/// batches land on per-GPU lanes, arrivals/completions on the cluster
/// lane.
///
/// # Panics
///
/// Panics on an invalid scenario ([`TokenScenarioCfg::validate`]) or a
/// curve/model mismatch.
#[must_use]
pub fn simulate_token_recorded(
    cfg: &TokenScenarioCfg,
    curve: &TokenServiceCurve,
    kv_budget_bytes: u64,
    registry: &Registry,
    flight_cfg: FlightCfg,
) -> (TokenSimResult, FlightRecorder) {
    if let Err(e) = cfg.validate() {
        panic!("invalid token scenario: {e}");
    }
    assert_eq!(cfg.model, curve.model, "scenario/curve model mismatch");
    let recorder = FlightRecorder::new(flight_cfg, cfg.gpus);
    let (result, flight) =
        TokenSim::new(cfg, curve, kv_budget_bytes, registry, Some(recorder)).run(registry);
    (result, flight.expect("recorder attached"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A hand-built curve with llama-like shape: decode amortizes with
    /// batch, grows with context; prefill is ~linear. Keeps engine
    /// tests free of profiler cost.
    pub(crate) fn toy_curve() -> TokenServiceCurve {
        TokenServiceCurve {
            model: ModelId::Llama2,
            batch_knots: vec![1, 8, 32],
            ctx_knots: vec![128, 1024],
            step_s: vec![vec![0.005, 0.008, 0.014], vec![0.006, 0.010, 0.020]],
            prefill_s: vec![(512, 0.04), (2048, 0.20)],
            tokens_per_step: 1,
            fixed_output_tokens: None,
            kv_bytes_per_token: 512 * 1024,
            weight_bytes: 14 << 30,
        }
    }

    fn base_cfg(batching: TokenBatching, seed: u64) -> TokenScenarioCfg {
        TokenScenarioCfg {
            gpus: 2,
            model: ModelId::Llama2,
            arrival: ArrivalProcess::poisson(20.0),
            batching,
            priority: PhasePriority::Decode,
            admission: KvAdmission::Prompt,
            chunk_tokens: 256,
            prompt: LengthDist::new(512.0, 0.3, 16, 4096),
            output: LengthDist::new(128.0, 0.3, 4, 1024),
            slo: TokenSlo { ttft_s: 0.5, tpot_s: 0.05 },
            duration_s: 60.0,
            max_requests: None,
            seed,
        }
    }

    const AMPLE: u64 = 64 << 30;

    #[test]
    fn run_completes_and_conserves_kv() {
        let cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 7);
        let reg = Registry::new();
        let r = simulate_token(&cfg, &toy_curve(), AMPLE, &reg);
        assert!(r.stats.arrivals > 500, "arrivals: {}", r.stats.arrivals);
        assert_eq!(r.stats.completed + r.stats.dropped_oversized, r.stats.arrivals);
        assert!(r.stats.decoded_tokens > 10_000);
        // After the drain every byte allocated was freed, per GPU.
        for l in &r.kv {
            l.assert_conserved();
            assert_eq!(l.resident_bytes, 0, "cache must drain");
            assert_eq!(l.allocated_total, l.freed_total);
            assert!(l.peak_resident_bytes > 0);
        }
        // Phase sketches are populated and ordered sanely.
        let p = &r.stats.phases;
        assert_eq!(p.e2e.count(), r.stats.completed);
        assert!(p.ttft.quantile(0.5).unwrap() > 0.0);
        assert!(p.tpot.quantile(0.5).unwrap() > 0.0);
        assert!(r.utilization() > 0.05 && r.utilization() <= 1.0);
        assert_eq!(
            reg.counter_with("serve_token_completed_total", &[("model", "llama")]).get(),
            r.stats.completed
        );
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 11);
        let a = simulate_token(&cfg, &toy_curve(), AMPLE, &Registry::new());
        let b = simulate_token(&cfg, &toy_curve(), AMPLE, &Registry::new());
        assert_eq!(a.stats.arrivals, b.stats.arrivals);
        assert_eq!(a.stats.decoded_tokens, b.stats.decoded_tokens);
        assert_eq!(a.stats.iterations, b.stats.iterations);
        assert_eq!(
            a.stats.phases.e2e_sum_s.to_bits(),
            b.stats.phases.e2e_sum_s.to_bits(),
            "sample paths diverged"
        );
        let c =
            simulate_token(&base_cfg(TokenBatching::Continuous { max_batch: 16 }, 12), &toy_curve(), AMPLE, &Registry::new());
        assert_ne!(
            a.stats.phases.e2e_sum_s.to_bits(),
            c.stats.phases.e2e_sum_s.to_bits(),
            "different seeds must diverge"
        );
    }

    #[test]
    fn tight_budget_preempts_and_recovers() {
        // 512 KiB/token × ~640 tokens ≈ 320 MiB per sequence. A 1 GiB
        // budget fits ~3 concurrent sequences — decode growth under
        // Prompt admission must hit the ceiling and preempt.
        let mut cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 5);
        cfg.duration_s = 30.0;
        let tight = 1 << 30;
        let r = simulate_token(&cfg, &toy_curve(), tight, &Registry::new());
        assert!(r.preemptions() > 0, "tight budget must preempt");
        assert_eq!(r.stats.completed + r.stats.dropped_oversized, r.stats.arrivals);
        for l in &r.kv {
            l.assert_conserved();
            assert_eq!(l.resident_bytes, 0);
        }
        // Reserve admission never preempts, even under the same
        // pressure — it pays with queueing instead.
        cfg.admission = KvAdmission::Reserve;
        let rr = simulate_token(&cfg, &toy_curve(), tight, &Registry::new());
        assert_eq!(rr.preemptions(), 0, "reserve admission cannot preempt");
        // Ample budget: no preemptions either.
        cfg.admission = KvAdmission::Prompt;
        let ra = simulate_token(&cfg, &toy_curve(), AMPLE, &Registry::new());
        assert_eq!(ra.preemptions(), 0, "ample budget must not preempt");
    }

    #[test]
    fn oversized_sequences_drop_at_the_door() {
        let mut cfg = base_cfg(TokenBatching::Continuous { max_batch: 8 }, 3);
        cfg.duration_s = 10.0;
        // Budget below one median sequence's footprint: most arrivals
        // can never fit and must be counted out, not deadlock.
        let r = simulate_token(&cfg, &toy_curve(), 100 << 20, &Registry::new());
        assert!(r.stats.dropped_oversized > 0);
        assert_eq!(r.stats.completed + r.stats.dropped_oversized, r.stats.arrivals);
    }

    #[test]
    fn continuous_batching_beats_static_on_goodput_under_load() {
        let seed = 21;
        let cont = simulate_token(
            &base_cfg(TokenBatching::Continuous { max_batch: 16 }, seed),
            &toy_curve(),
            AMPLE,
            &Registry::new(),
        );
        let stat = simulate_token(
            &base_cfg(TokenBatching::Static { batch: 16 }, seed),
            &toy_curve(),
            AMPLE,
            &Registry::new(),
        );
        assert!(
            cont.goodput_rps() > stat.goodput_rps(),
            "continuous {} vs static {}",
            cont.goodput_rps(),
            stat.goodput_rps()
        );
        // Static batching's run-to-completion inflates TTFT.
        let c_ttft = cont.stats.phases.ttft.quantile(0.95).unwrap();
        let s_ttft = stat.stats.phases.ttft.quantile(0.95).unwrap();
        assert!(c_ttft < s_ttft, "p95 TTFT: continuous {c_ttft} vs static {s_ttft}");
    }

    #[test]
    fn prefill_priority_trades_tpot_for_ttft() {
        let mut cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 9);
        cfg.priority = PhasePriority::Prefill;
        let pf = simulate_token(&cfg, &toy_curve(), AMPLE, &Registry::new());
        cfg.priority = PhasePriority::Decode;
        let df = simulate_token(&cfg, &toy_curve(), AMPLE, &Registry::new());
        let pf_ttft = pf.stats.phases.ttft.quantile(0.5).unwrap();
        let df_ttft = df.stats.phases.ttft.quantile(0.5).unwrap();
        assert!(
            pf_ttft <= df_ttft * 1.05,
            "prefill priority should not worsen median TTFT: {pf_ttft} vs {df_ttft}"
        );
    }

    #[test]
    fn fixed_output_models_ignore_the_sampler() {
        let mut curve = toy_curve();
        curve.model = ModelId::Muse;
        curve.prefill_s = Vec::new(); // conditioning outside the cache
        curve.tokens_per_step = 11;
        curve.fixed_output_tokens = Some(256);
        let mut cfg = base_cfg(TokenBatching::Continuous { max_batch: 8 }, 13);
        cfg.model = ModelId::Muse;
        cfg.duration_s = 20.0;
        cfg.arrival = ArrivalProcess::poisson(10.0);
        let r = simulate_token(&cfg, &curve, AMPLE, &Registry::new());
        assert!(r.stats.completed > 50);
        assert_eq!(r.stats.decoded_tokens, 256 * r.stats.completed);
        assert_eq!(r.stats.prefilled_tokens, 0, "no prompt phase");
        for l in &r.kv {
            l.assert_conserved();
            assert_eq!(l.resident_bytes, 0);
        }
    }

    #[test]
    fn recorder_lanes_fill_and_replay() {
        let cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 17);
        let (r, flight) = simulate_token_recorded(
            &cfg,
            &toy_curve(),
            AMPLE,
            &Registry::new(),
            FlightCfg::for_horizon(60.0),
        );
        assert!(r.stats.completed > 0);
        let trace = flight.to_chrome_trace_object();
        assert!(trace.contains("traceEvents"));
        let (_, flight2) = simulate_token_recorded(
            &cfg,
            &toy_curve(),
            AMPLE,
            &Registry::new(),
            FlightCfg::for_horizon(60.0),
        );
        assert_eq!(trace, flight2.to_chrome_trace_object(), "trace must replay");
    }

    #[test]
    fn parse_helpers_round_trip() {
        assert_eq!(
            TokenBatching::parse("static", 8).unwrap(),
            TokenBatching::Static { batch: 8 }
        );
        assert_eq!(
            TokenBatching::parse("continuous", 32).unwrap(),
            TokenBatching::Continuous { max_batch: 32 }
        );
        assert!(TokenBatching::parse("dynamic", 8).is_err());
        assert_eq!(PhasePriority::parse("decode").unwrap(), PhasePriority::Decode);
        assert_eq!(PhasePriority::parse("PREFILL").unwrap(), PhasePriority::Prefill);
        assert!(PhasePriority::parse("both").is_err());
        assert_eq!(TokenBatching::Continuous { max_batch: 4 }.cap(), 4);
        assert_eq!(TokenBatching::Static { batch: 2 }.name(), "static");
    }

    #[test]
    fn validate_rejects_scenarios_that_cannot_terminate() {
        let ok = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 1);
        assert_eq!(ok.validate(), Ok(()));
        for d in [f64::INFINITY, f64::NAN, 0.0] {
            let cfg = TokenScenarioCfg { duration_s: d, ..ok.clone() };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("duration"), "{d}: {err}");
        }
        for r in [f64::INFINITY, f64::NAN] {
            let cfg = TokenScenarioCfg { arrival: ArrivalProcess::poisson(r), ..ok.clone() };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("arrival rate"), "{r}: {err}");
        }
        let cfg = TokenScenarioCfg { model: ModelId::StableDiffusion, ..ok.clone() };
        assert!(cfg.validate().unwrap_err().contains("not autoregressive"));
        let cfg = TokenScenarioCfg { arrival: ArrivalProcess::poisson(1e300), ..ok.clone() };
        assert!(cfg.validate().unwrap_err().contains("exceeds the budget"));
        let cfg = TokenScenarioCfg { max_requests: Some(10), ..cfg };
        assert_eq!(cfg.validate(), Ok(()), "a request cap bounds the run");
    }

    #[test]
    fn kv_budget_floor_is_the_smallest_request_footprint() {
        let cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 1);
        let curve = toy_curve();
        // Prompt min 16 + output min 4 tokens at 512 KiB each.
        let floor = 20 * 512 * 1024;
        assert_eq!(cfg.validate_kv_budget(&curve, floor), Ok(()));
        let err = cfg.validate_kv_budget(&curve, floor - 1).unwrap_err();
        assert!(err.contains("below the smallest request's KV footprint"), "{err}");
        // No prompt KV (MaskGIT-style) and a fixed output length.
        let grid = TokenServiceCurve {
            prefill_s: vec![],
            fixed_output_tokens: Some(256),
            ..toy_curve()
        };
        let grid_floor = 256 * 512 * 1024;
        assert_eq!(cfg.validate_kv_budget(&grid, grid_floor), Ok(()));
        assert!(cfg.validate_kv_budget(&grid, grid_floor - 1).is_err());
        // The floor is the door rule's own threshold: the smallest
        // request fits a budget of exactly the floor and is dropped
        // below it.
        let smallest = TokenScenarioCfg {
            prompt: LengthDist::fixed(16),
            output: LengthDist::fixed(4),
            max_requests: Some(50),
            ..cfg
        };
        let at = simulate_token(&smallest, &curve, floor, &Registry::new());
        assert_eq!(at.stats.dropped_oversized, 0);
        assert_eq!(at.stats.completed, at.stats.arrivals);
        let below = simulate_token(&smallest, &curve, floor - 1, &Registry::new());
        assert_eq!(below.stats.dropped_oversized, below.stats.arrivals);
    }

    #[test]
    fn a_chunk_past_u32_max_plans_as_an_unbounded_one() {
        let mut cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 4);
        cfg.duration_s = 10.0;
        let run = |chunk_tokens: usize| {
            let cfg = TokenScenarioCfg { chunk_tokens, ..cfg.clone() };
            let registry = Registry::new();
            let r = simulate_token(&cfg, &toy_curve(), AMPLE, &registry);
            assert!(r.stats.completed > 0, "chunk {chunk_tokens}: nothing completed");
            assert_eq!(r.stats.completed + r.stats.dropped_oversized, r.stats.arrivals);
            crate::report::TokenReport::from_result(&r).render() + &registry.render_prometheus()
        };
        assert_eq!(run(1 << 32), run(u32::MAX as usize));
    }

    #[test]
    fn validate_refuses_lengths_a_sequence_cannot_hold() {
        let ok = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 1);
        let widest = LengthDist::new(512.0, 0.3, 16, u32::MAX as usize);
        let too_wide = LengthDist { max: u32::MAX as usize + 1, ..widest };
        let cfg = TokenScenarioCfg { prompt: widest, output: widest, ..ok.clone() };
        assert_eq!(cfg.validate(), Ok(()));
        for (cfg, name) in [
            (TokenScenarioCfg { prompt: too_wide, ..ok.clone() }, "prompt"),
            (TokenScenarioCfg { output: too_wide, ..ok }, "output"),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.starts_with(name) && err.contains("4294967296 tokens"), "{err}");
        }
    }

    #[test]
    fn a_huge_batch_cap_sizes_the_step_table_by_the_batches_launched() {
        let cfg = base_cfg(TokenBatching::Continuous { max_batch: 1 << 40 }, 19);
        let curve = toy_curve();
        let reg = Registry::new();
        let flight_cfg = FlightCfg { max_batches: usize::MAX, ..FlightCfg::for_horizon(60.0) };
        let recorder = FlightRecorder::new(flight_cfg, cfg.gpus);
        let mut sim = TokenSim::new(&cfg, &curve, AMPLE, &reg, Some(recorder));
        sim.drive();
        assert!(sim.stats.completed > 500);
        assert_eq!(sim.stats.completed + sim.stats.dropped_oversized, sim.stats.arrivals);
        let flight = sim.flight.as_ref().expect("recorder attached");
        assert_eq!(flight.batches_dropped, 0);
        let largest = flight.batches.iter().map(|b| b.batch as usize).max().expect("launches");
        assert!(
            (1..=largest).contains(&sim.steps.batches()),
            "table holds {} batches; the largest launch had {largest} sequences",
            sim.steps.batches()
        );
    }

    #[test]
    #[should_panic(expected = "invalid token scenario: duration")]
    fn simulate_panics_on_an_invalid_scenario() {
        let mut cfg = base_cfg(TokenBatching::Continuous { max_batch: 16 }, 1);
        cfg.duration_s = f64::INFINITY;
        let _ = simulate_token(&cfg, &toy_curve(), AMPLE, &Registry::new());
    }

    mod against_the_cluster_des {
        use super::*;
        use crate::cluster::{simulate, ScenarioCfg, SchedulerKind, SloSpec};
        use crate::profile::{ServiceCurve, ServiceProfile};
        use proptest::prelude::*;

        /// Image tokens Muse emits, all in one parallel decode step.
        const GRID: usize = 256;

        /// A Muse curve whose every iteration takes `step_s`: one batch
        /// knot, one context knot, no prefill, the whole grid per step.
        fn one_step_curve(step_s: f64) -> TokenServiceCurve {
            TokenServiceCurve {
                model: ModelId::Muse,
                batch_knots: vec![1],
                ctx_knots: vec![1],
                step_s: vec![vec![step_s]],
                prefill_s: Vec::new(),
                tokens_per_step: GRID,
                fixed_output_tokens: Some(GRID),
                kv_bytes_per_token: 1 << 10,
                weight_bytes: 0,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// On one GPU with a batch cap of 1, requests that finish in
            /// one decode iteration make the token DES a FIFO queue with
            /// a constant service time: on the same arrival stream it must
            /// agree exactly with the cluster DES serving that time.
            #[test]
            fn token_des_matches_the_cluster_des_as_a_fifo_queue(
                seed in 0u64..1_000_000,
                load in 0.3f64..1.2,
                step_s in 0.001f64..2.0,
                diurnal in 0usize..2,
                expected in 200.0f64..3_000.0,
            ) {
                let rate = load / step_s;
                let arrival = if diurnal == 1 {
                    ArrivalProcess::diurnal(rate)
                } else {
                    ArrivalProcess::poisson(rate)
                };
                let duration_s = expected / rate;
                let token_cfg = TokenScenarioCfg {
                    gpus: 1,
                    model: ModelId::Muse,
                    arrival,
                    batching: TokenBatching::Continuous { max_batch: 1 },
                    priority: PhasePriority::Decode,
                    admission: KvAdmission::Prompt,
                    chunk_tokens: 64,
                    prompt: LengthDist::new(32.0, 0.5, 1, 256),
                    output: LengthDist::fixed(GRID),
                    slo: TokenSlo { ttft_s: f64::INFINITY, tpot_s: f64::INFINITY },
                    duration_s,
                    max_requests: None,
                    seed,
                };
                let tok =
                    simulate_token(&token_cfg, &one_step_curve(step_s), 1 << 40, &Registry::new());
                let cluster_cfg = ScenarioCfg::new(
                    1,
                    RequestMix::single(ModelId::Muse),
                    arrival,
                    SchedulerKind::Fifo,
                    SloSpec::None,
                    duration_s,
                    seed,
                );
                let curve = ServiceCurve::constant(ModelId::Muse, step_s);
                let profile = ServiceProfile::new(vec![curve]);
                let cl = simulate(&cluster_cfg, &profile, &Registry::new());

                prop_assert!(cl.arrivals > 0);
                prop_assert_eq!(tok.stats.arrivals, cl.arrivals);
                prop_assert_eq!(tok.stats.completed, cl.stats.completed);
                let phases = &tok.stats.phases;
                prop_assert_eq!(phases.queue_sum_s, cl.stats.wait_sum_s);
                prop_assert_eq!(phases.e2e_sum_s, cl.stats.latency_sum_s);
                prop_assert!(phases.e2e == cl.stats.latency_sketch, "e2e sketch differs");
                prop_assert_eq!(&tok.busy_s, &cl.busy_s);
                prop_assert_eq!(tok.end_s, cl.end_s.max(duration_s));
            }
        }
    }
}
