//! Workload generators: arrival processes and the request model mix.
//!
//! Three arrival processes cover the serving regimes the paper's fleet
//! data motivates: steady [`ArrivalProcess::Poisson`] traffic, bursty
//! Markov-modulated on/off traffic (flash crowds), and a diurnal
//! sinusoidal rate (the day/night cycle of a production fleet, with the
//! period compressed to simulation scale). All sampling is driven by a
//! seeded [`StdRng`] — the same seed always produces the same arrival
//! sample path.

use mmg_models::ModelId;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The most arrivals one run may expect: 100× the 100M-request fleet
/// headline. A horizon that holds far more never ends in practice
/// (`serve --rate 1e300` would generate arrivals for ages), so
/// [`crate::ScenarioCfg::validate`], [`crate::TokenScenarioCfg::validate`]
/// and [`crate::FleetCfg::validate`] refuse a scenario above it.
pub const MAX_EXPECTED_ARRIVALS: f64 = 1e10;

/// Refuses a run whose arrival process [`ArrivalGen::new`] refuses (see
/// [`ArrivalProcess::check`]), or whose expected arrival count — mean
/// rate × horizon, or `max_requests` when that is smaller — exceeds
/// [`MAX_EXPECTED_ARRIVALS`]. `lower` names the flags that shrink it.
pub(crate) fn check_expected_arrivals(
    process: ArrivalProcess,
    horizon_s: f64,
    max_requests: Option<u64>,
    lower: &str,
) -> Result<(), String> {
    process.check()?;
    let mut expected = process.mean_rate_rps() * horizon_s;
    if let Some(cap) = max_requests {
        expected = expected.min(cap as f64);
    }
    if expected > MAX_EXPECTED_ARRIVALS {
        return Err(format!(
            "expected arrival count {expected:.3e} exceeds the budget of \
             {MAX_EXPECTED_ARRIVALS:.0e}; lower {lower}"
        ));
    }
    Ok(())
}

/// An arrival process with a configurable mean offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate.
    Poisson {
        /// Mean arrival rate, requests/second.
        rate_rps: f64,
    },
    /// Markov-modulated on/off arrivals: bursts at `burst_factor` times
    /// the mean rate alternate with quieter phases, with exponentially
    /// distributed phase sojourns. The quiet-phase rate is solved so the
    /// long-run mean stays `rate_rps` (clamped at zero when the burst
    /// factor saturates the duty cycle).
    Bursty {
        /// Long-run mean arrival rate, requests/second.
        rate_rps: f64,
        /// Burst-phase rate multiplier (≥ 1).
        burst_factor: f64,
        /// Mean burst-phase duration, seconds.
        mean_burst_s: f64,
        /// Mean quiet-phase duration, seconds.
        mean_idle_s: f64,
    },
    /// Sinusoidally modulated rate `λ(t) = rate·(1 + amp·sin(2π(t+φ)/T))`,
    /// sampled by thinning against the peak rate. The phase offset `φ`
    /// shifts the cycle in time — a fleet places each region's diurnal
    /// peak at a different wall-clock offset.
    Diurnal {
        /// Mean arrival rate, requests/second.
        rate_rps: f64,
        /// Relative modulation amplitude in `[0, 1)`.
        amplitude: f64,
        /// Cycle period, seconds.
        period_s: f64,
        /// Phase offset `φ`, seconds (0 = peak at `T/4`).
        phase_s: f64,
    },
}

impl ArrivalProcess {
    /// A Poisson process at `rate_rps`.
    #[must_use]
    pub fn poisson(rate_rps: f64) -> Self {
        ArrivalProcess::Poisson { rate_rps }
    }

    /// The default bursty shape at a given mean rate: 3x bursts lasting
    /// 5 s on average, separated by 10 s quiet phases on average.
    #[must_use]
    pub fn bursty(rate_rps: f64) -> Self {
        ArrivalProcess::Bursty {
            rate_rps,
            burst_factor: 3.0,
            mean_burst_s: 5.0,
            mean_idle_s: 10.0,
        }
    }

    /// The default diurnal shape at a given mean rate: ±60% modulation
    /// over a 120 s simulated "day", zero phase offset.
    #[must_use]
    pub fn diurnal(rate_rps: f64) -> Self {
        ArrivalProcess::Diurnal { rate_rps, amplitude: 0.6, period_s: 120.0, phase_s: 0.0 }
    }

    /// The same process with a diurnal phase offset applied (identity
    /// for non-diurnal processes, which have no phase to shift).
    #[must_use]
    pub fn with_phase(self, new_phase_s: f64) -> Self {
        match self {
            ArrivalProcess::Diurnal { rate_rps, amplitude, period_s, .. } => {
                ArrivalProcess::Diurnal { rate_rps, amplitude, period_s, phase_s: new_phase_s }
            }
            other => other,
        }
    }

    /// Builds the named default shape (`poisson` | `bursty` | `diurnal`)
    /// at a mean rate.
    pub fn parse(name: &str, rate_rps: f64) -> Result<Self, String> {
        match name.to_lowercase().as_str() {
            "poisson" => Ok(ArrivalProcess::poisson(rate_rps)),
            "bursty" => Ok(ArrivalProcess::bursty(rate_rps)),
            "diurnal" => Ok(ArrivalProcess::diurnal(rate_rps)),
            other => Err(format!(
                "unknown arrival process '{other}'; expected poisson | bursty | diurnal"
            )),
        }
    }

    /// Long-run mean arrival rate, requests/second.
    #[must_use]
    pub fn mean_rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps }
            | ArrivalProcess::Bursty { rate_rps, .. }
            | ArrivalProcess::Diurnal { rate_rps, .. } => rate_rps,
        }
    }

    /// Checks the process [`ArrivalGen`] samples: every process needs a
    /// positive and finite mean rate, a bursty one a burst factor of at
    /// least 1 and positive burst and idle durations, a diurnal one an
    /// amplitude in `[0, 1)`, a positive period and a finite phase.
    ///
    /// # Errors
    ///
    /// Names the requirements and the rate or process that misses them.
    pub(crate) fn check(&self) -> Result<(), String> {
        // Each test names what must hold, so NaN fails it. An infinite
        // rate draws every gap as 0, so simulated time never advances.
        let rate_rps = self.mean_rate_rps();
        if !(rate_rps.is_finite() && rate_rps > 0.0) {
            return Err(format!("arrival rate must be positive and finite, got {rate_rps}"));
        }
        let (holds, needs) = match *self {
            ArrivalProcess::Poisson { .. } => return Ok(()),
            ArrivalProcess::Bursty { burst_factor, mean_burst_s, mean_idle_s, .. } => (
                burst_factor >= 1.0 && mean_burst_s > 0.0 && mean_idle_s > 0.0,
                "a burst factor of at least 1 and positive burst and idle durations",
            ),
            ArrivalProcess::Diurnal { amplitude, period_s, phase_s, .. } => (
                (0.0..1.0).contains(&amplitude) && period_s > 0.0 && phase_s.is_finite(),
                "an amplitude in [0, 1), a positive period and a finite phase",
            ),
        };
        if holds {
            Ok(())
        } else {
            Err(format!("the arrival process needs {needs}, got {self:?}"))
        }
    }

    /// The same process with its mean rate replaced.
    #[must_use]
    pub fn with_rate(self, new_rate_rps: f64) -> Self {
        match self {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { rate_rps: new_rate_rps },
            ArrivalProcess::Bursty { burst_factor, mean_burst_s, mean_idle_s, .. } => {
                ArrivalProcess::Bursty {
                    rate_rps: new_rate_rps,
                    burst_factor,
                    mean_burst_s,
                    mean_idle_s,
                }
            }
            ArrivalProcess::Diurnal { amplitude, period_s, phase_s, .. } => {
                ArrivalProcess::Diurnal { rate_rps: new_rate_rps, amplitude, period_s, phase_s }
            }
        }
    }
}

/// Uniforms an [`ArrivalGen`] and a [`RegionStream`]'s mix draw per
/// refill of their blocks. Even, so a diurnal candidate's pair of draws
/// never straddles two blocks.
const BLOCK: usize = 256;

/// Stateful arrival-time sampler for one [`ArrivalProcess`].
///
/// It draws its uniforms 256 at a time, in the order a draw per need
/// would take them, and takes their logs in a separate tight pass, so
/// an arrival only reads the block. Every value is the same IEEE
/// operation on the same uniform as a draw per need would make, so the
/// sample path is a pure function of the process, the seed and the
/// query times, bit for bit.
#[derive(Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: StdRng,
    /// The current block, each uniform transformed by `refill`, and the
    /// slot the next draw reads (`BLOCK` once the block is spent).
    draws: Box<[f64; BLOCK]>,
    next: usize,
    /// Bursty state: currently in the burst phase, and when it ends.
    in_burst: bool,
    phase_end_s: f64,
}

impl ArrivalGen {
    /// A sampler for `process` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a mean rate that is not positive and finite or a
    /// degenerate shape, with the message the scenario configs'
    /// `validate` returns for it.
    #[must_use]
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        if let Err(e) = process.check() {
            panic!("{e}");
        }
        ArrivalGen {
            process,
            rng: StdRng::seed_from_u64(seed),
            draws: Box::new([0.0; BLOCK]),
            next: BLOCK,
            in_burst: false,
            phase_end_s: 0.0,
        }
    }

    /// Fills the block with the next [`BLOCK`] uniforms in `[ε, 1)`,
    /// transformed for the process: a Poisson slot holds its gap
    /// `-ln(u) / rate`, a bursty slot `-ln(u)` (the caller divides by the
    /// phase's rate), and a diurnal candidate's pair of slots its
    /// thinning step `ln(e) · (1 / peak)`, then its acceptance draw `u`.
    #[inline(never)]
    fn refill(&mut self) {
        let unit = Uniform::new(f64::EPSILON, 1.0);
        for d in self.draws.iter_mut() {
            *d = unit.sample(&mut self.rng);
        }
        match self.process {
            ArrivalProcess::Poisson { rate_rps } => {
                for d in self.draws.iter_mut() {
                    *d = -d.ln() / rate_rps;
                }
            }
            ArrivalProcess::Bursty { .. } => {
                for d in self.draws.iter_mut() {
                    *d = -d.ln();
                }
            }
            ArrivalProcess::Diurnal { rate_rps, amplitude, .. } => {
                let inv_peak = 1.0 / (rate_rps * (1.0 + amplitude));
                for pair in self.draws.chunks_exact_mut(2) {
                    pair[0] = pair[0].ln() * inv_peak;
                }
            }
        }
        self.next = 0;
    }

    /// The next `N` slots of the block, refilling it first when spent.
    /// `N` divides [`BLOCK`] and every draw of a process takes the same
    /// `N`, so a group never straddles two blocks.
    #[inline]
    fn take<const N: usize>(&mut self) -> [f64; N] {
        if self.next == BLOCK {
            self.refill();
        }
        let i = self.next;
        self.next += N;
        self.draws[i..i + N].try_into().expect("a group never straddles two blocks")
    }

    /// Burst-phase and quiet-phase rates for the bursty process. The
    /// quiet rate solves `p·hi + (1−p)·lo = rate` for the burst duty
    /// cycle `p`, clamped at zero.
    fn bursty_rates(rate: f64, factor: f64, burst_s: f64, idle_s: f64) -> (f64, f64) {
        let hi = rate * factor;
        let p = burst_s / (burst_s + idle_s);
        let lo = ((rate - p * hi) / (1.0 - p)).max(0.0);
        (hi, lo)
    }

    /// The first arrival after virtual time `t_s`. It is never earlier
    /// than `t_s`, and equal to it when the gap drawn is below half an
    /// ulp of `t_s`; the DES engines order such ties by sequence number.
    #[inline]
    pub fn next_after(&mut self, t_s: f64) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { .. } => {
                let [gap] = self.take();
                t_s + gap
            }
            ArrivalProcess::Bursty { rate_rps, burst_factor, mean_burst_s, mean_idle_s } => {
                let rates = Self::bursty_rates(rate_rps, burst_factor, mean_burst_s, mean_idle_s);
                self.next_bursty(t_s, rates, mean_burst_s, mean_idle_s)
            }
            ArrivalProcess::Diurnal { amplitude, period_s, phase_s, .. } => {
                self.next_diurnal(t_s, amplitude, period_s, phase_s)
            }
        }
    }

    // The two loops below stay out of line, so `next_after`'s Poisson
    // path is small enough to inline into the engines' arrival loops.

    #[inline(never)]
    fn next_bursty(&mut self, t_s: f64, (hi, lo): (f64, f64), burst_s: f64, idle_s: f64) -> f64 {
        let mut t = t_s;
        loop {
            if t >= self.phase_end_s {
                // Phase transition; exponential sojourns make the
                // carried-over candidate memoryless, so redrawing from
                // the phase boundary is exact.
                self.in_burst = !self.in_burst;
                let mean = if self.in_burst { burst_s } else { idle_s };
                let [neg_ln] = self.take();
                self.phase_end_s = t + neg_ln / (1.0 / mean);
            }
            let rate = if self.in_burst { hi } else { lo };
            if rate <= 0.0 {
                t = self.phase_end_s;
                continue;
            }
            let [neg_ln] = self.take();
            let candidate = t + neg_ln / rate;
            if candidate <= self.phase_end_s {
                return candidate;
            }
            t = self.phase_end_s;
        }
    }

    #[inline(never)]
    fn next_diurnal(&mut self, t_s: f64, amplitude: f64, period_s: f64, phase_s: f64) -> f64 {
        // Thinning (Lewis–Shedler) against the peak rate. This loop is on
        // the fleet fast lane's critical path, so the divisions are
        // hoisted to reciprocals and the sine argument is range-reduced
        // to one cycle (floor + small argument) instead of handing libm
        // a huge angle.
        let inv_period = 1.0 / period_s;
        let one_plus_a = 1.0 + amplitude;
        let mut t = t_s;
        loop {
            let [step, u] = self.take();
            t -= step;
            let cycles = (t + phase_s) * inv_period;
            let s = (2.0 * std::f64::consts::PI * (cycles - cycles.floor())).sin();
            // Accept iff u·peak < λ(t); both sides divided by the base
            // rate.
            if u * one_plus_a < 1.0 + amplitude * s {
                return t;
            }
        }
    }
}

/// A clamped lognormal distribution over token (or frame) counts.
///
/// Request lengths in production LLM traces are heavy-tailed and
/// right-skewed; a lognormal parameterized by its *median* matches the
/// published prompt/output histograms well and keeps the knob intuitive
/// (`median` is the 50th percentile in tokens, `sigma` the log-space
/// spread). Samples are rounded to the nearest integer and clamped to
/// `[min, max]`, so the tail cannot exceed a model's context window.
/// Shared by the token-level serving engine and reusable by future
/// frame-count samplers for video workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthDist {
    /// Median length, tokens (the lognormal's `exp(μ)`).
    pub median: f64,
    /// Log-space standard deviation (`0` = deterministic `median`).
    pub sigma: f64,
    /// Inclusive lower clamp, tokens (≥ 1).
    pub min: usize,
    /// Inclusive upper clamp, tokens.
    pub max: usize,
}

impl LengthDist {
    /// A clamped lognormal with the given median and log-space sigma.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive median, negative sigma, zero `min`, or
    /// an empty clamp interval.
    #[must_use]
    pub fn new(median: f64, sigma: f64, min: usize, max: usize) -> Self {
        assert!(median > 0.0, "length median must be positive");
        assert!(sigma >= 0.0, "length sigma cannot be negative");
        assert!(min >= 1, "minimum length must be at least 1 token");
        assert!(max >= min, "length clamp interval is empty ({min}..={max})");
        LengthDist { median, sigma, min, max }
    }

    /// A degenerate distribution: every sample is exactly `tokens`.
    #[must_use]
    pub fn fixed(tokens: usize) -> Self {
        LengthDist::new(tokens as f64, 0.0, tokens.max(1), tokens.max(1))
    }

    /// The unclamped lognormal mean, `median · exp(σ²/2)` — used as an
    /// analytic anchor when translating a target utilization into an
    /// offered rate (the clamp bias is second-order for the defaults).
    #[must_use]
    pub fn mean(&self) -> f64 {
        (self.median * (0.5 * self.sigma * self.sigma).exp())
            .clamp(self.min as f64, self.max as f64)
    }
}

/// Stateful seeded sampler for a [`LengthDist`].
///
/// Normal deviates come from a Box–Muller transform over two uniform
/// draws (the vendored `rand` stub carries no `Normal` distribution),
/// so the sample path is a pure function of `(dist, seed)` — the same
/// determinism contract as [`ArrivalGen`].
#[derive(Debug, Clone)]
pub struct LengthSampler {
    dist: LengthDist,
    rng: StdRng,
    uniform: Uniform<f64>,
}

impl LengthSampler {
    /// A sampler for `dist` seeded with `seed`.
    #[must_use]
    pub fn new(dist: LengthDist, seed: u64) -> Self {
        LengthSampler {
            dist,
            rng: StdRng::seed_from_u64(seed),
            uniform: Uniform::new(f64::EPSILON, 1.0),
        }
    }

    /// The distribution this sampler draws from.
    #[must_use]
    pub fn dist(&self) -> &LengthDist {
        &self.dist
    }

    /// Draws the next length, rounded and clamped to `[min, max]`.
    pub fn sample(&mut self) -> usize {
        // Two uniforms are consumed per sample even when sigma is zero,
        // so toggling sigma does not shift the rest of the sample path.
        let u1: f64 = self.uniform.sample(&mut self.rng);
        let u2: f64 = self.uniform.sample(&mut self.rng);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let len = self.dist.median * (self.dist.sigma * z).exp();
        (len.round() as usize).clamp(self.dist.min, self.dist.max)
    }
}

/// A weighted mix of suite models making up the request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    entries: Vec<(ModelId, f64)>,
    total_weight: f64,
}

/// The short CLI name of a suite model (`sd`, `parti`, `mav`, …).
#[must_use]
pub fn model_short_name(id: ModelId) -> &'static str {
    match id {
        ModelId::Llama2 => "llama",
        ModelId::Imagen => "imagen",
        ModelId::StableDiffusion => "sd",
        ModelId::Muse => "muse",
        ModelId::Parti => "parti",
        ModelId::ProdImage => "prod",
        ModelId::MakeAVideo => "mav",
        ModelId::Phenaki => "phenaki",
    }
}

/// Parses a short model name (the inverse of [`model_short_name`]; full
/// display names are accepted too, case-insensitively).
pub fn parse_model(name: &str) -> Result<ModelId, String> {
    let lower = name.to_lowercase();
    ModelId::ALL
        .iter()
        .find(|&&id| {
            model_short_name(id) == lower || id.to_string().to_lowercase() == lower
        })
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = ModelId::ALL.iter().map(|&id| model_short_name(id)).collect();
            format!("unknown model '{name}'; expected one of {}", names.join(" | "))
        })
}

impl RequestMix {
    /// A mix from `(model, weight)` entries.
    ///
    /// # Panics
    ///
    /// Panics on an empty mix, non-positive weights, or duplicates.
    #[must_use]
    pub fn new(entries: Vec<(ModelId, f64)>) -> Self {
        assert!(!entries.is_empty(), "request mix cannot be empty");
        for (i, (id, w)) in entries.iter().enumerate() {
            assert!(*w > 0.0, "mix weight for {id} must be positive");
            assert!(
                entries[..i].iter().all(|(other, _)| other != id),
                "duplicate mix entry for {id}"
            );
        }
        let total_weight = entries.iter().map(|(_, w)| w).sum();
        RequestMix { entries, total_weight }
    }

    /// A single-model mix.
    #[must_use]
    pub fn single(id: ModelId) -> Self {
        RequestMix::new(vec![(id, 1.0)])
    }

    /// Parses `"sd:8,parti:2"` (weights default to 1 when omitted:
    /// `"sd,parti"`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (name, weight) = match part.split_once(':') {
                Some((n, w)) => {
                    let w: f64 = w
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad mix weight in '{part}'"))?;
                    (n.trim(), w)
                }
                None => (part.trim(), 1.0),
            };
            // Spelled to reject NaN too, which fails every comparison.
            if !(weight.is_finite() && weight > 0.0) {
                return Err(format!("mix weight in '{part}' must be positive and finite"));
            }
            entries.push((parse_model(name)?, weight));
        }
        if entries.is_empty() {
            return Err("empty request mix".to_string());
        }
        // Finite weights can still overflow the total, which would make
        // every share zero and the default arrival rate infinite.
        if !entries.iter().map(|(_, w)| w).sum::<f64>().is_finite() {
            return Err(format!("mix weights in '{spec}' must have a finite total"));
        }
        for (i, (id, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(other, _)| other == id) {
                return Err(format!("duplicate mix entry for {id}"));
            }
        }
        Ok(RequestMix::new(entries))
    }

    /// The `(model, weight)` entries, in declaration order.
    #[must_use]
    pub fn entries(&self) -> &[(ModelId, f64)] {
        &self.entries
    }

    /// The models in the mix, in declaration order.
    pub fn models(&self) -> impl Iterator<Item = ModelId> + '_ {
        self.entries.iter().map(|(id, _)| *id)
    }

    /// The probability share of one model.
    #[must_use]
    pub fn share(&self, id: ModelId) -> f64 {
        self.entries
            .iter()
            .find(|(m, _)| *m == id)
            .map_or(0.0, |(_, w)| w / self.total_weight)
    }

    /// Samples one model from a uniform variate `u ∈ [0, 1)`, as its
    /// index into [`RequestMix::entries`]: the engines address
    /// pre-resolved per-model state (telemetry handles, service curves)
    /// by that index without re-scanning the mix.
    ///
    /// The pick is the first entry whose weight exceeds what is left of
    /// `u × total` after subtracting the weights before it, or the last
    /// entry. It is counted without a data-dependent branch: once the
    /// remainder falls below an entry's weight it turns negative and
    /// stays below every later one, so the entries it passes are exactly
    /// those before the pick.
    #[must_use]
    #[inline]
    pub fn sample_index(&self, u: f64) -> usize {
        let mut remaining = u.clamp(0.0, 1.0) * self.total_weight;
        let mut passed = 0;
        for (_, w) in &self.entries[..self.entries.len() - 1] {
            // Not `>=`: a NaN remainder passes every entry.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let past = !(remaining < *w);
            passed += usize::from(past);
            remaining -= w;
        }
        passed
    }
}

/// The seeded request stream every serving engine draws from: arrival
/// times from an [`ArrivalGen`] and, per arrival, a [`RequestMix`] index
/// from a mix RNG of its own. It always holds its next arrival, so a
/// caller that stops at a window's end leaves that arrival parked for
/// its next window.
///
/// Like the times, the mix indices are drawn 256 at a time, each from
/// the uniform a draw per arrival would have taken, so the stream is bit
/// for bit the one a draw per arrival makes.
#[derive(Debug)]
pub struct RegionStream {
    gen: ArrivalGen,
    mix: RequestMix,
    mix_rng: StdRng,
    /// The current block of mix indices (a mix has at most one entry
    /// per suite model), and the slot the next arrival reads.
    picks: Box<[u8; BLOCK]>,
    next_pick: usize,
    /// The next arrival, drawn and not yet handed out.
    head: (f64, usize),
    /// Arrivals `next_before` may still hand out (the request cap).
    left: u64,
}

impl RegionStream {
    /// A stream of `process` arrivals over `mix`: times seeded by
    /// `time_seed`, model draws by `mix_seed`. With a `cap`,
    /// [`RegionStream::next_before`] hands out at most that many arrivals.
    ///
    /// # Panics
    ///
    /// Panics on invalid processes, as [`ArrivalGen::new`] does.
    pub(crate) fn seeded(
        process: ArrivalProcess,
        mix: RequestMix,
        time_seed: u64,
        mix_seed: u64,
        cap: Option<u64>,
    ) -> Self {
        let mut stream = RegionStream {
            gen: ArrivalGen::new(process, time_seed),
            mix,
            mix_rng: StdRng::seed_from_u64(mix_seed),
            picks: Box::new([0; BLOCK]),
            next_pick: BLOCK,
            head: (0.0, 0),
            left: cap.unwrap_or(u64::MAX),
        };
        // Draws the first arrival after t = 0 into the head.
        stream.next();
        stream
    }

    /// Fills the block with the next [`BLOCK`] mix indices.
    #[inline(never)]
    fn refill_picks(&mut self) {
        // A single-model mix needs no draw: the mix RNG feeds nothing
        // else, so skipping it changes no arrival.
        if self.mix.entries().len() > 1 {
            let unit = Uniform::new(0.0, 1.0);
            for p in self.picks.iter_mut() {
                let idx = self.mix.sample_index(unit.sample(&mut self.mix_rng));
                *p = u8::try_from(idx).expect("a mix holds at most one entry per suite model");
            }
        }
        self.next_pick = 0;
    }

    /// The next `(arrival time, mix index)`, past any end or cap. Times
    /// never decrease (see [`ArrivalGen::next_after`]); the stream never
    /// ends (callers clip at their horizon, so an `Iterator` impl — which
    /// must be fused and fallible — would fit worse than this infallible
    /// method).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> (f64, usize) {
        let t_s = self.gen.next_after(self.head.0);
        if self.next_pick == BLOCK {
            self.refill_picks();
        }
        let mix_idx = usize::from(self.picks[self.next_pick]);
        self.next_pick += 1;
        std::mem::replace(&mut self.head, (t_s, mix_idx))
    }

    /// The next arrival if it falls in `[.., end_s)` and the request cap
    /// allows one more; otherwise `None`, and the arrival stays parked
    /// for the next call.
    #[inline]
    pub(crate) fn next_before(&mut self, end_s: f64) -> Option<(f64, usize)> {
        if self.head.0 < end_s && self.left > 0 {
            self.left -= 1;
            Some(self.next())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mean_rate(process: ArrivalProcess, horizon_s: f64, seed: u64) -> f64 {
        let mut g = ArrivalGen::new(process, seed);
        let mut t = 0.0;
        let mut n = 0u64;
        loop {
            t = g.next_after(t);
            if t > horizon_s {
                return n as f64 / horizon_s;
            }
            n += 1;
        }
    }

    #[test]
    fn poisson_hits_its_mean_rate() {
        let rate = mean_rate(ArrivalProcess::poisson(5.0), 4000.0, 1);
        assert!((rate - 5.0).abs() / 5.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn bursty_preserves_the_long_run_mean() {
        let rate = mean_rate(ArrivalProcess::bursty(5.0), 8000.0, 2);
        assert!((rate - 5.0).abs() / 5.0 < 0.10, "rate {rate}");
    }

    #[test]
    fn diurnal_preserves_the_long_run_mean() {
        let rate = mean_rate(ArrivalProcess::diurnal(5.0), 8000.0, 3);
        assert!((rate - 5.0).abs() / 5.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn diurnal_phase_preserves_the_long_run_mean() {
        let rate = mean_rate(ArrivalProcess::diurnal(5.0).with_phase(30.0), 8000.0, 3);
        assert!((rate - 5.0).abs() / 5.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn diurnal_phase_shifts_the_peak() {
        // Fold arrivals mod the period into bins: the densest bin tracks
        // the sin peak, which phase φ moves from T/4 to T/4 − φ (mod T).
        let peak_bin = |phase_s: f64| {
            let period = 120.0;
            let process = ArrivalProcess::Diurnal {
                rate_rps: 50.0,
                amplitude: 0.9,
                period_s: period,
                phase_s,
            };
            let mut g = ArrivalGen::new(process, 7);
            let mut t = 0.0;
            let mut bins = [0u64; 12];
            for _ in 0..200_000 {
                t = g.next_after(t);
                bins[((t % period) / 10.0) as usize % 12] += 1;
            }
            bins.iter().enumerate().max_by_key(|(_, &n)| n).map(|(i, _)| i).unwrap()
        };
        // Phase 0 peaks at T/4 = 30 s → bin 3; phase T/2 shifts the peak
        // to T/4 − T/2 ≡ 90 s → bin 9. Allow ±1 bin of sampling noise.
        let p0 = peak_bin(0.0) as i64;
        let p_half = peak_bin(60.0) as i64;
        assert!((p0 - 3).abs() <= 1, "unphased peak bin {p0}");
        assert!((p_half - 9).abs() <= 1, "phased peak bin {p_half}");
    }

    #[test]
    fn with_phase_only_touches_diurnal() {
        assert_eq!(
            ArrivalProcess::poisson(2.0).with_phase(10.0),
            ArrivalProcess::poisson(2.0)
        );
        let shifted = ArrivalProcess::diurnal(2.0).with_phase(10.0);
        match shifted {
            ArrivalProcess::Diurnal { phase_s, .. } => assert_eq!(phase_s, 10.0),
            other => panic!("unexpected process {other:?}"),
        }
        // Rate changes preserve the phase.
        match shifted.with_rate(4.0) {
            ArrivalProcess::Diurnal { rate_rps, phase_s, .. } => {
                assert_eq!(rate_rps, 4.0);
                assert_eq!(phase_s, 10.0);
            }
            other => panic!("unexpected process {other:?}"),
        }
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Dispersion of per-window counts: Poisson ≈ 1, MMPP > 1.
        let dispersion = |process: ArrivalProcess| {
            let mut g = ArrivalGen::new(process, 4);
            let mut t = 0.0;
            let mut counts = vec![0u64; 2000];
            loop {
                t = g.next_after(t);
                let w = (t / 2.0) as usize;
                if w >= counts.len() {
                    break;
                }
                counts[w] += 1;
            }
            let n = counts.len() as f64;
            let mean = counts.iter().sum::<u64>() as f64 / n;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / n;
            var / mean
        };
        let poisson = dispersion(ArrivalProcess::poisson(5.0));
        let bursty = dispersion(ArrivalProcess::bursty(5.0));
        assert!(bursty > 1.5 * poisson, "bursty {bursty} vs poisson {poisson}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        for process in [
            ArrivalProcess::poisson(10.0),
            ArrivalProcess::bursty(10.0),
            ArrivalProcess::diurnal(10.0),
        ] {
            let mut g = ArrivalGen::new(process, 5);
            let mut t = 0.0;
            for _ in 0..5000 {
                let next = g.next_after(t);
                assert!(next > t, "{process:?}: {next} <= {t}");
                t = next;
            }
        }
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        for process in [
            ArrivalProcess::poisson(3.0),
            ArrivalProcess::bursty(3.0),
            ArrivalProcess::diurnal(3.0),
        ] {
            let mut a = ArrivalGen::new(process, 9);
            let mut b = ArrivalGen::new(process, 9);
            let mut c = ArrivalGen::new(process, 10);
            let (mut ta, mut tb, mut tc) = (0.0, 0.0, 0.0);
            let mut diverged = false;
            for _ in 0..200 {
                ta = a.next_after(ta);
                tb = b.next_after(tb);
                tc = c.next_after(tc);
                assert_eq!(ta.to_bits(), tb.to_bits());
                diverged |= ta.to_bits() != tc.to_bits();
            }
            assert!(diverged, "{process:?}: seeds 9 and 10 coincide");
        }
    }

    #[test]
    fn mix_parses_and_samples_by_weight() {
        let mix = RequestMix::parse("sd:8,parti:2").unwrap();
        assert_eq!(mix.entries().len(), 2);
        assert!((mix.share(ModelId::StableDiffusion) - 0.8).abs() < 1e-12);
        assert_eq!(mix.entries()[0].0, ModelId::StableDiffusion);
        assert_eq!(mix.sample_index(0.0), 0);
        assert_eq!(mix.sample_index(0.79), 0);
        assert_eq!(mix.sample_index(0.81), 1);
        assert_eq!(mix.sample_index(0.999), 1);
    }

    /// The pick as the walk it was before the branch-free count: the
    /// reference `sample_index` must equal.
    fn walked_index(mix: &RequestMix, u: f64) -> usize {
        let mut remaining = u.clamp(0.0, 1.0) * mix.total_weight;
        for (i, (_, w)) in mix.entries.iter().enumerate() {
            if remaining < *w {
                return i;
            }
            remaining -= w;
        }
        mix.entries.len() - 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn the_branch_free_pick_equals_the_walk(
            exps in proptest::collection::vec(0.0f64..1.0, 1..9),
            lowest in -300.0f64..300.0,
            span in 0.0f64..600.0,
            draws in proptest::collection::vec(0.0f64..1.0, 16..17),
        ) {
            // Weights from 1e-300 to 1e300, spread over `span` decades:
            // the total of at most 8 stays finite.
            let entries: Vec<(ModelId, f64)> = exps
                .iter()
                .zip(ModelId::ALL)
                .map(|(x, id)| (id, 10f64.powf((lowest + x * span).clamp(-300.0, 300.0))))
                .collect();
            let mix = RequestMix::new(entries);
            prop_assert!(mix.total_weight.is_finite());
            // 0, 1, NaN, random draws, and every exact cumulative weight
            // as a share of the total with its neighbouring floats.
            let mut us = vec![0.0, 1.0, f64::NAN];
            us.extend(&draws);
            let mut cumulative = 0.0;
            for (_, w) in &mix.entries {
                cumulative += w;
                let share = cumulative / mix.total_weight;
                us.extend([share.next_down(), share, share.next_up()]);
            }
            for u in us {
                prop_assert_eq!(mix.sample_index(u), walked_index(&mix, u), "u {}", u);
            }
        }
    }

    #[test]
    fn region_stream_windows_hand_out_the_whole_stream_in_order() {
        let mix = RequestMix::parse("sd:8,parti:2").unwrap();
        let stream = || RegionStream::seeded(ArrivalProcess::poisson(5.0), mix.clone(), 3, 4, None);
        let (mut whole, mut windowed) = (stream(), stream());
        for w in 1..=50 {
            let end = f64::from(w);
            while let Some((t, m)) = windowed.next_before(end) {
                assert!((end - 1.0..end).contains(&t), "{t} outside window {w}");
                let (want_t, want_m) = whole.next();
                assert_eq!((t.to_bits(), m), (want_t.to_bits(), want_m));
            }
        }
        assert!(whole.next().0 >= 50.0, "a window dropped an arrival");
    }

    #[test]
    fn region_stream_horizon_is_half_open_and_caps_are_exact() {
        let mix = RequestMix::single(ModelId::Llama2);
        let stream =
            |cap| RegionStream::seeded(ArrivalProcess::poisson(5.0), mix.clone(), 7, 8, cap);
        let first = stream(None).next().0;
        let mut s = stream(None);
        assert_eq!(s.next_before(first), None, "an arrival on the horizon is out");
        assert_eq!(s.next_before(f64::INFINITY).map(|a| a.0), Some(first), "and stays parked");
        for cap in [0, 1, 7] {
            let mut s = stream(Some(cap));
            let n = std::iter::from_fn(|| s.next_before(f64::INFINITY)).count();
            assert_eq!(n as u64, cap);
        }
    }

    #[test]
    fn mix_defaults_weights_and_rejects_garbage() {
        let mix = RequestMix::parse("sd,muse").unwrap();
        assert!((mix.share(ModelId::Muse) - 0.5).abs() < 1e-12);
        assert!(RequestMix::parse("").is_err());
        assert!(RequestMix::parse("sd:0").is_err());
        assert!(RequestMix::parse("sd:8,sd:2").is_err());
        assert!(RequestMix::parse("notamodel:1").is_err());
    }

    #[test]
    fn mix_rejects_non_finite_weights_and_totals() {
        for spec in ["sd:nan,parti:1", "sd:inf", "sd:-inf", "sd:1,parti:NaN"] {
            let err = RequestMix::parse(spec).unwrap_err();
            assert!(err.ends_with("must be positive and finite"), "{spec}: {err}");
        }
        let err = RequestMix::parse("sd:1e308,parti:1e308").unwrap_err();
        assert!(err.contains("finite total"), "{err}");
        assert!(RequestMix::parse("sd:1e307,parti:1e307").is_ok());
    }

    #[test]
    fn model_short_names_round_trip() {
        for id in ModelId::ALL {
            assert_eq!(parse_model(model_short_name(id)).unwrap(), id);
            assert_eq!(parse_model(&id.to_string()).unwrap(), id);
        }
        assert!(parse_model("gpt").is_err());
    }

    #[test]
    fn length_sampler_is_deterministic_and_clamped() {
        let dist = LengthDist::new(512.0, 0.6, 16, 2048);
        let mut a = LengthSampler::new(dist, 7);
        let mut b = LengthSampler::new(dist, 7);
        let mut c = LengthSampler::new(dist, 8);
        let mut diverged = false;
        for _ in 0..2000 {
            let la = a.sample();
            assert_eq!(la, b.sample(), "same seed must replay the same lengths");
            diverged |= la != c.sample();
            assert!((16..=2048).contains(&la), "clamp violated: {la}");
        }
        assert!(diverged, "seeds 7 and 8 coincide");
    }

    #[test]
    fn length_sampler_median_lands_near_parameter() {
        let mut s = LengthSampler::new(LengthDist::new(128.0, 0.5, 1, 100_000), 42);
        let mut lens: Vec<usize> = (0..4000).map(|_| s.sample()).collect();
        lens.sort_unstable();
        let p50 = lens[lens.len() / 2] as f64;
        assert!(
            (p50 - 128.0).abs() < 16.0,
            "empirical median {p50} far from configured 128"
        );
        // Heavy right tail: the mean exceeds the median for sigma > 0.
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!(mean > p50, "lognormal mean {mean} should exceed median {p50}");
    }

    #[test]
    fn length_sampler_sigma_zero_is_fixed() {
        let mut s = LengthSampler::new(LengthDist::fixed(256), 3);
        for _ in 0..50 {
            assert_eq!(s.sample(), 256);
        }
        assert!((LengthDist::fixed(256).mean() - 256.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive and finite, got inf")]
    fn an_infinite_poisson_rate_panics() {
        let _ = ArrivalGen::new(ArrivalProcess::poisson(f64::INFINITY), 1);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive and finite, got inf")]
    fn an_infinite_bursty_rate_panics() {
        let _ = ArrivalGen::new(ArrivalProcess::bursty(f64::INFINITY), 1);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive and finite, got inf")]
    fn an_infinite_diurnal_rate_panics() {
        let _ = ArrivalGen::new(ArrivalProcess::diurnal(f64::INFINITY), 1);
    }

    #[test]
    #[should_panic(expected = "clamp interval is empty")]
    fn length_dist_rejects_empty_clamp() {
        let _ = LengthDist::new(100.0, 0.1, 64, 32);
    }

    #[test]
    fn arrival_parse_names() {
        assert_eq!(
            ArrivalProcess::parse("poisson", 2.0).unwrap(),
            ArrivalProcess::poisson(2.0)
        );
        assert!(ArrivalProcess::parse("steady", 2.0).is_err());
        assert_eq!(ArrivalProcess::bursty(2.0).with_rate(4.0).mean_rate_rps(), 4.0);
    }

    /// What the cluster and token scenarios' `validate` say about a run
    /// on `process`.
    fn validated(process: ArrivalProcess) -> [Result<(), String>; 2] {
        let cluster = crate::ScenarioCfg::new(
            1,
            RequestMix::single(ModelId::Muse),
            process,
            crate::SchedulerKind::Fifo,
            crate::SloSpec::None,
            100.0,
            1,
        );
        let token = crate::TokenScenarioCfg {
            gpus: 1,
            model: ModelId::Muse,
            arrival: process,
            batching: crate::TokenBatching::Continuous { max_batch: 1 },
            priority: crate::PhasePriority::Decode,
            admission: crate::KvAdmission::Prompt,
            chunk_tokens: 1,
            prompt: LengthDist::fixed(1),
            output: LengthDist::fixed(1),
            slo: crate::TokenSlo { ttft_s: 1.0, tpot_s: 1.0 },
            duration_s: 100.0,
            max_requests: None,
            seed: 1,
        };
        [cluster.validate(), token.validate()]
    }

    /// Both scenarios accept `ok` and refuse each of `bad` with a typed
    /// error naming what the shape `needs`, where `ArrivalGen::new` would
    /// panic.
    fn assert_refused(ok: ArrivalProcess, bad: &[ArrivalProcess], needs: &str) {
        assert_eq!(validated(ok), [Ok(()), Ok(())]);
        for &process in bad {
            for result in validated(process) {
                let err = result.expect_err(&format!("{process:?} passed"));
                assert!(err.contains(needs), "{process:?}: {err}");
            }
        }
    }

    fn diurnal(amplitude: f64, period_s: f64, phase_s: f64) -> ArrivalProcess {
        ArrivalProcess::Diurnal { rate_rps: 2.0, amplitude, period_s, phase_s }
    }

    fn bursty(burst_factor: f64, mean_burst_s: f64, mean_idle_s: f64) -> ArrivalProcess {
        ArrivalProcess::Bursty { rate_rps: 2.0, burst_factor, mean_burst_s, mean_idle_s }
    }

    const DIURNAL_NEEDS: &str = "an amplitude in [0, 1), a positive period and a finite phase";
    const BURSTY_NEEDS: &str = "a burst factor of at least 1 and positive burst and idle durations";

    #[test]
    fn a_diurnal_amplitude_outside_0_1_is_refused() {
        let bad = [-0.1, 1.0, 1.5, f64::NAN].map(|a| diurnal(a, 120.0, 0.0));
        assert_refused(diurnal(0.0, 120.0, 0.0), &bad, DIURNAL_NEEDS);
    }

    #[test]
    fn a_diurnal_period_that_is_not_positive_is_refused() {
        let bad = [0.0, -120.0, f64::NAN].map(|p| diurnal(0.6, p, 0.0));
        assert_refused(diurnal(0.6, 120.0, 0.0), &bad, DIURNAL_NEEDS);
    }

    #[test]
    fn a_diurnal_phase_that_is_not_finite_is_refused() {
        let bad = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].map(|ph| diurnal(0.6, 120.0, ph));
        assert_refused(diurnal(0.6, 120.0, -30.0), &bad, DIURNAL_NEEDS);
    }

    #[test]
    fn a_burst_factor_below_1_is_refused() {
        let bad = [0.5, 0.0, f64::NAN].map(|f| bursty(f, 5.0, 10.0));
        assert_refused(bursty(1.0, 5.0, 10.0), &bad, BURSTY_NEEDS);
    }

    #[test]
    fn burst_or_idle_durations_that_are_not_positive_are_refused() {
        let bad = [bursty(3.0, 0.0, 10.0), bursty(3.0, 5.0, -1.0), bursty(3.0, f64::NAN, 10.0)];
        assert_refused(bursty(3.0, 5.0, 10.0), &bad, BURSTY_NEEDS);
    }

    /// Bit pins of the arrival streams every serving engine draws: each
    /// stream's `(time bits, mix index)` sequence hashed with 64-bit
    /// FNV-1a. A change to how uniforms are drawn, transformed or
    /// consumed moves a digest; a faster draw of the same values does
    /// not.
    mod pinned_streams {
        use super::*;

        /// Arrivals hashed per stream (the capped streams hand out
        /// fewer, then continue past their cap).
        const ARRIVALS: usize = 100_000;

        /// 64-bit FNV-1a over little-endian words.
        struct Fnv(u64);

        impl Fnv {
            fn new() -> Self {
                Fnv(0xcbf2_9ce4_8422_2325)
            }

            fn word(&mut self, w: u64) {
                for b in w.to_le_bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }

            fn arrival(&mut self, (t, m): (f64, usize)) {
                self.word(t.to_bits());
                self.word(m as u64);
            }
        }

        fn processes() -> [(&'static str, ArrivalProcess); 4] {
            [
                ("poisson", ArrivalProcess::poisson(40.0)),
                ("bursty", ArrivalProcess::bursty(40.0)),
                ("diurnal", ArrivalProcess::diurnal(40.0)),
                ("phased", ArrivalProcess::diurnal(40.0).with_phase(-37.5)),
            ]
        }

        fn mixes() -> [(&'static str, RequestMix); 3] {
            [
                ("one", RequestMix::single(ModelId::Muse)),
                ("two", RequestMix::parse("sd:8,parti:2").unwrap()),
                ("three", RequestMix::parse("sd:5,parti:3,llama:2").unwrap()),
            ]
        }

        fn stream(process: ArrivalProcess, mix: RequestMix, cap: Option<u64>) -> RegionStream {
            RegionStream::seeded(process, mix, 11, 12, cap)
        }

        /// Fails with every digest that moved, printed as the table
        /// entry that would pin it.
        fn assert_pinned(got: &[(String, u64)], want: &[(&str, u64)]) {
            let moved: Vec<String> = got
                .iter()
                .zip(want)
                .filter(|((name, g), (w_name, w))| name != w_name || g != w)
                .map(|((name, g), _)| format!("(\"{name}\", 0x{g:016x}),"))
                .collect();
            assert_eq!(got.len(), want.len(), "digest count");
            assert!(moved.is_empty(), "moved digests:\n{}", moved.join("\n"));
        }

        #[test]
        fn seeded_streams_are_pinned() {
            let mut got = Vec::new();
            for (p_name, process) in processes() {
                for (m_name, mix) in mixes() {
                    let mut s = stream(process, mix, None);
                    let mut h = Fnv::new();
                    for _ in 0..ARRIVALS {
                        h.arrival(s.next());
                    }
                    got.push((format!("{p_name}/{m_name}"), h.0));
                }
            }
            assert_pinned(
                &got,
                &[
                    ("poisson/one", 0x3baf_a3c3_74af_5d68),
                    ("poisson/two", 0x5f51_ef54_333a_880d),
                    ("poisson/three", 0xdd26_752e_089d_b04a),
                    ("bursty/one", 0xe823_c2a3_c765_e6da),
                    ("bursty/two", 0xa27a_c884_4ac7_a9f3),
                    ("bursty/three", 0xdbcb_49a8_c979_95c8),
                    ("diurnal/one", 0x668d_907b_e329_31bd),
                    ("diurnal/two", 0x68b1_76ee_74f1_d2e0),
                    ("diurnal/three", 0x1af0_bb89_126b_cf8b),
                    ("phased/one", 0x8c11_df92_8560_216e),
                    ("phased/two", 0xb734_6fbf_0c01_c86b),
                    ("phased/three", 0xf205_68d0_e3d4_a820),
                ],
            );
        }

        #[test]
        fn windowed_and_capped_streams_are_pinned() {
            // Irregular window widths, so cuts land anywhere in a block.
            const WIDTHS: [f64; 5] = [0.013, 0.5, 1.0 / 3.0, 2.0, 0.07];
            let mut got = Vec::new();
            for (p_name, process) in processes() {
                let mix = mixes()[2].1.clone();
                let mut s = stream(process, mix.clone(), None);
                let mut h = Fnv::new();
                let (mut end, mut handed) = (0.0, 0);
                for w in 0.. {
                    end += WIDTHS[w % WIDTHS.len()];
                    let mut in_window = 0;
                    while let Some(a) = s.next_before(end) {
                        assert!(a.0 < end, "{p_name}: {} handed out past {end}", a.0);
                        h.arrival(a);
                        in_window += 1;
                    }
                    h.word(in_window);
                    handed += in_window;
                    if handed >= ARRIVALS as u64 {
                        break;
                    }
                }
                got.push((format!("{p_name}/windows"), h.0));
                for cap in [0, 255, 256, 257, 513] {
                    let mut s = stream(process, mix.clone(), Some(cap));
                    let mut h = Fnv::new();
                    let capped = std::iter::from_fn(|| s.next_before(f64::INFINITY))
                        .inspect(|&a| h.arrival(a))
                        .count();
                    assert_eq!(capped as u64, cap, "{p_name}: cap {cap}");
                    for _ in 0..ARRIVALS {
                        h.arrival(s.next());
                    }
                    got.push((format!("{p_name}/cap{cap}"), h.0));
                }
            }
            assert_pinned(
                &got,
                &[
                    ("poisson/windows", 0x3a4c_6456_9d23_5ea6),
                    ("poisson/cap0", 0xdd26_752e_089d_b04a),
                    ("poisson/cap255", 0xa27a_a108_fe9a_72f9),
                    ("poisson/cap256", 0x5943_354d_c1ed_c706),
                    ("poisson/cap257", 0xd23b_c988_8b2a_2381),
                    ("poisson/cap513", 0x2db6_ce9c_fd95_0348),
                    ("bursty/windows", 0x8d85_d3b0_cab9_cf95),
                    ("bursty/cap0", 0xdbcb_49a8_c979_95c8),
                    ("bursty/cap255", 0x0ad6_09b8_c369_6b34),
                    ("bursty/cap256", 0x5519_b697_03b0_f666),
                    ("bursty/cap257", 0x0e0f_1d05_9f18_fb70),
                    ("bursty/cap513", 0xd52d_7e6a_6246_1c54),
                    ("diurnal/windows", 0xfe2c_be2c_838b_ddf7),
                    ("diurnal/cap0", 0x1af0_bb89_126b_cf8b),
                    ("diurnal/cap255", 0x53e0_c2ba_0330_084e),
                    ("diurnal/cap256", 0x846c_3995_4c12_fa47),
                    ("diurnal/cap257", 0xf6f3_feb9_4630_4424),
                    ("diurnal/cap513", 0x04c1_03cf_f8a8_726c),
                    ("phased/windows", 0x7e59_a630_f31d_82c4),
                    ("phased/cap0", 0xf205_68d0_e3d4_a820),
                    ("phased/cap255", 0x504a_bcab_3d13_dfbe),
                    ("phased/cap256", 0xaba1_b9df_2945_3c08),
                    ("phased/cap257", 0x4589_084a_a8f7_fe52),
                    ("phased/cap513", 0xe8e0_5dc4_47c1_4b6b),
                ],
            );
        }

        #[test]
        fn next_after_from_unchained_times_is_pinned() {
            let mut got = Vec::new();
            for (p_name, process) in processes() {
                let mut g = ArrivalGen::new(process, 13);
                let mut h = Fnv::new();
                let mut last = 0.0;
                for k in 0..ARRIVALS as u64 {
                    // Jumps back and forth over [0, 100) s; every third
                    // call chains from the last return instead, and every
                    // fifth repeats the query before it.
                    let t = match k % 15 {
                        0 | 3 | 6 | 9 | 12 => last,
                        5 | 10 => ((k - 1) * 7919 % 10007) as f64 * 0.01,
                        _ => (k * 7919 % 10007) as f64 * 0.01,
                    };
                    last = g.next_after(t);
                    h.word(last.to_bits());
                }
                got.push((format!("{p_name}/unchained"), h.0));
            }
            assert_pinned(
                &got,
                &[
                    ("poisson/unchained", 0xb35f_24b6_5993_f434),
                    ("bursty/unchained", 0xe559_0902_eda6_64e9),
                    ("diurnal/unchained", 0xa134_4d6f_3ea0_b071),
                    ("phased/unchained", 0xd53b_5786_7dc7_dfbd),
                ],
            );
        }
    }
}
