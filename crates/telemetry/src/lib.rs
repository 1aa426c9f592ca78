//! Cross-cutting observability for the mmgen simulator stack.
//!
//! Three primitives, all cheap enough for simulator hot paths:
//!
//! - **Counters / gauges / histograms** live in a [`Registry`]. Handles
//!   ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed atomics, so
//!   instrumented code pays one atomic op per event and never takes a
//!   lock after registration.
//! - **Spans** ([`Registry::record_span`]) record one finished scope
//!   with its wall time and the counter deltas the caller charged to it,
//!   so a trace row can say "this UNet block moved 3.1 MB through HBM and
//!   hit L1 12 000 times". Span capture is off until
//!   [`Registry::set_span_capture`] turns it on, so runs whose outputs
//!   never read spans do not hold them.
//! - **Exporters**: [`Registry::render_prometheus`] emits Prometheus
//!   text exposition; [`Registry::snapshot_json`] emits a JSON snapshot
//!   (counters, gauges, histogram quantiles, finished spans).
//!
//! A process-wide registry is available via [`global`]; experiment code
//! that needs isolation (tests, parallel sweeps) creates its own
//! [`Registry::new`], or a [`Registry::child`] of the registry it will
//! be merged into, and uses the same handle API.

#![deny(missing_docs)]

pub mod burnrate;
pub mod sketch;
pub mod timeseries;

pub use burnrate::{
    AlertEvent, AlertKind, BudgetWindow, BurnRateEngine, BurnRule, RatchetDetector, RatchetEvent,
    SloPolicy,
};
pub use sketch::QuantileSketch;
pub use timeseries::{WindowValue, WindowedSeries};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde_json::Value;

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Monotonically increasing event counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous value (stored as `f64` bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds to the gauge (not atomic across racing writers; the
    /// simulator records from one thread at a time).
    pub fn add(&self, dv: f64) {
        self.set(self.get() + dv);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bucket edges, strictly increasing; an implicit `+Inf`
    /// overflow bucket follows the last edge.
    edges: Vec<f64>,
    /// One count per edge plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket histogram with quantile estimation.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.0;
        let idx = inner.edges.partition_point(|&edge| edge < v);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // Lone-writer sum update (same caveat as Gauge::add).
        let cur = f64::from_bits(inner.sum_bits.load(Ordering::Relaxed));
        inner.sum_bits.store((cur + v).to_bits(), Ordering::Relaxed);
    }

    /// Records every value of `values`, in order, leaving the same
    /// buckets, count and sum bits as one [`Histogram::observe`] per
    /// value: the sum takes each value in turn, so its rounding matches.
    /// It pays one atomic add per touched bucket and one for the count
    /// instead of two per value. A lone writer, like `observe`'s sum.
    pub fn observe_batch(&self, values: impl IntoIterator<Item = f64>) {
        /// Buckets counted on the stack; any past them count directly.
        const LOCAL: usize = 32;
        let inner = &self.0;
        let mut local = [0u64; LOCAL];
        let mut count = 0u64;
        let mut sum = f64::from_bits(inner.sum_bits.load(Ordering::Relaxed));
        for v in values {
            let idx = inner.edges.partition_point(|&edge| edge < v);
            match local.get_mut(idx) {
                Some(n) => *n += 1,
                None => {
                    inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
                }
            }
            sum += v;
            count += 1;
        }
        if count == 0 {
            return;
        }
        for (bucket, &n) in inner.buckets.iter().zip(&local) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        inner.count.fetch_add(count, Ordering::Relaxed);
        inner.sum_bits.store(sum.to_bits(), Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket containing the target rank. Returns 0 when the
    /// histogram is empty. Observations beyond the last edge clamp to it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let inner = &self.0;
        let total = inner.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, bucket) in inner.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if (cumulative + in_bucket) as f64 >= target && in_bucket > 0 {
                let hi = inner.edges.get(i).copied().unwrap_or_else(|| {
                    // Overflow bucket: clamp to the last finite edge.
                    inner.edges.last().copied().unwrap_or(0.0)
                });
                let lo = if i == 0 { 0.0 } else { inner.edges[i - 1] };
                let frac = (target - cumulative as f64) / in_bucket as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            cumulative += in_bucket;
        }
        inner.edges.last().copied().unwrap_or(0.0)
    }
}

/// Nearest-rank `q`-quantile of an ascending-sorted slice: the shared
/// quantile picker used by the serving summaries (M/D/1 and the DES SLO
/// report). Unlike [`Histogram::quantile`] this is exact — no bucket
/// interpolation — so it is the right tool when the raw samples are in
/// hand. Returns `None` on an empty slice: an empty sample set has no
/// quantiles, and silently answering 0 has bitten callers that fed the
/// result into SLO math.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile_sorted needs an ascending slice"
    );
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[idx])
}

/// Exponential bucket edges for microsecond-scale durations: 1 µs to
/// ~10 s, four buckets per decade.
#[must_use]
pub fn time_buckets_us() -> Vec<f64> {
    let mut edges = Vec::with_capacity(29);
    let mut v = 1.0f64;
    while v <= 1.1e7 {
        edges.push(v);
        v *= 10f64.powf(0.25);
    }
    edges
}

/// Exponential bucket edges for second-scale latencies: 1 ms to ~100 s.
#[must_use]
pub fn latency_buckets_s() -> Vec<f64> {
    let mut edges = Vec::with_capacity(21);
    let mut v = 1e-3f64;
    while v <= 1.1e2 {
        edges.push(v);
        v *= 10f64.powf(0.25);
    }
    edges
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Metric identity: base name plus rendered, sorted label pairs
/// (`cache="l1",model="sd"`); empty string for no labels.
type Key = (String, String);

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",")
}

fn full_name(key: &Key) -> String {
    if key.1.is_empty() {
        key.0.clone()
    } else {
        format!("{}{{{}}}", key.0, key.1)
    }
}

/// Inverse of [`full_name`]: splits `name{labels}` back into the
/// registry key.
fn parse_full_name(full: &str) -> Key {
    match full.split_once('{') {
        Some((name, labels)) => (
            name.to_string(),
            labels.strip_suffix('}').unwrap_or(labels).to_string(),
        ),
        None => (full.to_string(), String::new()),
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A finished span: one scope with wall time and counter deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Dotted module path of the scope (`unet.down.attn`), shared with
    /// the graph node it came from.
    pub path: Arc<str>,
    /// Microseconds since the registry epoch at which the span opened.
    pub start_us: f64,
    /// Span duration in microseconds.
    pub dur_us: f64,
    /// Counter increments charged to the scope, full metric name →
    /// delta; zero-delta counters are omitted. Shared (`Arc`) so paths
    /// that stamp thousands of identical spans — e.g. the profiler memo
    /// serving a 50-step denoising loop — can attach the same delta list
    /// without cloning every string.
    pub counter_deltas: Arc<Vec<(String, u64)>>,
}

/// Point-in-time view of every counter in a registry.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    values: Vec<(String, u64)>,
}

impl CounterSnapshot {
    /// The raw `(full name, value)` pairs in this snapshot, sorted by
    /// name.
    #[must_use]
    pub fn values(&self) -> &[(String, u64)] {
        &self.values
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Inner {
    counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<Key, Arc<HistogramInner>>>,
    spans: Mutex<Vec<SpanRecord>>,
    /// Whether [`Registry::record_span`] keeps spans.
    capture_spans: AtomicBool,
    /// Metric family name → help text, rendered as `# HELP` lines.
    help: Mutex<BTreeMap<String, String>>,
    epoch: Instant,
}

/// A family of metrics and spans. Cheap to clone (shared interior).
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry, with span capture off and its epoch now.
    #[must_use]
    pub fn new() -> Self {
        Registry::with_epoch(Instant::now(), false)
    }

    fn with_epoch(epoch: Instant, capture_spans: bool) -> Self {
        Registry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(Vec::new()),
                capture_spans: AtomicBool::new(capture_spans),
                help: Mutex::new(BTreeMap::new()),
                epoch,
            }),
        }
    }

    /// An empty registry to be merged into this one with
    /// [`Registry::merge_from`]: it shares this registry's epoch, so the
    /// merged spans keep one time base, and takes this registry's
    /// span-capture switch as it is now.
    #[must_use]
    pub fn child(&self) -> Registry {
        Registry::with_epoch(self.inner.epoch, self.span_capture())
    }

    /// Turns span capture on or off. While it is off (the default),
    /// [`Registry::record_span`] keeps nothing; turn it on only when an
    /// output reads spans, such as [`Registry::snapshot_json`].
    pub fn set_span_capture(&self, on: bool) {
        self.inner.capture_spans.store(on, Ordering::Relaxed);
    }

    /// Whether [`Registry::record_span`] keeps spans. Callers check it
    /// before reading the clock for a span.
    #[must_use]
    pub fn span_capture(&self) -> bool {
        self.inner.capture_spans.load(Ordering::Relaxed)
    }

    /// Gets or creates the unlabelled counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Gets or creates a counter with labels.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_string(), render_labels(labels));
        let mut map = self.inner.counters.lock().expect("counter registry poisoned");
        Counter(Arc::clone(map.entry(key).or_default()))
    }

    /// Gets or creates the unlabelled gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gets or creates a gauge with labels.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = (name.to_string(), render_labels(labels));
        let mut map = self.inner.gauges.lock().expect("gauge registry poisoned");
        Gauge(Arc::clone(map.entry(key).or_default()))
    }

    /// Gets or creates the unlabelled histogram `name` with the given
    /// bucket edges (used only on first creation).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    #[must_use]
    pub fn histogram(&self, name: &str, edges: &[f64]) -> Histogram {
        self.histogram_with(name, &[], edges)
    }

    /// Gets or creates a histogram with labels.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], edges: &[f64]) -> Histogram {
        assert!(!edges.is_empty(), "histogram needs at least one bucket edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let key = (name.to_string(), render_labels(labels));
        let mut map = self.inner.histograms.lock().expect("histogram registry poisoned");
        let inner = map.entry(key).or_insert_with(|| {
            Arc::new(HistogramInner {
                edges: edges.to_vec(),
                buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            })
        });
        Histogram(Arc::clone(inner))
    }

    /// Registers help text for the metric family `name`, rendered as a
    /// single `# HELP` line ahead of the family's samples in
    /// [`Registry::render_prometheus`]. Later calls overwrite earlier
    /// ones; families without help render a generic placeholder so the
    /// exposition stays schema-valid either way.
    pub fn describe(&self, name: &str, help: &str) {
        let mut map = self.inner.help.lock().expect("help registry poisoned");
        map.insert(name.to_string(), help.to_string());
    }

    /// Appends a span that opened at `started` and closes now, carrying
    /// `counter_deltas` (`(full metric name, delta)` pairs) verbatim.
    /// `start_us` counts from this registry's epoch and `dur_us` is the
    /// time since `started`, so a span costs one clock read here on top
    /// of the caller's `Instant::now()`. Does nothing while span capture
    /// is off.
    pub fn record_span(
        &self,
        path: Arc<str>,
        started: Instant,
        counter_deltas: Arc<Vec<(String, u64)>>,
    ) {
        if !self.span_capture() {
            return;
        }
        let record = SpanRecord {
            path,
            start_us: started.saturating_duration_since(self.inner.epoch).as_secs_f64() * 1e6,
            dur_us: started.elapsed().as_secs_f64() * 1e6,
            counter_deltas,
        };
        if let Ok(mut spans) = self.inner.spans.lock() {
            spans.push(record);
        }
    }

    /// Resolves a full metric name — `name` or `name{label="v"}`, the
    /// form [`CounterSnapshot::values`] lists — to its [`Counter`]
    /// handle, creating the counter at zero if absent. Paths that apply
    /// the same delta list many times resolve handles once with this and
    /// then [`Counter::add`] lock-free, instead of paying the registry
    /// lock and name parse on every application.
    #[must_use]
    pub fn counter_handle(&self, full: &str) -> Counter {
        let key = parse_full_name(full);
        let mut map = self.inner.counters.lock().expect("counter registry poisoned");
        Counter(Arc::clone(map.entry(key).or_default()))
    }

    /// Merges another registry's state into this one, deterministically:
    /// counters add, gauges take the other's value, histograms merge
    /// bucket-by-bucket (created here with the other's edges when
    /// missing), finished spans append in the other's completion order.
    ///
    /// The worker-pool experiment engine runs each experiment on its own
    /// registry and merges them at join in experiment order, so totals
    /// are byte-identical to a serial run. A registry built only to be
    /// merged should be a [`Registry::child`] of this one, so its spans
    /// count from this registry's epoch.
    ///
    /// # Panics
    ///
    /// Panics if a histogram exists in both registries under the same
    /// name with different bucket edges.
    pub fn merge_from(&self, other: &Registry) {
        {
            let theirs = other.inner.counters.lock().expect("counter registry poisoned");
            let mut ours = self.inner.counters.lock().expect("counter registry poisoned");
            for (key, v) in theirs.iter() {
                let add = v.load(Ordering::Relaxed);
                if add > 0 {
                    ours.entry(key.clone()).or_default().fetch_add(add, Ordering::Relaxed);
                }
            }
        }
        {
            let theirs = other.inner.gauges.lock().expect("gauge registry poisoned");
            let mut ours = self.inner.gauges.lock().expect("gauge registry poisoned");
            for (key, v) in theirs.iter() {
                ours.entry(key.clone())
                    .or_default()
                    .store(v.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        {
            let theirs = other.inner.histograms.lock().expect("histogram registry poisoned");
            let mut ours = self.inner.histograms.lock().expect("histogram registry poisoned");
            for (key, h) in theirs.iter() {
                let mine = ours.entry(key.clone()).or_insert_with(|| {
                    Arc::new(HistogramInner {
                        edges: h.edges.clone(),
                        buckets: (0..=h.edges.len()).map(|_| AtomicU64::new(0)).collect(),
                        sum_bits: AtomicU64::new(0f64.to_bits()),
                        count: AtomicU64::new(0),
                    })
                });
                assert_eq!(
                    mine.edges, h.edges,
                    "histogram '{}' merged with mismatched bucket edges",
                    key.0
                );
                for (dst, src) in mine.buckets.iter().zip(h.buckets.iter()) {
                    dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
                }
                let sum = f64::from_bits(mine.sum_bits.load(Ordering::Relaxed))
                    + f64::from_bits(h.sum_bits.load(Ordering::Relaxed));
                mine.sum_bits.store(sum.to_bits(), Ordering::Relaxed);
                mine.count.fetch_add(h.count.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        {
            let theirs = other.inner.help.lock().expect("help registry poisoned");
            let mut ours = self.inner.help.lock().expect("help registry poisoned");
            for (name, help) in theirs.iter() {
                ours.entry(name.clone()).or_insert_with(|| help.clone());
            }
        }
        let their_spans = other.finished_spans();
        if !their_spans.is_empty() {
            let mut spans = self.inner.spans.lock().expect("span registry poisoned");
            spans.extend(their_spans);
        }
    }

    /// Point-in-time values of every counter (full name → value),
    /// sorted by name.
    #[must_use]
    pub fn counters_snapshot(&self) -> CounterSnapshot {
        let map = self.inner.counters.lock().expect("counter registry poisoned");
        CounterSnapshot {
            values: map
                .iter()
                .map(|(key, v)| (full_name(key), v.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// All spans finished so far while span capture was on, in
    /// completion order.
    #[must_use]
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().expect("span registry poisoned").clone()
    }

    /// Zeroes every counter/gauge/histogram and clears finished spans.
    /// Existing handles stay valid. Meant for test isolation around the
    /// [`global`] registry.
    pub fn reset(&self) {
        for v in self.inner.counters.lock().expect("counter registry poisoned").values() {
            v.store(0, Ordering::Relaxed);
        }
        for v in self.inner.gauges.lock().expect("gauge registry poisoned").values() {
            v.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for h in self.inner.histograms.lock().expect("histogram registry poisoned").values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
            h.count.store(0, Ordering::Relaxed);
        }
        self.inner.spans.lock().expect("span registry poisoned").clear();
    }

    // -- exporters ---------------------------------------------------------

    /// Renders the Prometheus text exposition format (counters, gauges,
    /// histograms with `_bucket`/`_sum`/`_count` series). Each metric
    /// family is preceded by exactly one `# HELP` line (registered via
    /// [`Registry::describe`], or a placeholder) and one `# TYPE` line,
    /// regardless of how many labeled instances it has.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let help = self.inner.help.lock().expect("help registry poisoned").clone();
        let family_header = |out: &mut String, name: &str, kind: &str| {
            let text = help
                .get(name)
                .map_or_else(|| format!("{kind} metric {name}"), |h| h.clone());
            // HELP text is a single line in the exposition format.
            out.push_str(&format!("# HELP {} {}\n", name, text.replace('\n', " ")));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        };
        let mut out = String::new();
        {
            let counters = self.inner.counters.lock().expect("counter registry poisoned");
            let mut last_name = "";
            for (key, v) in counters.iter() {
                if key.0 != last_name {
                    family_header(&mut out, &key.0, "counter");
                    last_name = &key.0;
                }
                out.push_str(&format!("{} {}\n", full_name(key), v.load(Ordering::Relaxed)));
            }
        }
        {
            let gauges = self.inner.gauges.lock().expect("gauge registry poisoned");
            let mut last_name = "";
            for (key, v) in gauges.iter() {
                if key.0 != last_name {
                    family_header(&mut out, &key.0, "gauge");
                    last_name = &key.0;
                }
                let value = f64::from_bits(v.load(Ordering::Relaxed));
                out.push_str(&format!("{} {}\n", full_name(key), fmt_f64(value)));
            }
        }
        {
            let histograms = self.inner.histograms.lock().expect("histogram registry poisoned");
            let mut last_name = "";
            for (key, h) in histograms.iter() {
                if key.0 != last_name {
                    family_header(&mut out, &key.0, "histogram");
                    last_name = &key.0;
                }
                let prefix = if key.1.is_empty() {
                    String::new()
                } else {
                    format!("{},", key.1)
                };
                let mut cumulative = 0u64;
                for (i, b) in h.buckets.iter().enumerate() {
                    cumulative += b.load(Ordering::Relaxed);
                    let le = h
                        .edges
                        .get(i)
                        .map_or_else(|| "+Inf".to_string(), |e| fmt_f64(*e));
                    out.push_str(&format!(
                        "{}_bucket{{{}le=\"{}\"}} {}\n",
                        key.0, prefix, le, cumulative
                    ));
                }
                let sum = f64::from_bits(h.sum_bits.load(Ordering::Relaxed));
                let labels = if key.1.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", key.1)
                };
                out.push_str(&format!("{}_sum{} {}\n", key.0, labels, fmt_f64(sum)));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    key.0,
                    labels,
                    h.count.load(Ordering::Relaxed)
                ));
            }
        }
        out
    }

    /// JSON snapshot: counter/gauge values, histogram summaries
    /// (count/sum/mean/p50/p95/p99), and finished spans (none unless
    /// span capture was on while they ran).
    #[must_use]
    pub fn snapshot_json(&self) -> Value {
        let counters: Vec<(String, Value)> = {
            let map = self.inner.counters.lock().expect("counter registry poisoned");
            map.iter()
                .map(|(key, v)| {
                    (full_name(key), Value::from(v.load(Ordering::Relaxed)))
                })
                .collect()
        };
        let gauges: Vec<(String, Value)> = {
            let map = self.inner.gauges.lock().expect("gauge registry poisoned");
            map.iter()
                .map(|(key, v)| {
                    (full_name(key), Value::from(f64::from_bits(v.load(Ordering::Relaxed))))
                })
                .collect()
        };
        let histograms: Vec<(String, Value)> = {
            let map = self.inner.histograms.lock().expect("histogram registry poisoned");
            map.keys()
                .map(|key| {
                    let h = Histogram(Arc::clone(&map[key]));
                    (
                        full_name(key),
                        Value::Object(vec![
                            ("count".to_string(), Value::from(h.count())),
                            ("sum".to_string(), Value::from(h.sum())),
                            ("mean".to_string(), Value::from(h.mean())),
                            ("p50".to_string(), Value::from(h.quantile(0.50))),
                            ("p95".to_string(), Value::from(h.quantile(0.95))),
                            ("p99".to_string(), Value::from(h.quantile(0.99))),
                        ]),
                    )
                })
                .collect()
        };
        let spans: Vec<Value> = self
            .finished_spans()
            .into_iter()
            .map(|s| {
                Value::Object(vec![
                    ("path".to_string(), Value::String(s.path.to_string())),
                    ("start_us".to_string(), Value::from(s.start_us)),
                    ("dur_us".to_string(), Value::from(s.dur_us)),
                    (
                        "counter_deltas".to_string(),
                        Value::Object(
                            s.counter_deltas
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::from(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(histograms)),
            ("spans".to_string(), Value::Array(spans)),
        ])
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The process-wide registry. All default instrumentation in the
/// workspace records here; [`Registry::reset`] gives tests isolation.
/// Like every [`Registry::new`], it starts with span capture off.
#[must_use]
pub fn global() -> Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = Registry::new();
        let a = r.counter("hits_total");
        let b = r.counter("hits_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.counters_snapshot().values, vec![("hits_total".to_string(), 4)]);
    }

    #[test]
    fn labelled_counters_are_distinct_and_sorted() {
        let r = Registry::new();
        r.counter_with("c", &[("z", "1"), ("a", "2")]).inc();
        r.counter_with("c", &[("a", "2"), ("z", "1")]).inc();
        r.counter_with("c", &[("a", "3")]).inc();
        let snap = r.counters_snapshot();
        assert_eq!(
            snap.values,
            vec![
                ("c{a=\"2\",z=\"1\"}".to_string(), 2),
                ("c{a=\"3\"}".to_string(), 1),
            ]
        );
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(4.0);
        g.add(-1.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 2.0, 4.0, 8.0]);
        // 100 observations uniformly in (0, 4]: quartiles land at ~1, ~2.
        for i in 0..100 {
            h.observe((i as f64 + 1.0) * 0.04);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!((1.0..=2.2).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((3.5..=4.0).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) <= 4.0);
        // Overflow clamps to the last edge.
        h.observe(100.0);
        assert!(h.quantile(1.0) <= 8.0);
    }

    #[test]
    fn histogram_exact_quantile_on_point_mass() {
        let r = Registry::new();
        let h = r.histogram("x", &[10.0, 20.0]);
        for _ in 0..10 {
            h.observe(15.0);
        }
        let p50 = h.quantile(0.5);
        assert!((10.0..=20.0).contains(&p50), "p50 {p50}");
        assert!((h.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn a_batch_observe_matches_one_observe_per_value() {
        // Values on bucket edges, between them, past the last edge, and
        // ones whose running sum rounds differently in another order.
        let edges = time_buckets_us();
        let mut values = vec![1.0, edges[3], edges[28], 1.2e7, 5e9, 0.1, 0.2, 0.3, 1e-17];
        values.extend((0..40).map(|i| 0.37 * f64::from(i) + 1e-9));
        // 40 edges: buckets past the batch's stack counts take the
        // direct path.
        let wide: Vec<f64> = (1..=40).map(f64::from).collect();
        for edges in [edges, wide] {
            let (one, batch) = (Registry::new(), Registry::new());
            let (h1, hb) = (one.histogram("t_us", &edges), batch.histogram("t_us", &edges));
            // A non-zero starting sum, so the batch must add onto it.
            h1.observe(0.7);
            hb.observe(0.7);
            for &v in &values {
                h1.observe(v);
            }
            hb.observe_batch(values.iter().copied());
            hb.observe_batch(std::iter::empty());
            assert_eq!(hb.count(), h1.count());
            assert_eq!(hb.sum().to_bits(), h1.sum().to_bits());
            assert_eq!(batch.render_prometheus(), one.render_prometheus());
        }
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("gpu_l1_hits_total").add(42);
        r.gauge("queue_depth").set(3.0);
        let h = r.histogram("kernel_time_us", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE gpu_l1_hits_total counter"));
        assert!(text.contains("gpu_l1_hits_total 42"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 3"));
        assert!(text.contains("kernel_time_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("kernel_time_us_bucket{le=\"10\"} 2"));
        assert!(text.contains("kernel_time_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("kernel_time_us_count 3"));
    }

    #[test]
    fn prometheus_exposition_is_valid() {
        // Multiple labeled instances per family, all three metric kinds,
        // help registered for some families and defaulted for others.
        let r = Registry::new();
        r.describe("req_total", "requests admitted");
        r.describe("lat_s", "end-to-end latency");
        r.counter_with("req_total", &[("model", "sd")]).add(3);
        r.counter_with("req_total", &[("model", "parti")]).add(5);
        r.counter("drops_total").add(1);
        r.gauge_with("util", &[("gpu", "0")]).set(0.5);
        r.gauge_with("util", &[("gpu", "1")]).set(0.75);
        for labels in [[("model", "sd")], [("model", "parti")]] {
            let h = r.histogram_with("lat_s", &labels, &[0.1, 1.0]);
            h.observe(0.05);
            h.observe(0.5);
            h.observe(5.0);
        }
        let text = r.render_prometheus();

        // Exactly one HELP and one TYPE per family, HELP directly before
        // TYPE, and both before any of the family's samples.
        let mut seen_families: Vec<String> = Vec::new();
        let mut pending_help: Option<String> = None;
        let mut samples_of: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().expect("HELP has a name");
                assert!(pending_help.is_none(), "two HELP lines in a row at {line}");
                assert!(
                    !seen_families.contains(&name.to_string()),
                    "family {name} announced twice"
                );
                assert!(rest.len() > name.len() + 1, "HELP {name} has no text");
                pending_help = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE has a name");
                let kind = parts.next().expect("TYPE has a kind");
                assert!(["counter", "gauge", "histogram"].contains(&kind), "kind {kind}");
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(name),
                    "TYPE {name} not directly preceded by its HELP"
                );
                seen_families.push(name.to_string());
            } else {
                assert!(pending_help.is_none(), "sample interleaved between HELP and TYPE");
                let (series, value) = line.rsplit_once(' ').expect("sample line shape");
                let value: f64 = value.parse().unwrap_or_else(|_| panic!("value in {line}"));
                assert!(value >= 0.0);
                let base = series.split('{').next().unwrap();
                let family = base
                    .strip_suffix("_bucket")
                    .or_else(|| base.strip_suffix("_sum"))
                    .or_else(|| base.strip_suffix("_count"))
                    .filter(|f| seen_families.contains(&(*f).to_string()))
                    .unwrap_or(base);
                assert!(
                    seen_families.contains(&family.to_string()),
                    "sample {series} before its family header"
                );
                samples_of.entry(family.to_string()).or_default().push((
                    series.to_string(),
                    value,
                ));
            }
        }
        assert!(pending_help.is_none(), "dangling HELP at end of exposition");
        // One header per family even with several labeled instances.
        let req_headers = text.matches("# TYPE req_total ").count();
        assert_eq!(req_headers, 1);
        assert_eq!(text.matches("# HELP req_total ").count(), 1);
        assert_eq!(text.matches("# TYPE util ").count(), 1);
        assert_eq!(text.matches("# TYPE lat_s ").count(), 1);
        assert!(text.contains("# HELP req_total requests admitted\n"));
        // Default help keeps undescribed families valid.
        assert!(text.contains("# HELP drops_total counter metric drops_total\n"));
        // Histogram shape: per instance, buckets are cumulative, end at
        // +Inf, and _count equals the +Inf bucket.
        for instance in ["{model=\"parti\"", "{model=\"sd\""] {
            let buckets: Vec<f64> = samples_of["lat_s"]
                .iter()
                .filter(|(s, _)| s.starts_with(&format!("lat_s_bucket{instance}")))
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(buckets.len(), 3, "two edges + +Inf for {instance}");
            assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "non-cumulative buckets");
            let count = samples_of["lat_s"]
                .iter()
                .find(|(s, _)| s.starts_with(&format!("lat_s_count{instance}")))
                .map(|&(_, v)| v)
                .expect("count series");
            assert_eq!(count, *buckets.last().unwrap());
            assert_eq!(count, 3.0);
        }
    }

    #[test]
    fn json_snapshot_shape() {
        let r = Registry::new();
        r.counter("n").add(2);
        let h = r.histogram("t", &[1.0]);
        h.observe(0.5);
        let snap = r.snapshot_json();
        assert_eq!(snap.field("counters").and_then(|c| c.field("n")).and_then(Value::as_u64), Some(2));
        let hist = snap.field("histograms").and_then(|h| h.field("t")).expect("histogram entry");
        assert_eq!(hist.field("count").and_then(Value::as_u64), Some(1));
        assert!(snap.field("spans").is_some());
    }

    #[test]
    fn reset_zeroes_everything_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("c");
        c.add(9);
        let h = r.histogram("h", &[1.0]);
        h.observe(0.5);
        r.record_span("s".into(), Instant::now(), Arc::new(vec![]));
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(r.finished_spans().is_empty());
        c.inc();
        assert_eq!(r.counter("c").get(), 1);
    }

    #[test]
    fn global_registry_is_shared() {
        let a = global();
        let b = global();
        let c = a.counter("global_smoke_total");
        let before = c.get();
        b.counter("global_smoke_total").inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn counter_handle_resolves_full_names() {
        let r = Registry::new();
        r.counter_with("labelled", &[("kind", "gemm")]).add(2);
        let h = r.counter_handle("labelled{kind=\"gemm\"}");
        h.add(3);
        assert_eq!(r.counter_with("labelled", &[("kind", "gemm")]).get(), 5);
        // Unknown names create the counter at zero.
        let created = r.counter_handle("fresh_total");
        assert_eq!(r.counter("fresh_total").get(), 0);
        created.inc();
        assert_eq!(r.counter("fresh_total").get(), 1);
    }

    #[test]
    fn record_span_appends_verbatim() {
        let r = Registry::new();
        r.set_span_capture(true);
        let deltas = Arc::new(vec![("k".to_string(), 7)]);
        let started = Instant::now();
        let before_us = started.duration_since(r.inner.epoch).as_secs_f64() * 1e6;
        r.record_span("unet.replayed".into(), started, Arc::clone(&deltas));
        let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        let spans = r.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(&*spans[0].path, "unet.replayed");
        assert!(Arc::ptr_eq(&spans[0].counter_deltas, &deltas), "deltas are shared, not copied");
        assert_eq!(spans[0].start_us, before_us, "start counts from the registry epoch");
        assert!((0.0..=elapsed_us).contains(&spans[0].dur_us), "dur {}", spans[0].dur_us);
    }

    #[test]
    fn merge_from_adds_counters_and_appends_spans() {
        let a = Registry::new();
        let b = Registry::new();
        b.set_span_capture(true);
        a.counter("shared_total").add(5);
        b.counter("shared_total").add(7);
        b.counter("only_b_total").add(1);
        b.gauge("depth").set(4.0);
        b.record_span("exp".into(), Instant::now(), Arc::new(vec![]));
        a.merge_from(&b);
        assert_eq!(a.counter("shared_total").get(), 12);
        assert_eq!(a.counter("only_b_total").get(), 1);
        assert!((a.gauge("depth").get() - 4.0).abs() < 1e-12);
        assert_eq!(a.finished_spans().len(), 1);
        // b is untouched.
        assert_eq!(b.counter("shared_total").get(), 7);
    }

    #[test]
    fn span_capture_is_off_until_turned_on() {
        let r = Registry::new();
        assert!(!r.span_capture());
        r.record_span("dropped".into(), Instant::now(), Arc::new(vec![]));
        assert!(r.finished_spans().is_empty());
        r.set_span_capture(true);
        r.record_span("kept".into(), Instant::now(), Arc::new(vec![]));
        assert_eq!(r.finished_spans().len(), 1);
    }

    #[test]
    fn child_shares_epoch_and_takes_capture_switch() {
        let parent = Registry::new();
        parent.counter("parent_only_total").inc();
        assert!(!parent.child().span_capture());
        parent.set_span_capture(true);
        let child = parent.child();
        assert!(child.span_capture());
        assert_eq!(child.inner.epoch, parent.inner.epoch);
        assert!(child.counters_snapshot().values().is_empty(), "a child starts empty");
        // A span the child records counts from the parent's epoch.
        let started = Instant::now();
        child.record_span("cell".into(), started, Arc::new(vec![]));
        parent.merge_from(&child);
        let expect_us = started.duration_since(parent.inner.epoch).as_secs_f64() * 1e6;
        assert_eq!(parent.finished_spans()[0].start_us, expect_us);
    }

    #[test]
    fn merge_from_merges_histograms_bucketwise() {
        let a = Registry::new();
        let b = Registry::new();
        let ha = a.histogram("t_us", &[1.0, 10.0]);
        ha.observe(0.5);
        let hb = b.histogram("t_us", &[1.0, 10.0]);
        hb.observe(5.0);
        hb.observe(50.0);
        b.histogram("only_b_us", &[2.0]).observe(1.0);
        a.merge_from(&b);
        let merged = a.histogram("t_us", &[1.0, 10.0]);
        assert_eq!(merged.count(), 3);
        assert!((merged.sum() - 55.5).abs() < 1e-9);
        assert_eq!(a.histogram("only_b_us", &[2.0]).count(), 1);
    }

    #[test]
    fn merged_counters_match_serial_totals() {
        // Serial run: one registry sees all events. Parallel run: two
        // registries see a partition of the events, then merge. Totals
        // must be identical, down to the rendered snapshot.
        let serial = Registry::new();
        let p1 = Registry::new();
        let p2 = Registry::new();
        for (r, n) in [(&serial, 3u64), (&serial, 4), (&p1, 3), (&p2, 4)] {
            r.counter_with("ops_total", &[("exp", "fig6")]).add(n);
            r.histogram("lat_us", &[1.0, 10.0]).observe(n as f64);
        }
        let merged = Registry::new();
        merged.merge_from(&p1);
        merged.merge_from(&p2);
        assert_eq!(merged.counters_snapshot().values(), serial.counters_snapshot().values());
        assert_eq!(
            merged.histogram("lat_us", &[1.0, 10.0]).count(),
            serial.histogram("lat_us", &[1.0, 10.0]).count()
        );
        assert_eq!(merged.render_prometheus(), serial.render_prometheus());
    }

    #[test]
    fn quantile_sorted_nearest_rank() {
        assert_eq!(quantile_sorted(&[], 0.5), None, "empty slice has no quantiles");
        assert_eq!(quantile_sorted(&[], 0.0), None);
        assert_eq!(quantile_sorted(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile_sorted(&[7.0], 1.0), Some(7.0));
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(quantile_sorted(&xs, 0.0), Some(0.0));
        assert_eq!(quantile_sorted(&xs, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&xs, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&xs, 1.0), Some(100.0));
        // Out-of-range q clamps.
        assert_eq!(quantile_sorted(&xs, 1.5), Some(100.0));
        assert_eq!(quantile_sorted(&xs, -0.5), Some(0.0));
    }

    #[test]
    fn bucket_helpers_are_strictly_increasing() {
        for edges in [time_buckets_us(), latency_buckets_s()] {
            assert!(edges.len() > 10);
            assert!(edges.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
