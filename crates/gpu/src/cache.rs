//! Set-associative LRU cache simulation.
//!
//! This is the substitute for Nsight Compute's cache counters: kernels in
//! `mmg-kernels` generate representative (sampled) address streams, and this
//! module reports L1/L2 hit rates for them. The paper's Fig. 12 finding —
//! temporal attention's strided accesses collapse the L1 hit rate by ~10x —
//! falls out of the geometry.
//!
//! Because this is the hottest inner loop of the simulator, the cache keeps
//! its tags in one flat array (set-major, MRU-first) and precomputes the
//! set/tag shift-masks; streams can additionally be supplied run-length
//! compressed ([`ProbeRun`]) via [`CacheHierarchy::run_runs`] so regular
//! strided sweeps never materialize a probe vector.

use std::fmt;

use mmg_telemetry::{Counter, Registry};
use serde::{Deserialize, Serialize};

use crate::DeviceSpec;

/// Why a [`CacheConfig`] cannot describe a simulatable cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheGeometryError {
    /// `line_bytes` or `ways` is zero.
    DegenerateGeometry,
    /// `line_bytes` is not a power of two (the simulator derives line
    /// addresses by shifting).
    LineNotPowerOfTwo,
    /// `capacity_bytes` holds fewer lines than one set needs.
    CapacitySmallerThanOneSet,
}

impl fmt::Display for CacheGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheGeometryError::DegenerateGeometry => {
                write!(f, "degenerate cache geometry: line_bytes and ways must be nonzero")
            }
            CacheGeometryError::LineNotPowerOfTwo => {
                write!(f, "line size must be a power of two")
            }
            CacheGeometryError::CapacitySmallerThanOneSet => {
                write!(f, "capacity smaller than one set")
            }
        }
    }
}

impl std::error::Error for CacheGeometryError {}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry, or a typed error when the
    /// geometry is degenerate (zero-sized, non-power-of-two line, or a
    /// capacity smaller than one set).
    pub fn num_sets(&self) -> Result<usize, CacheGeometryError> {
        if self.line_bytes == 0 || self.ways == 0 {
            return Err(CacheGeometryError::DegenerateGeometry);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheGeometryError::LineNotPowerOfTwo);
        }
        let lines = self.capacity_bytes / self.line_bytes;
        if lines < self.ways {
            return Err(CacheGeometryError::CapacitySmallerThanOneSet);
        }
        Ok(lines / self.ways)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero-access caches report 0.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags live in one flat `num_sets × ways` array in MRU-first order per
/// set; power-of-two set counts take a mask fast path for the set index.
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    num_sets: usize,
    line_shift: u32,
    /// `num_sets - 1` when the set count is a power of two; `None` falls
    /// back to a modulo (A100's 384-set L1 is *not* a power of two).
    set_mask: Option<u64>,
    /// Set-major tag storage; within a set the filled prefix is in LRU
    /// order, front = most recent.
    tags: Vec<u64>,
    /// Occupied ways per set.
    filled: Vec<u32>,
    stats: CacheStats,
}

impl SetAssociativeCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns the [`CacheGeometryError`] describing how the geometry is
    /// degenerate.
    pub fn try_new(config: CacheConfig) -> Result<Self, CacheGeometryError> {
        let num_sets = config.num_sets()?;
        Ok(SetAssociativeCache {
            config,
            num_sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            tags: vec![0; num_sets * config.ways],
            filled: vec![0; num_sets],
            stats: CacheStats::default(),
        })
    }

    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry; sweep drivers that construct
    /// configs programmatically should prefer
    /// [`SetAssociativeCache::try_new`].
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        match SetAssociativeCache::try_new(config) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets as u64) as usize,
        }
    }

    /// Accesses a byte address; returns whether it hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = self.set_index(line);
        let ways = self.config.ways;
        let n = self.filled[set_idx] as usize;
        let set = &mut self.tags[set_idx * ways..(set_idx + 1) * ways];
        self.stats.accesses += 1;
        if let Some(pos) = set[..n].iter().position(|&t| t == line) {
            // MRU promotion: rotate [0..=pos] right so set[pos] lands at
            // the front and everything before it shifts back one.
            set[..=pos].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            if n == ways {
                // Full set: the wrapped-around LRU tag is overwritten.
                set.rotate_right(1);
            } else {
                set[..=n].rotate_right(1);
                self.filled[set_idx] = (n + 1) as u32;
            }
            set[0] = line;
            false
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.filled.fill(0);
        self.stats = CacheStats::default();
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

/// A run-length-compressed segment of a probe stream: `count` addresses
/// starting at `base`, each `stride` bytes after the previous one.
///
/// Strided sweeps (the common case for attention operand walks) compress
/// thousands of probes into one run, so [`CacheHierarchy::run_runs`] can
/// replay them without materializing an address vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRun {
    /// First byte address of the run.
    pub base: u64,
    /// Number of probes in the run (at least 1 for a meaningful run).
    pub count: u64,
    /// Byte distance between consecutive probes; 0 repeats `base`.
    pub stride: u64,
}

impl ProbeRun {
    /// The addresses this run expands to, in order.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.base.wrapping_add(i.wrapping_mul(self.stride)))
    }

    /// Total probes across a slice of runs.
    #[must_use]
    pub fn total(runs: &[ProbeRun]) -> u64 {
        runs.iter().map(|r| r.count).sum()
    }
}

/// Per-level statistics for a two-level hierarchy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters (only misses from L1 reach L2).
    pub l2: CacheStats,
}

impl HierarchyStats {
    /// Fraction of accesses that missed both levels (HBM traffic fraction).
    #[must_use]
    pub fn hbm_fraction(&self) -> f64 {
        if self.l1.accesses == 0 {
            return 0.0;
        }
        let l2_misses = self.l2.accesses - self.l2.hits;
        l2_misses as f64 / self.l1.accesses as f64
    }
}

/// An L1 + L2 hierarchy, as seen by one SM's access stream.
///
/// The L1 is one SM's slice; the L2 is the device-wide cache. For sampled
/// single-SM streams this slightly over-estimates L2 hit rates (no
/// cross-SM interference) which is acceptable for the relative comparisons
/// the paper makes.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssociativeCache,
    l2: SetAssociativeCache,
    /// L1 line of the immediately preceding access: a repeat is a
    /// guaranteed MRU hit and skips the tag search entirely.
    last_l1_line: Option<u64>,
    metrics: CacheMetrics,
}

/// Telemetry counters updated per simulated access (relaxed atomics).
#[derive(Debug, Clone)]
struct CacheMetrics {
    l1_accesses: Counter,
    l1_hits: Counter,
    l2_accesses: Counter,
    l2_hits: Counter,
}

impl CacheMetrics {
    fn for_registry(registry: &Registry) -> Self {
        CacheMetrics {
            l1_accesses: registry.counter("gpu_l1_accesses_total"),
            l1_hits: registry.counter("gpu_l1_hits_total"),
            l2_accesses: registry.counter("gpu_l2_accesses_total"),
            l2_hits: registry.counter("gpu_l2_hits_total"),
        }
    }
}

impl CacheHierarchy {
    /// Builds the hierarchy from a device spec (L1 = one SM's 4-way cache,
    /// L2 = 16-way device cache), recording to a private registry no one
    /// reads.
    #[must_use]
    pub fn for_device(spec: &DeviceSpec) -> Self {
        CacheHierarchy::for_device_with_registry(spec, &Registry::new())
    }

    /// Like [`CacheHierarchy::for_device`], recording to a specific
    /// registry.
    #[must_use]
    pub fn for_device_with_registry(spec: &DeviceSpec, registry: &Registry) -> Self {
        let l1 = CacheConfig {
            capacity_bytes: spec.l1_bytes_per_sm,
            line_bytes: spec.cache_line_bytes,
            ways: 4,
        };
        let l2 = CacheConfig {
            capacity_bytes: spec.l2_bytes,
            line_bytes: spec.cache_line_bytes,
            ways: 16,
        };
        CacheHierarchy::with_registry(l1, l2, registry)
    }

    /// Builds from explicit per-level configs, recording to a private
    /// registry no one reads.
    #[must_use]
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        CacheHierarchy::with_registry(l1, l2, &Registry::new())
    }

    /// Builds from explicit per-level configs and a telemetry registry.
    #[must_use]
    pub fn with_registry(l1: CacheConfig, l2: CacheConfig, registry: &Registry) -> Self {
        CacheHierarchy {
            l1: SetAssociativeCache::new(l1),
            l2: SetAssociativeCache::new(l2),
            last_l1_line: None,
            metrics: CacheMetrics::for_registry(registry),
        }
    }

    /// L1-then-L2 access updating only the local stats; telemetry is the
    /// caller's problem. Returns `(l1_hit, l2_hit)`; L2 is accessed iff
    /// L1 missed.
    #[inline]
    fn access_raw(&mut self, addr: u64) -> (bool, bool) {
        let line = addr >> self.l1.line_shift;
        if self.last_l1_line == Some(line) {
            // The previous access made this line MRU in its L1 set: a
            // guaranteed hit with no LRU state change.
            self.l1.stats.accesses += 1;
            self.l1.stats.hits += 1;
            return (true, false);
        }
        self.last_l1_line = Some(line);
        if self.l1.access(addr) {
            (true, false)
        } else {
            (false, self.l2.access(addr))
        }
    }

    /// Adds whatever happened since `before` onto the telemetry counters.
    fn flush_metrics(&self, before: HierarchyStats) {
        let after = self.stats();
        self.metrics.l1_accesses.add(after.l1.accesses - before.l1.accesses);
        self.metrics.l1_hits.add(after.l1.hits - before.l1.hits);
        self.metrics.l2_accesses.add(after.l2.accesses - before.l2.accesses);
        self.metrics.l2_hits.add(after.l2.hits - before.l2.hits);
    }

    /// Accesses an address: L1 first, then L2 on miss.
    pub fn access(&mut self, addr: u64) {
        let (l1_hit, l2_hit) = self.access_raw(addr);
        self.metrics.l1_accesses.inc();
        if l1_hit {
            self.metrics.l1_hits.inc();
        } else {
            self.metrics.l2_accesses.inc();
            if l2_hit {
                self.metrics.l2_hits.inc();
            }
        }
    }

    /// Runs a whole address stream. Telemetry counters are updated once
    /// at the end (same totals as per-access updates, without an atomic
    /// op per probe).
    pub fn run<I: IntoIterator<Item = u64>>(&mut self, stream: I) {
        let before = self.stats();
        for a in stream {
            let _ = self.access_raw(a);
        }
        self.flush_metrics(before);
    }

    /// Replays a run-length-compressed probe stream (see [`ProbeRun`])
    /// without materializing the addresses; equivalent to
    /// `self.run(runs.iter().flat_map(ProbeRun::addrs))`.
    pub fn run_runs(&mut self, runs: &[ProbeRun]) {
        let before = self.stats();
        for run in runs {
            let mut addr = run.base;
            for _ in 0..run.count {
                let _ = self.access_raw(addr);
                addr = addr.wrapping_add(run.stride);
            }
        }
        self.flush_metrics(before);
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats { l1: self.l1.stats(), l2: self.l2.stats() }
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.last_l1_line = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssociativeCache {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssociativeCache::new(CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 })
    }

    #[test]
    fn sequential_stream_hits_within_lines() {
        let mut c = tiny();
        // 64 sequential 4-byte words = 4 lines; 1 miss per line.
        for i in 0..64u64 {
            c.access(i * 4);
        }
        let s = c.stats();
        assert_eq!(s.accesses, 64);
        assert_eq!(s.accesses - s.hits, 4, "one miss per 64B line");
        assert!((s.hit_rate() - 60.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny(); // 4 sets; set = (addr/64) % 4
        // Three lines mapping to set 0: lines 0, 4, 8 (addresses 0, 256, 512).
        c.access(0);
        c.access(256);
        c.access(512); // evicts line of addr 0
        assert!(!c.access(0), "LRU line was evicted");
        assert!(c.access(512), "MRU line survives");
    }

    #[test]
    fn strided_stream_thrashes() {
        let mut c = tiny();
        // Stride of 64B over a footprint much larger than capacity: all misses
        // on every pass.
        for _pass in 0..3 {
            for i in 0..64u64 {
                c.access(i * 64 * 4); // 16KB footprint >> 512B capacity
            }
        }
        let s = c.stats();
        assert_eq!(s.hits, 0, "thrashing stride should never hit");
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = tiny();
        // 8 lines = exactly capacity; accessed round-robin LRU-friendly.
        for _pass in 0..4 {
            for i in 0..8u64 {
                c.access(i * 64);
            }
        }
        let s = c.stats();
        // First pass misses (8), subsequent 24 hit.
        assert_eq!(s.accesses - s.hits, 8);
    }

    #[test]
    fn non_pow2_set_count_behaves_like_modulo() {
        // 3 sets x 2 ways: exercises the modulo fallback (no set mask).
        let mut c = SetAssociativeCache::new(CacheConfig {
            capacity_bytes: 6 * 64,
            line_bytes: 64,
            ways: 2,
        });
        assert_eq!(c.config().num_sets(), Ok(3));
        // Lines 0, 3, 6 all map to set 0; third insert evicts line 0.
        c.access(0);
        c.access(3 * 64);
        c.access(6 * 64);
        assert!(!c.access(0), "LRU line evicted in modulo-indexed set");
        assert!(c.access(6 * 64), "surviving line still resident");
        // Line 1 maps to set 1: untouched by the set-0 churn.
        assert!(!c.access(64));
        assert!(c.access(64));
    }

    #[test]
    fn num_sets_reports_typed_errors() {
        let ok = CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 };
        assert_eq!(ok.num_sets(), Ok(4));
        assert_eq!(
            CacheConfig { line_bytes: 0, ..ok }.num_sets(),
            Err(CacheGeometryError::DegenerateGeometry)
        );
        assert_eq!(
            CacheConfig { ways: 0, ..ok }.num_sets(),
            Err(CacheGeometryError::DegenerateGeometry)
        );
        assert_eq!(
            CacheConfig { line_bytes: 48, ..ok }.num_sets(),
            Err(CacheGeometryError::LineNotPowerOfTwo)
        );
        assert_eq!(
            CacheConfig { capacity_bytes: 64, ..ok }.num_sets(),
            Err(CacheGeometryError::CapacitySmallerThanOneSet)
        );
    }

    #[test]
    fn try_new_surfaces_geometry_errors() {
        let bad = CacheConfig { capacity_bytes: 512, line_bytes: 48, ways: 2 };
        assert_eq!(
            SetAssociativeCache::try_new(bad).err(),
            Some(CacheGeometryError::LineNotPowerOfTwo)
        );
        assert!(SetAssociativeCache::try_new(CacheConfig {
            capacity_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
        .is_ok());
    }

    #[test]
    fn hierarchy_l2_catches_l1_evictions() {
        let l1 = CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 };
        let l2 = CacheConfig { capacity_bytes: 16 * 1024, line_bytes: 64, ways: 8 };
        let mut h = CacheHierarchy::new(l1, l2);
        // Working set of 32 lines (2KB): fits L2, not L1.
        for _pass in 0..4 {
            for i in 0..32u64 {
                h.access(i * 64);
            }
        }
        let s = h.stats();
        assert!(s.l1.hit_rate() < 0.2, "L1 thrashes: {}", s.l1.hit_rate());
        assert!(s.l2.hit_rate() > 0.7, "L2 retains: {}", s.l2.hit_rate());
        assert!(s.hbm_fraction() < 0.3);
    }

    #[test]
    fn hierarchy_records_telemetry_counters() {
        let registry = mmg_telemetry::Registry::new();
        let l1 = CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 };
        let l2 = CacheConfig { capacity_bytes: 16 * 1024, line_bytes: 64, ways: 8 };
        let mut h = CacheHierarchy::with_registry(l1, l2, &registry);
        for _pass in 0..2 {
            for i in 0..4u64 {
                h.access(i * 64);
            }
        }
        let stats = h.stats();
        assert_eq!(registry.counter("gpu_l1_accesses_total").get(), stats.l1.accesses);
        assert_eq!(registry.counter("gpu_l1_hits_total").get(), stats.l1.hits);
        assert_eq!(registry.counter("gpu_l2_accesses_total").get(), stats.l2.accesses);
        assert_eq!(registry.counter("gpu_l2_hits_total").get(), stats.l2.hits);
        assert!(stats.l1.hits > 0, "warm second pass should hit L1");
    }

    #[test]
    fn run_runs_matches_expanded_stream() {
        let l1 = CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 };
        let l2 = CacheConfig { capacity_bytes: 16 * 1024, line_bytes: 64, ways: 8 };
        let runs = [
            ProbeRun { base: 0, count: 64, stride: 32 },
            ProbeRun { base: 1 << 16, count: 100, stride: 4096 },
            ProbeRun { base: 96, count: 1, stride: 0 },
            ProbeRun { base: 0, count: 64, stride: 32 },
        ];
        let ra = mmg_telemetry::Registry::new();
        let mut compressed = CacheHierarchy::with_registry(l1, l2, &ra);
        compressed.run_runs(&runs);
        let rb = mmg_telemetry::Registry::new();
        let mut expanded = CacheHierarchy::with_registry(l1, l2, &rb);
        expanded.run(runs.iter().flat_map(ProbeRun::addrs));
        assert_eq!(compressed.stats(), expanded.stats());
        assert_eq!(ra.counters_snapshot().values(), rb.counters_snapshot().values());
        assert_eq!(compressed.stats().l1.accesses, ProbeRun::total(&runs));
    }

    #[test]
    fn repeated_line_shortcut_keeps_lru_semantics() {
        let l1 = CacheConfig { capacity_bytes: 2 * 64, line_bytes: 64, ways: 2 };
        let l2 = CacheConfig { capacity_bytes: 16 * 1024, line_bytes: 64, ways: 8 };
        let mut h = CacheHierarchy::new(l1, l2);
        // Same line twice (second via the last-line shortcut), then force
        // an eviction pattern that distinguishes MRU from LRU order.
        h.access(0);
        h.access(32); // same line: shortcut hit
        h.access(64); // other way of set 0... (1 set x 2 ways)
        h.access(128); // evicts line 0 (LRU), keeps line 64
        let s = h.stats();
        assert_eq!(s.l1.accesses, 4);
        assert_eq!(s.l1.hits, 1);
        h.access(64);
        assert_eq!(h.stats().l1.hits, 2, "line 64 survived as MRU-1");
    }

    #[test]
    fn device_hierarchy_builds() {
        let h = CacheHierarchy::for_device(&DeviceSpec::a100_80gb());
        assert_eq!(h.l1.config().capacity_bytes, 192 * 1024);
        assert_eq!(h.l2.config().capacity_bytes, 40 * 1024 * 1024);
        // A100 L1: 192KB / 128B / 4 ways = 384 sets; L2: 40MiB / 128B /
        // 16 ways = 20480 sets. Neither is a power of two, so the mask
        // fast path must stay off for both (the modulo fallback is load-
        // bearing on the paper's own platform).
        assert_eq!(h.l1.config.num_sets(), Ok(384));
        assert_eq!(h.l2.config.num_sets(), Ok(20480));
        assert!(h.l1.set_mask.is_none());
        assert!(h.l2.set_mask.is_none());
        // The pow2 path engages for pow2 geometries.
        let pow2 = SetAssociativeCache::new(CacheConfig {
            capacity_bytes: 1 << 16,
            line_bytes: 128,
            ways: 4,
        });
        assert_eq!(pow2.set_mask, Some(127));
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0), "contents cleared too");
    }

    #[test]
    fn hierarchy_reset_clears_last_line_shortcut() {
        let l1 = CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 };
        let l2 = CacheConfig { capacity_bytes: 16 * 1024, line_bytes: 64, ways: 8 };
        let mut h = CacheHierarchy::new(l1, l2);
        h.access(0);
        h.reset();
        h.access(0);
        assert_eq!(h.stats().l1.hits, 0, "post-reset access must miss");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_panics() {
        let _ = SetAssociativeCache::new(CacheConfig { capacity_bytes: 512, line_bytes: 48, ways: 2 });
    }
}
