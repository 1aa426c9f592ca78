//! Sampled memory access streams for cache simulation (Fig. 12).
//!
//! The paper uses Nsight Compute to read L1/L2 hit rates for the GEMM,
//! softmax and elementwise kernels inside spatial vs. temporal attention.
//! We reproduce the *mechanism*: kernels are modelled as address streams at
//! 32-byte **sector** granularity (the coalescing unit of an NVIDIA memory
//! request — a warp touching 32 consecutive FP16 values issues two sector
//! requests, not 32 element requests), and the streams are replayed through
//! the `mmg-gpu` set-associative hierarchy.
//!
//! The crucial layout fact (see `mmg_attn::video`): temporal attention
//! reads Q/K/V through permuted views of the `[frames, channels, H, W]`
//! activation, so consecutive *sequence* elements sit a whole frame apart
//! and consecutive *channel* elements sit `H·W` elements apart — every
//! access opens a new cache line, and the strided line addresses conflict
//! in the set index. Spatial attention reads rows that are contiguous after
//! the QKV projection. The ~10x L1 hit-rate gap in Fig. 12 follows from
//! this geometry.

use mmg_gpu::{CacheHierarchy, DeviceSpec, HierarchyStats, ProbeRun};

/// NVIDIA memory-request sector size in bytes.
pub const SECTOR_BYTES: u64 = 32;

/// Number of SMs a round-robin row schedule is spread over.
pub const SCHEDULE_SMS: usize = 108;

/// A logical 2-D operand access: `rows × cols` elements with arbitrary
/// element strides, walked row-major by one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedMatrixAccess {
    /// Base byte address of the operand.
    pub base: u64,
    /// Logical rows to walk.
    pub rows: usize,
    /// Logical columns per row.
    pub cols: usize,
    /// Elements between consecutive rows.
    pub row_stride_elems: usize,
    /// Elements between consecutive columns.
    pub col_stride_elems: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
    /// Row step (e.g. [`SCHEDULE_SMS`] for a round-robin row schedule where
    /// we observe a single SM).
    pub row_step: usize,
}

impl StridedMatrixAccess {
    /// Contiguous row-major matrix.
    #[must_use]
    pub fn contiguous(base: u64, rows: usize, cols: usize, elem_bytes: usize) -> Self {
        StridedMatrixAccess {
            base,
            rows,
            cols,
            row_stride_elems: cols,
            col_stride_elems: 1,
            elem_bytes,
            row_step: 1,
        }
    }

    /// Appends this access pattern's sector probes to `out`, stopping at
    /// `max` total probes. Consecutive probes to the same sector are
    /// deduplicated (one request per sector per sweep).
    pub fn extend_probes(&self, out: &mut Vec<u64>, max: usize) {
        let mut last_sector = u64::MAX;
        let mut r = 0usize;
        while r < self.rows && out.len() < max {
            let row_base =
                self.base + (r * self.row_stride_elems * self.elem_bytes) as u64;
            for c in 0..self.cols {
                if out.len() >= max {
                    break;
                }
                let addr = row_base + (c * self.col_stride_elems * self.elem_bytes) as u64;
                let sector = addr / SECTOR_BYTES;
                if sector != last_sector {
                    out.push(sector * SECTOR_BYTES);
                    last_sector = sector;
                }
            }
            r += self.row_step.max(1);
        }
    }

    /// Run-length-compressed form of [`StridedMatrixAccess::extend_probes`]:
    /// appends [`ProbeRun`]s whose expansion is exactly the probe sequence
    /// `extend_probes` would emit, with `max` bounding the *total* probe
    /// count across `out` (i.e. `ProbeRun::total(out)` plays the role of
    /// `out.len()`).
    ///
    /// Most rows compress analytically — a column step below the sector
    /// size walks consecutive sectors, a sector-multiple step emits one
    /// probe per element at a uniform stride — so regular sweeps become a
    /// handful of runs instead of hundreds of thousands of addresses.
    pub fn extend_probe_runs(&self, out: &mut Vec<ProbeRun>, max: usize) {
        let mut total = ProbeRun::total(out) as usize;
        let mut last_sector = u64::MAX;
        let step = (self.col_stride_elems * self.elem_bytes) as u64;
        let mut r = 0usize;
        while r < self.rows && total < max {
            let row_base = self.base + (r * self.row_stride_elems * self.elem_bytes) as u64;
            if self.cols > 0 {
                let s0 = row_base / SECTOR_BYTES;
                if step == 0 {
                    // Every element repeats one sector: a single probe.
                    if s0 != last_sector {
                        push_run(out, s0 * SECTOR_BYTES, 1, 0, &mut total, max);
                        last_sector = s0;
                    }
                } else if step < SECTOR_BYTES {
                    // Sector indices are non-decreasing and never skip, so
                    // the deduped sequence is the consecutive sector range.
                    let s1 = (row_base + (self.cols as u64 - 1) * step) / SECTOR_BYTES;
                    let first = if s0 == last_sector { s0 + 1 } else { s0 };
                    if first <= s1 {
                        push_run(
                            out,
                            first * SECTOR_BYTES,
                            s1 - first + 1,
                            SECTOR_BYTES,
                            &mut total,
                            max,
                        );
                    }
                    last_sector = s1;
                } else if step.is_multiple_of(SECTOR_BYTES) {
                    // One distinct sector per element, uniformly strided.
                    let (mut base, mut count) = (s0 * SECTOR_BYTES, self.cols as u64);
                    if s0 == last_sector {
                        base += step;
                        count -= 1;
                    }
                    if count > 0 {
                        push_run(out, base, count, step, &mut total, max);
                    }
                    last_sector = s0 + (self.cols as u64 - 1) * (step / SECTOR_BYTES);
                } else {
                    // Irregular sector deltas (step ≥ sector but not a
                    // multiple): walk elements and let `push_run` coalesce.
                    for c in 0..self.cols {
                        if total >= max {
                            break;
                        }
                        let sector = (row_base + c as u64 * step) / SECTOR_BYTES;
                        if sector != last_sector {
                            push_run(out, sector * SECTOR_BYTES, 1, 0, &mut total, max);
                            last_sector = sector;
                        }
                    }
                }
            }
            r += self.row_step.max(1);
        }
    }
}

/// Appends `count` probes from `base` at `stride` onto `out`, clipping to
/// the `max` total-probe budget and coalescing with the previous run when
/// the sequence continues uniformly.
fn push_run(out: &mut Vec<ProbeRun>, base: u64, count: u64, stride: u64, total: &mut usize, max: usize) {
    let budget = (max - *total) as u64;
    let count = count.min(budget);
    if count == 0 {
        return;
    }
    *total += count as usize;
    if let Some(last) = out.last_mut() {
        let next = last.base + last.count * last.stride;
        if next == base && (last.stride == stride || last.count == 1) {
            // Continues the previous run at the same stride (a run of one
            // adopts whatever stride the continuation uses).
            if last.count == 1 {
                last.stride = stride;
            }
            last.count += count;
            return;
        }
        if last.count == 1 && count == 1 && base > last.base {
            // Two singletons become a run; later singletons at the same
            // spacing keep extending it through the arm above.
            last.stride = base - last.base;
            last.count = 2;
            return;
        }
    }
    out.push(ProbeRun { base, count, stride });
}

/// The attention-internal kernel whose stream is being generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionKernel {
    /// The `Q·Kᵀ` / `P·V` batched GEMMs.
    Gemm,
    /// The row softmax over scores.
    Softmax,
    /// Pointwise scale / mask / dropout-style kernels.
    Elementwise,
}

/// Layout parameters of a video attention call, enough to derive strides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoAttentionAccess {
    /// Frames in the clip.
    pub frames: usize,
    /// Channels of the activation (full, pre-head-split).
    pub channels: usize,
    /// Spatial positions (`H·W`).
    pub hw: usize,
    /// Bytes per element (2 for FP16).
    pub elem_bytes: usize,
}

impl VideoAttentionAccess {
    /// Make-A-Video-like default at the UNet base resolution: 16 frames,
    /// 320 channels, 64×64 latent.
    #[must_use]
    pub fn make_a_video_base() -> Self {
        VideoAttentionAccess { frames: 16, channels: 320, hw: 64 * 64, elem_bytes: 2 }
    }

    /// Generates the sector-probe stream one SM observes for `kernel`
    /// under the given attention direction. At most `max` probes.
    ///
    /// This is the expansion of [`VideoAttentionAccess::runs`]; cache
    /// replay should prefer the compressed form directly.
    #[must_use]
    pub fn stream(&self, kernel: AttentionKernel, temporal: bool, max: usize) -> Vec<u64> {
        let runs = self.runs(kernel, temporal, max);
        let mut out = Vec::with_capacity(ProbeRun::total(&runs) as usize);
        out.extend(runs.iter().flat_map(ProbeRun::addrs));
        out
    }

    /// The run-length-compressed sector-probe stream one SM observes for
    /// `kernel` under the given attention direction. At most `max` total
    /// probes across the expansion.
    #[must_use]
    pub fn runs(&self, kernel: AttentionKernel, temporal: bool, max: usize) -> Vec<ProbeRun> {
        let mut out = Vec::new();
        let e = self.elem_bytes;
        match (kernel, temporal) {
            (AttentionKernel::Gemm, false) => {
                // Spatial: Q/K are [frames, hw, channels] contiguous (post-
                // projection). One SM walks a 128-row Q tile, then streams K.
                let q_tile = StridedMatrixAccess::contiguous(0, 128.min(self.hw), self.channels, e);
                let k_base = (self.hw * self.channels * e) as u64;
                let k = StridedMatrixAccess::contiguous(k_base, self.hw, self.channels, e);
                // Two tile passes: Q tile re-read is cheap, K streams twice.
                for _ in 0..2 {
                    q_tile.extend_probe_runs(&mut out, max);
                    k.extend_probe_runs(&mut out, max);
                }
            }
            (AttentionKernel::Gemm, true) => {
                // Temporal: Q/K are permuted views of [frames, channels, hw]:
                // element (pixel p, frame f, channel c) lives at
                // ((f·C + c)·HW + p)·e. One SM covers a contiguous pixel
                // chunk; every (f, c) access is its own line and the line
                // addresses are HW·e apart — a conflict-prone power-of-two
                // stride.
                let pixel_chunk = 64.min(self.hw);
                for p in 0..pixel_chunk {
                    if ProbeRun::total(&out) as usize >= max {
                        break;
                    }
                    let q = StridedMatrixAccess {
                        base: (p * e) as u64,
                        rows: self.frames,
                        cols: self.channels,
                        row_stride_elems: self.channels * self.hw,
                        col_stride_elems: self.hw,
                        elem_bytes: e,
                        row_step: 1,
                    };
                    q.extend_probe_runs(&mut out, max);
                    let k = StridedMatrixAccess {
                        base: (self.frames * self.channels * self.hw * e + p * e) as u64,
                        ..q
                    };
                    k.extend_probe_runs(&mut out, max);
                }
            }
            (AttentionKernel::Softmax, false) => {
                // Spatial scores: rows of length hw, contiguous; one SM takes
                // every SCHEDULE_SMS-th row.
                let rows = self.frames * self.hw;
                let acc = StridedMatrixAccess {
                    base: 0,
                    rows,
                    cols: self.hw,
                    row_stride_elems: self.hw,
                    col_stride_elems: 1,
                    elem_bytes: e,
                    row_step: SCHEDULE_SMS,
                };
                acc.extend_probe_runs(&mut out, max);
            }
            (AttentionKernel::Softmax, true) => {
                // Temporal scores: rows of length `frames` (often a fraction
                // of a line); round-robin rows mean one SM never sees two
                // rows of the same line.
                let rows = self.hw * self.frames;
                let acc = StridedMatrixAccess {
                    base: 0,
                    rows,
                    cols: self.frames,
                    row_stride_elems: self.frames,
                    col_stride_elems: 1,
                    elem_bytes: e,
                    row_step: SCHEDULE_SMS,
                };
                acc.extend_probe_runs(&mut out, max);
            }
            (AttentionKernel::Elementwise, _) => {
                // Pointwise kernels stream contiguously regardless of the
                // attention direction — which is why Fig. 12 shows their hit
                // rates unchanged.
                let elems = self.frames * self.channels * self.hw;
                let acc = StridedMatrixAccess::contiguous(0, 1, elems.min(8 * max), e);
                acc.extend_probe_runs(&mut out, max);
            }
        }
        out
    }

    /// Replays the stream for `kernel` through a fresh device hierarchy and
    /// returns the hit statistics. Cache counters land in a private
    /// registry no one reads.
    #[must_use]
    pub fn simulate(
        &self,
        kernel: AttentionKernel,
        temporal: bool,
        spec: &DeviceSpec,
        max_probes: usize,
    ) -> HierarchyStats {
        let registry = mmg_telemetry::Registry::new();
        self.simulate_with_registry(kernel, temporal, spec, max_probes, &registry)
    }

    /// Like [`VideoAttentionAccess::simulate`], recording cache counters
    /// to a specific telemetry registry.
    #[must_use]
    pub fn simulate_with_registry(
        &self,
        kernel: AttentionKernel,
        temporal: bool,
        spec: &DeviceSpec,
        max_probes: usize,
        registry: &mmg_telemetry::Registry,
    ) -> HierarchyStats {
        let mut h = CacheHierarchy::for_device_with_registry(spec, registry);
        h.run_runs(&self.runs(kernel, temporal, max_probes));
        h.stats()
    }
}

/// HBM traffic amplification for an operand read through a fully-strided
/// view: each sector delivers `elem_bytes` useful bytes.
#[must_use]
pub fn strided_amplification(elem_bytes: usize) -> f64 {
    SECTOR_BYTES as f64 / elem_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::a100_80gb()
    }

    #[test]
    fn contiguous_probe_dedupes_sectors() {
        let acc = StridedMatrixAccess::contiguous(0, 1, 64, 2); // 128 bytes
        let mut out = Vec::new();
        acc.extend_probes(&mut out, 1000);
        assert_eq!(out.len(), 4, "64 fp16 elems = 4 sectors");
    }

    #[test]
    fn strided_probe_touches_every_element() {
        let acc = StridedMatrixAccess {
            base: 0,
            rows: 1,
            cols: 64,
            row_stride_elems: 0,
            col_stride_elems: 4096,
            elem_bytes: 2,
            row_step: 1,
        };
        let mut out = Vec::new();
        acc.extend_probes(&mut out, 1000);
        assert_eq!(out.len(), 64, "each strided element is its own sector");
    }

    #[test]
    fn temporal_gemm_l1_much_worse_than_spatial() {
        let v = VideoAttentionAccess::make_a_video_base();
        let sp = v.simulate(AttentionKernel::Gemm, false, &spec(), 300_000);
        let tp = v.simulate(AttentionKernel::Gemm, true, &spec(), 300_000);
        assert!(sp.l1.hit_rate() > 0.5, "spatial L1 {}", sp.l1.hit_rate());
        assert!(
            tp.l1.hit_rate() < sp.l1.hit_rate() / 5.0,
            "temporal {} vs spatial {}",
            tp.l1.hit_rate(),
            sp.l1.hit_rate()
        );
    }

    #[test]
    fn temporal_softmax_l1_much_worse_than_spatial() {
        let v = VideoAttentionAccess::make_a_video_base();
        let sp = v.simulate(AttentionKernel::Softmax, false, &spec(), 200_000);
        let tp = v.simulate(AttentionKernel::Softmax, true, &spec(), 200_000);
        assert!(sp.l1.hit_rate() > 0.5);
        assert!(tp.l1.hit_rate() < sp.l1.hit_rate() / 5.0);
    }

    #[test]
    fn elementwise_unaffected_by_direction() {
        let v = VideoAttentionAccess::make_a_video_base();
        let sp = v.simulate(AttentionKernel::Elementwise, false, &spec(), 100_000);
        let tp = v.simulate(AttentionKernel::Elementwise, true, &spec(), 100_000);
        assert!((sp.l1.hit_rate() - tp.l1.hit_rate()).abs() < 0.05);
    }

    #[test]
    fn max_probes_respected() {
        let v = VideoAttentionAccess::make_a_video_base();
        assert!(v.stream(AttentionKernel::Gemm, true, 1000).len() <= 1000);
    }

    #[test]
    fn amplification_for_fp16_is_16x() {
        assert!((strided_amplification(2) - 16.0).abs() < 1e-12);
    }

    fn expand(runs: &[ProbeRun]) -> Vec<u64> {
        runs.iter().flat_map(ProbeRun::addrs).collect()
    }

    #[test]
    fn probe_runs_expand_to_exactly_the_probe_stream() {
        // Every analytic case plus the irregular fallback, at several
        // truncation points, against the element-wise reference.
        let patterns = [
            // step == 0 (broadcast column)
            StridedMatrixAccess {
                base: 40,
                rows: 7,
                cols: 5,
                row_stride_elems: 100,
                col_stride_elems: 0,
                elem_bytes: 2,
                row_step: 1,
            },
            // step < sector, dividing it (fp16 contiguous)
            StridedMatrixAccess::contiguous(0, 9, 37, 2),
            // step < sector, NOT dividing it (3-byte elements)
            StridedMatrixAccess {
                base: 5,
                rows: 4,
                cols: 50,
                row_stride_elems: 61,
                col_stride_elems: 1,
                elem_bytes: 3,
                row_step: 1,
            },
            // step a multiple of the sector (temporal channel walk)
            StridedMatrixAccess {
                base: 64,
                rows: 16,
                cols: 320,
                row_stride_elems: 320 * 4096,
                col_stride_elems: 4096,
                elem_bytes: 2,
                row_step: 1,
            },
            // step >= sector, not a multiple (irregular deltas: 48B)
            StridedMatrixAccess {
                base: 0,
                rows: 3,
                cols: 40,
                row_stride_elems: 7,
                col_stride_elems: 24,
                elem_bytes: 2,
                row_step: 1,
            },
            // round-robin row schedule with rows sharing sectors
            StridedMatrixAccess {
                base: 0,
                rows: 1000,
                cols: 16,
                row_stride_elems: 16,
                col_stride_elems: 1,
                elem_bytes: 2,
                row_step: SCHEDULE_SMS,
            },
            // adjacent rows whose boundary sectors coincide (dedup across
            // rows in the middle of the pattern)
            StridedMatrixAccess {
                base: 8,
                rows: 6,
                cols: 3,
                row_stride_elems: 3,
                col_stride_elems: 1,
                elem_bytes: 2,
                row_step: 1,
            },
        ];
        for (i, acc) in patterns.iter().enumerate() {
            let mut reference = Vec::new();
            acc.extend_probes(&mut reference, usize::MAX);
            for max in [0, 1, 2, 7, reference.len().saturating_sub(1), reference.len(), usize::MAX] {
                let mut probes = Vec::new();
                acc.extend_probes(&mut probes, max);
                let mut runs = Vec::new();
                acc.extend_probe_runs(&mut runs, max);
                assert_eq!(
                    expand(&runs),
                    probes,
                    "pattern {i} diverges at max={max}"
                );
            }
        }
    }

    #[test]
    fn probe_runs_respect_preexisting_totals() {
        // `max` counts probes already in `out`, matching extend_probes'
        // treatment of out.len().
        let acc = StridedMatrixAccess::contiguous(0, 4, 64, 2);
        let mut runs = vec![ProbeRun { base: 1 << 20, count: 10, stride: 32 }];
        acc.extend_probe_runs(&mut runs, 14);
        assert_eq!(ProbeRun::total(&runs), 14);
    }

    #[test]
    fn video_streams_match_runs_for_all_kernels() {
        let v = VideoAttentionAccess { frames: 4, channels: 32, hw: 256, elem_bytes: 2 };
        for kernel in [AttentionKernel::Gemm, AttentionKernel::Softmax, AttentionKernel::Elementwise] {
            for temporal in [false, true] {
                for max in [100, 5000] {
                    let stream = v.stream(kernel, temporal, max);
                    let runs = v.runs(kernel, temporal, max);
                    assert_eq!(expand(&runs), stream, "{kernel:?} temporal={temporal} max={max}");
                    assert!(
                        runs.len() < stream.len().max(1),
                        "compression should shrink {kernel:?}: {} runs for {} probes",
                        runs.len(),
                        stream.len()
                    );
                }
            }
        }
    }

    #[test]
    fn temporal_stream_compresses_dramatically() {
        let v = VideoAttentionAccess::make_a_video_base();
        let max = 300_000;
        let stream_len = v.stream(AttentionKernel::Gemm, true, max).len();
        let runs = v.runs(AttentionKernel::Gemm, true, max);
        assert!(stream_len >= max / 2, "stream should be large: {stream_len}");
        assert!(
            runs.len() * 100 < stream_len,
            "expected >100x compression: {} runs for {stream_len} probes",
            runs.len()
        );
    }
}
