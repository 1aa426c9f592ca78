//! Fig. 8 — frequency distribution of Stable Diffusion sequence lengths
//! across output image sizes.

use mmg_attn::AttnImpl;
use mmg_models::suite::stable_diffusion::{pipeline, StableDiffusionConfig};
use mmg_profiler::seqlen::{histogram, trace};

use crate::engine::ExecContext;
use serde::{Deserialize, Serialize};

/// One image size's histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Series {
    /// Output image edge.
    pub image_size: usize,
    /// `(seq_len, count)` buckets ascending.
    pub histogram: Vec<(usize, usize)>,
    /// `(seq_len, fraction of attention time)` per bucket — the paper
    /// notes sequence lengths "confine themselves to distinct buckets,
    /// which could allow future systems to tailor hardware towards
    /// sequence lengths of interest"; the time share says which buckets
    /// deserve the silicon.
    pub time_share: Vec<(usize, f64)>,
}

impl Fig8Series {
    /// Largest sequence length in the distribution.
    #[must_use]
    pub fn max_seq(&self) -> usize {
        self.histogram.last().map_or(0, |&(l, _)| l)
    }
}

/// Fig. 8 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Result {
    /// One series per swept image size.
    pub series: Vec<Fig8Series>,
}

/// Sweeps image sizes and histograms the UNet's attention sequence
/// lengths (one denoising step = the repeating unit), on `ctx`'s
/// registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext, image_sizes: &[usize]) -> Fig8Result {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let series = image_sizes
        .iter()
        .map(|&image_size| {
            let cfg = StableDiffusionConfig { image_size, ..Default::default() };
            let p = pipeline(&cfg);
            let prof = p.profile(&profiler);
            let stage = prof.stage("unet_step").expect("unet stage");
            // Attention time per query-length bucket.
            let mut shares: Vec<(usize, f64)> = Vec::new();
            let mut total = 0.0f64;
            for ev in stage.timeline.events() {
                if let Some(a) = ev.attention {
                    total += ev.time_s;
                    if let Some(slot) = shares.iter_mut().find(|(l, _)| *l == a.seq_q) {
                        slot.1 += ev.time_s;
                    } else {
                        shares.push((a.seq_q, ev.time_s));
                    }
                }
            }
            shares.sort_by_key(|&(l, _)| l);
            for s in &mut shares {
                s.1 /= total.max(f64::MIN_POSITIVE);
            }
            Fig8Series {
                image_size,
                histogram: histogram(&trace(&stage.timeline)),
                time_share: shares,
            }
        })
        .collect();
    Fig8Result { series }
}

/// Default paper sweep: 128–1024.
#[must_use]
pub fn default_sizes() -> Vec<usize> {
    vec![128, 256, 512, 768, 1024]
}

/// Renders Fig. 8.
#[must_use]
pub fn render(r: &Fig8Result) -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("Fig. 8 — Stable Diffusion sequence-length distribution vs image size\n");
    for s in &r.series {
        let shares: Vec<String> =
            s.time_share.iter().map(|(l, f)| format!("{l}:{:.0}%", f * 100.0)).collect();
        let _ = writeln!(
            out,
            "  {:>4}px: counts {:?}  attn-time share [{}]",
            s.image_size,
            s.histogram,
            shares.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> Fig8Result {
        run_ctx(&test_ctx(), &[256, 512, 1024])
    }

    #[test]
    fn distribution_shifts_right_with_image_size() {
        let r = result();
        for w in r.series.windows(2) {
            assert!(w[1].max_seq() > w[0].max_seq());
        }
    }

    #[test]
    fn seq_lengths_confined_to_distinct_buckets() {
        // The paper notes sequence lengths confine themselves to distinct
        // buckets (powers of the downsampling factor).
        let r = result();
        for s in &r.series {
            assert!(s.histogram.len() <= 6, "{}px has {} buckets", s.image_size, s.histogram.len());
            for w in s.histogram.windows(2) {
                assert_eq!(w[1].0 % w[0].0, 0, "buckets related by downsampling factors");
            }
        }
    }

    #[test]
    fn image_512_peaks_at_4096() {
        let r = result();
        let s512 = r.series.iter().find(|s| s.image_size == 512).unwrap();
        assert_eq!(s512.max_seq(), 4096);
    }

    #[test]
    fn counts_are_balanced_for_512() {
        // Fig. 8: at 512x512 the distribution over buckets is relatively
        // even (symmetric UNet).
        let r = result();
        let s = r.series.iter().find(|s| s.image_size == 512).unwrap();
        let counts: Vec<usize> = s.histogram.iter().map(|&(_, c)| c).collect();
        // The down/up levels contribute equally; only the bottleneck
        // (mid-block) bucket is rarer.
        let levels = &counts[1..];
        assert!(levels.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min <= 8.0, "{counts:?}");
    }

    #[test]
    fn top_bucket_dominates_attention_time() {
        // Call counts are near-uniform across buckets, but the largest
        // sequence bucket owns most of the attention time — the hardware-
        // specialization argument of Section V-B.
        let r = result();
        let s = r.series.iter().find(|s| s.image_size == 512).unwrap();
        let (top_len, top_share) = *s.time_share.last().unwrap();
        assert_eq!(top_len, 4096);
        assert!(top_share > 0.5, "top bucket share {top_share}");
        let sum: f64 = s.time_share.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn renders() {
        let out = render(&result());
        assert!(out.contains("512px"));
        assert!(out.contains("attn-time share"));
    }
}
