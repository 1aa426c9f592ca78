//! Extension — batch-size sensitivity (Fig. 5's "low batch" qualifier).
//!
//! The paper notes transformer TTI models are memory-bandwidth bound *at
//! low batch sizes* and that low batch is the deployment reality for
//! interactive TTI. This sweep quantifies both halves: batched decode
//! amortizes weight reads almost linearly until it turns compute-bound,
//! while the diffusion UNet — already compute-bound at batch 1 — gains
//! only modest efficiency from batching.

use mmg_attn::AttnImpl;
use mmg_models::blocks::{batched_decode_step_graph, unet_step_graph};
use mmg_models::suite::stable_diffusion::StableDiffusionConfig;
use mmg_models::suite::parti::PartiConfig;
use mmg_profiler::report::render_table;
use serde::{Deserialize, Serialize};

use crate::engine::ExecContext;

/// One batch point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRow {
    /// Batch size.
    pub batch: usize,
    /// SD UNet step time per image, milliseconds.
    pub unet_ms_per_image: f64,
    /// Parti-style decode step time per token, milliseconds.
    pub decode_ms_per_token: f64,
}

/// Batch sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResult {
    /// Rows ascending by batch.
    pub rows: Vec<BatchRow>,
}

/// Sweeps batch sizes for the UNet step and the decode step, on
/// `ctx`'s registry and memo.
#[must_use]
pub fn run_ctx(ctx: &ExecContext, batches: &[usize]) -> BatchResult {
    let profiler = ctx.profiler(AttnImpl::Flash);
    let sd = StableDiffusionConfig::default();
    let parti = PartiConfig::default();
    let rows = batches
        .iter()
        .map(|&batch| {
            let unet = unet_step_graph(&sd.unet(), sd.latent_res(), batch);
            let unet_s = profiler.profile(&unet).total_time_s();
            let decode = batched_decode_step_graph(&parti.decoder, 512, batch);
            let decode_s = profiler.profile(&decode).total_time_s();
            BatchRow {
                batch,
                unet_ms_per_image: unet_s * 1e3 / batch as f64,
                decode_ms_per_token: decode_s * 1e3 / batch as f64,
            }
        })
        .collect();
    BatchResult { rows }
}

/// Default sweep.
#[must_use]
pub fn default_batches() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// Renders the sweep.
#[must_use]
pub fn render(r: &BatchResult) -> String {
    let rows: Vec<(String, Vec<String>)> = r
        .rows
        .iter()
        .map(|row| {
            (
                format!("batch {}", row.batch),
                vec![
                    format!("{:.1} ms", row.unet_ms_per_image),
                    format!("{:.2} ms", row.decode_ms_per_token),
                ],
            )
        })
        .collect();
    format!(
        "Extension — batch sensitivity: per-sample cost vs batch size\n{}",
        render_table(&["Batch", "SD UNet / image", "Parti decode / token"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_ctx;

    fn result() -> BatchResult {
        run_ctx(&test_ctx(), &default_batches())
    }

    #[test]
    fn decode_amortizes_weights_dramatically() {
        // Memory-bound decode: doubling batch nearly halves cost/token.
        let r = result();
        let first = r.rows.first().unwrap().decode_ms_per_token;
        let last = r.rows.last().unwrap().decode_ms_per_token;
        assert!(first / last > 8.0, "decode amortization {}", first / last);
    }

    #[test]
    fn unet_gains_are_modest() {
        // Compute-bound diffusion: batching saves some tile/wave waste but
        // nothing like the decode amortization.
        let r = result();
        let first = r.rows.first().unwrap().unet_ms_per_image;
        let last = r.rows.last().unwrap().unet_ms_per_image;
        let gain = first / last;
        assert!((1.0..4.0).contains(&gain), "unet gain {gain}");
    }

    #[test]
    fn per_sample_cost_never_increases_with_batch() {
        let r = result();
        for w in r.rows.windows(2) {
            assert!(w[1].unet_ms_per_image <= w[0].unet_ms_per_image * 1.02);
            assert!(w[1].decode_ms_per_token <= w[0].decode_ms_per_token * 1.02);
        }
    }

    #[test]
    fn renders() {
        assert!(render(&result()).contains("batch 1"));
    }
}
