//! Image-size and device scaling study (Sections V-B and beyond).
//!
//! Sweeps Stable Diffusion output resolution, reporting how attention and
//! convolution time scale (Fig. 9), how the analytical O(L⁴) memory law
//! tracks the traced graphs (Section V), and how the Flash Attention
//! speedup shifts across GPU generations.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use std::sync::Arc;

use mmgen::analytics::seqlen_model::{scaling_exponent, DiffusionSeqModel};
use mmgen::attn::AttnImpl;
use mmgen::core::experiments::{fig9, table2};
use mmgen::core::ExecContext;
use mmgen::gpu::DeviceSpec;
use mmgen::models::suite::stable_diffusion::{pipeline, StableDiffusionConfig};
use mmgen::profiler::report::fmt_seconds;
use mmgen::profiler::{CostMemo, Profiler};

fn main() {
    let a100 = DeviceSpec::a100_80gb();
    // One memo for every profiled experiment below; its keys carry the
    // device, so the GPU generations never share an entry.
    let memo = Arc::new(CostMemo::new());
    let ctx = |spec: &DeviceSpec| ExecContext::isolated(spec.clone(), Arc::clone(&memo));

    // 1. Fig. 9 sweep.
    println!("{}", fig9::render(&fig9::run_ctx(&ctx(&a100), &[64, 128, 256, 512])));

    // 2. Section V memory law vs a wider sweep.
    println!("Analytical similarity-matrix memory (Section V):");
    let mut prev: Option<(usize, u64)> = None;
    for size in [128usize, 256, 512, 1024] {
        let m = DiffusionSeqModel::stable_diffusion(size);
        let bytes = m.cumulative_similarity_bytes();
        let exp = prev.map(|(ps, pb)| {
            scaling_exponent(ps as f64, pb as f64, size as f64, bytes as f64)
        });
        match exp {
            Some(k) => println!(
                "  {size:>5}px: {:>10.1} MiB   local exponent {:.2}",
                bytes as f64 / (1 << 20) as f64,
                k
            ),
            None => println!("  {size:>5}px: {:>10.1} MiB", bytes as f64 / (1 << 20) as f64),
        }
        prev = Some((size, bytes));
    }

    // 3. End-to-end latency vs image size under flash attention.
    println!("\nEnd-to-end simulated latency (flash attention):");
    let profiler = Profiler::new(a100.clone(), AttnImpl::Flash);
    for size in [256usize, 512, 768, 1024] {
        let p = pipeline(&StableDiffusionConfig { image_size: size, ..Default::default() });
        let t = p.profile(&profiler).total_time_s();
        println!("  {size:>5}px: {}", fmt_seconds(t));
    }

    // 4. Device-generation ablation of Table II.
    println!("\nFlash Attention end-to-end speedup across GPU generations:");
    for spec in [DeviceSpec::v100_32gb(), DeviceSpec::a100_80gb(), DeviceSpec::h100_80gb()] {
        let r = table2::run_ctx(&ctx(&spec));
        let sd = r.row("StableDiffusion").expect("sd row").e2e_speedup;
        let llama = r.row("LLaMA2").expect("llama row").e2e_speedup;
        println!("  {:<16} SD {:.2}x   LLaMA2 {:.2}x", spec.name, sd, llama);
    }
}
