//! Every paper artifact regenerates, and the headline numbers fall in the
//! paper's bands. This is the executable version of EXPERIMENTS.md.

use std::sync::{Arc, OnceLock};

use mmgen::core::experiments::{
    fig1, fig11, fig12, fig13, fig4, fig5, fig6, fig7, fig8, fig9, secv, table1, table2, table3,
};
use mmgen::core::{run_experiment_with, ExecContext, ExperimentId};
use mmgen::gpu::DeviceSpec;
use mmgen::profiler::CostMemo;

fn spec() -> DeviceSpec {
    DeviceSpec::a100_80gb()
}

/// An A100 context on its own registry. Every test here shares one
/// memo, so each distinct op is profiled once between them.
fn ctx() -> ExecContext {
    static MEMO: OnceLock<Arc<CostMemo>> = OnceLock::new();
    ExecContext::isolated(spec(), Arc::clone(MEMO.get_or_init(Arc::default)))
}

#[test]
fn all_experiments_render_nonempty() {
    for id in ExperimentId::ALL {
        let out = run_experiment_with(id, &ctx());
        assert!(out.len() > 40, "{id}: suspiciously short output\n{out}");
    }
}

#[test]
fn fig1_ratios() {
    let r = fig1::run(42);
    assert!((8.0..22.0).contains(&r.gpus_per_param_ratio));
    assert!((1.2..1.7).contains(&r.memory_util_ratio));
}

#[test]
fn table1_taxonomy_ordering() {
    let r = table1::run();
    let get = |m: &str| r.rows.iter().find(|x| x.model == m).unwrap();
    // Table I: SD 1.45B, Imagen 3B (diffusion stack), Parti 20B.
    assert!((0.8..1.8).contains(&get("StableDiffusion").params_b));
    assert!(get("Parti").params_b > 14.0);
    // Diffusion latency driven by huge FLOP counts.
    assert!(get("Imagen").tflops > get("Muse").tflops);
}

#[test]
fn fig4_frontier_and_fig5_roofline() {
    let f4 = fig4::run();
    assert!(f4.rows.iter().filter(|r| r.on_frontier).count() >= 3);
    let f5 = fig5::run(&spec());
    let sd = f5.rows.iter().find(|r| r.model == "StableDiffusion").unwrap();
    let parti = f5.rows.iter().find(|r| r.model == "Parti").unwrap();
    assert!(sd.compute_bound && !parti.compute_bound);
    assert!(sd.intensity > 10.0 * parti.intensity);
}

#[test]
fn fig6_conv_share_hits_forty_percent_band() {
    let r = fig6::run_ctx(&ctx());
    let sd = r.models.iter().find(|m| m.model == "StableDiffusion").unwrap();
    // Post-flash conv share of the *flash* total ≈ paper's 44%.
    let conv_of_flash = sd.fraction(true, "Conv") / (sd.flash_s / sd.baseline_s);
    assert!((0.30..0.55).contains(&conv_of_flash), "conv share {conv_of_flash}");
    // LLaMA/transformer TTI: linear stays dominant.
    let parti = r.models.iter().find(|m| m.model == "Parti").unwrap();
    assert!(parti.fraction(false, "Linear") > 0.45);
}

#[test]
fn table2_against_paper_values() {
    let r = table2::run_ctx(&ctx());
    for row in &r.rows {
        let paper = row.paper_e2e.unwrap();
        let tolerance = if row.model == "LLaMA2" { 0.30 } else { 0.12 };
        assert!(
            (row.e2e_speedup - paper).abs() <= tolerance,
            "{}: measured {:.2} vs paper {:.2}",
            row.model,
            row.e2e_speedup,
            paper
        );
    }
}

#[test]
fn table3_correspondence() {
    let r = table3::run();
    assert_eq!(r.rows.len(), 3);
    assert!(r.rows[1].min_query_len > 1, "diffusion is prefill-only");
    assert_eq!(r.rows[2].min_query_len, 1, "transformer TTI decodes");
}

#[test]
fn fig7_trace_shapes() {
    let r = fig7::run_ctx(&ctx());
    assert!(r.trace("StableDiffusion").unwrap().is_cyclical());
    assert!(r.trace("Parti").unwrap().is_monotone_increasing());
    assert!(r.trace("Muse").unwrap().is_constant());
    assert!(r.trace("StableDiffusion").unwrap().variation >= 4.0);
}

#[test]
fn fig8_distribution_shifts_right() {
    let r = fig8::run_ctx(&ctx(), &[256, 512, 1024]);
    let max: Vec<usize> = r.series.iter().map(|s| s.max_seq()).collect();
    assert_eq!(max, vec![1024, 4096, 16384]);
}

#[test]
fn fig9_crossover() {
    let r = fig9::run_ctx(&ctx(), &[64, 512]);
    let big = &r.rows[1];
    assert!(big.attn_baseline_s > big.conv_s, "pre-flash attention dominates at 512");
    assert!(big.conv_s > big.attn_flash_s, "post-flash conv dominates at 512");
}

#[test]
fn fig11_fig12_fig13_temporal_story() {
    let f11 = fig11::run_ctx(&ctx());
    assert!((1.5..4.5).contains(&f11.time_ratio()));
    assert!((5.0..20.0).contains(&f11.flops_ratio()));

    let f12 = fig12::run_ctx(&ctx(), 150_000);
    assert!(f12.l1_ratio("gemm") > 5.0);
    assert!(f12.l1_ratio("softmax") > 5.0);

    let f13 = fig13::run(16, &[16, 256, 512]);
    assert_eq!(f13.crossover, Some(257));
}

#[test]
fn secv_analytic_model() {
    let r = secv::run_ctx(&ctx(), 512);
    assert_eq!(r.analytic_max_seq as usize, r.traced_max_seq);
    assert!((3.7..4.1).contains(&r.memory_exponent));
}

#[test]
fn experiments_serialize_to_json() {
    // Reports are machine-readable for downstream tooling.
    let t2 = table2::run_ctx(&ctx());
    let s = serde_json::to_string(&t2).unwrap();
    let back: mmgen::core::experiments::table2::Table2Result = serde_json::from_str(&s).unwrap();
    assert_eq!(t2.rows.len(), back.rows.len());
    for (a, b) in t2.rows.iter().zip(back.rows.iter()) {
        assert_eq!(a.model, b.model);
        assert!((a.e2e_speedup - b.e2e_speedup).abs() < 1e-9);
    }
}
