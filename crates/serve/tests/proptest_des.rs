//! Property-based tests for the serving DES: queueing-theory
//! invariants that must hold on every sample path, not just the ones
//! unit tests happen to pick.

use mmg_models::ModelId;
use mmg_serve::cluster::{simulate, ScenarioCfg, SchedulerKind, SloSpec};
use mmg_serve::profile::{ServiceCurve, ServiceProfile};
use mmg_serve::workload::{ArrivalProcess, RequestMix};
use mmg_telemetry::Registry;
use proptest::prelude::*;

fn profile(service_s: f64) -> ServiceProfile {
    ServiceProfile::new(vec![ServiceCurve::constant(ModelId::StableDiffusion, service_s)])
}

fn scenario(
    gpus: usize,
    rate: f64,
    scheduler: SchedulerKind,
    duration_s: f64,
    seed: u64,
) -> ScenarioCfg {
    ScenarioCfg::new(
        gpus,
        RequestMix::single(ModelId::StableDiffusion),
        ArrivalProcess::poisson(rate),
        scheduler,
        SloSpec::None,
        duration_s,
        seed,
    )
}

/// The vendored proptest stub only generates from ranges, so scheduler
/// variants are decoded from drawn integers.
fn scheduler_from(sel: usize, batch: usize, wait_s: f64) -> SchedulerKind {
    match sel % 4 {
        0 => SchedulerKind::Fifo,
        1 => SchedulerKind::Static { batch, wait_s },
        2 => SchedulerKind::Dynamic { max_batch: batch },
        _ => SchedulerKind::Pods { max_batch: batch },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Little's law, checked as an identity between two independent
    /// bookkeeping paths: the event-loop occupancy integral `∫n(t)dt`
    /// must equal the per-request sojourn sum (`L·T = λT·W`). Holds
    /// exactly on every sample path, not just in expectation.
    #[test]
    fn littles_law_identity(
        seed in 0u64..1_000,
        rate in 0.5f64..6.0,
        service_s in 0.05f64..0.8,
        gpus in 1usize..4,
        sel in 0usize..4,
        batch in 2usize..16,
        wait_s in 0.1f64..1.0,
    ) {
        let scheduler = scheduler_from(sel, batch, wait_s);
        let cfg = scenario(gpus, rate, scheduler, 60.0, seed);
        let r = simulate(&cfg, &profile(service_s), &Registry::new());
        let sojourn: f64 = r.records.iter().map(|rec| rec.latency_s()).sum();
        let tol = 1e-6 * sojourn.max(1.0);
        prop_assert!(
            (r.area_requests_s - sojourn).abs() < tol,
            "area {} vs sojourn {}", r.area_requests_s, sojourn
        );
    }

    /// Little's law in its statistical form on a stable FIFO server:
    /// time-average occupancy L equals λ·W measured over the same run.
    #[test]
    fn littles_law_statistical(seed in 0u64..200) {
        // ρ = 2.0 × 0.2 = 0.4 on one GPU: comfortably stable.
        let cfg = scenario(1, 2.0, SchedulerKind::Fifo, 400.0, seed);
        let r = simulate(&cfg, &profile(0.2), &Registry::new());
        let n = r.records.len() as f64;
        prop_assume!(n > 100.0);
        let big_l = r.area_requests_s / r.end_s;
        let lambda = n / r.end_s;
        let big_w = r.records.iter().map(|rec| rec.latency_s()).sum::<f64>() / n;
        let rel = (big_l - lambda * big_w).abs() / big_l.max(1e-9);
        prop_assert!(rel < 1e-6, "L {} vs λW {}", big_l, lambda * big_w);
    }

    /// Conservation: every arrival is accounted for — completed,
    /// dropped, or abandoned over the full run; completed-by-horizon
    /// plus in-flight-at-horizon over the truncated run.
    #[test]
    fn conservation(
        seed in 0u64..1_000,
        rate in 0.5f64..8.0,
        service_s in 0.05f64..1.0,
        gpus in 1usize..4,
        sel in 0usize..4,
        batch in 2usize..16,
        wait_s in 0.1f64..1.0,
        patience_sel in 0usize..2,
        patience in 0.5f64..3.0,
        cap_sel in 0usize..2,
        cap in 4usize..40,
    ) {
        let mut cfg = scenario(gpus, rate, scheduler_from(sel, batch, wait_s), 40.0, seed);
        cfg.abandon_after_s = (patience_sel == 1).then_some(patience);
        cfg.max_queue = (cap_sel == 1).then_some(cap);
        let r = simulate(&cfg, &profile(service_s), &Registry::new());
        prop_assert_eq!(
            r.arrivals,
            r.records.len() as u64 + r.dropped + r.abandoned,
            "full-run conservation"
        );
        if cfg.abandon_after_s.is_none() {
            let done_by_horizon =
                r.records.iter().filter(|rec| rec.finish_s < r.horizon_s).count() as u64;
            prop_assert_eq!(
                r.arrivals,
                done_by_horizon + r.dropped + r.in_flight_at_horizon,
                "horizon conservation"
            );
        }
    }

    /// One seed, one sample path: the full result (every record, every
    /// counter) is identical across repeated runs.
    #[test]
    fn determinism(
        seed in 0u64..1_000,
        rate in 0.5f64..6.0,
        gpus in 1usize..4,
        sel in 0usize..4,
        batch in 2usize..16,
        wait_s in 0.1f64..1.0,
    ) {
        let cfg = scenario(gpus, rate, scheduler_from(sel, batch, wait_s), 30.0, seed);
        let a = simulate(&cfg, &profile(0.3), &Registry::new());
        let b = simulate(&cfg, &profile(0.3), &Registry::new());
        prop_assert_eq!(a, b);
    }

    /// Causality and sanity on every record: start ≥ arrival,
    /// finish > start, batch within any cap, GPU in range.
    #[test]
    fn records_are_causal(
        seed in 0u64..1_000,
        rate in 0.5f64..6.0,
        gpus in 1usize..4,
        sel in 0usize..4,
        batch in 2usize..16,
        wait_s in 0.1f64..1.0,
    ) {
        let scheduler = scheduler_from(sel, batch, wait_s);
        let cfg = scenario(gpus, rate, scheduler, 30.0, seed);
        let r = simulate(&cfg, &profile(0.3), &Registry::new());
        let cap = scheduler.batch_cap();
        for rec in &r.records {
            prop_assert!(rec.start_s >= rec.arrival_s - 1e-12);
            prop_assert!(rec.finish_s > rec.start_s);
            prop_assert!(rec.batch >= 1 && rec.batch <= cap, "batch {}", rec.batch);
            prop_assert!(rec.gpu < gpus);
            prop_assert!(rec.depth_at_arrival >= 1);
        }
    }
}

/// Closed-form oracle: one FIFO GPU with a constant service time under
/// Poisson arrivals is an M/D/1 queue, whose mean wait is
/// `ρ·s / (2(1-ρ))` (Pollaczek-Khinchine with zero service variance).
#[test]
fn fifo_mean_wait_matches_the_md1_closed_form() {
    let (rho, s) = (0.5, 0.3);
    let mut cfg = scenario(1, rho / s, SchedulerKind::Fifo, f64::INFINITY, 3);
    cfg.max_requests = Some(60_000);
    let r = simulate(&cfg, &profile(s), &Registry::new());
    assert_eq!(r.records.len(), 60_000);
    let mean_wait = r.records.iter().map(|rec| rec.wait_s()).sum::<f64>() / 60_000.0;
    let theory = rho * s / (2.0 * (1.0 - rho));
    assert!((mean_wait - theory).abs() / theory < 0.15, "wait {mean_wait} vs theory {theory}");
}
