//! SLO accounting: the rendered report of a finished [`SimResult`] or
//! [`TokenSimResult`].

use mmg_models::ModelId;
use mmg_profiler::report::render_table;
use mmg_telemetry::{quantile_sorted, QuantileSketch};

use crate::cluster::{HealthReport, ModelStats, PhaseStats, RequestRecord, SimResult};
use crate::kv::GIB;
use crate::token::TokenSimResult;
use crate::workload::model_short_name;

/// Table rows as [`render_table`] takes them: a label and its cells.
type Rows = Vec<(String, Vec<String>)>;

/// The quantiles the report tables print.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Cluster-wide serving report: the per-model latency/SLO table, the
/// cluster summary line, the worst-latency exemplars and, when the run
/// carried them, the attribution, SLO-health and energy sections.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    text: String,
}

impl SloReport {
    /// Renders the report of a finished run. Models appear in first-
    /// completion order (callers pass results from a fixed mix, so this
    /// is stable across runs of the same scenario).
    ///
    /// Every column but the quantiles comes from the run's exact sums in
    /// [`crate::ServeStats`]. With full records retained the per-model
    /// quantiles are exact; for a streaming run
    /// ([`crate::ScenarioCfg::full_records`] off) they come from the
    /// latency sketches, with rank error bounded by
    /// [`crate::LATENCY_SKETCH_EPS`].
    #[must_use]
    pub fn from_result(r: &SimResult) -> Self {
        let mut models: Vec<(usize, &ModelStats)> =
            r.stats.per_model.iter().enumerate().filter(|(_, m)| m.completed > 0).collect();
        models.sort_by_key(|(_, m)| m.first_done_seq);
        let mut text = model_table(r, &models);
        text.push_str(&format!(
            "\ncluster: {} done, {} dropped, {} abandoned | throughput {:.2} req/s, \
             goodput {:.2} req/s | SLO attainment {:.1}% | utilization {:.1}%\n",
            r.stats.completed,
            r.dropped,
            r.abandoned,
            r.throughput_rps(),
            r.goodput_rps(),
            r.slo_attainment() * 100.0,
            r.utilization() * 100.0,
        ));
        push_worst(&mut text, r.stats.exemplars.worst());
        if let Some(cluster) = &r.stats.phases {
            push_attribution(&mut text, cluster, &models);
        }
        if let Some(health) = &r.health {
            push_health(&mut text, health);
        }
        push_energy(&mut text, r, &models);
        SloReport { text }
    }

    /// The rendered report text.
    #[must_use]
    pub fn render(&self) -> String {
        self.text.clone()
    }
}

/// The per-model table, one row per entry of `models`.
fn model_table(r: &SimResult, models: &[(usize, &ModelStats)]) -> String {
    let rows: Rows = models
        .iter()
        .map(|&(_, m)| {
            let n = m.completed as f64;
            let [p50, p95, p99] = latency_quantiles(r, m);
            (
                model_short_name(m.model).to_string(),
                vec![
                    format!("{}", m.completed),
                    format!("{:.0} ms", m.wait_sum_s / n * 1e3),
                    format!("{:.0} ms", p50 * 1e3),
                    format!("{:.0} ms", p95 * 1e3),
                    format!("{:.0} ms", p99 * 1e3),
                    format!("{:.1}%", m.on_time as f64 / n * 100.0),
                    format!("{:.1}", m.batch_sum as f64 / n),
                ],
            )
        })
        .collect();
    render_table(
        &["Model", "Done", "Mean wait", "p50", "p95", "p99", "SLO attain", "Mean batch"],
        &rows,
    )
}

/// One model's latency [`QUANTILES`]: exact from the run's records when
/// it kept them, else from the model's sketch.
fn latency_quantiles(r: &SimResult, m: &ModelStats) -> [f64; 3] {
    if r.records.is_empty() {
        return QUANTILES.map(|q| m.latency_sketch.quantile(q).expect("model has completions"));
    }
    let mut lat: Vec<f64> = r
        .records
        .iter()
        .filter(|rec| rec.model == m.model)
        .map(RequestRecord::latency_s)
        .collect();
    lat.sort_by(f64::total_cmp);
    QUANTILES.map(|q| quantile_sorted(&lat, q).expect("model has completions"))
}

/// The worst-latency lifecycles, worst first: the p99 says how bad the
/// tail is; these say *which* requests it was and what they were
/// waiting behind. They come from the always-on [`crate::Exemplars`],
/// so streaming runs print them too.
fn push_worst(out: &mut String, worst: &[RequestRecord]) {
    if worst.is_empty() {
        return;
    }
    let rows: Rows = worst
        .iter()
        .rev()
        .map(|rec| {
            let over_s = rec.finish_s - rec.deadline_s;
            let over_s = if over_s.is_finite() { over_s.max(0.0) } else { 0.0 };
            (
                format!("#{}", rec.id),
                vec![
                    model_short_name(rec.model).to_string(),
                    format!("{:.3} s", rec.arrival_s),
                    format!("{:.0} ms", rec.wait_s() * 1e3),
                    format!("{:.0} ms", rec.latency_s() * 1e3),
                    format!("{:.0} ms", over_s * 1e3),
                    format!("gpu{}", rec.gpu),
                    format!("{}", rec.batch),
                    format!("{}", rec.depth_at_arrival),
                ],
            )
        })
        .collect();
    out.push_str("\nworst-latency exemplars (worst first):\n");
    out.push_str(&render_table(
        &["Req", "Model", "Arrived", "Wait", "Latency", "Over SLO", "GPU", "Batch", "Depth"],
        &rows,
    ));
}

/// Per-phase p99s (queue, hold, execute) of one scope and each one's
/// share of their sum. The shares are all zero when the scope saw no
/// latency.
fn phase_p99s(ph: &PhaseStats) -> ([f64; 3], [f64; 3]) {
    let p99 = [&ph.queue, &ph.hold, &ph.execute].map(|s| s.quantile(0.99).unwrap_or(0.0));
    let total = p99[0] + p99[1] + p99[2];
    let shares = if total <= 0.0 { [0.0; 3] } else { p99.map(|p| p / total) };
    (p99, shares)
}

/// Latency attribution by phase: the cluster's "p99 = 12% queue + 71%
/// hold + 17% execute" headline, then a cluster row and one row per
/// model.
fn push_attribution(out: &mut String, cluster: &PhaseStats, models: &[(usize, &ModelStats)]) {
    let [q, h, e] = phase_p99s(cluster).1;
    out.push_str(&format!(
        "\nattribution: p99 = {:.0}% queue + {:.0}% hold + {:.0}% execute\n",
        q * 100.0,
        h * 100.0,
        e * 100.0
    ));
    let model_scopes = models
        .iter()
        .filter_map(|(_, m)| Some((model_short_name(m.model), m.phases.as_ref()?)));
    let rows: Rows = std::iter::once(("cluster", cluster))
        .chain(model_scopes)
        .map(|(scope, ph)| {
            let (p99, shares) = phase_p99s(ph);
            let cells = p99
                .iter()
                .map(|p| format!("{:.0} ms", p * 1e3))
                .chain(shares.iter().map(|s| format!("{:.0}%", s * 100.0)))
                .collect();
            (scope.to_string(), cells)
        })
        .collect();
    out.push_str(&render_table(
        &["Scope", "Queue p99", "Hold p99", "Exec p99", "Queue", "Hold", "Exec"],
        &rows,
    ));
}

/// The burn-rate alert and ratchet timeline.
fn push_health(out: &mut String, health: &HealthReport) {
    out.push_str(&format!("\nslo health (objective {:.1}%): ", health.policy.objective * 100.0));
    match health.time_to_first_alert_s() {
        Some(t) => out.push_str(&format!("first alert at {t:.1} s\n")),
        None => out.push_str("no burn-rate alerts\n"),
    }
    if !health.alerts.is_empty() {
        let rows: Rows = health
            .alerts
            .iter()
            .map(|a| {
                (
                    format!("{:.1} s", a.t_s),
                    vec![
                        health.policy.rules[a.rule].name.clone(),
                        a.kind.label().to_string(),
                        format!("{:.1}x", a.long_burn),
                        format!("{:.1}x", a.short_burn),
                    ],
                )
            })
            .collect();
        out.push_str(&render_table(&["Time", "Rule", "Event", "Long burn", "Short burn"], &rows));
    }
    for rr in &health.ratchet {
        out.push_str(&format!(
            "ratchet {} at {:.1} s: mean depth {:.1} (baseline {:.1})\n",
            rr.kind.label(),
            rr.t_s,
            rr.depth,
            rr.baseline
        ));
    }
}

/// The energy accounting, when the service profile carried power
/// figures: per-model draw and busy-span joules per completed request
/// (idle overhead belongs to the cluster, not to any one model), then
/// the cluster totals.
fn push_energy(out: &mut String, r: &SimResult, models: &[(usize, &ModelStats)]) {
    let Some(e) = &r.energy else {
        return;
    };
    let rows: Rows = models
        .iter()
        .map(|&(i, m)| {
            let unit = if m.model == ModelId::Llama2 {
                "J/req"
            } else if m.model.is_video() {
                "J/video"
            } else {
                "J/image"
            };
            (
                model_short_name(m.model).to_string(),
                vec![
                    format!("{:.0} W", e.model_draw_w[i]),
                    format!("{:.1} s", e.model_busy_s[i]),
                    format!("{:.1} {unit}", e.model_energy_j(i) / m.completed as f64),
                ],
            )
        })
        .collect();
    out.push_str("\nenergy:\n");
    out.push_str(&render_table(&["Model", "Draw", "Busy", "Per request"], &rows));
    let total_wh = r.total_energy_wh().expect("energy present");
    let wh_per_1k_on_time = if r.stats.on_time > 0 {
        total_wh * 1000.0 / r.stats.on_time as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "energy: {:.2} Wh total (idle {:.0} W) | mean draw {:.0} W/GPU | \
         {:.2} Wh per 1k on-time\n",
        total_wh,
        e.idle_w,
        r.mean_power_w().expect("energy present"),
        wh_per_1k_on_time,
    ));
}

/// The rendered outcome of a token-serving run: phase percentiles
/// (queue wait, TTFT, TPOT, end to end), KV-cache pressure per GPU, and
/// cluster totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenReport {
    text: String,
}

impl TokenReport {
    /// Renders the report of a finished run.
    #[must_use]
    pub fn from_result(r: &TokenSimResult) -> Self {
        let mut text = format!(
            "token serving: {} on {} GPUs | {} batching, {} priority, {} admission\n",
            model_short_name(r.model),
            r.gpus,
            r.scheduler,
            r.priority,
            r.admission
        );
        let p = &r.stats.phases;
        let n = r.stats.completed as f64;
        let phases: [(&str, &QuantileSketch, f64); 4] = [
            ("queue", &p.queue, p.queue_sum_s),
            ("ttft", &p.ttft, p.ttft_sum_s),
            ("tpot", &p.tpot, p.tpot_sum_s),
            ("e2e", &p.e2e, p.e2e_sum_s),
        ];
        let phase_rows: Rows = phases
            .into_iter()
            .map(|(phase, sketch, sum_s)| {
                let mean_s = if n > 0.0 { sum_s / n } else { 0.0 };
                let quantiles = QUANTILES.map(|q| sketch.quantile(q).unwrap_or(0.0));
                let cells = std::iter::once(mean_s)
                    .chain(quantiles)
                    .map(|s| format!("{:.1} ms", s * 1e3))
                    .collect();
                (phase.to_string(), cells)
            })
            .collect();
        text.push_str(&render_table(&["Phase", "Mean", "p50", "p95", "p99"], &phase_rows));
        let kv_rows: Rows = r
            .kv
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let budget_gib = l.budget_bytes as f64 / GIB;
                let peak_gib = l.peak_resident_bytes as f64 / GIB;
                (
                    format!("gpu{i}"),
                    vec![
                        format!("{budget_gib:.1} GiB"),
                        format!("{peak_gib:.2} GiB"),
                        format!("{:.1}%", 100.0 * peak_gib / budget_gib.max(1e-9)),
                        format!("{}", l.preemptions),
                    ],
                )
            })
            .collect();
        text.push('\n');
        text.push_str(&render_table(
            &["GPU", "KV budget", "KV peak", "Peak util", "Preempted"],
            &kv_rows,
        ));
        let s = &r.stats;
        text.push_str(&format!(
            "\ntokens: {} decoded, {} prefilled over {} iterations | {:.0} tok/s simulated | \
             mean decode batch {:.1}\ncluster: {} arrived, {} done, {} dropped, {} preempted | \
             throughput {:.2} req/s, goodput {:.2} req/s | SLO attainment {:.1}% \
             (TTFT <= {:.0} ms, TPOT <= {:.1} ms) | utilization {:.1}%\n",
            s.decoded_tokens,
            s.prefilled_tokens,
            s.iterations,
            r.tokens_per_sim_s(),
            r.mean_decode_batch(),
            s.arrivals,
            s.completed,
            s.dropped_oversized,
            r.preemptions(),
            r.throughput_rps(),
            r.goodput_rps(),
            r.slo_attainment() * 100.0,
            r.slo.ttft_s * 1e3,
            r.slo.tpot_s * 1e3,
            r.utilization() * 100.0,
        ));
        TokenReport { text }
    }

    /// The rendered report text.
    #[must_use]
    pub fn render(&self) -> String {
        self.text.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{simulate, ScenarioCfg, SchedulerKind, SloSpec};
    use crate::profile::{ServiceCurve, ServiceProfile};
    use crate::workload::{ArrivalProcess, RequestMix};
    use mmg_telemetry::Registry;

    const MODEL_TABLE: &str = "| Model | Done";
    const ENERGY_TABLE: &str = "| Model | Draw";

    fn run() -> SimResult {
        let mix = RequestMix::new(vec![
            (ModelId::StableDiffusion, 3.0),
            (ModelId::Parti, 1.0),
        ]);
        let profile = ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 0.3),
            ServiceCurve::constant(ModelId::Parti, 0.9),
        ]);
        let cfg = ScenarioCfg::new(
            2,
            mix,
            ArrivalProcess::poisson(2.0),
            SchedulerKind::Fifo,
            SloSpec::FixedS(2.0),
            100.0,
            11,
        );
        simulate(&cfg, &profile, &Registry::new())
    }

    /// The trimmed cells of the rows of the table whose header line
    /// starts with `header`.
    fn table_rows(text: &str, header: &str) -> Vec<Vec<String>> {
        text.lines()
            .skip_while(|l| !l.starts_with(header))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                l.split('|').map(str::trim).filter(|c| !c.is_empty()).map(String::from).collect()
            })
            .collect()
    }

    /// The number `s` starts with: `"1537 ms"` gives 1537, `"48.6%"`
    /// gives 48.6.
    fn num(s: &str) -> f64 {
        let word = s.split_whitespace().next().unwrap_or_default();
        word.trim_end_matches(['%', ',']).parse().unwrap_or_else(|_| panic!("no number in '{s}'"))
    }

    /// The number right after the first `key` in `text`.
    fn after(text: &str, key: &str) -> f64 {
        let at = text.find(key).unwrap_or_else(|| panic!("'{key}' missing from:\n{text}"));
        num(text[at + key.len()..].trim_start())
    }

    #[test]
    fn report_covers_every_model_and_orders_quantiles() {
        let text = SloReport::from_result(&run()).render();
        let rows = table_rows(&text, MODEL_TABLE);
        assert_eq!(rows.len(), 2, "{text}");
        for row in &rows {
            let [done, p50, p95, p99, attain] = [1, 3, 4, 5, 6].map(|i| num(&row[i]));
            assert!(done > 0.0, "{row:?}");
            assert!(p50 <= p95 && p95 <= p99, "{row:?}");
            assert!((0.0..=100.0).contains(&attain), "{row:?}");
        }
        assert_eq!(rows.iter().map(|row| num(&row[1])).sum::<f64>(), after(&text, "cluster:"));
        assert!(after(&text, "goodput") <= after(&text, "throughput"), "{text}");
    }

    #[test]
    fn render_mentions_models_and_summary() {
        let text = SloReport::from_result(&run()).render();
        assert!(text.contains("sd"));
        assert!(text.contains("parti"));
        assert!(text.contains("goodput"));
        assert!(text.contains("SLO attainment"));
    }

    /// Metered runs grow an energy section with J-per-request rows;
    /// unmetered runs print none, so their reports are unchanged from
    /// before the energy layer.
    #[test]
    fn energy_section_rides_metered_runs_only() {
        assert!(!SloReport::from_result(&run()).render().contains("energy:"));

        let mix = RequestMix::new(vec![
            (ModelId::StableDiffusion, 3.0),
            (ModelId::MakeAVideo, 1.0),
        ]);
        let profile = ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 0.3).with_draw_w(330.0),
            ServiceCurve::constant(ModelId::MakeAVideo, 0.9).with_draw_w(290.0),
        ])
        .with_idle_w(55.0);
        let cfg = ScenarioCfg::new(
            2,
            mix,
            ArrivalProcess::poisson(2.0),
            SchedulerKind::Fifo,
            SloSpec::FixedS(3.0),
            100.0,
            11,
        );
        let text = SloReport::from_result(&simulate(&cfg, &profile, &Registry::new())).render();
        assert_eq!(after(&text, "(idle"), 55.0);
        assert!(after(&text, "energy: ") > 0.0, "total Wh:\n{text}");
        assert!(after(&text, "mean draw") > 55.0, "mean draw:\n{text}");
        assert!(after(&text, "W/GPU |") > 0.0, "Wh per 1k on-time:\n{text}");
        let rows = table_rows(&text, ENERGY_TABLE);
        let row = |model: &str| rows.iter().find(|r| r[0] == model).expect("energy row").clone();
        // Constant curve: J/request = service_s × draw / 1 (batch 1 under
        // FIFO), so ~0.3 × 330.
        let sd = row("sd");
        assert!(sd[3].ends_with("J/image"), "{sd:?}");
        assert!((num(&sd[3]) - 0.3 * 330.0).abs() < 1.0, "{sd:?}");
        let mav = row("mav");
        assert!(mav[3].ends_with("J/video"), "{mav:?}");
        assert!((num(&mav[3]) - 0.9 * 290.0).abs() < 1.0, "{mav:?}");
        assert!(text.contains("Wh per 1k on-time"));
    }

    /// A ~10k-request scenario in both modes: every streaming-report
    /// quantile must land within the sketch's documented rank-error
    /// bound of the exact (sorted-records) answer, the exact report
    /// must print the sorted-records quantiles, and every other byte,
    /// which comes from the exact running sums, must agree.
    #[test]
    fn streaming_report_matches_exact_within_sketch_bound() {
        let mix = RequestMix::new(vec![
            (ModelId::StableDiffusion, 3.0),
            (ModelId::Parti, 1.0),
        ]);
        let profile = ServiceProfile::new(vec![
            ServiceCurve::constant(ModelId::StableDiffusion, 0.015),
            ServiceCurve::constant(ModelId::Parti, 0.03),
        ]);
        let cfg = ScenarioCfg::new(
            2,
            mix,
            ArrivalProcess::poisson(100.0),
            SchedulerKind::Fifo,
            SloSpec::FixedS(0.5),
            120.0,
            5,
        );
        let full = simulate(&cfg, &profile, &Registry::new());
        assert!(full.records.len() > 10_000, "want a 10k+ run, got {}", full.records.len());
        let streaming_cfg = ScenarioCfg { full_records: false, ..cfg };
        let streaming = simulate(&streaming_cfg, &profile, &Registry::new());

        let exact = SloReport::from_result(&full).render();
        let sketched = SloReport::from_result(&streaming).render();
        let summary = |text: &str| text[text.find("\ncluster:").expect("summary line")..].to_string();
        assert_eq!(summary(&exact), summary(&sketched));
        let (exact_rows, sketched_rows) =
            (table_rows(&exact, MODEL_TABLE), table_rows(&sketched, MODEL_TABLE));
        assert_eq!(exact_rows.len(), 2, "{exact}");
        let sums_only = |rows: &[Vec<String>]| -> Vec<Vec<String>> {
            rows.iter().map(|r| [&r[..3], &r[6..]].concat()).collect()
        };
        assert_eq!(sums_only(&exact_rows), sums_only(&sketched_rows), "row order and sums");

        for (er, sr) in exact_rows.iter().zip(&sketched_rows) {
            // Value-level check of the rank bound: the sketched quantile
            // must sit between the exact order statistics err ranks away.
            let mut lat: Vec<f64> = full
                .records
                .iter()
                .filter(|r| model_short_name(r.model) == er[0])
                .map(RequestRecord::latency_s)
                .collect();
            lat.sort_by(f64::total_cmp);
            let n = lat.len();
            let ms = streaming
                .stats
                .per_model
                .iter()
                .find(|m| model_short_name(m.model) == er[0])
                .unwrap();
            let err = ms.latency_sketch.rank_error_ranks().ceil() as usize + 1;
            for (q, col) in [(0.50, 3), (0.95, 4), (0.99, 5)] {
                let want = quantile_sorted(&lat, q).unwrap();
                assert_eq!(er[col], format!("{:.0} ms", want * 1e3), "{} exact q{q}", er[0]);
                let got = ms.latency_sketch.quantile(q).unwrap();
                assert_eq!(sr[col], format!("{:.0} ms", got * 1e3), "{} sketched q{q}", er[0]);
                let r = (q * (n - 1) as f64).round() as usize;
                let lo = lat[r.saturating_sub(err)];
                let hi = lat[(r + err).min(n - 1)];
                assert!(
                    (lo..=hi).contains(&got),
                    "{} q{q}: {got} outside [{lo}, {hi}] (±{err} ranks of {n})",
                    er[0]
                );
            }
        }
    }
}
