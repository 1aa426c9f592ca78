//! Multi-window multi-burn-rate SLO alerting over simulated time.
//!
//! This is the SRE-workbook error-budget recipe, scaled from wall-clock
//! weeks down to a simulation horizon. An SLO of objective `o` grants an
//! error budget of `1 - o`; the *burn rate* over a window is the error
//! fraction observed in that window divided by the budget (burn 1.0 =
//! spending the budget exactly at the sustainable pace). A [`BurnRule`]
//! pairs a long window (significance: enough budget burned to matter)
//! with a short window (recency: it is still burning *now*) and fires
//! when **both** exceed the rule's threshold — the classic
//! `14.4x over 1h && 5m` / `6x over 6h && 30m` page pair, with the
//! window lengths scaled to the horizon by [`SloPolicy::paging`].
//!
//! The [`BurnRateEngine`] is driven online by the serving cluster loop:
//! each request completion is `record`ed as good (met its SLO) or bad,
//! counts accumulate into fixed-width base windows (the same half-open
//! `[i·w, (i+1)·w)` convention as [`crate::WindowedSeries`]), and every
//! window close re-evaluates all rules against a bounded ring of recent
//! windows. Everything is plain integer/f64 arithmetic over a
//! deterministic event stream, so alert timelines are byte-reproducible
//! — the same guarantee the rest of the simulator makes.
//!
//! Unlike [`crate::WindowedSeries`], the evaluation ring never folds:
//! doubling window widths mid-run would silently change alert semantics.
//! The ring is bounded by the longest rule window instead, so memory
//! stays O(1) regardless of horizon. [`BudgetWindow`] still implements
//! [`WindowValue`], so per-seed good/total timelines can be pooled
//! across replications with the existing series machinery.
//!
//! The module also hosts [`RatchetDetector`], a queue-depth anomaly
//! detector for the failure mode burn rates are slow to name: a FIFO
//! queue that *ratchets* — mean depth climbing monotonically window
//! over window — is collapsing long before p99 shows it.

use crate::timeseries::WindowValue;
use std::collections::VecDeque;

/// Good/total completion counts for one window of simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetWindow {
    /// Completions that met their SLO in this window.
    pub good: u64,
    /// All completions in this window.
    pub total: u64,
}

impl WindowValue for BudgetWindow {
    fn merge(&mut self, other: &Self) {
        self.good += other.good;
        self.total += other.total;
    }
}

/// One long/short window pair with a burn-rate threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRule {
    /// Display name, e.g. `"fast"` or `"slow"`.
    pub name: String,
    /// Long (significance) window, seconds of simulated time.
    pub long_s: f64,
    /// Short (recency) window, seconds of simulated time.
    pub short_s: f64,
    /// Fires when burn over *both* windows reaches this multiple of the
    /// sustainable rate.
    pub max_burn: f64,
}

/// An SLO objective plus the burn-rate rules that guard it.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Target good fraction, e.g. `0.95` for a 95% attainment SLO. The
    /// error budget is `1 - objective`.
    pub objective: f64,
    /// Base evaluation window width (seconds). Rule windows are rounded
    /// to whole multiples of this; rules are evaluated each time a base
    /// window closes.
    pub window_s: f64,
    /// Rules, evaluated independently; any of them can fire.
    pub rules: Vec<BurnRule>,
}

impl SloPolicy {
    /// The classic two-pair paging policy scaled to a simulation
    /// horizon: the horizon plays the role of the 30-day budget period,
    /// giving a fast pair (14.4x over `horizon/24`, short `horizon/96`)
    /// and a slow pair (6x over `horizon/8`, short `horizon/32`). The
    /// base window is the fast short window.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < objective < 1` and `horizon_s > 0`.
    #[must_use]
    pub fn paging(objective: f64, horizon_s: f64) -> Self {
        assert!(
            objective > 0.0 && objective < 1.0,
            "objective must be in (0, 1), got {objective}"
        );
        assert!(horizon_s > 0.0, "horizon must be positive");
        let window_s = horizon_s / 96.0;
        SloPolicy {
            objective,
            window_s,
            rules: vec![
                BurnRule {
                    name: "fast".to_string(),
                    long_s: horizon_s / 24.0,
                    short_s: horizon_s / 96.0,
                    max_burn: 14.4,
                },
                BurnRule {
                    name: "slow".to_string(),
                    long_s: horizon_s / 8.0,
                    short_s: horizon_s / 32.0,
                    max_burn: 6.0,
                },
            ],
        }
    }

    /// Error budget: `1 - objective`.
    #[must_use]
    pub fn budget(&self) -> f64 {
        1.0 - self.objective
    }

    /// Checks what [`BurnRateEngine::new`] needs: an objective in
    /// `(0, 1)`, a positive base window and at least one rule.
    ///
    /// # Errors
    ///
    /// Names the first requirement the policy misses, with its value.
    pub fn check(&self) -> Result<(), String> {
        // Spelled so NaN fails too.
        if !(self.objective > 0.0 && self.objective < 1.0) {
            return Err(format!("SLO objective must be in (0, 1), got {}", self.objective));
        }
        if self.window_s.is_nan() || self.window_s <= 0.0 {
            return Err(format!("SLO base window must be positive, got {}", self.window_s));
        }
        if self.rules.is_empty() {
            return Err("SLO policy needs at least one burn-rate rule".into());
        }
        Ok(())
    }
}

/// Fire/clear transition of an alerting rule or detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The rule's condition became true.
    Fire,
    /// The rule's condition became false after firing.
    Clear,
}

impl AlertKind {
    /// Lower-case label (`"fire"` / `"clear"`) for traces and metrics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::Fire => "fire",
            AlertKind::Clear => "clear",
        }
    }
}

/// One burn-rate alert transition, stamped with the simulated time of
/// the window close that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Simulated time of the evaluation (the window-close instant).
    pub t_s: f64,
    /// Index into [`SloPolicy::rules`].
    pub rule: usize,
    /// Fire or clear.
    pub kind: AlertKind,
    /// Burn rate over the rule's long window at evaluation time.
    pub long_burn: f64,
    /// Burn rate over the rule's short window at evaluation time.
    pub short_burn: f64,
}

/// Per-rule window lengths in base windows, precomputed.
#[derive(Debug, Clone)]
struct RuleWindows {
    long_n: usize,
    short_n: usize,
}

/// Online multi-window burn-rate evaluator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct BurnRateEngine {
    policy: SloPolicy,
    rule_windows: Vec<RuleWindows>,
    /// Closed base windows, most recent last; bounded by the longest
    /// rule window.
    ring: VecDeque<BudgetWindow>,
    ring_cap: usize,
    /// The window currently accumulating.
    cur: BudgetWindow,
    /// Index of the accumulating window (`floor(t / window_s)`).
    cur_idx: u64,
    firing: Vec<bool>,
    events: Vec<AlertEvent>,
    finished: bool,
}

impl BurnRateEngine {
    /// Builds an engine for `policy`. Rule windows shorter than the base
    /// window round up to one window.
    ///
    /// # Panics
    ///
    /// Panics with [`SloPolicy::check`]'s message unless
    /// `0 < objective < 1`, `window_s > 0`, and the policy has at least
    /// one rule.
    #[must_use]
    pub fn new(policy: SloPolicy) -> Self {
        if let Err(e) = policy.check() {
            panic!("{e}");
        }
        let rule_windows: Vec<RuleWindows> = policy
            .rules
            .iter()
            .map(|r| RuleWindows {
                long_n: ((r.long_s / policy.window_s).round() as usize).max(1),
                short_n: ((r.short_s / policy.window_s).round() as usize).max(1),
            })
            .collect();
        let ring_cap = rule_windows
            .iter()
            .map(|w| w.long_n.max(w.short_n))
            .max()
            .expect("at least one rule");
        let n_rules = policy.rules.len();
        BurnRateEngine {
            policy,
            rule_windows,
            ring: VecDeque::with_capacity(ring_cap),
            ring_cap,
            cur: BudgetWindow::default(),
            cur_idx: 0,
            firing: vec![false; n_rules],
            events: Vec::new(),
            finished: false,
        }
    }

    /// The policy this engine evaluates.
    #[must_use]
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Records one completion at simulated time `t_s` (non-decreasing
    /// across calls): `good` means the request met its SLO. Closes and
    /// evaluates any base windows that `t_s` has moved past.
    pub fn record(&mut self, t_s: f64, good: bool) {
        debug_assert!(!self.finished, "record after finish");
        self.advance_to(t_s);
        self.cur.total += 1;
        if good {
            self.cur.good += 1;
        }
    }

    /// Closes every base window that ends at or before `t_s`,
    /// evaluating rules at each close. Half-open windows: a completion
    /// exactly at `k·window_s` belongs to window `k`, so window `k-1`
    /// closes first.
    fn advance_to(&mut self, t_s: f64) {
        let idx = (t_s.max(0.0) / self.policy.window_s) as u64;
        while self.cur_idx < idx {
            self.close_current();
        }
    }

    /// Pushes the accumulating window into the ring and evaluates all
    /// rules at its close instant.
    fn close_current(&mut self) {
        let closed = std::mem::take(&mut self.cur);
        if self.ring.len() == self.ring_cap {
            self.ring.pop_front();
        }
        self.ring.push_back(closed);
        self.cur_idx += 1;
        let close_t = self.cur_idx as f64 * self.policy.window_s;
        self.evaluate(close_t);
    }

    /// Burn rate over the most recent `n` closed windows: error fraction
    /// divided by budget; 0 when the span saw no traffic.
    fn burn_over(&self, n: usize) -> f64 {
        let take = n.min(self.ring.len());
        let mut good = 0u64;
        let mut total = 0u64;
        for w in self.ring.iter().rev().take(take) {
            good += w.good;
            total += w.total;
        }
        if total == 0 {
            return 0.0;
        }
        let err = (total - good) as f64 / total as f64;
        err / self.policy.budget()
    }

    fn evaluate(&mut self, t_s: f64) {
        for (i, rw) in self.rule_windows.iter().enumerate() {
            let long_burn = self.burn_over(rw.long_n);
            let short_burn = self.burn_over(rw.short_n);
            let threshold = self.policy.rules[i].max_burn;
            let hot = long_burn >= threshold && short_burn >= threshold;
            if hot != self.firing[i] {
                self.firing[i] = hot;
                self.events.push(AlertEvent {
                    t_s,
                    rule: i,
                    kind: if hot { AlertKind::Fire } else { AlertKind::Clear },
                    long_burn,
                    short_burn,
                });
            }
        }
    }

    /// Closes the trailing partial window at the end of the run and
    /// runs one final evaluation stamped at `t_end_s`. Idempotent.
    pub fn finish(&mut self, t_end_s: f64) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.advance_to(t_end_s);
        if self.cur.total > 0 {
            // Partial window: fold it in and evaluate at the actual end
            // time rather than a nominal close instant never reached.
            let closed = std::mem::take(&mut self.cur);
            if self.ring.len() == self.ring_cap {
                self.ring.pop_front();
            }
            self.ring.push_back(closed);
            self.evaluate(t_end_s);
        }
    }

    /// All fire/clear transitions so far, in evaluation order.
    #[must_use]
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Whether rule `i` is currently firing.
    #[must_use]
    pub fn is_firing(&self, rule: usize) -> bool {
        self.firing.get(rule).copied().unwrap_or(false)
    }

    /// Simulated time of the first `Fire` across all rules, if any.
    #[must_use]
    pub fn time_to_first_alert_s(&self) -> Option<f64> {
        self.events
            .iter()
            .find(|e| e.kind == AlertKind::Fire)
            .map(|e| e.t_s)
    }
}

/// One ratchet-detector transition.
#[derive(Debug, Clone, PartialEq)]
pub struct RatchetEvent {
    /// Simulated time of the window close that produced the transition.
    pub t_s: f64,
    /// Fire or clear.
    pub kind: AlertKind,
    /// Mean queue depth of the window that triggered the transition.
    pub depth: f64,
    /// Mean depth at the start of the growth streak.
    pub baseline: f64,
}

/// Flags a queue whose mean depth *ratchets* — grows monotonically for
/// `streak` consecutive windows to at least `growth ×` the depth at the
/// streak's start (and at least `min_depth` in absolute terms, so an
/// idle queue wobbling between 0.001 and 0.002 stays quiet). Clears as
/// soon as a window fails to grow. This is the signature of a queue
/// whose arrival rate exceeds service rate — the FIFO collapse the
/// serve-timeline experiment demonstrates — visible windows before any
/// latency quantile reports it.
#[derive(Debug, Clone)]
pub struct RatchetDetector {
    streak_needed: usize,
    growth: f64,
    min_depth: f64,
    last: Option<f64>,
    baseline: f64,
    streak: usize,
    firing: bool,
    events: Vec<RatchetEvent>,
}

impl RatchetDetector {
    /// A detector requiring `streak` consecutive growing windows, total
    /// growth factor `growth`, and absolute mean depth `min_depth`.
    ///
    /// # Panics
    ///
    /// Panics unless `streak >= 1`, `growth >= 1`, and
    /// `min_depth >= 0`.
    #[must_use]
    pub fn new(streak: usize, growth: f64, min_depth: f64) -> Self {
        assert!(streak >= 1, "streak must be at least 1");
        assert!(growth >= 1.0, "growth factor must be >= 1");
        assert!(min_depth >= 0.0, "min depth must be non-negative");
        RatchetDetector {
            streak_needed: streak,
            growth,
            min_depth,
            last: None,
            baseline: 0.0,
            streak: 0,
            firing: false,
            events: Vec::new(),
        }
    }

    /// Feeds the mean queue depth of the window closing at `t_s`.
    pub fn push(&mut self, t_s: f64, mean_depth: f64) {
        if let Some(prev) = self.last {
            if mean_depth > prev {
                if self.streak == 0 {
                    self.baseline = prev;
                }
                self.streak += 1;
            } else {
                self.streak = 0;
                if self.firing {
                    self.firing = false;
                    self.events.push(RatchetEvent {
                        t_s,
                        kind: AlertKind::Clear,
                        depth: mean_depth,
                        baseline: self.baseline,
                    });
                }
            }
        }
        self.last = Some(mean_depth);
        let grown = mean_depth >= (self.baseline * self.growth).max(self.min_depth);
        if !self.firing && self.streak >= self.streak_needed && grown {
            self.firing = true;
            self.events.push(RatchetEvent {
                t_s,
                kind: AlertKind::Fire,
                depth: mean_depth,
                baseline: self.baseline,
            });
        }
    }

    /// All fire/clear transitions so far.
    #[must_use]
    pub fn events(&self) -> &[RatchetEvent] {
        &self.events
    }

    /// Whether the detector is currently firing.
    #[must_use]
    pub fn is_firing(&self) -> bool {
        self.firing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-rule policy with hand-pickable windows: base 1 s, long 4 s,
    /// short 2 s, threshold `burn`.
    fn policy(objective: f64, burn: f64) -> SloPolicy {
        SloPolicy {
            objective,
            window_s: 1.0,
            rules: vec![BurnRule {
                name: "test".to_string(),
                long_s: 4.0,
                short_s: 2.0,
                max_burn: burn,
            }],
        }
    }

    #[test]
    #[should_panic(expected = "SLO objective must be in (0, 1), got 1.5")]
    fn the_engine_panics_with_the_check_message() {
        let _ = BurnRateEngine::new(policy(1.5, 5.0));
    }

    #[test]
    fn all_bad_traffic_fires_at_the_first_window_close() {
        // Budget 0.1; all-bad traffic burns at 10x; threshold 5x.
        let mut e = BurnRateEngine::new(policy(0.9, 5.0));
        for i in 0..10 {
            e.record(i as f64 * 0.2, false);
        }
        // Crossing into window 1 closes window 0 and fires.
        e.record(1.0, false);
        let ev = e.events();
        assert_eq!(ev.len(), 1, "exactly one transition: {ev:?}");
        assert_eq!(ev[0].kind, AlertKind::Fire);
        assert_eq!(ev[0].t_s, 1.0, "fires at the window-close instant");
        assert!((ev[0].long_burn - 10.0).abs() < 1e-12);
        assert!((ev[0].short_burn - 10.0).abs() < 1e-12);
        assert_eq!(e.time_to_first_alert_s(), Some(1.0));
        assert!(e.is_firing(0));
    }

    #[test]
    fn boundary_completion_lands_in_the_later_window() {
        // Windows are half-open: a completion at exactly t = 1.0 belongs
        // to window 1, so window 0 closes empty-of-it.
        let mut e = BurnRateEngine::new(policy(0.9, 5.0));
        e.record(0.5, false);
        e.record(1.0, false); // closes window 0 with exactly one bad completion
        assert_eq!(e.events().len(), 1, "window 0 alone burns 10x > 5x");
        e.finish(2.0);
        // finish closes window 1 (the t=1.0 completion) at its nominal
        // boundary; no partial window remains.
        let fires = e.events().iter().filter(|v| v.kind == AlertKind::Fire).count();
        assert_eq!(fires, 1, "still a single fire: {:?}", e.events());
    }

    #[test]
    fn good_traffic_clears_through_the_short_window_first() {
        let mut e = BurnRateEngine::new(policy(0.9, 5.0));
        // Two windows of all-bad traffic → fire.
        for t in [0.1, 0.6, 1.1, 1.6] {
            e.record(t, false);
        }
        e.record(2.0, true); // closes window 1, fire already latched
        assert!(e.is_firing(0));
        // Two windows of all-good traffic: the short (2-window) burn
        // falls to 0 while the long (4-window) still remembers the bad
        // spell — the AND condition clears on the short window.
        for t in [2.2, 2.7, 3.2, 3.7] {
            e.record(t, true);
        }
        e.finish(4.0);
        let kinds: Vec<AlertKind> = e.events().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec![AlertKind::Fire, AlertKind::Clear], "{:?}", e.events());
        assert!(!e.is_firing(0));
        let clear = &e.events()[1];
        assert!(
            clear.long_burn >= 5.0,
            "the long window is still hot at clear time: {clear:?}"
        );
        assert!(
            clear.short_burn < 5.0,
            "it is the short (recency) window that clears the alert: {clear:?}"
        );
    }

    #[test]
    fn idle_gaps_close_empty_windows_without_alerting() {
        let mut e = BurnRateEngine::new(policy(0.9, 5.0));
        e.record(0.5, true);
        // A long silence: windows 0..9 close empty; no-traffic burn is 0.
        e.record(10.5, true);
        assert!(e.events().is_empty());
        e.finish(11.0);
        assert!(e.events().is_empty());
        assert_eq!(e.time_to_first_alert_s(), None);
    }

    #[test]
    fn finish_evaluates_the_trailing_partial_window() {
        let mut e = BurnRateEngine::new(policy(0.9, 5.0));
        // All traffic inside window 0; the run ends mid-window.
        for t in [0.1, 0.2, 0.3] {
            e.record(t, false);
        }
        assert!(e.events().is_empty(), "nothing closed yet");
        e.finish(0.7);
        assert_eq!(e.events().len(), 1);
        assert_eq!(e.events()[0].t_s, 0.7, "stamped at the actual end time");
        // Idempotent.
        e.finish(0.7);
        assert_eq!(e.events().len(), 1);
    }

    #[test]
    fn paging_policy_scales_to_the_horizon() {
        let p = SloPolicy::paging(0.95, 240.0);
        assert!((p.budget() - 0.05).abs() < 1e-12);
        assert_eq!(p.rules.len(), 2);
        assert!((p.rules[0].long_s - 10.0).abs() < 1e-9);
        assert!((p.rules[0].short_s - 2.5).abs() < 1e-9);
        assert!((p.rules[1].long_s - 30.0).abs() < 1e-9);
        assert!((p.rules[1].short_s - 7.5).abs() < 1e-9);
        // The engine accepts it and the ring covers the slow long window.
        let e = BurnRateEngine::new(p);
        assert_eq!(e.ring_cap, 12);
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut e = BurnRateEngine::new(policy(0.99, 2.0));
            for i in 0..1000 {
                let t = i as f64 * 0.013;
                e.record(t, i % 7 != 0);
            }
            e.finish(13.0);
            e.events().to_vec()
        };
        assert_eq!(run(), run(), "same inputs, same alert timeline");
    }

    #[test]
    fn ratchet_fires_on_monotone_growth_and_clears_on_a_dip() {
        let mut d = RatchetDetector::new(3, 2.0, 1.0);
        // Monotone growth: 1 → 2 → 4 → 8; streak reaches 3 at depth 8
        // with baseline 1 (growth 8x ≥ 2x, depth ≥ 1).
        for (t, depth) in [(1.0, 1.0), (2.0, 2.0), (3.0, 4.0), (4.0, 8.0)] {
            d.push(t, depth);
        }
        assert!(d.is_firing());
        assert_eq!(d.events().len(), 1);
        assert_eq!(d.events()[0].kind, AlertKind::Fire);
        assert_eq!(d.events()[0].t_s, 4.0);
        assert_eq!(d.events()[0].baseline, 1.0);
        // Any non-growing window clears.
        d.push(5.0, 7.0);
        assert!(!d.is_firing());
        assert_eq!(d.events().len(), 2);
        assert_eq!(d.events()[1].kind, AlertKind::Clear);
    }

    #[test]
    fn ratchet_ignores_shallow_wobble() {
        let mut d = RatchetDetector::new(2, 2.0, 1.0);
        // Monotone but microscopic: never reaches min_depth 1.0.
        for (t, depth) in [(1.0, 0.001), (2.0, 0.002), (3.0, 0.004), (4.0, 0.008)] {
            d.push(t, depth);
        }
        assert!(!d.is_firing(), "sub-min-depth growth must stay quiet");
        assert!(d.events().is_empty());
    }

    #[test]
    fn ratchet_requires_the_growth_factor() {
        let mut d = RatchetDetector::new(2, 3.0, 1.0);
        // Growing, deep enough, but only 1.5x over the streak baseline.
        for (t, depth) in [(1.0, 4.0), (2.0, 5.0), (3.0, 6.0)] {
            d.push(t, depth);
        }
        assert!(!d.is_firing(), "1.5x growth under a 3x threshold");
        // Keep ratcheting until the factor is met.
        d.push(4.0, 13.0);
        assert!(d.is_firing(), "13 ≥ 3 × baseline 4");
    }

    #[test]
    fn budget_windows_merge_by_summing() {
        let mut a = BudgetWindow { good: 3, total: 5 };
        a.merge(&BudgetWindow { good: 2, total: 2 });
        assert_eq!(a, BudgetWindow { good: 5, total: 7 });
    }
}
