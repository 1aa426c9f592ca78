//! Mergeable streaming quantile sketch (Greenwald–Khanna).
//!
//! [`QuantileSketch`] summarises a stream of `f64` observations in
//! `O((1/eps) * log(eps * n))` space and answers any quantile query with a
//! **deterministic rank-error bound**: for a sketch built by insertion
//! only, the value returned for quantile `q` over `n` observations has
//! true rank within `eps * n + 1` of `q * (n - 1)`.  There is no
//! randomness anywhere in the structure, so a given insertion order
//! always produces the byte-identical summary — a requirement for the
//! serving simulator's reproducibility guarantees.
//!
//! # Merge semantics
//!
//! Two sketches can be merged ([`QuantileSketch::merge`]).  The merged
//! absolute rank error is bounded by the *sum* of the inputs' absolute
//! errors: merging sketches with bounds `e_a * n_a` and `e_b * n_b`
//! yields a bound of `e_a * n_a + e_b * n_b` ranks over `n_a + n_b`
//! observations.  In particular, merging sketches built with the *same*
//! `eps` keeps the relative bound at `eps` (the weighted mean of equal
//! numbers), so replication sweeps can merge per-seed sketches without
//! compounding error.  The summary size after a merge may exceed the
//! pure-streaming bound; `merge` re-compresses to keep it small in
//! practice.
//!
//! # Algorithm
//!
//! The summary is the classic GK tuple list `(v_i, g_i, delta_i)` kept
//! sorted by value, with the invariant `g_i + delta_i <= 2 * eps_n`
//! where `eps_n` is the current absolute error budget in ranks.  Inserts
//! are buffered (up to `1/(2*eps)` values), then folded in — the
//! standard batched GK implementation, which keeps per-observation cost
//! O(1) amortized.
//!
//! A fold sorts the buffer by the integer key of `f64::total_cmp`, which
//! is much faster than sorting floats through a comparator; equal keys
//! are equal bits, so the unstable sort loses no order. It then makes
//! **one sweep** that merges the sorted batch into the summary and
//! compresses it as each tuple is placed. The sweep writes into a spare
//! vector that swaps with the summary, so a fold allocates nothing once
//! its buffers have grown to the summary's size. It produces exactly the
//! tuples of the textbook two-step fold (merge every value, then
//! compress the merged list), which the tests keep as a reference.

/// One GK summary tuple: value, covered-rank weight `g`, and rank
/// uncertainty `delta`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GkTuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// A deterministic, mergeable Greenwald–Khanna quantile sketch.
///
/// See the [module docs](self) for the error bound and merge semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Target relative rank error for streaming inserts.
    eps: f64,
    /// Absolute rank-error budget, in ranks. Grows additively on merge;
    /// equals `eps * count` for a pure insert-only sketch.
    err_ranks: f64,
    /// Summary tuples, ascending by `(v, insertion order)`.
    tuples: Vec<GkTuple>,
    /// Spare summary storage a fold writes into before swapping it with
    /// `tuples`. Empty between calls, like `keys`, so equality and clones
    /// see only the summary.
    spare: Vec<GkTuple>,
    /// The sort keys of a fold's batch.
    keys: Vec<i64>,
    /// Pending raw observations, folded in when `buffer_cap` is reached.
    buffer: Vec<f64>,
    /// Buffer capacity: `max(1, 1/(2*eps))`.
    buffer_cap: usize,
    /// Total observations.
    count: u64,
    /// Exact running sum (for `mean`).
    sum: f64,
    /// Exact minimum observed.
    min: f64,
    /// Exact maximum observed.
    max: f64,
}

impl QuantileSketch {
    /// Creates a sketch targeting relative rank error `eps` (e.g. 0.001
    /// keeps every quantile within 0.1% of the true rank).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 0.5`.
    #[must_use]
    pub fn new(eps: f64) -> Self {
        let buffer_cap = ((1.0 / (2.0 * eps.max(f64::MIN_POSITIVE))) as usize).max(1);
        Self::with_buffer_cap(eps, buffer_cap)
    }

    /// Like [`QuantileSketch::new`], but with an explicit observe-buffer
    /// capacity. The rank-error bound is identical for any capacity —
    /// each fold budgets inserted tuples against the *post-batch* count,
    /// so batch size only trades memory for amortized fold cost. Hot
    /// paths observing tens of millions of values (the fleet fast lane)
    /// use a few-KiB buffer to fold ~40× less often than the
    /// `1/(2·eps)` default.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 0.5` and `buffer_cap > 0`.
    #[must_use]
    pub fn with_buffer_cap(eps: f64, buffer_cap: usize) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5), got {eps}");
        assert!(buffer_cap > 0, "buffer_cap must be positive");
        QuantileSketch {
            eps,
            err_ranks: 0.0,
            tuples: Vec::new(),
            spare: Vec::new(),
            keys: Vec::new(),
            buffer: Vec::with_capacity(buffer_cap),
            buffer_cap,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The `eps` this sketch was created with.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Documented absolute rank-error bound, in ranks: any quantile
    /// answer has true rank within `rank_error_ranks() + 1` of the exact
    /// rank. Equals `eps * count` for an insert-only sketch and the sum
    /// of the inputs' bounds after merges.
    #[must_use]
    pub fn rank_error_ranks(&self) -> f64 {
        self.err_ranks.max(self.eps * self.count as f64)
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count + self.buffer.len() as u64
    }

    /// True when no observation has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of all observations (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// Exact minimum observed (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum observed (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of summary tuples currently held (diagnostic; memory use is
    /// proportional to this, not to `count`).
    #[must_use]
    pub fn summary_len(&self) -> usize {
        self.tuples.len() + self.buffer.len()
    }

    /// Records one observation. Non-finite values are ignored (the
    /// serving paths only ever produce finite latencies; skipping NaN
    /// keeps the total order well defined).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.buffer.push(v);
        if self.buffer.len() >= self.buffer_cap {
            self.flush();
        }
    }

    /// Folds any buffered observations into the summary. Called
    /// automatically by `observe`/`merge`/`quantile`; public so callers
    /// can bound memory at a known point (e.g. end of a simulation).
    pub fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        // Sorting integer keys is much faster than sorting by a comparator.
        self.keys.extend(self.buffer.iter().map(|&v| total_order_key(v)));
        self.keys.sort_unstable();
        for (v, &k) in self.buffer.iter_mut().zip(&self.keys) {
            *v = from_total_order_key(k);
        }
        self.keys.clear();
        self.count += self.buffer.len() as u64;
        // Rank budget all new interior tuples are allowed to claim. Using
        // the post-batch count is safe: the invariant only has to hold
        // against the *current* count at query time, which is >= count.
        let delta_new = ((2.0 * self.eps * self.count as f64).floor() as u64).saturating_sub(1);
        let fresh = |v: f64| GkTuple { v, g: 1, delta: delta_new };
        let budget = (2.0 * self.rank_error_ranks()).floor() as u64;

        std::mem::swap(&mut self.tuples, &mut self.spare);
        let (old, batch, out) = (&self.spare[..], &self.buffer[..], &mut self.tuples);
        // Merge order puts a batch value before every summary tuple it is
        // strictly below and after the ones it ties. The first and last
        // tuples in that order carry delta 0, so min and max stay exact,
        // and are never merged away; each one comes off its own input.
        let (first, old, batch) = if old.first().is_some_and(|t| batch[0].total_cmp(&t.v).is_ge()) {
            (old[0], &old[1..], batch)
        } else {
            (fresh(batch[0]), old, &batch[1..])
        };
        out.push(GkTuple { delta: 0, ..first });
        let last_is_old = match (old.last(), batch.last()) {
            (Some(t), Some(v)) => v.total_cmp(&t.v).is_lt(),
            (t, _) => t.is_some(),
        };
        let (last, old, batch) = match (last_is_old, old.split_last(), batch.split_last()) {
            (true, Some((&t, old)), _) => (Some(t), old, batch),
            (false, _, Some((&v, batch))) => (Some(fresh(v)), old, batch),
            // The first tuple was the only one.
            _ => (None, old, batch),
        };
        // Every tuple in between is placed and compressed in one pass:
        // the pending tuple merges forward into the next one when their
        // combined coverage still satisfies the GK invariant. The first
        // tuple in between never merges into the exact-minimum sentinel.
        let mut pending: Option<GkTuple> = None;
        let mut place = |t: GkTuple| match pending.as_mut() {
            Some(p) if p.g + t.g + t.delta <= budget => {
                *p = GkTuple { v: t.v, g: p.g + t.g, delta: t.delta };
            }
            Some(p) => out.push(std::mem::replace(p, t)),
            None => pending = Some(t),
        };
        let mut bi = 0usize;
        for &t in old {
            while bi < batch.len() && batch[bi].total_cmp(&t.v).is_lt() {
                place(fresh(batch[bi]));
                bi += 1;
            }
            place(t);
        }
        for &v in &batch[bi..] {
            place(fresh(v));
        }
        out.extend(pending);
        out.extend(last.map(|t| GkTuple { delta: 0, ..t }));
        self.spare.clear();
        self.buffer.clear();
    }

    /// Merges neighbouring tuples whose combined span fits the error
    /// budget, keeping the summary at `O((1/eps) log(eps n))` tuples.
    /// `merge` uses it; `flush` compresses in its own sweep.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let budget = (2.0 * self.rank_error_ranks()).floor() as u64;
        let mut out: Vec<GkTuple> = Vec::with_capacity(self.tuples.len());
        out.push(self.tuples[0]);
        // Never merge into the last tuple; it pins the exact maximum.
        let last = self.tuples[self.tuples.len() - 1];
        for &t in &self.tuples[1..self.tuples.len() - 1] {
            // Merge the previous tuple forward into `t` when the combined
            // coverage still satisfies the GK invariant and the previous
            // tuple is not the exact-minimum sentinel.
            let mergeable = out.len() > 1
                && out.last().is_some_and(|prev| prev.g + t.g + t.delta <= budget);
            if mergeable {
                let prev = out.last_mut().expect("len > 1");
                let g = prev.g + t.g;
                *prev = GkTuple { v: t.v, g, delta: t.delta };
            } else {
                out.push(t);
            }
        }
        out.push(last);
        self.tuples = out;
    }

    /// Merges `other` into `self`.
    ///
    /// The merged absolute rank-error bound is the sum of the two
    /// inputs' bounds (see the [module docs](self)); sketches built with
    /// equal `eps` therefore merge without losing the relative bound.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.is_empty() {
            return;
        }
        let mut rhs = other.clone();
        rhs.flush();
        self.flush();
        let rhs_err = rhs.rank_error_ranks();
        if self.tuples.is_empty() {
            self.tuples = rhs.tuples;
            self.count = rhs.count;
            self.err_ranks = rhs_err;
            self.sum += rhs.sum;
            self.min = self.min.min(rhs.min);
            self.max = self.max.max(rhs.max);
            return;
        }

        let a = std::mem::take(&mut self.tuples);
        let b = rhs.tuples;
        let mut merged: Vec<GkTuple> = Vec::with_capacity(a.len() + b.len());
        let (mut ai, mut bi) = (0usize, 0usize);
        // Standard mergeable-summary combine: a tuple keeps its own
        // uncertainty plus the rank spread of the *other* summary around
        // its position, i.e. the next not-yet-consumed tuple on the other
        // side contributes `g + delta - 1`.
        while ai < a.len() || bi < b.len() {
            let take_a = match (a.get(ai), b.get(bi)) {
                (Some(x), Some(y)) => x.v.total_cmp(&y.v).is_le(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("loop guard"),
            };
            let (t, other_next) = if take_a {
                ai += 1;
                (a[ai - 1], b.get(bi))
            } else {
                bi += 1;
                (b[bi - 1], a.get(ai))
            };
            let extra = other_next.map_or(0, |n| (n.g + n.delta).saturating_sub(1));
            merged.push(GkTuple { v: t.v, g: t.g, delta: t.delta + extra });
        }
        if let Some(first) = merged.first_mut() {
            first.delta = 0;
        }
        if let Some(last) = merged.last_mut() {
            last.delta = 0;
        }
        self.err_ranks = self.rank_error_ranks() + rhs_err;
        self.count += rhs.count;
        self.sum += rhs.sum;
        self.min = self.min.min(rhs.min);
        self.max = self.max.max(rhs.max);
        self.tuples = merged;
        self.compress();
    }

    /// Returns a value whose rank is within `rank_error_ranks() + 1` of
    /// rank `q * (count - 1)`, or `None` for an empty sketch — an empty
    /// stream has no quantiles, and the old 0.0 answer silently poisoned
    /// downstream SLO math. `q` is clamped to `[0, 1]`; `q == 0` and
    /// `q == 1` are exact (min/max).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // Fold pending buffer into a scratch clone; queries are rare
        // (report time) while observes are hot, so the cost lands here.
        if !self.buffer.is_empty() {
            let mut scratch = self.clone();
            scratch.flush();
            return scratch.quantile(q);
        }
        let n = self.count as f64;
        // Nearest-rank target matching `quantile_sorted` (1-based).
        let r = (q * (n - 1.0)).round() + 1.0;
        let allowed = self.rank_error_ranks() + 1.0;
        let mut rmin = 0u64;
        let mut best = self.tuples[self.tuples.len() - 1].v;
        for t in &self.tuples {
            rmin += t.g;
            let rmax = rmin + t.delta;
            if r - (rmin as f64) <= allowed && (rmax as f64) - r <= allowed {
                best = t.v;
                break;
            }
            if (rmin as f64) > r + allowed {
                break;
            }
        }
        Some(best)
    }
}

/// The order of `f64::total_cmp` as an integer: flipping the magnitude
/// bits of negative values makes signed comparison of the bit patterns
/// agree with `total_cmp`.
fn total_order_key(v: f64) -> i64 {
    flip_negative_magnitudes(v.to_bits() as i64)
}

/// The value whose [`total_order_key`] is `key`.
fn from_total_order_key(key: i64) -> f64 {
    f64::from_bits(flip_negative_magnitudes(key) as u64)
}

/// Flips every bit but the sign when the sign bit is set: its own
/// inverse, since the sign bit decides the mask and stays as it is.
fn flip_negative_magnitudes(bits: i64) -> i64 {
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl QuantileSketch {
        /// The textbook two-step fold that `flush` fuses: merge every
        /// buffered value into a new summary, then compress that list.
        fn flush_two_pass(&mut self) {
            if self.buffer.is_empty() {
                return;
            }
            let mut batch = std::mem::take(&mut self.buffer);
            batch.sort_by(f64::total_cmp);
            let n_new = self.count + batch.len() as u64;
            let budget = (2.0 * self.eps * n_new as f64).floor() as u64;
            let delta_new = budget.saturating_sub(1);

            let old = std::mem::take(&mut self.tuples);
            let mut merged = Vec::with_capacity(old.len() + batch.len());
            let mut bi = 0usize;
            for t in old {
                while bi < batch.len() && batch[bi].total_cmp(&t.v).is_lt() {
                    merged.push(GkTuple { v: batch[bi], g: 1, delta: delta_new });
                    bi += 1;
                }
                merged.push(t);
            }
            while bi < batch.len() {
                merged.push(GkTuple { v: batch[bi], g: 1, delta: delta_new });
                bi += 1;
            }
            if let Some(first) = merged.first_mut() {
                first.delta = 0;
            }
            if let Some(last) = merged.last_mut() {
                last.delta = 0;
            }
            self.tuples = merged;
            self.count = n_new;
            self.buffer = Vec::with_capacity(self.buffer_cap);
            self.compress();
        }

        /// `observe`, folding with the two-step reference.
        fn observe_two_pass(&mut self, v: f64) {
            self.sum += v;
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
            self.buffer.push(v);
            if self.buffer.len() >= self.buffer_cap {
                self.flush_two_pass();
            }
        }

        /// `merge`, with both sides folded by the two-step reference first
        /// (`merge`'s own folds then find nothing buffered).
        fn merge_two_pass(&mut self, other: &QuantileSketch) {
            if other.is_empty() {
                return;
            }
            let mut rhs = other.clone();
            rhs.flush_two_pass();
            self.flush_two_pass();
            self.merge(&rhs);
        }
    }

    /// A value for one proptest step: ties, signed zeros, negatives. A
    /// tie-heavy stream draws from -2, -1, ±0, 1 and 2 only, so batches
    /// often tie the summary's minimum and maximum too.
    fn step_value(x: u64, tie_heavy: bool) -> f64 {
        match x % 8 {
            0 => 0.0,
            1 => -0.0,
            2..=4 => ((x >> 8) % 5) as f64 - 2.0,
            _ if tie_heavy => ((x >> 8) % 5) as f64 - 2.0,
            _ => ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 200.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// The one-sweep fold leaves exactly the summary of the two-step
        /// fold after every insert, explicit flush and merge.
        #[test]
        fn one_pass_fold_matches_the_two_step_fold(
            eps_i in 0usize..4,
            cap_i in 0usize..5,
            ties in 0usize..2,
            steps in proptest::collection::vec(0u64..u64::MAX, 1..2500),
            side in proptest::collection::vec(0u64..u64::MAX, 0..700),
        ) {
            let eps = [0.001, 0.005, 0.01, 0.2][eps_i];
            let make = || match [1, 2, 3, 0, 4096][cap_i] {
                0 => QuantileSketch::new(eps),
                cap => QuantileSketch::with_buffer_cap(eps, cap),
            };
            let value = |x: u64| step_value(x, ties == 1);
            let (mut partner, mut partner_ref) = (make(), make());
            for &x in &side {
                partner.observe(value(x));
                partner_ref.observe_two_pass(value(x));
            }
            prop_assert_eq!(&partner, &partner_ref);
            let (mut s, mut r) = (make(), make());
            for &x in &steps {
                match x % 61 {
                    0 => {
                        s.flush();
                        r.flush_two_pass();
                    }
                    1 => {
                        s.merge(&partner);
                        r.merge_two_pass(&partner_ref);
                    }
                    _ => {
                        s.observe(value(x / 61));
                        r.observe_two_pass(value(x / 61));
                    }
                }
                prop_assert_eq!(&s, &r);
            }
            s.flush();
            r.flush_two_pass();
            prop_assert_eq!(&s, &r);
        }
    }

    /// Exact rank band of `v` in sorted data: (first index, last index).
    fn rank_band(sorted: &[f64], v: f64) -> (f64, f64) {
        let lo = sorted.partition_point(|x| x.total_cmp(&v).is_lt());
        let hi = sorted.partition_point(|x| x.total_cmp(&v).is_le());
        (lo as f64, (hi.max(lo + 1) - 1) as f64)
    }

    fn assert_within_bound(sketch: &QuantileSketch, sorted: &[f64], q: f64) {
        let got = sketch.quantile(q).expect("non-empty sketch");
        let target = q * (sorted.len() as f64 - 1.0);
        let (lo, hi) = rank_band(sorted, got);
        let bound = sketch.rank_error_ranks() + 1.0;
        let dist = if target < lo {
            lo - target
        } else if target > hi {
            target - hi
        } else {
            0.0
        };
        assert!(
            dist <= bound,
            "q={q}: got {got} with rank band [{lo}, {hi}], target rank {target}, \
             bound {bound} (off by {dist})"
        );
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn large_observe_buffer_keeps_the_rank_bound() {
        // The fleet fast lane batches folds through a multi-KiB buffer;
        // the eps guarantee must not depend on the buffer capacity.
        let mut state = 7u64;
        let mut small = QuantileSketch::new(0.01);
        let mut big = QuantileSketch::with_buffer_cap(0.01, 4096);
        let mut data = Vec::new();
        for _ in 0..60_000 {
            let v = (splitmix(&mut state) as f64 / u64::MAX as f64).powi(3) * 100.0;
            small.observe(v);
            big.observe(v);
            data.push(v);
        }
        data.sort_by(f64::total_cmp);
        // Flush so `rank_error_ranks` sees the full count (queries fold
        // pending buffers into a scratch clone with the same count).
        small.flush();
        big.flush();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            assert_within_bound(&small, &data, q);
            assert_within_bound(&big, &data, q);
        }
        assert_eq!(big.count(), 60_000);
        assert_eq!(big.min(), data[0]);
        assert_eq!(big.max(), data[data.len() - 1]);
    }

    fn uniform(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn quantiles_within_bound_on_heavy_tailed_data() {
        let mut state = 42u64;
        let mut sketch = QuantileSketch::new(0.005);
        let mut data: Vec<f64> = Vec::new();
        for _ in 0..50_000 {
            // Log-normal-ish: heavy upper tail like serving latencies.
            let v = (-(1.0 - uniform(&mut state)).ln()).powf(2.0);
            sketch.observe(v);
            data.push(v);
        }
        data.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_within_bound(&sketch, &data, q);
        }
        assert_eq!(sketch.count(), 50_000);
        assert_eq!(sketch.min(), data[0]);
        assert_eq!(sketch.max(), *data.last().unwrap());
        let exact_mean = data.iter().sum::<f64>() / data.len() as f64;
        assert!((sketch.mean() - exact_mean).abs() < 1e-9);
    }

    #[test]
    fn summary_is_sublinear_in_n() {
        let mut state = 7u64;
        let mut sketch = QuantileSketch::new(0.001);
        for _ in 0..200_000 {
            sketch.observe(uniform(&mut state));
        }
        sketch.flush();
        assert!(
            sketch.summary_len() < 20_000,
            "summary grew to {} tuples for 200k inserts",
            sketch.summary_len()
        );
    }

    #[test]
    fn merge_matches_bound_and_is_deterministic() {
        let mut state = 9u64;
        let mut all: Vec<f64> = Vec::new();
        let mut parts: Vec<QuantileSketch> = Vec::new();
        for _ in 0..4 {
            let mut s = QuantileSketch::new(0.002);
            for _ in 0..10_000 {
                let v = uniform(&mut state) * 3.0;
                s.observe(v);
                all.push(v);
            }
            parts.push(s);
        }
        let mut merged = QuantileSketch::new(0.002);
        for p in &parts {
            merged.merge(p);
        }
        let mut merged2 = QuantileSketch::new(0.002);
        for p in &parts {
            merged2.merge(p);
        }
        assert_eq!(merged, merged2, "merge must be deterministic");
        all.sort_by(f64::total_cmp);
        // Documented: absolute errors add — 4 parts of eps*10k each.
        let expect = 0.002 * 40_000.0;
        assert!(
            merged.rank_error_ranks() <= expect + 1e-9,
            "bound {} exceeds sum-of-parts {expect}",
            merged.rank_error_ranks()
        );
        for q in [0.5, 0.9, 0.95, 0.99] {
            assert_within_bound(&merged, &all, q);
        }
        assert_eq!(merged.count(), 40_000);
    }

    #[test]
    fn tiny_streams_are_exact_at_extremes() {
        let mut s = QuantileSketch::new(0.01);
        for v in [5.0, 1.0, 3.0] {
            s.observe(v);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.count(), 3);
        let med = s.quantile(0.5).expect("non-empty");
        assert!((1.0..=5.0).contains(&med));
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new(0.01);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None, "empty sketch must answer None");
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.mean(), 0.0);
        let mut m = QuantileSketch::new(0.01);
        m.merge(&s);
        assert!(m.is_empty());
        assert_eq!(m.quantile(0.99), None, "merging an empty sketch stays empty");
    }

    #[test]
    #[should_panic(expected = "eps must be in (0, 0.5)")]
    fn rejects_bad_eps() {
        let _ = QuantileSketch::new(0.5);
    }

    #[test]
    fn nan_and_infinity_are_ignored() {
        let mut s = QuantileSketch::new(0.01);
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        s.observe(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), Some(2.0));
    }
}
