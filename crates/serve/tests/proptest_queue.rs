//! Property tests: the event queue pops event-for-event what a plain
//! list model pops under random schedule/pop interleavings.
//!
//! The model keeps every pending event in a `Vec` and pops the minimum
//! by `(time.total_cmp, insertion sequence)` with a linear scan, so it
//! is correct by inspection. Driving both with the same operation
//! stream must give the identical pop sequence (times compared bit for
//! bit, so `-0.0` and `+0.0` stay apart), lengths and clock readings at
//! every step.

use mmg_serve::EventQueue;
use proptest::prelude::*;

/// The oracle: pending `(time, seq, event)` triples in schedule order.
#[derive(Default)]
struct Model {
    pending: Vec<(f64, u64, (usize, u64))>,
    seq: u64,
    now_s: f64,
}

impl Model {
    fn schedule(&mut self, at_s: f64, event: (usize, u64)) {
        self.pending.push((at_s, self.seq, event));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, (usize, u64))> {
        let i = (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = self.pending[a];
            let (tb, sb, _) = self.pending[b];
            ta.total_cmp(&tb).then(sa.cmp(&sb))
        })?;
        let (t, _, event) = self.pending.remove(i);
        self.now_s = t;
        Some((t, event))
    }
}

fn bits(popped: Option<(f64, (usize, u64))>) -> Option<(u64, (usize, u64))> {
    popped.map(|(t, e)| (t.to_bits(), e))
}

/// Drives the queue and the model with the same op stream and asserts
/// lockstep equality. `ops` entries: (time step, pop decision);
/// `time_of(now, step)` turns a step into an absolute time no earlier
/// than `now`. `horizon_jump` occasionally adds an event far in the
/// future.
fn drive(ops: &[(u32, u32)], time_of: impl Fn(f64, u32) -> f64, horizon_jump: bool) {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    let mut scheduled = 0u64;
    let mut popped = 0u64;
    for (i, &(step, decide)) in ops.iter().enumerate() {
        let at = time_of(queue.now_s(), step);
        queue.schedule(at, (i, scheduled));
        model.schedule(at, (i, scheduled));
        scheduled += 1;
        if horizon_jump && decide % 17 == 0 {
            let far = queue.now_s() + 1.0e6 + f64::from(step);
            queue.schedule(far, (usize::MAX, scheduled));
            model.schedule(far, (usize::MAX, scheduled));
            scheduled += 1;
        }
        if decide % 3 != 0 {
            let a = bits(queue.pop());
            assert_eq!(a, bits(model.pop()), "pop diverged at op {i}");
            popped += u64::from(a.is_some());
        }
        assert_eq!(
            queue.now_s().to_bits(),
            model.now_s.to_bits(),
            "clock diverged at op {i}"
        );
        assert_eq!(queue.len(), model.pending.len(), "len diverged at op {i}");
    }
    // Drain: every remaining event must come out identically.
    loop {
        let a = bits(queue.pop());
        assert_eq!(a, bits(model.pop()), "drain diverged after {popped} pops");
        if a.is_none() {
            break;
        }
        popped += 1;
    }
    assert_eq!(popped, scheduled, "event conservation");
    assert!(queue.is_empty() && queue.peek_time_s().is_none());
}

/// Steps on a grid of `quantum` seconds, so same-instant ties happen
/// constantly, which is exactly where the `(time, seq)` tiebreak
/// matters.
fn on_grid(quantum: f64) -> impl Fn(f64, u32) -> f64 {
    move |now, step| now + f64::from(step) * quantum
}

/// Signed zeros while the clock reads zero, `+inf`, and half-second
/// steps (which stay at `+inf` once the clock gets there).
fn zeros_and_infinity(now: f64, step: u32) -> f64 {
    match step % 4 {
        0 if now == 0.0 => -0.0,
        1 if now == 0.0 => 0.0,
        2 => f64::INFINITY,
        _ => now + f64::from(step) * 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense tie-heavy streams: tiny quantized steps collide constantly.
    #[test]
    fn queue_matches_model_dense(
        steps in proptest::collection::vec((0u32..4, 0u32..100), 200..800),
    ) {
        drive(&steps, on_grid(0.25), false);
    }

    /// Spread-out streams with occasional far-future events.
    #[test]
    fn queue_matches_model_sparse(
        steps in proptest::collection::vec((0u32..1000, 0u32..100), 100..400),
    ) {
        drive(&steps, on_grid(0.013), true);
    }

    /// Sub-nanosecond quanta.
    #[test]
    fn queue_matches_model_fine_grained(
        steps in proptest::collection::vec((0u32..50, 0u32..100), 100..400),
    ) {
        drive(&steps, on_grid(1.0e-9), false);
    }

    /// `-0.0` sorts before `+0.0` under `total_cmp` though the two
    /// compare equal, and `+inf` events tie with each other.
    #[test]
    fn queue_matches_model_signed_zeros_and_infinity(
        steps in proptest::collection::vec((0u32..12, 0u32..100), 20..200),
    ) {
        drive(&steps, zeros_and_infinity, false);
    }
}

/// Pure-tie stress: thousands of events at identical instants.
#[test]
fn queue_matches_model_all_ties() {
    let ops: Vec<(u32, u32)> = (0..3_000).map(|i| (0, i % 100)).collect();
    drive(&ops, on_grid(1.0), false);
}
