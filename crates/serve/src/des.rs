//! The discrete-event kernel: a virtual clock and a typed event queue.
//!
//! Everything in `mmg-serve` advances on this queue — there is no wall
//! clock anywhere in the simulator. Determinism comes from two rules:
//!
//! 1. Events pop in `(time, insertion sequence)` order, so two events
//!    scheduled for the same instant resolve in the order they were
//!    scheduled, independent of queue internals.
//! 2. Time is `f64` seconds compared with [`f64::total_cmp`], so the
//!    ordering is total even in the presence of rounding.
//!
//! [`EventQueue`] is a binary heap, O(log n) per operation in the
//! number of *pending* events, and every engine keeps that number
//! small: one arrival, at most one departure (cluster) or iteration
//! boundary (token) per GPU, a batching hold timer per GPU, and one
//! abandonment timer per request that arrived within the patience
//! window when abandonment is on (`ScenarioCfg::abandon_after_s`, which
//! no CLI flag or experiment sets). Without abandonment the heap stays
//! a few levels deep however many events a run pushes through it, and
//! it has no bucket width to fit to the spacing of event times. Its pop
//! order is checked against a plain-list model in
//! `tests/proptest_queue.rs`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Scheduled<E> {
    time_s: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key(other) == Ordering::Equal
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Scheduled<E> {
    /// Earlier time (then earlier sequence) sorts *greater*, so the
    /// max-heap pops the earliest event first.
    fn cmp_key(&self, other: &Self) -> Ordering {
        other
            .time_s
            .total_cmp(&self.time_s)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_key(other)
    }
}

/// A deterministic event queue with a virtual clock, backed by a binary
/// heap (O(log n) per operation).
///
/// The clock only moves forward, to the timestamp of the event most
/// recently popped. Scheduling into the past is a logic error and
/// panics.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now_s: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now_s: 0.0 }
    }

    /// Current virtual time, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Schedules `event` at absolute virtual time `at_s`.
    ///
    /// # Panics
    ///
    /// Panics if `at_s` is NaN or earlier than the current clock.
    pub fn schedule(&mut self, at_s: f64, event: E) {
        assert!(!at_s.is_nan(), "cannot schedule an event at NaN");
        assert!(
            at_s >= self.now_s,
            "cannot schedule into the past: {at_s} < {}",
            self.now_s
        );
        self.heap.push(Scheduled { time_s: at_s, seq: self.seq, event });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| {
            self.now_s = s.time_s;
            (s.time_s, s.event)
        })
    }

    /// Timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time_s(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time_s)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    macro_rules! queue_contract_tests {
        ($name:ident, $Q:ident) => {
            mod $name {
                use super::*;

                #[test]
                fn pops_in_time_order() {
                    let mut q = $Q::new();
                    q.schedule(3.0, "c");
                    q.schedule(1.0, "a");
                    q.schedule(2.0, "b");
                    assert_eq!(q.pop(), Some((1.0, "a")));
                    assert_eq!(q.pop(), Some((2.0, "b")));
                    assert_eq!(q.pop(), Some((3.0, "c")));
                    assert_eq!(q.pop(), None);
                }

                #[test]
                fn ties_resolve_in_schedule_order() {
                    let mut q = $Q::new();
                    for i in 0..100 {
                        q.schedule(5.0, i);
                    }
                    for i in 0..100 {
                        assert_eq!(q.pop(), Some((5.0, i)));
                    }
                }

                #[test]
                fn clock_advances_with_pops() {
                    let mut q = $Q::new();
                    q.schedule(1.5, ());
                    q.schedule(4.5, ());
                    assert_eq!(q.now_s(), 0.0);
                    q.pop();
                    assert_eq!(q.now_s(), 1.5);
                    // Scheduling at the current instant is allowed
                    // (same-time events resolve in schedule order).
                    q.schedule(1.5, ());
                    assert_eq!(q.pop(), Some((1.5, ())));
                    q.pop();
                    assert_eq!(q.now_s(), 4.5);
                }

                #[test]
                #[should_panic(expected = "into the past")]
                fn scheduling_into_the_past_panics() {
                    let mut q = $Q::new();
                    q.schedule(2.0, ());
                    q.pop();
                    q.schedule(1.0, ());
                }

                #[test]
                fn peek_does_not_advance() {
                    let mut q = $Q::new();
                    q.schedule(7.0, ());
                    assert_eq!(q.peek_time_s(), Some(7.0));
                    assert_eq!(q.now_s(), 0.0);
                    assert_eq!(q.len(), 1);
                    assert!(!q.is_empty());
                }

                #[test]
                fn interleaved_schedule_pop_stays_sorted() {
                    let mut q = $Q::new();
                    let mut last = f64::NEG_INFINITY;
                    let mut state = 0x1234_5678_u64;
                    let mut popped = 0usize;
                    for round in 0..2_000u64 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let jitter = (state >> 40) as f64 / (1u64 << 24) as f64;
                        q.schedule(q.now_s() + jitter * 10.0, round);
                        if state & 1 == 0 {
                            let (t, _) = q.pop().expect("non-empty");
                            assert!(t >= last, "pop went backwards: {t} after {last}");
                            last = t;
                            popped += 1;
                        }
                    }
                    while let Some((t, _)) = q.pop() {
                        assert!(t >= last);
                        last = t;
                        popped += 1;
                    }
                    assert_eq!(popped, 2_000);
                }
            }
        };
    }

    queue_contract_tests!(heap, EventQueue);
}
