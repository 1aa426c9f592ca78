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
//! Two implementations share that contract:
//!
//! - [`CalendarEventQueue`] — a Brown-style calendar queue with O(1)
//!   amortized `schedule`/`pop`. Events hash into `floor(t / width)`
//!   buckets; the pop cursor walks bucket "days", resizing the calendar
//!   (bucket count and width) as the population doubles or collapses.
//!   [`EventQueue`] aliases it: the serving fast path pushes tens of
//!   millions of events through it.
//! - [`HeapEventQueue`] — the original `BinaryHeap` kernel, kept as the
//!   property-test oracle.
//!
//! Both expose the identical API and — by property test
//! (`tests/proptest_queue.rs`) — the identical event-for-event pop
//! sequence.

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

/// The queue implementation used by the simulator.
pub type EventQueue<E> = CalendarEventQueue<E>;

// ---------------------------------------------------------------------------
// Binary-heap kernel (the oracle)
// ---------------------------------------------------------------------------

/// A deterministic event queue with a virtual clock, backed by a binary
/// heap (O(log n) per operation).
///
/// The clock only moves forward, to the timestamp of the event most
/// recently popped. Scheduling into the past is a logic error and
/// panics.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now_s: f64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        HeapEventQueue::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), seq: 0, now_s: 0.0 }
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

// ---------------------------------------------------------------------------
// Calendar-queue kernel (the fast path)
// ---------------------------------------------------------------------------

/// Smallest calendar size; also the initial size.
const MIN_BUCKETS: usize = 16;

#[derive(Debug)]
struct CalEntry<E> {
    /// Virtual bucket `floor(time_s / width)` under the calendar's
    /// *current* width — recomputed on every resize, and compared against
    /// the pop cursor instead of re-deriving it from floats so cursor and
    /// entries can never disagree about which "day" an event belongs to.
    vb: u64,
    time_s: f64,
    seq: u64,
    event: E,
}

impl<E> CalEntry<E> {
    /// Ascending event order: earlier time, then earlier sequence.
    fn before(&self, other: &Self) -> bool {
        self.time_s
            .total_cmp(&other.time_s)
            .then(self.seq.cmp(&other.seq))
            .is_lt()
    }
}

/// A deterministic event queue with a virtual clock, backed by a
/// calendar queue (O(1) amortized `schedule`/`pop`).
///
/// Pop order is exactly `(time, insertion sequence)` — byte-for-byte the
/// same sequence as [`HeapEventQueue`] — which the property suite in
/// `tests/proptest_queue.rs` checks against the heap oracle under random
/// schedules.
///
/// The clock only moves forward, to the timestamp of the event most
/// recently popped. Scheduling into the past is a logic error and
/// panics.
#[derive(Debug)]
pub struct CalendarEventQueue<E> {
    /// `buckets[vb % nbuckets]`, each sorted *descending* by
    /// `(time, seq)` so the next event to pop is a cheap `Vec::pop` off
    /// the back.
    buckets: Vec<Vec<CalEntry<E>>>,
    /// `nbuckets - 1`; the bucket count is always a power of two.
    mask: u64,
    /// Seconds per bucket.
    width: f64,
    /// The virtual bucket the pop cursor is currently serving. Invariant:
    /// no pending entry has `vb < cur_vb`.
    cur_vb: u64,
    len: usize,
    seq: u64,
    now_s: f64,
}

impl<E> Default for CalendarEventQueue<E> {
    fn default() -> Self {
        CalendarEventQueue::new()
    }
}

impl<E> CalendarEventQueue<E> {
    /// An empty queue with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        CalendarEventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1.0,
            cur_vb: 0,
            len: 0,
            seq: 0,
            now_s: 0.0,
        }
    }

    /// Current virtual time, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    fn vb_of(&self, t: f64) -> u64 {
        // f64-to-u64 `as` saturates, so +inf lands in the last virtual
        // bucket instead of wrapping.
        (t / self.width) as u64
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
        let entry = CalEntry {
            vb: self.vb_of(at_s).max(self.cur_vb),
            time_s: at_s,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let bucket = &mut self.buckets[(entry.vb & self.mask) as usize];
        // Descending order: the insertion point is after every entry that
        // pops later than the new one.
        let pos = bucket.partition_point(|e| entry.before(e));
        bucket.insert(pos, entry);
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize();
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        let mut scanned = 0usize;
        loop {
            let bi = (self.cur_vb & self.mask) as usize;
            let eligible = self
                .buckets[bi]
                .last()
                .is_some_and(|e| e.vb == self.cur_vb);
            if eligible {
                let e = self.buckets[bi].pop().expect("eligible entry present");
                self.len -= 1;
                self.now_s = e.time_s;
                if self.buckets.len() > MIN_BUCKETS && self.len * 8 < self.buckets.len() {
                    self.resize();
                }
                return Some((e.time_s, e.event));
            }
            self.cur_vb = self.cur_vb.saturating_add(1);
            scanned += 1;
            if scanned > nbuckets {
                // A whole calendar year was empty: the next event is far
                // in the future. Jump the cursor straight to it instead
                // of walking day by day.
                self.cur_vb = self.min_entry_vb().expect("len > 0");
                scanned = 0;
            }
        }
    }

    /// Virtual bucket of the globally earliest pending event.
    fn min_entry_vb(&self) -> Option<u64> {
        self.buckets
            .iter()
            .filter_map(|b| b.last())
            .min_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.seq.cmp(&b.seq)))
            .map(|e| e.vb)
    }

    /// Timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time_s(&self) -> Option<f64> {
        self.buckets
            .iter()
            .filter_map(|b| b.last())
            .min_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.seq.cmp(&b.seq)))
            .map(|e| e.time_s)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rebuilds the calendar for the current population: the bucket
    /// count tracks `2 * len` (so steady-state buckets hold O(1) events)
    /// and the width tracks the mean inter-event gap (so consecutive
    /// events land in nearby buckets). O(n log n) per resize, amortized
    /// O(1) per event because resizes happen on doublings/halvings.
    fn resize(&mut self) {
        let mut entries: Vec<CalEntry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        debug_assert_eq!(entries.len(), self.len);

        let nbuckets = (2 * self.len.max(1)).next_power_of_two().max(MIN_BUCKETS);
        if nbuckets != self.buckets.len() {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
            self.mask = (nbuckets - 1) as u64;
        }

        if self.len >= 2 {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for e in &entries {
                lo = lo.min(e.time_s);
                hi = hi.max(e.time_s);
            }
            let span = hi - lo;
            if span.is_finite() && span > 0.0 {
                // Mean gap; clamped away from zero/denormal so `t/width`
                // stays finite.
                self.width = (span / self.len as f64).max(hi.abs() * 1e-12).max(1e-300);
            }
        }

        // Sort descending once, then append in order: every bucket
        // receives its entries already in descending pop order.
        entries.sort_by(|a, b| {
            b.time_s.total_cmp(&a.time_s).then(b.seq.cmp(&a.seq))
        });
        self.cur_vb = self.vb_of(self.now_s);
        for mut e in entries {
            e.vb = self.vb_of(e.time_s).max(self.cur_vb);
            self.buckets[(e.vb & self.mask) as usize].push(e);
        }
        debug_assert!(
            self.buckets.iter().all(|b| b.windows(2).all(|w| w[1].before(&w[0]))),
            "buckets must stay sorted after resize"
        );
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

    queue_contract_tests!(calendar, CalendarEventQueue);
    queue_contract_tests!(heap, HeapEventQueue);

    /// A burst far in the future forces the cursor's sparse-jump path.
    #[test]
    fn calendar_jumps_over_empty_years() {
        let mut q = CalendarEventQueue::new();
        q.schedule(0.001, 0u32);
        q.schedule(1.0e9, 1);
        q.schedule(1.0e9, 2);
        q.schedule(2.0e9, 3);
        assert_eq!(q.pop(), Some((0.001, 0)));
        assert_eq!(q.pop(), Some((1.0e9, 1)));
        assert_eq!(q.pop(), Some((1.0e9, 2)));
        assert_eq!(q.pop(), Some((2.0e9, 3)));
        assert!(q.is_empty());
    }

    /// Growth and collapse across resize thresholds preserves order.
    #[test]
    fn calendar_resize_churn_preserves_order() {
        let mut q = CalendarEventQueue::new();
        for i in 0..5_000u64 {
            // Deterministic scatter over [0, 500).
            let t = (i.wrapping_mul(2654435761) % 500_000) as f64 / 1000.0;
            q.schedule(t, i);
        }
        assert_eq!(q.len(), 5_000);
        let mut prev_t = f64::NEG_INFINITY;
        let mut prev_seq = 0u64;
        let mut n = 0;
        while let Some((t, seq)) = q.pop() {
            assert!(
                t > prev_t || (t == prev_t && seq > prev_seq) || n == 0,
                "order violated at event {n}: ({t}, {seq}) after ({prev_t}, {prev_seq})"
            );
            prev_t = t;
            prev_seq = seq;
            n += 1;
        }
        assert_eq!(n, 5_000);
    }
}
