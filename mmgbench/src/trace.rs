//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around each call into a layer of
//! the simulator (name, start, end, parent, thread) and kept in memory
//! until the run ends, when they are written as a Perfetto trace and
//! folded into per-name self times.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

/// One finished span; times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// The span that opened this one, if any.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `serve.simulate`.
    pub name: String,
    /// Small per-process thread number.
    pub thread: u64,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

/// Collects spans when on; when off every call is a no-op, so the same
/// code path runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: f64,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under `parent` (an id from [`SpanGuard::id`]).
    #[must_use]
    pub fn span(&self, name: &str, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent: None,
                name: String::new(),
                start_us: 0.0,
            };
        }
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_us: self.now_us(),
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

impl SpanGuard<'_> {
    /// This span's id, to pass as a child's parent (`None` when off).
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.tracer.on.then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.on {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            thread: thread_number(),
            start_us: self.start_us,
            end_us: self.tracer.now_us(),
        };
        // A poisoned list only means another thread panicked mid-push;
        // the spans already in it are whole, so keep recording.
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Self time of every span name, seconds, summed over its spans and
/// sorted by name. A span's self time is its duration minus the part of
/// it that its child spans cover; children on other threads may overlap
/// one another, so the covered part is the union of their intervals.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut totals: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for span in spans {
        let mut covered: Vec<(f64, f64)> = spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut union_us = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union_us += b - a;
                reach = b;
            }
        }
        *totals.entry(span.name.clone()).or_default() +=
            (span.end_us - span.start_us - union_us) * 1e-6;
    }
    totals.into_iter().collect()
}

/// The spans as a Perfetto / Chrome trace object (`{"traceEvents": …}`).
#[must_use]
pub fn to_perfetto(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".to_string(), Value::from(s.name.as_str())),
                ("cat".to_string(), Value::from("mmgbench")),
                ("ph".to_string(), Value::from("X")),
                ("ts".to_string(), Value::from(s.start_us)),
                ("dur".to_string(), Value::from(s.end_us - s.start_us)),
                ("pid".to_string(), Value::from(1u64)),
                ("tid".to_string(), Value::from(s.thread)),
                (
                    "args".to_string(),
                    Value::Object(vec![
                        ("id".to_string(), Value::from(s.id)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, Value::from),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::from("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            thread: 1,
            start_us,
            end_us,
        }
    }

    fn self_time(spans: &[Span], name: &str) -> f64 {
        self_times(spans)
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .unwrap()
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        let spans = [
            span(1, None, "rep", 0.0, 100.0),
            // Two shards on two threads overlap on [20, 50].
            span(2, Some(1), "shard", 10.0, 50.0),
            span(3, Some(1), "shard", 20.0, 60.0),
            span(4, Some(1), "report", 80.0, 90.0),
            // A grandchild is charged to its own parent, not to `rep`.
            span(5, Some(4), "render", 82.0, 88.0),
        ];
        // rep: 100 − union{[10,60], [80,90]} = 100 − 60 = 40 µs.
        assert!((self_time(&spans, "rep") - 40e-6).abs() < 1e-12);
        assert!((self_time(&spans, "shard") - 80e-6).abs() < 1e-12);
        assert!((self_time(&spans, "report") - 4e-6).abs() < 1e-12);
        assert!((self_time(&spans, "render") - 6e-6).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span(1, None, "a", 10.0, 20.0),
            span(2, Some(1), "b", 5.0, 15.0),
        ];
        assert!((self_time(&spans, "a") - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parent_links_and_nothing_when_off() {
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("outer", None);
            let _inner = tracer.span("inner", outer.id());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_us >= outer.start_us && inner.end_us <= outer.end_us);

        let off = Tracer::new(false);
        let g = off.span("x", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(off.spans().is_empty());
    }
}
