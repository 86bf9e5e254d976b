//! In-memory span recorder for `srcbench trace`.
//!
//! Spans wrap the benchmark's own calls into each crate's public
//! functions (no crate outside this package changes), are kept in memory,
//! and are written out as JSON lines when the run ends.

use crate::alloc;
use crate::stats::obj;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span; every span of one
/// rep carries that rep's id in `rep`.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub rep: u64,
    pub name: &'static str,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made on the span's thread while it was open (0 unless
    /// counting was on).
    pub allocs: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id so it can open
    /// child spans.
    pub fn span<R>(
        &self,
        rep: u64,
        parent: u64,
        name: &'static str,
        label: impl Into<String>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Relaxed);
        let allocs0 = alloc::thread_allocs();
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        let span = Span {
            id,
            parent,
            rep,
            name,
            label: label.into(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            allocs: alloc::thread_allocs() - allocs0,
        };
        self.spans
            .lock()
            .expect("a span writer panicked while holding the lock")
            .push(span);
        out
    }

    /// Apply `f` to the spans named `name` in `rep`.
    pub fn with_spans<R>(&self, rep: u64, name: &str, f: impl FnOnce(&[&Span]) -> R) -> R {
        let spans = self.spans.lock().expect("span lock");
        let hits: Vec<&Span> = spans
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .collect();
        f(&hits)
    }

    /// Durations (s) of the spans named `name` in `rep`.
    pub fn secs(&self, rep: u64, name: &str) -> Vec<f64> {
        self.with_spans(rep, name, |s| s.iter().map(|s| s.secs()).collect())
    }

    /// Total duration (s) of the spans named `name` in `rep`.
    pub fn total(&self, rep: u64, name: &str) -> f64 {
        self.secs(rep, name).iter().sum()
    }

    /// Total allocations of the spans named `name` in `rep`.
    pub fn allocs(&self, rep: u64, name: &str) -> u64 {
        self.with_spans(rep, name, |s| s.iter().map(|s| s.allocs).sum())
    }

    /// Every span as one JSON object per line, in start order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut spans = self.spans.lock().expect("span lock");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
            .iter()
            .map(|s| {
                let line = obj([
                    ("id", Value::UInt(s.id)),
                    ("parent", Value::UInt(s.parent)),
                    ("rep", Value::UInt(s.rep)),
                    ("name", Value::Str(s.name.into())),
                    ("workload", Value::Str(workload.into())),
                    ("label", Value::Str(s.label.clone())),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    ("allocs", Value::UInt(s.allocs)),
                ]);
                serde_json::to_string(&line).expect("serializable span") + "\n"
            })
            .collect()
    }
}
