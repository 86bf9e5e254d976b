//! A trace: a time-ordered sequence of requests, with summary statistics
//! and (de)serialization.

use crate::request::{IoType, Request};
use serde::{Deserialize, Serialize};
use sim_engine::stats::OnlineStats;
use sim_engine::{SimDuration, SimTime};
use std::io::{BufRead, Write as IoWrite};

/// A time-ordered I/O trace.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Trace {
    requests: Vec<Request>,
}

/// Deserialization goes through [`Trace::from_requests`], so a trace read
/// from a config or JSON document is time-ordered like every other one
/// (`span`, `window` and the simulators' arrival streams rely on it).
impl Deserialize for Trace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Trace::from_requests(serde::field(v, "requests")?))
    }
}

/// Summary statistics of one I/O class within a trace.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ClassStats {
    /// Number of requests.
    pub count: u64,
    /// Mean inter-arrival time in microseconds.
    pub iat_mean_us: f64,
    /// Squared coefficient of variation of inter-arrival time.
    pub iat_scv: f64,
    /// Mean request size in bytes.
    pub size_mean: f64,
    /// Squared coefficient of variation of request size.
    pub size_scv: f64,
    /// Total bytes.
    pub total_bytes: u64,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build from a request vector, sorting by `(arrival, id)`.
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| (r.arrival, r.id));
        Trace { requests }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Merge two traces, preserving global arrival order. Request ids are
    /// reassigned to stay unique and monotone.
    pub fn merge(self, other: Trace) -> Trace {
        let mut all = self.requests;
        all.extend(other.requests);
        all.sort_by_key(|r| (r.arrival, r.id));
        for (i, r) in all.iter_mut().enumerate() {
            r.id = i as u64;
        }
        Trace { requests: all }
    }

    /// Arrival time of the last request (ZERO when empty).
    pub fn span(&self) -> SimTime {
        self.requests
            .last()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO)
    }

    /// Requests whose arrival lies in `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> &[Request] {
        let lo = self.requests.partition_point(|r| r.arrival < from);
        let hi = self.requests.partition_point(|r| r.arrival < to);
        &self.requests[lo..hi]
    }

    /// Per-class summary statistics.
    pub fn class_stats(&self, op: IoType) -> ClassStats {
        class_stats_of(&self.requests, op)
    }

    /// Offered load of one class: total bytes / span, in bits per second.
    /// This matches the paper's "traffic load" definition (avg size / avg
    /// inter-arrival time).
    pub fn offered_load_bps(&self, op: IoType) -> f64 {
        let s = self.class_stats(op);
        if s.iat_mean_us <= 0.0 {
            return 0.0;
        }
        s.size_mean * 8.0 / (s.iat_mean_us * 1e-6)
    }

    /// Serialize as JSON-lines (one request per line).
    pub fn write_jsonl<W: IoWrite>(&self, mut w: W) -> std::io::Result<()> {
        for r in &self.requests {
            serde_json::to_writer(&mut w, r)?;
            writeln!(w)?;
        }
        Ok(())
    }

    /// Parse a JSON-lines trace.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Trace> {
        let mut reqs = Vec::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let req: Request = serde_json::from_str(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            reqs.push(req);
        }
        Ok(Trace::from_requests(reqs))
    }
}

/// Per-class statistics over an arbitrary request slice (used both for
/// whole traces and for the workload monitor's sliding windows).
pub fn class_stats_of(requests: &[Request], op: IoType) -> ClassStats {
    let mut iat = OnlineStats::new();
    let mut size = OnlineStats::new();
    let mut last_arrival: Option<SimTime> = None;
    let mut total_bytes = 0u64;
    let mut count = 0u64;
    for r in requests.iter().filter(|r| r.op == op) {
        count += 1;
        total_bytes += r.size;
        size.push(r.size as f64);
        if let Some(prev) = last_arrival {
            iat.push((r.arrival.since(prev)).as_us_f64());
        }
        last_arrival = Some(r.arrival);
    }
    ClassStats {
        count,
        iat_mean_us: iat.mean(),
        iat_scv: iat.scv(),
        size_mean: size.mean(),
        size_scv: size.scv(),
        total_bytes,
    }
}

/// Split a trace into contiguous time windows of width `w` (for the
/// workload monitor's prediction windows). Returns the window boundaries
/// and slices.
pub fn windows(trace: &Trace, w: SimDuration) -> Vec<(SimTime, &[Request])> {
    assert!(w > SimDuration::ZERO);
    let mut out = Vec::new();
    let span = trace.span();
    let mut t = SimTime::ZERO;
    while t <= span {
        let end = t + w;
        out.push((t, trace.window(t, end)));
        t = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, op: IoType, at_us: u64, size: u64) -> Request {
        Request {
            id,
            op,
            lba: id * 100,
            size,
            arrival: SimTime::from_us(at_us),
        }
    }

    #[test]
    fn sorts_and_merges() {
        let a = Trace::from_requests(vec![
            mk(1, IoType::Read, 30, 4096),
            mk(0, IoType::Read, 10, 4096),
        ]);
        assert_eq!(a.requests()[0].arrival, SimTime::from_us(10));
        let b = Trace::from_requests(vec![mk(0, IoType::Write, 20, 8192)]);
        let m = a.merge(b);
        let times: Vec<u64> = m
            .requests()
            .iter()
            .map(|r| r.arrival.as_ps() / 1_000_000)
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
        let ids: Vec<u64> = m.requests().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn merge_reassigns_ids_monotonically_for_overlapping_id_spaces() {
        // A replayed recording and a generated trace both number their
        // requests from 0. Merging must restore the documented "unique,
        // monotonically increasing id" invariant — interleaved arrival
        // order, no duplicate ids, ids dense in 0..n.
        let replayed = Trace::from_requests(vec![
            mk(0, IoType::Read, 5, 4096),
            mk(1, IoType::Read, 25, 4096),
            mk(2, IoType::Read, 45, 4096),
        ]);
        let synthetic = Trace::from_requests(vec![
            mk(0, IoType::Write, 15, 8192),
            mk(1, IoType::Write, 35, 8192),
        ]);
        let m = replayed.merge(synthetic);
        let ids: Vec<u64> = m.requests().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        for pair in m.requests().windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
            assert!(pair[0].id < pair[1].id);
        }
        // Merge in the other direction preserves the invariant too.
        let t = Trace::from_requests(vec![mk(7, IoType::Read, 100, 4096)])
            .merge(Trace::from_requests(vec![mk(7, IoType::Write, 1, 4096)]));
        assert_eq!(
            t.requests().iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn class_stats_basic() {
        // Reads at 0, 10, 20 us with sizes 4K, 8K, 4K.
        let t = Trace::from_requests(vec![
            mk(0, IoType::Read, 0, 4096),
            mk(1, IoType::Read, 10, 8192),
            mk(2, IoType::Read, 20, 4096),
            mk(3, IoType::Write, 5, 16384),
        ]);
        let s = t.class_stats(IoType::Read);
        assert_eq!(s.count, 3);
        assert!((s.iat_mean_us - 10.0).abs() < 1e-9);
        assert_eq!(s.iat_scv, 0.0);
        assert!((s.size_mean - (4096.0 + 8192.0 + 4096.0) / 3.0).abs() < 1e-9);
        assert_eq!(s.total_bytes, 16384);
        let w = t.class_stats(IoType::Write);
        assert_eq!(w.count, 1);
        assert_eq!(w.iat_mean_us, 0.0);
    }

    #[test]
    fn offered_load_matches_definition() {
        // 40 KB every 10 us = 32 Gbps.
        let reqs: Vec<Request> = (0..100)
            .map(|i| mk(i, IoType::Read, 10 * i, 40_000))
            .collect();
        let t = Trace::from_requests(reqs);
        let load = t.offered_load_bps(IoType::Read);
        assert!((load - 32e9).abs() / 32e9 < 1e-9, "load={load}");
    }

    #[test]
    fn window_slicing() {
        let t = Trace::from_requests((0..10).map(|i| mk(i, IoType::Read, i * 10, 4096)).collect());
        let w = t.window(SimTime::from_us(20), SimTime::from_us(50));
        assert_eq!(w.len(), 3); // arrivals 20, 30, 40
        assert!(t
            .window(SimTime::from_us(200), SimTime::from_us(300))
            .is_empty());
    }

    #[test]
    fn windows_partition_whole_trace() {
        let t = Trace::from_requests((0..25).map(|i| mk(i, IoType::Read, i * 7, 4096)).collect());
        let ws = windows(&t, SimDuration::from_us(50));
        let total: usize = ws.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 25);
        // Boundaries advance by the window width.
        assert_eq!(ws[1].0, SimTime::from_us(50));
    }

    #[test]
    fn jsonl_round_trip() {
        let t = Trace::from_requests(vec![
            mk(0, IoType::Read, 1, 4096),
            mk(1, IoType::Write, 2, 8192),
        ]);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let t2 = Trace::read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.requests()[1].op, IoType::Write);
        // Garbage input errors.
        assert!(Trace::read_jsonl(std::io::Cursor::new(b"not json\n".to_vec())).is_err());
    }

    #[test]
    fn deserialized_trace_is_time_ordered() {
        let t = Trace::from_requests((0..5).map(|i| mk(i, IoType::Read, i * 10, 4096)).collect());
        let serde::Value::Object(mut fields) = t.to_value() else {
            panic!("a trace serializes as an object");
        };
        let serde::Value::Array(requests) = &mut fields[0].1 else {
            panic!("`requests` is an array");
        };
        requests.reverse();
        let json = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        let arrivals: Vec<SimTime> = back.requests().iter().map(|r| r.arrival).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(back.span(), SimTime::from_us(40));
        assert_eq!(
            back.window(SimTime::from_us(10), SimTime::from_us(30))
                .len(),
            2
        );
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.span(), SimTime::ZERO);
        assert_eq!(t.offered_load_bps(IoType::Read), 0.0);
    }
}
