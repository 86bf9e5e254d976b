//! Standalone trace runner: arrivals from a trace, storage-node stack,
//! optional scripted weight changes.

use crate::node::{NodeConfig, StorageNode};
use crate::report::NodeReport;
use sim_engine::{
    ArrivalCursor, EventQueue, FastMap, NullSink, Scratch, SimDuration, SimTime, SimWorkspace,
    TraceRecord, TraceSink,
};
use ssd_sim::SsdEvent;
use workload::{IoType, Trace};

/// Bin width used for runtime throughput series (the paper plots per
/// millisecond).
pub const BIN: SimDuration = SimDuration(1_000_000_000); // 1 ms in ps

enum Ev {
    Arrival(usize),
    Ssd(SsdEvent),
    SetWeight(u32),
}

/// Per-worker reusable state for the trace runner: the event queue, the
/// SSD step buffer, and the submit-time map keep their allocations
/// across runs. `reset` restores observable `Default`, keeping heap
/// capacity.
#[derive(Default)]
struct TraceScratch {
    queue: EventQueue<Ev>,
    step: ssd_sim::SsdStep,
    submit_time: FastMap<u64, SimTime>,
}

impl Scratch for TraceScratch {
    fn reset(&mut self) {
        self.queue.reset();
        self.step.clear();
        self.submit_time.clear();
    }
}

/// Run a trace through a fresh node until *all* work drains; returns the
/// report. Latency statistics are exact; the trimmed throughput rates are
/// meaningful only when the workload keeps the device busy for most of
/// the run.
pub fn run_trace(cfg: &NodeConfig, trace: &Trace) -> NodeReport {
    run_trace_with_schedule(cfg, trace, &[])
}

/// Run a trace and stop the clock at the last arrival: steady-state
/// throughput measurement under sustained offered load, the semantics of
/// the paper's Fig. 5 sweeps. Backlog still queued at the horizon is
/// intentionally not drained — under saturation the split of *completed*
/// bytes inside the window is exactly what the weight ratio controls.
pub fn run_trace_windowed(cfg: &NodeConfig, trace: &Trace) -> NodeReport {
    run_trace_windowed_in(cfg, trace, &mut SimWorkspace::new())
}

/// [`run_trace_windowed`] against caller-provided scratch storage
/// (event queue, step buffer, submit-time map), so that runs after the
/// first reuse the same allocations. The scratch is fully reset at the
/// start of every run, so the report is identical to
/// [`run_trace_windowed`]'s.
pub fn run_trace_windowed_in(cfg: &NodeConfig, trace: &Trace, ws: &mut SimWorkspace) -> NodeReport {
    run_trace_impl(
        cfg,
        trace,
        &[],
        Some(trace.span()),
        ws,
        &mut NullSink,
        &mut Vec::new(),
    )
}

/// Windowed run with scripted weight changes (see
/// [`run_trace_with_schedule`]).
///
/// This is the sink-polymorphic entry point: SSQ fetch decisions and
/// weight changes, per-bin queue occupancy and SSD channel/chip
/// utilization flow into `sink` as they happen. Pass `&mut NullSink`
/// for an untraced run — the returned report is identical either way.
pub fn run_trace_windowed_with_schedule(
    cfg: &NodeConfig,
    trace: &Trace,
    weight_schedule: &[(SimTime, u32)],
    sink: &mut dyn TraceSink,
) -> NodeReport {
    run_trace_impl(
        cfg,
        trace,
        weight_schedule,
        Some(trace.span()),
        &mut SimWorkspace::new(),
        sink,
        &mut Vec::new(),
    )
}

/// Run a trace, applying `(time, weight)` changes as they come due
/// (scripted version of SRC's dynamic adjustment, for device-level
/// experiments).
pub fn run_trace_with_schedule(
    cfg: &NodeConfig,
    trace: &Trace,
    weight_schedule: &[(SimTime, u32)],
) -> NodeReport {
    run_trace_impl(
        cfg,
        trace,
        weight_schedule,
        None,
        &mut SimWorkspace::new(),
        &mut NullSink,
        &mut Vec::new(),
    )
}

/// The one run loop behind every entry point. `twins` holds weights to
/// track as twins of the configured SSQ weight (see
/// [`nvme_queues::QueueDiscipline::track_twins`]); on return it holds
/// the survivors, whose own runs would have produced this report.
pub(crate) fn run_trace_impl(
    cfg: &NodeConfig,
    trace: &Trace,
    weight_schedule: &[(SimTime, u32)],
    horizon: Option<SimTime>,
    ws: &mut SimWorkspace,
    sink: &mut dyn TraceSink,
    twins: &mut Vec<u32>,
) -> NodeReport {
    let tracing = sink.enabled();
    let mut node = StorageNode::new(cfg);
    node.track_twins(twins);
    if tracing {
        node.set_telemetry(true, 0);
    }
    let mut last_sample = SimTime::ZERO;
    // Per-worker scratch, reset at the start of every run (see the
    // workspace reset contract in `sim_engine::workspace`).
    let scratch = ws.slot::<TraceScratch>();
    scratch.reset();
    let TraceScratch {
        queue: q,
        step,
        submit_time,
    } = scratch;
    let mut report = NodeReport::new(BIN);

    // Arrivals stream from the (time-ordered) trace; only the weight
    // schedule and device events go through the queue.
    let mut arrivals = ArrivalCursor::new(
        trace
            .requests()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.arrival, i)),
    );
    for &(t, w) in weight_schedule {
        q.schedule(t, Ev::SetWeight(w));
    }

    while let Some((now, ev)) = arrivals.pop(&mut *q, Ev::Arrival) {
        if let Some(h) = horizon {
            if now > h {
                break;
            }
        }
        step.clear();
        match ev {
            Ev::Arrival(i) => {
                let r = trace.requests()[i];
                submit_time.insert(r.id, now);
                node.submit_into(r, now, &mut *step);
            }
            Ev::Ssd(e) => node.on_ssd_event_into(e, now, &mut *step),
            Ev::SetWeight(w) => {
                node.set_weight_ratio(w);
                report.weight_changes.push((now, w));
                if tracing {
                    sink.record(TraceRecord {
                        at: now,
                        component: "ssq",
                        scope: 0,
                        metric: "weight",
                        value: w as f64,
                    });
                }
                node.pump_into(now, &mut *step);
            }
        };
        if tracing {
            if now.since(last_sample) >= BIN {
                node.sample_telemetry(now);
                last_sample = now;
            }
            node.drain_probes_into(sink);
        }
        for c in &step.completions {
            let lat = submit_time
                .remove(&c.id)
                .map(|t0| c.at.since(t0).as_us_f64())
                .unwrap_or(0.0);
            match c.op {
                IoType::Read => {
                    report.reads_completed += 1;
                    report.read_bytes += c.size;
                    report.read_series.add(c.at, c.size as f64);
                    report.read_latency_us.push(lat);
                }
                IoType::Write => {
                    report.writes_completed += 1;
                    report.write_bytes += c.size;
                    report.write_series.add(c.at, c.size as f64);
                    report.write_latency_us.push(lat);
                }
            }
            report.makespan = report.makespan.max(c.at.since(SimTime::ZERO));
        }
        for &(t, e) in &step.schedule {
            q.schedule(t, Ev::Ssd(e));
        }
    }

    if let Some(h) = horizon {
        report.makespan = h.since(SimTime::ZERO);
    } else {
        assert!(
            node.is_idle(),
            "run ended with work still pending: {} queued, {} in flight",
            node.discipline().queued(),
            node.ssd().in_flight()
        );
    }
    report.ssd = node.ssd().stats();
    *twins = node.discipline().twins();
    if tracing {
        let stats = report.ssd;
        sink.count(("ssd", 0, "reads_completed"), stats.reads_completed);
        sink.count(("ssd", 0, "writes_completed"), stats.writes_completed);
        sink.count(("ssd", 0, "gc_copies"), stats.gc_copies);
        sink.count(("ssd", 0, "erases"), stats.erases);
        sink.gauge(("ssq", 0, "weight"), node.weight_ratio() as f64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DisciplineKind;
    use workload::micro::{generate_micro, MicroConfig};

    fn small_trace(seed: u64) -> Trace {
        generate_micro(
            &MicroConfig {
                read_count: 300,
                write_count: 300,
                read_iat_mean_us: 10.0,
                write_iat_mean_us: 10.0,
                read_size_mean: 24_000.0,
                write_size_mean: 24_000.0,
                ..MicroConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn completes_everything() {
        let r = run_trace(&NodeConfig::default(), &small_trace(1));
        assert_eq!(r.reads_completed, 300);
        assert_eq!(r.writes_completed, 300);
        assert!(r.makespan > SimDuration::ZERO);
        assert!(r.read_latency_us.mean() > 0.0);
    }

    #[test]
    fn deterministic() {
        let a = run_trace(&NodeConfig::default(), &small_trace(2));
        let b = run_trace(&NodeConfig::default(), &small_trace(2));
        assert_eq!(a.read_series.bins(), b.read_series.bins());
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn fifo_and_ssq_both_run() {
        let t = small_trace(3);
        let f = run_trace(
            &NodeConfig {
                discipline: DisciplineKind::Fifo,
                ..NodeConfig::default()
            },
            &t,
        );
        let s = run_trace(
            &NodeConfig {
                discipline: DisciplineKind::Ssq { weight: 1 },
                ..NodeConfig::default()
            },
            &t,
        );
        assert_eq!(f.reads_completed, s.reads_completed);
        assert_eq!(f.writes_completed, s.writes_completed);
    }

    #[test]
    fn weight_schedule_applies() {
        let t = small_trace(4);
        let r = run_trace_with_schedule(
            &NodeConfig::default(),
            &t,
            &[(SimTime::from_ms(1), 4), (SimTime::from_ms(2), 2)],
        );
        assert_eq!(r.weight_changes.len(), 2);
        assert_eq!(r.weight_changes[0].1, 4);
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_series() {
        use sim_engine::RingSink;
        let t = small_trace(7);
        let schedule = [(SimTime::from_ms(1), 4), (SimTime::from_ms(2), 2)];
        let plain =
            run_trace_windowed_with_schedule(&NodeConfig::default(), &t, &schedule, &mut NullSink);
        let mut sink = RingSink::new(1 << 16);
        let traced =
            run_trace_windowed_with_schedule(&NodeConfig::default(), &t, &schedule, &mut sink);
        // Telemetry must not perturb the simulation.
        assert_eq!(plain.reads_completed, traced.reads_completed);
        assert_eq!(plain.writes_completed, traced.writes_completed);
        assert_eq!(plain.read_series.bins(), traced.read_series.bins());
        assert_eq!(plain.write_series.bins(), traced.write_series.bins());
        assert_eq!(plain.makespan, traced.makespan);
        let rep = sink.into_report();
        assert_eq!(
            rep.series("ssq", "weight").len(),
            2,
            "both weight changes traced"
        );
        assert!(!rep.series("ssq", "fetch_class").is_empty());
        assert!(!rep.series("ssd", "chip_util").is_empty());
        assert_eq!(
            rep.counter(("ssd", 0, "reads_completed")),
            plain.reads_completed
        );
        // Same seed, same schedule: byte-identical JSON-lines export.
        let mut sink2 = RingSink::new(1 << 16);
        let _ = run_trace_windowed_with_schedule(&NodeConfig::default(), &t, &schedule, &mut sink2);
        assert_eq!(rep.to_json_lines(), sink2.into_report().to_json_lines());
    }

    /// The pre-streaming runner, kept as the oracle for
    /// [`run_trace_impl`]: every arrival pre-scheduled on the queue,
    /// SipHash maps. Also returns how many arrivals shared their
    /// timestamp with a device or weight event, so the test can show its
    /// trace exercises the tie-breaking rule.
    fn prescheduled_run(
        cfg: &NodeConfig,
        trace: &Trace,
        weight_schedule: &[(SimTime, u32)],
        horizon: Option<SimTime>,
    ) -> (NodeReport, usize) {
        use std::collections::{HashMap, HashSet};
        let mut node = StorageNode::new(cfg);
        let mut q = EventQueue::new();
        let mut step = ssd_sim::SsdStep::default();
        let mut submit_time: HashMap<u64, SimTime> = HashMap::new();
        let mut report = NodeReport::new(BIN);
        let mut other_times = HashSet::new();
        for (i, r) in trace.requests().iter().enumerate() {
            q.schedule(r.arrival, Ev::Arrival(i));
        }
        for &(t, w) in weight_schedule {
            q.schedule(t, Ev::SetWeight(w));
        }
        while let Some((now, ev)) = q.pop() {
            if horizon.is_some_and(|h| now > h) {
                break;
            }
            step.clear();
            match ev {
                Ev::Arrival(i) => {
                    let r = trace.requests()[i];
                    submit_time.insert(r.id, now);
                    node.submit_into(r, now, &mut step);
                }
                Ev::Ssd(e) => {
                    other_times.insert(now);
                    node.on_ssd_event_into(e, now, &mut step);
                }
                Ev::SetWeight(w) => {
                    other_times.insert(now);
                    node.set_weight_ratio(w);
                    report.weight_changes.push((now, w));
                    node.pump_into(now, &mut step);
                }
            }
            for c in &step.completions {
                let lat = submit_time
                    .remove(&c.id)
                    .map(|t0| c.at.since(t0).as_us_f64())
                    .unwrap_or(0.0);
                let (count, bytes, series, latency) = match c.op {
                    IoType::Read => (
                        &mut report.reads_completed,
                        &mut report.read_bytes,
                        &mut report.read_series,
                        &mut report.read_latency_us,
                    ),
                    IoType::Write => (
                        &mut report.writes_completed,
                        &mut report.write_bytes,
                        &mut report.write_series,
                        &mut report.write_latency_us,
                    ),
                };
                *count += 1;
                *bytes += c.size;
                series.add(c.at, c.size as f64);
                latency.push(lat);
                report.makespan = report.makespan.max(c.at.since(SimTime::ZERO));
            }
            for &(t, e) in &step.schedule {
                q.schedule(t, Ev::Ssd(e));
            }
        }
        if let Some(h) = horizon {
            report.makespan = h.since(SimTime::ZERO);
        }
        report.ssd = node.ssd().stats();
        let ties = trace
            .requests()
            .iter()
            .filter(|r| other_times.contains(&r.arrival))
            .count();
        (report, ties)
    }

    fn assert_same_report(a: &NodeReport, b: &NodeReport) {
        use serde::Serialize;
        assert_eq!(a.read_series.bins(), b.read_series.bins());
        assert_eq!(a.write_series.bins(), b.write_series.bins());
        assert_eq!(a.read_latency_us.to_value(), b.read_latency_us.to_value());
        assert_eq!(a.write_latency_us.to_value(), b.write_latency_us.to_value());
        assert_eq!(
            (a.reads_completed, a.writes_completed),
            (b.reads_completed, b.writes_completed)
        );
        assert_eq!((a.read_bytes, a.write_bytes), (b.read_bytes, b.write_bytes));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.weight_changes, b.weight_changes);
        assert_eq!(format!("{:?}", a.ssd), format!("{:?}", b.ssd));
    }

    #[test]
    fn streamed_arrivals_match_the_prescheduled_oracle() {
        // SSD-A's cell latencies are whole microseconds, so integer-µs
        // arrivals (several per timestamp) tie with chip completions and
        // with the millisecond weight steps.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let requests = (0..3_000u64)
            .map(|id| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                workload::Request {
                    id,
                    op: if x.is_multiple_of(2) {
                        IoType::Read
                    } else {
                        IoType::Write
                    },
                    lba: (x >> 8) % (1 << 20),
                    size: 4_096 * (1 + (x >> 40) % 12),
                    arrival: SimTime::from_us(id / 3 * 5),
                }
            })
            .collect();
        let trace = Trace::from_requests(requests);
        let cfg = NodeConfig {
            ssd: ssd_sim::SsdConfig::ssd_a(),
            ..NodeConfig::default()
        };
        let schedule: Vec<(SimTime, u32)> = [(1, 4), (2, 1), (3, 8), (4, 2)]
            .iter()
            .map(|&(ms, w)| (SimTime::from_ms(ms), w))
            .collect();
        for horizon in [Some(trace.span()), None] {
            let (oracle, ties) = prescheduled_run(&cfg, &trace, &schedule, horizon);
            assert!(ties > 0, "the trace must tie arrivals with other events");
            let streamed = run_trace_impl(
                &cfg,
                &trace,
                &schedule,
                horizon,
                &mut SimWorkspace::new(),
                &mut NullSink,
                &mut Vec::new(),
            );
            assert_same_report(&streamed, &oracle);
            assert_eq!(streamed.weight_changes.len(), schedule.len());
        }
    }

    #[test]
    fn higher_weight_shifts_throughput_under_saturation() {
        // Saturating workload: the SSQ weight should visibly shift
        // completed bytes from reads to writes (Fig. 5's core effect).
        let t = generate_micro(
            &MicroConfig {
                read_count: 2_000,
                write_count: 2_000,
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 40_000.0,
                write_size_mean: 40_000.0,
                ..MicroConfig::default()
            },
            5,
        );
        let at = |w: u32| {
            run_trace_windowed(
                &NodeConfig {
                    discipline: DisciplineKind::Ssq { weight: w },
                    ..NodeConfig::default()
                },
                &t,
            )
        };
        let w1 = at(1);
        let w4 = at(4);
        let r1 = w1.read_tput().as_gbps_f64();
        let r4 = w4.read_tput().as_gbps_f64();
        let wr1 = w1.write_tput().as_gbps_f64();
        let wr4 = w4.write_tput().as_gbps_f64();
        assert!(r4 < r1 * 0.9, "read tput should fall: {r1} -> {r4}");
        assert!(wr4 > wr1 * 1.1, "write tput should rise: {wr1} -> {wr4}");
    }
}
