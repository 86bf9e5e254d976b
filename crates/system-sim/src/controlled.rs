//! In-the-loop control harness: a storage node driven by a trace while a
//! [`RateController`] — TPM-based or reactive — adjusts the SSQ weights
//! from live measurements at a fixed control period.
//!
//! This is the testbed for the paper's Sec. II-C design argument: the
//! reactive stepper needs one control period per weight step, while the
//! TPM controller jumps straight to Algorithm 1's answer.

use sim_engine::{ArrivalCursor, EventQueue, SimDuration, SimTime, TimeBinSeries};
use src_core::algorithm::CongestionEvent;
use src_core::reactive::RateController;
use src_core::WorkloadMonitor;
use ssd_sim::{SsdEvent, SsdStep};
use storage_node::{DisciplineKind, NodeConfig, StorageNode};
use workload::{IoType, Trace};

/// Result of a controlled run.
#[derive(Debug)]
pub struct ControlledResult {
    /// Read bytes per ms.
    pub read_series: TimeBinSeries,
    /// Write bytes per ms.
    pub write_series: TimeBinSeries,
    /// Applied weight changes `(time, w)`.
    pub weight_changes: Vec<(SimTime, u32)>,
    /// For each congestion event: time until the measured read rate
    /// first came within 25 % of the demanded rate (NaN = never).
    pub settle_ms: Vec<f64>,
}

enum Ev {
    Arrival(usize),
    Ssd(SsdEvent),
    Tick,
    Event(usize),
}

/// Sliding-window read-rate meter.
struct RateMeter {
    window: SimDuration,
    samples: std::collections::VecDeque<(SimTime, u64)>,
    total: u64,
}

impl RateMeter {
    fn new(window: SimDuration) -> Self {
        RateMeter {
            window,
            samples: Default::default(),
            total: 0,
        }
    }
    fn push(&mut self, at: SimTime, bytes: u64) {
        self.samples.push_back((at, bytes));
        self.total += bytes;
        self.evict(at);
    }
    fn evict(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window);
        while self.samples.front().is_some_and(|&(t, _)| t < cutoff) {
            let (_, b) = self.samples.pop_front().expect("checked");
            self.total -= b;
        }
    }
    fn gbps(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.total as f64 * 8.0 / self.window.as_secs_f64() / 1e9
    }
}

/// Run `trace` on an SSQ node; `events` set the demanded rate over time;
/// `controller` is ticked every `tick` with the measured read rate.
pub fn run_controlled(
    ssd: &ssd_sim::SsdConfig,
    trace: &Trace,
    events: &[CongestionEvent],
    controller: &mut dyn RateController,
    tick: SimDuration,
) -> ControlledResult {
    assert!(tick > SimDuration::ZERO);
    let mut node = StorageNode::new(&NodeConfig {
        ssd: ssd.clone(),
        discipline: DisciplineKind::Ssq { weight: 1 },
        merge_cap: None,
    });
    let mut monitor = WorkloadMonitor::new(SimDuration::from_ms(10));
    let mut meter = RateMeter::new(SimDuration::from_ms(3));
    let bin = SimDuration::from_ms(1);
    let mut res = ControlledResult {
        read_series: TimeBinSeries::new(bin),
        write_series: TimeBinSeries::new(bin),
        weight_changes: Vec::new(),
        settle_ms: vec![f64::NAN; events.len()],
    };

    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut step = SsdStep::default();
    let mut arrivals = ArrivalCursor::new(
        trace
            .requests()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.arrival, i)),
    );
    for (i, e) in events.iter().enumerate() {
        q.schedule(e.at, Ev::Event(i));
    }
    q.schedule(SimTime::ZERO + tick, Ev::Tick);

    let horizon = trace.span();
    let mut demanded: Option<(usize, f64)> = None; // (event idx, gbps)

    while let Some((now, ev)) = arrivals.pop(&mut q, Ev::Arrival) {
        if now > horizon {
            break;
        }
        match ev {
            Ev::Arrival(i) => {
                let r = trace.requests()[i];
                monitor.observe(&r, now);
                step.clear();
                node.submit_into(r, now, &mut step);
                for &(t, e) in &step.schedule {
                    q.schedule(t, Ev::Ssd(e));
                }
            }
            Ev::Ssd(e) => {
                step.clear();
                node.on_ssd_event_into(e, now, &mut step);
                for c in &step.completions {
                    match c.op {
                        IoType::Read => {
                            res.read_series.add(now, c.size as f64);
                            meter.push(now, c.size);
                        }
                        IoType::Write => res.write_series.add(now, c.size as f64),
                    }
                }
                for &(t, e2) in &step.schedule {
                    q.schedule(t, Ev::Ssd(e2));
                }
            }
            Ev::Event(i) => {
                demanded = Some((i, events[i].demanded.as_gbps_f64()));
            }
            Ev::Tick => {
                if let Some((ei, d)) = demanded {
                    let measured = meter.gbps(now);
                    // Settle detection.
                    if res.settle_ms[ei].is_nan() && (measured - d).abs() / d.max(1e-9) < 0.25 {
                        res.settle_ms[ei] = now.since(events[ei].at).as_ms_f64();
                    }
                    let ch = monitor.features(now);
                    if let Some(w) = controller.control(d, measured, &ch, now) {
                        node.set_weight_ratio(w);
                        res.weight_changes.push((now, w));
                        step.clear();
                        node.pump_into(now, &mut step);
                        for &(t, e2) in &step.schedule {
                            q.schedule(t, Ev::Ssd(e2));
                        }
                    }
                }
                q.schedule(now + tick, Ev::Tick);
            }
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::Rate;
    use src_core::algorithm::CongestionKind;
    use src_core::reactive::{ReactiveConfig, ReactiveController};
    use workload::micro::{generate_micro, MicroConfig};

    #[test]
    fn reactive_controller_converges_in_the_loop() {
        let trace = generate_micro(
            &MicroConfig {
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 40_000.0,
                write_size_mean: 40_000.0,
                read_count: 6_000,
                write_count: 6_000,
                ..MicroConfig::default()
            },
            5,
        );
        let events = vec![CongestionEvent {
            at: SimTime::from_ms(10),
            demanded: Rate::from_gbps_f64(0.8),
            kind: CongestionKind::Pause,
        }];
        let mut ctl = ReactiveController::new(ReactiveConfig::default());
        let r = run_controlled(
            &ssd_sim::SsdConfig::ssd_a(),
            &trace,
            &events,
            &mut ctl,
            SimDuration::from_ms(1),
        );
        // It took multiple steps (several weight changes), and converged.
        assert!(
            r.weight_changes.len() >= 2,
            "reactive should need several steps: {:?}",
            r.weight_changes
        );
        assert!(ctl.current_weight() > 1);
        assert!(
            r.settle_ms[0].is_finite(),
            "should settle near the demanded rate"
        );
    }

    #[test]
    fn rate_meter_window() {
        let mut m = RateMeter::new(SimDuration::from_ms(2));
        m.push(SimTime::from_ms(1), 250_000); // 1 Gbps over 2 ms window
        assert!((m.gbps(SimTime::from_ms(1)) - 1.0).abs() < 0.01);
        // After the window passes, the sample evicts.
        assert!(m.gbps(SimTime::from_ms(4)) < 0.01);
    }

    #[test]
    fn tpm_controller_needs_fewer_actions_than_reactive() {
        use src_core::reactive::TpmRateController;
        use src_core::tpm::{ThroughputPredictionModel, TrainingConfig};
        let ssd = ssd_sim::SsdConfig::ssd_a();
        let trace = generate_micro(
            &MicroConfig {
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 40_000.0,
                write_size_mean: 40_000.0,
                read_count: 4_000,
                write_count: 4_000,
                ..MicroConfig::default()
            },
            5,
        );
        let events = vec![CongestionEvent {
            at: SimTime::from_ms(8),
            demanded: Rate::from_gbps_f64(0.8),
            kind: CongestionKind::Pause,
        }];
        let tick = SimDuration::from_ms(1);
        let mut reactive = ReactiveController::new(ReactiveConfig::default());
        let rr = run_controlled(&ssd, &trace, &events, &mut reactive, tick);
        let tpm = std::sync::Arc::new(ThroughputPredictionModel::train_for_device(
            &ssd,
            &TrainingConfig::quick(),
            1,
        ));
        let mut tc = TpmRateController::new(tpm, 0.1, 16);
        let rt = run_controlled(&ssd, &trace, &events, &mut tc, tick);
        // The paper's Sec. II-C argument: prediction replaces a staircase
        // of reactive corrections.
        assert!(
            rt.weight_changes.len() < rr.weight_changes.len(),
            "TPM {} actions vs reactive {}",
            rt.weight_changes.len(),
            rr.weight_changes.len()
        );
        assert!(!rt.weight_changes.is_empty());
    }
}
