//! The run-time SRC controller (paper Fig. 6): workload monitor +
//! throughput prediction model + Algorithm 1, applied on every
//! congestion notification from the network congestion control.

use crate::algorithm::{predict_weight_ratio_cached, DEFAULT_MAX_WEIGHT, DEFAULT_TAU};
use crate::cache::PredictionCache;
use crate::monitor::WorkloadMonitor;
use crate::tpm::ThroughputPredictionModel;
use serde::{Deserialize, Serialize};
use sim_engine::{ProbeBuffer, Rate, SimDuration, SimTime, TraceRecord, TraceSink};
use std::sync::Arc;
use workload::Request;

/// Controller configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SrcConfig {
    /// Prediction window `delta` for the workload monitor (paper: e.g.
    /// 10 ms).
    pub prediction_window: SimDuration,
    /// Convergence threshold `tau` of Algorithm 1.
    pub tau: f64,
    /// Weight-search upper bound.
    pub max_weight: u32,
    /// Minimum spacing between weight recomputations — congestion
    /// notifications can arrive every 50 µs (per CNP), far faster than
    /// the control is meant to react.
    pub min_reaction_interval: SimDuration,
}

impl Default for SrcConfig {
    fn default() -> Self {
        SrcConfig {
            prediction_window: SimDuration::from_ms(10),
            tau: DEFAULT_TAU,
            max_weight: DEFAULT_MAX_WEIGHT,
            min_reaction_interval: SimDuration::from_ms(1),
        }
    }
}

/// One controller decision, for telemetry and the Fig. 9 experiment.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Decision {
    /// When the decision was made.
    pub at: SimTime,
    /// The demanded sending rate that triggered it.
    pub demanded: Rate,
    /// The weight ratio chosen.
    pub weight: u32,
}

/// The storage-side rate controller attached to one Target.
pub struct SrcController {
    tpm: Arc<ThroughputPredictionModel>,
    monitor: WorkloadMonitor,
    cfg: SrcConfig,
    current_weight: u32,
    last_reaction: Option<SimTime>,
    decisions: Vec<Decision>,
    probes: ProbeBuffer,
    scope: u64,
    /// Exact-key memo over this Target's TPM queries (bitwise-identical
    /// results; see [`PredictionCache`]).
    cache: PredictionCache,
}

impl SrcController {
    /// Build from a trained TPM (shared across a machine's Targets).
    pub fn new(tpm: impl Into<Arc<ThroughputPredictionModel>>, cfg: SrcConfig) -> Self {
        SrcController {
            tpm: tpm.into(),
            monitor: WorkloadMonitor::new(cfg.prediction_window),
            cfg,
            current_weight: 1,
            last_reaction: None,
            decisions: Vec::new(),
            probes: ProbeBuffer::default(),
            scope: 0,
            cache: PredictionCache::default(),
        }
    }

    /// Enable or disable telemetry probes; `scope` tags the records
    /// (Target index in multi-target runs). Disabling drops buffered
    /// records.
    pub fn set_telemetry(&mut self, on: bool, scope: u64) {
        self.probes.set_enabled(on);
        self.scope = scope;
    }

    /// Take the buffered trace records (demand seen and weight chosen on
    /// each non-suppressed congestion notification).
    pub fn drain_probes(&mut self) -> Vec<TraceRecord> {
        self.probes.drain()
    }

    /// Drain buffered trace records straight into `sink`, preserving
    /// order and the probe buffer's capacity (the hot-loop form of
    /// [`SrcController::drain_probes`]).
    pub fn drain_probes_into(&mut self, sink: &mut dyn TraceSink) {
        self.probes.drain_into(sink);
    }

    /// Feed the monitor with a request arriving at the Target.
    pub fn observe(&mut self, req: &Request, now: SimTime) {
        self.monitor.observe(req, now);
    }

    /// A congestion notification arrived with the demanded data sending
    /// rate. Returns `Some(new_weight)` when the SSQ weights should
    /// change.
    pub fn on_congestion_notification(&mut self, demanded: Rate, now: SimTime) -> Option<u32> {
        if let Some(last) = self.last_reaction {
            if now.since(last) < self.cfg.min_reaction_interval {
                return None;
            }
        }
        self.last_reaction = Some(now);
        let ch = self.monitor.features(now);
        let w = predict_weight_ratio_cached(
            &self.tpm,
            demanded.as_gbps_f64(),
            &ch,
            self.cfg.tau,
            self.cfg.max_weight,
            Some(&mut self.cache),
        );
        self.decisions.push(Decision {
            at: now,
            demanded,
            weight: w,
        });
        self.probes.record(
            now,
            "src",
            self.scope,
            "demand_gbps",
            demanded.as_gbps_f64(),
        );
        self.probes
            .record(now, "src", self.scope, "weight", w as f64);
        if w != self.current_weight {
            self.current_weight = w;
            Some(w)
        } else {
            None
        }
    }

    /// The weight currently applied.
    pub fn current_weight(&self) -> u32 {
        self.current_weight
    }

    /// Decision log.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The underlying prediction model.
    pub fn tpm(&self) -> &ThroughputPredictionModel {
        &self.tpm
    }

    /// TPM prediction-cache `(hits, misses)` accumulated by this
    /// controller's weight searches.
    pub fn tpm_cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::Dataset;
    use workload::{IoType, WorkloadFeatures};

    fn controller() -> SrcController {
        // Synthetic TPM: read tput ~ 10/w Gbps (see algorithm tests).
        let ch = WorkloadFeatures {
            read_ratio: 0.5,
            read_iat_mean_us: 10.0,
            write_iat_mean_us: 10.0,
            read_size_mean: 30_000.0,
            write_size_mean: 30_000.0,
            read_flow_bpus: 3_000.0,
            write_flow_bpus: 3_000.0,
            ..Default::default()
        };
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _rep in 0..8 {
            for w in 1..=12u32 {
                let mut row = ch.to_vec();
                row.push(w as f64);
                x.push(row);
                y.push(vec![10.0 / w as f64, 2.0 + w as f64]);
            }
        }
        let tpm = ThroughputPredictionModel::train(&Dataset::new(x, y), 40, 0);
        SrcController::new(tpm, SrcConfig::default())
    }

    fn feed(src: &mut SrcController, now_ms: u64) {
        // Keep the monitor populated with a heavy mixed workload.
        for i in 0..100u64 {
            let req = Request {
                id: now_ms * 1000 + i,
                op: if i % 2 == 0 {
                    IoType::Read
                } else {
                    IoType::Write
                },
                lba: i * 8,
                size: 30_000,
                arrival: SimTime::ZERO,
            };
            src.observe(
                &req,
                SimTime::from_ms(now_ms) + SimDuration::from_us(i * 10),
            );
        }
    }

    #[test]
    fn pause_raises_weight_retrieval_lowers_it() {
        let mut src = controller();
        feed(&mut src, 0);
        let w = src.on_congestion_notification(Rate::from_gbps_f64(3.3), SimTime::from_ms(1));
        let w = w.expect("first notification must decide");
        assert!(w >= 2, "pause should raise the weight, got {w}");
        assert_eq!(src.current_weight(), w);
        // Retrieval: demand above full-speed read throughput → w = 1.
        feed(&mut src, 2);
        let w2 = src.on_congestion_notification(Rate::from_gbps(20), SimTime::from_ms(5));
        assert_eq!(w2, Some(1));
        assert_eq!(src.current_weight(), 1);
        assert_eq!(src.decisions().len(), 2);
    }

    #[test]
    fn reaction_interval_suppresses_churn() {
        let mut src = controller();
        feed(&mut src, 0);
        let t = SimTime::from_ms(1);
        let _ = src.on_congestion_notification(Rate::from_gbps(3), t);
        // 50 µs later: suppressed.
        let again =
            src.on_congestion_notification(Rate::from_gbps(5), t + SimDuration::from_us(50));
        assert_eq!(again, None);
        assert_eq!(src.decisions().len(), 1);
    }

    #[test]
    fn telemetry_traces_decisions() {
        let mut src = controller();
        src.set_telemetry(true, 3);
        feed(&mut src, 0);
        let _ = src.on_congestion_notification(Rate::from_gbps_f64(3.3), SimTime::from_ms(1));
        // Suppressed notification: no decision, no probe.
        let _ = src.on_congestion_notification(
            Rate::from_gbps(5),
            SimTime::from_ms(1) + SimDuration::from_us(50),
        );
        let recs = src.drain_probes();
        assert_eq!(recs.len(), 2, "demand + weight per decision");
        assert_eq!(recs[0].metric, "demand_gbps");
        assert!((recs[0].value - 3.3).abs() < 1e-9);
        assert_eq!(recs[1].metric, "weight");
        assert_eq!(recs[0].scope, 3);
        assert!(src.drain_probes().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn unchanged_weight_returns_none() {
        let mut src = controller();
        feed(&mut src, 0);
        let t1 = SimTime::from_ms(1);
        let w1 = src.on_congestion_notification(Rate::from_gbps_f64(5.0), t1);
        assert!(w1.is_some());
        feed(&mut src, 3);
        let w2 = src.on_congestion_notification(Rate::from_gbps_f64(5.0), SimTime::from_ms(4));
        assert_eq!(w2, None, "same demand, same weight → no change signal");
        // But the decision is still logged.
        assert_eq!(src.decisions().len(), 2);
    }
}
