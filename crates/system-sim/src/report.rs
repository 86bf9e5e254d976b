//! System-run reports: the paper's runtime metrics.

use serde::{Deserialize, Serialize};
use sim_engine::stats::LatencyStats;
use sim_engine::{Rate, SimDuration, SimTime, TimeBinSeries};
use src_core::controller::Decision;

/// Trim fraction applied to summary rates (paper Sec. IV-B).
pub const TRIM_FRAC: f64 = 0.10;

/// Per-Target (per-device) completion totals — what heterogeneous-fleet
/// experiments report alongside the aggregate (reads are counted at the
/// Initiator against the Target that served them, writes at the Target).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TargetTotals {
    /// Completed read requests served by this Target.
    pub reads_completed: u64,
    /// Completed write requests at this Target.
    pub writes_completed: u64,
    /// Read bytes served by this Target.
    pub read_bytes: u64,
    /// Write bytes completed at this Target.
    pub write_bytes: u64,
}

impl TargetTotals {
    /// Mean aggregate (read + write) throughput of this Target over the
    /// run's makespan.
    pub fn mean_gbps(&self, makespan: SimDuration) -> f64 {
        let secs = makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.read_bytes + self.write_bytes) as f64 * 8.0 / secs / 1e9
    }
}

/// Metrics from one full-system run.
///
/// Serializable so checkpointed sweeps (`fig10`, Table IV) can cache
/// whole per-cell reports in their manifests; the serde stub's JSON
/// round-trip is lossless for every field, including the non-finite
/// `min_inbound_rate_gbps` sentinel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemReport {
    /// Read bytes received at Initiators per ms (Fig. 7 blue bars).
    pub read_series: TimeBinSeries,
    /// Write bytes completed at Targets per ms (Fig. 7 orange bars).
    pub write_series: TimeBinSeries,
    /// PFC pause frames received by Targets per ms (Fig. 8).
    pub pause_series: TimeBinSeries,
    /// End-to-end read latency at Initiators, µs.
    pub read_latency_us: LatencyStats,
    /// End-to-end write latency (issue → Target completion), µs.
    pub write_latency_us: LatencyStats,
    /// Completed read requests.
    pub reads_completed: u64,
    /// Completed write requests.
    pub writes_completed: u64,
    /// Total read bytes delivered at Initiators.
    pub read_bytes: u64,
    /// Total write bytes completed at Targets.
    pub write_bytes: u64,
    /// Total pause frames received by Targets.
    pub pauses_total: u64,
    /// Per-target SRC weight decisions (empty in DCQCN-only mode).
    pub decisions: Vec<Vec<Decision>>,
    /// Per-Target completion totals (indexed by Target; see
    /// [`TargetTotals`]).
    pub per_target: Vec<TargetTotals>,
    /// Time of the last completion.
    pub makespan: SimDuration,
    /// Times at which each Target's fetch gate closed (TXQ full).
    pub gate_closures: Vec<(SimTime, usize)>,
    /// ECN-marked packets in the fabric.
    pub ecn_marked: u64,
    /// CNPs generated.
    pub cnps: u64,
    /// Lowest DCQCN rate observed on any Target inbound flow, Gbps.
    pub min_inbound_rate_gbps: f64,
    /// Request attempts that exceeded the initiator timeout (zero when
    /// robustness is off — see `RunOptions::robustness`).
    pub timeouts: u64,
    /// Retry attempts issued after a timeout.
    pub retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Abandoned requests broken down by the Target they were routed to.
    pub per_target_abandoned: Vec<u64>,
    /// TPM prediction-cache hits summed over Targets (zero in
    /// DCQCN-only mode; see `src_core::cache`).
    pub tpm_cache_hits: u64,
    /// TPM prediction-cache misses (each one ran the forest).
    pub tpm_cache_misses: u64,
    /// Burst-coalescing drains that delivered at least one deferred
    /// packet, summed over links (see `net_sim::Network`).
    pub bursts_coalesced: u64,
    /// Packets delivered through the deferred-arrival fast path — each
    /// one an `Arrive` event the queue never carried.
    pub packets_coalesced: u64,
}

impl SystemReport {
    /// Fresh report with 1 ms bins.
    pub fn new(n_targets: usize) -> Self {
        let bin = SimDuration::from_ms(1);
        SystemReport {
            read_series: TimeBinSeries::new(bin),
            write_series: TimeBinSeries::new(bin),
            pause_series: TimeBinSeries::new(bin),
            read_latency_us: LatencyStats::new(),
            write_latency_us: LatencyStats::new(),
            reads_completed: 0,
            writes_completed: 0,
            read_bytes: 0,
            write_bytes: 0,
            pauses_total: 0,
            decisions: vec![Vec::new(); n_targets],
            per_target: vec![TargetTotals::default(); n_targets],
            makespan: SimDuration::ZERO,
            gate_closures: Vec::new(),
            ecn_marked: 0,
            cnps: 0,
            min_inbound_rate_gbps: f64::INFINITY,
            timeouts: 0,
            retries: 0,
            abandoned: 0,
            per_target_abandoned: vec![0; n_targets],
            tpm_cache_hits: 0,
            tpm_cache_misses: 0,
            bursts_coalesced: 0,
            packets_coalesced: 0,
        }
    }

    /// Fraction of this Target's routed requests that completed rather
    /// than being abandoned — 1.0 for a fault-free run. Reads count at
    /// the Initiator against the Target that served them, writes at the
    /// Target.
    pub fn availability(&self, target: usize) -> f64 {
        let done =
            self.per_target[target].reads_completed + self.per_target[target].writes_completed;
        let lost = self.per_target_abandoned[target];
        if done + lost == 0 {
            1.0
        } else {
            done as f64 / (done + lost) as f64
        }
    }

    /// Trimmed-mean read throughput (received at Initiators).
    pub fn read_tput(&self) -> Rate {
        self.read_series.trimmed_mean_rate(TRIM_FRAC)
    }

    /// Trimmed-mean write throughput (obtained at Targets).
    pub fn write_tput(&self) -> Rate {
        self.write_series.trimmed_mean_rate(TRIM_FRAC)
    }

    /// The paper's aggregated throughput: read at Initiators + write at
    /// Targets.
    pub fn aggregated_tput(&self) -> Rate {
        Rate::from_bps(self.read_tput().as_bps() + self.write_tput().as_bps())
    }
}

/// Serializable summary row for the experiment binaries.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemSummary {
    /// Trimmed-mean read throughput, Gbps.
    pub read_gbps: f64,
    /// Trimmed-mean write throughput, Gbps.
    pub write_gbps: f64,
    /// Aggregated throughput, Gbps.
    pub aggregated_gbps: f64,
    /// Total pause frames at Targets.
    pub pauses: u64,
    /// Completed requests.
    pub completed: u64,
    /// Makespan, ms.
    pub makespan_ms: f64,
}

impl From<&SystemReport> for SystemSummary {
    fn from(r: &SystemReport) -> Self {
        SystemSummary {
            read_gbps: r.read_tput().as_gbps_f64(),
            write_gbps: r.write_tput().as_gbps_f64(),
            aggregated_gbps: r.aggregated_tput().as_gbps_f64(),
            pauses: r.pauses_total,
            completed: r.reads_completed + r.writes_completed,
            makespan_ms: r.makespan.as_ms_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut r = SystemReport::new(2);
        for i in 0..10 {
            r.read_series.add(SimTime::from_ms(i), 500_000.0);
            r.write_series.add(SimTime::from_ms(i), 250_000.0);
        }
        let agg = r.aggregated_tput().as_gbps_f64();
        assert!((agg - 6.0).abs() < 0.05, "agg={agg}");
        let s = SystemSummary::from(&r);
        assert!((s.aggregated_gbps - agg).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let r = SystemReport::new(1);
        assert_eq!(r.read_tput(), Rate::ZERO);
        assert_eq!(r.decisions.len(), 1);
    }
}
