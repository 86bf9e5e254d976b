//! Weight-ratio sweeps (Fig. 5) and TPM training-sample generation.

use crate::node::{DisciplineKind, NodeConfig};
use crate::runner::run_trace_impl;
use serde::{Deserialize, Serialize};
use sim_engine::{NullSink, SimWorkspace};
use ssd_sim::SsdConfig;
use workload::source::WorkloadSource;
use workload::{extract_features, Trace, WorkloadFeatures};

/// One point of a weight sweep: the measured read/write throughput of a
/// workload under a given SSQ weight ratio.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Write:read weight ratio.
    pub weight: u32,
    /// Trimmed-mean read throughput, Gbps.
    pub read_gbps: f64,
    /// Trimmed-mean write throughput, Gbps.
    pub write_gbps: f64,
    /// Workload features of the trace that produced this point.
    pub features: WorkloadFeatures,
}

/// Run `trace` on `ssd` for every weight in `weights`; one sweep row of
/// Fig. 5, and the raw material for TPM training samples. Points come
/// in `weights` order, each bit-identical to a
/// [`crate::run_trace_windowed`] of `trace` at its weight.
///
/// Each distinct run is simulated once. The first weight without a
/// point runs with every other such weight tracked as a twin (see
/// [`nvme_queues::QueueDiscipline::track_twins`]); the twins that
/// survive the run take its throughput too, and the loop repeats. Under
/// light load, where the weighted round-robin fades out, one run serves
/// the whole sweep. The runs go one after another in one
/// [`SimWorkspace`]: callers sweep many traces in a parallel grid.
pub fn weight_sweep(ssd: &SsdConfig, trace: &Trace, weights: &[u32]) -> Vec<SweepPoint> {
    let features = extract_features(trace.requests());
    let mut points: Vec<Option<SweepPoint>> = vec![None; weights.len()];
    let mut ws = SimWorkspace::new();
    while let Some(first) = points.iter().position(Option::is_none) {
        let w = weights[first];
        let pending = weights.iter().zip(&points).filter(|(_, p)| p.is_none());
        let mut twins: Vec<u32> = pending.map(|(&v, _)| v).filter(|&v| v != w).collect();
        let cfg = NodeConfig {
            ssd: ssd.clone(),
            discipline: DisciplineKind::Ssq { weight: w },
            merge_cap: None,
        };
        let r = run_trace_impl(
            &cfg,
            trace,
            &[],
            Some(trace.span()),
            &mut ws,
            &mut NullSink,
            &mut twins,
        );
        let (read_gbps, write_gbps) = (r.read_tput().as_gbps_f64(), r.write_tput().as_gbps_f64());
        for (p, &v) in points.iter_mut().zip(weights) {
            if p.is_none() && (v == w || twins.contains(&v)) {
                *p = Some(SweepPoint {
                    weight: v,
                    read_gbps,
                    write_gbps,
                    features,
                });
            }
        }
    }
    points
        .into_iter()
        .map(|p| p.expect("every weight is run or a surviving twin"))
        .collect()
}

/// [`weight_sweep`] on a workload source: the source resolves to its
/// trace with `seed` first (bit-identical to generating the trace by
/// hand and calling [`weight_sweep`]). This is the seam replayed
/// recordings use to enter the Fig. 5 sweep machinery.
pub fn weight_sweep_source<S: WorkloadSource + ?Sized>(
    ssd: &SsdConfig,
    source: &S,
    seed: u64,
    weights: &[u32],
) -> Vec<SweepPoint> {
    weight_sweep(ssd, &source.generate(seed), weights)
}

impl SweepPoint {
    /// TPM feature vector: workload features followed by the weight
    /// ratio (the `(Ch, w)` input of Eq. 1).
    pub fn x(&self) -> Vec<f64> {
        let mut v = self.features.to_vec();
        v.push(self.weight as f64);
        v
    }

    /// TPM target vector `[TPUT_R, TPUT_W]` in Gbps.
    pub fn y(&self) -> Vec<f64> {
        vec![self.read_gbps, self.write_gbps]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::micro::{generate_micro, MicroConfig};

    #[test]
    fn sweep_has_expected_shape() {
        let trace = generate_micro(
            &MicroConfig {
                read_count: 1_200,
                write_count: 1_200,
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 36_000.0,
                write_size_mean: 36_000.0,
                ..MicroConfig::default()
            },
            7,
        );
        let pts = weight_sweep(&SsdConfig::ssd_a(), &trace, &[1, 2, 4, 8]);
        assert_eq!(pts.len(), 4);
        // Read throughput monotonically non-increasing (within noise),
        // write non-decreasing, across the sweep's ends.
        assert!(pts[3].read_gbps < pts[0].read_gbps);
        assert!(pts[3].write_gbps > pts[0].write_gbps);
        // x/y vectors shaped for the TPM.
        assert_eq!(pts[0].x().len(), workload::features::N_FEATURES + 1);
        assert_eq!(pts[0].y().len(), 2);
        assert_eq!(pts[0].x().last().copied(), Some(1.0));
    }

    #[test]
    fn light_workload_insensitive_to_weight() {
        // Fig. 5 bottom-left corner: long inter-arrival, small requests —
        // the weight knob has no authority.
        let trace = generate_micro(
            &MicroConfig {
                read_count: 400,
                write_count: 400,
                read_iat_mean_us: 120.0,
                write_iat_mean_us: 120.0,
                read_size_mean: 8_000.0,
                write_size_mean: 8_000.0,
                ..MicroConfig::default()
            },
            8,
        );
        let pts = weight_sweep(&SsdConfig::ssd_a(), &trace, &[1, 8]);
        let rel = (pts[0].read_gbps - pts[1].read_gbps).abs() / pts[0].read_gbps.max(1e-9);
        assert!(rel < 0.1, "light load should fade out WRR, delta={rel}");
    }

    /// Weights 2..=8 tracked as twins of a weight-1 run of `trace`; the
    /// survivors come back.
    fn surviving_twins(ssd: SsdConfig, trace: &Trace) -> Vec<u32> {
        let cfg = NodeConfig {
            ssd,
            discipline: DisciplineKind::Ssq { weight: 1 },
            merge_cap: None,
        };
        let mut twins: Vec<u32> = (2..=8).collect();
        run_trace_impl(
            &cfg,
            trace,
            &[],
            Some(trace.span()),
            &mut SimWorkspace::new(),
            &mut NullSink,
            &mut twins,
        );
        twins
    }

    #[test]
    fn light_ssd_b_trace_keeps_every_twin() {
        // Sparse small requests never find both queues eligible with the
        // write tokens spent, so every weight fetches alike: one run
        // serves the whole sweep.
        let trace = generate_micro(
            &MicroConfig {
                read_count: 300,
                write_count: 300,
                read_iat_mean_us: 100.0,
                write_iat_mean_us: 100.0,
                read_size_mean: 8_000.0,
                write_size_mean: 8_000.0,
                ..MicroConfig::default()
            },
            3,
        );
        assert_eq!(
            surviving_twins(SsdConfig::ssd_b(), &trace),
            (2..=8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn saturated_ssd_a_trace_loses_every_twin() {
        let trace = generate_micro(
            &MicroConfig {
                read_count: 1_000,
                write_count: 1_000,
                read_iat_mean_us: 6.0,
                write_iat_mean_us: 6.0,
                read_size_mean: 40_000.0,
                write_size_mean: 40_000.0,
                ..MicroConfig::default()
            },
            4,
        );
        assert!(surviving_twins(SsdConfig::ssd_a(), &trace).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The twin sweep equals one `run_trace_windowed` per weight, by
        /// f64 bits, from idle to saturated load on both devices, for
        /// weight lists with repeats in any order. At queue depth 2 every
        /// weight gets the same per-class caps, so only the queue a
        /// fetch takes tells weights apart.
        #[test]
        fn prop_sweep_equals_one_run_per_weight(
            b_device in 0u8..2,
            shallow in 0u8..2,
            small_lba in 0u8..2,
            seed in 0u64..1_000,
            read_iat in 2.0f64..150.0,
            write_iat in 2.0f64..150.0,
            read_size in 4_000.0f64..64_000.0,
            write_size in 4_000.0f64..64_000.0,
            read_count in 1usize..300,
            write_count in 1usize..300,
            weights in proptest::collection::vec(1u32..9, 1..9),
        ) {
            let mut ssd = if b_device == 1 { SsdConfig::ssd_b() } else { SsdConfig::ssd_a() };
            if shallow == 1 {
                ssd.queue_depth = 2;
            }
            let trace = generate_micro(
                &MicroConfig {
                    read_iat_mean_us: read_iat,
                    write_iat_mean_us: write_iat,
                    read_size_mean: read_size,
                    write_size_mean: write_size,
                    read_count,
                    write_count,
                    // A small address space makes the consistency
                    // checker reroute.
                    lba_space_sectors: if small_lba == 1 { 512 } else { 1 << 22 },
                    ..MicroConfig::default()
                },
                seed,
            );
            let bits = |w: u32, read: f64, write: f64| (w, read.to_bits(), write.to_bits());
            let swept: Vec<_> = weight_sweep(&ssd, &trace, &weights)
                .iter()
                .map(|p| bits(p.weight, p.read_gbps, p.write_gbps))
                .collect();
            let alone: Vec<_> = weights
                .iter()
                .map(|&w| {
                    let cfg = NodeConfig {
                        ssd: ssd.clone(),
                        discipline: DisciplineKind::Ssq { weight: w },
                        merge_cap: None,
                    };
                    let r = crate::run_trace_windowed(&cfg, &trace);
                    bits(w, r.read_tput().as_gbps_f64(), r.write_tput().as_gbps_f64())
                })
                .collect();
            proptest::prop_assert_eq!(swept, alone);
        }
    }
}
