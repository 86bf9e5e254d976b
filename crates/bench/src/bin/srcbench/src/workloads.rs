//! The four workloads: how each sets up, what one rep runs, and how each
//! run's result is digested and checked.
//!
//! One *run* is one system cell or one training sweep; a rep runs every
//! run of the workload once, as a closed batch on the sweep runner.

use crate::stats::{fnv, fnv_f64};
use serde::Serialize;
use sim_engine::{FaultPlan, NullSink, ScenarioRunner};
use src_core::tpm::{
    generate_training_samples, samples_to_dataset, ThroughputPredictionModel, TrainingConfig,
};
use ssd_sim::SsdConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storage_node::{weight_sweep, SweepPoint};
use system_sim::config::{per_target_sources, spread_source, Assignment, Mode, SystemConfig};
use system_sim::experiments::{
    fault_horizon, fault_robustness, faults_for_incast, incast_spec, paper_background, paper_pfc,
    train_tpm, Scale, FAULT_RATIOS,
};
use system_sim::{run_system, RobustnessConfig, RunOptions, SystemReport};
use workload::micro::{generate_micro, MicroConfig};
use workload::source::WorkloadSpec;

/// Every experiment binary trains its TPM with this seed; `--seed` moves
/// only the workload.
pub const TPM_SEED: u64 = 42;

/// The paper's Table IV improvements for 2:1, 3:1, 4:1 and 4:4, percent.
pub const PAPER_GAIN_PCT: [f64; 4] = [33.0, 17.0, 5.0, 3.0];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TpmTrain,
    Incast,
    FaultStorm,
    Intensity,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpmTrain,
        Workload::Incast,
        Workload::FaultStorm,
        Workload::Intensity,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpmTrain => "tpm_train",
            Workload::Incast => "incast",
            Workload::FaultStorm => "fault_storm",
            Workload::Intensity => "intensity",
        }
    }

    /// The seed of the experiment binary each workload mirrors.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::TpmTrain => 42,
            Workload::Incast => 31,
            Workload::FaultStorm => 29,
            Workload::Intensity => 23,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One full-system run, built exactly as the experiment functions build
/// theirs (`srcbench verify` checks that bit for bit).
pub struct Cell {
    pub label: String,
    pub cfg: SystemConfig,
    pub assignments: Arc<Vec<Assignment>>,
    pub faults: Option<(FaultPlan, RobustnessConfig)>,
    pub requests: u64,
    pub reads: u64,
}

impl Cell {
    pub fn src(&self) -> bool {
        self.cfg.mode == Mode::DcqcnSrc
    }

    pub fn run(&self, tpm: &Arc<ThroughputPredictionModel>) -> SystemReport {
        let mut opts = RunOptions::assignments(&self.assignments);
        if let Some((plan, robustness)) = &self.faults {
            opts = opts.faults(plan).robustness(*robustness);
        }
        if self.src() {
            opts = opts.tpm(tpm.clone());
        }
        run_system(&self.cfg, opts, &mut NullSink)
    }

    /// Digest of the run's report if it passes the per-run checks.
    pub fn check(&self, r: &SystemReport) -> Result<u64, String> {
        if r.reads_completed > self.reads {
            return Err(format!(
                "{}: {} reads completed for {} issued",
                self.label, r.reads_completed, self.reads
            ));
        }
        let agg = r.aggregated_tput().as_gbps_f64();
        if !(agg.is_finite() && agg > 0.0) {
            return Err(format!("{}: aggregated throughput {agg} Gbps", self.label));
        }
        Ok(system_digest(r))
    }

    /// Completions + abandoned − requests. A write re-executed after a
    /// lost ack is counted twice at the Target, so this can exceed 0; it
    /// is recorded, not failed.
    pub fn write_overcount(&self, r: &SystemReport) -> i64 {
        (r.reads_completed + r.writes_completed + r.abandoned) as i64 - self.requests as i64
    }
}

/// Fig. 10's "light" class, as `experiments::fig10` defines it inline.
fn light() -> MicroConfig {
    MicroConfig {
        read_iat_mean_us: 40.0,
        write_iat_mean_us: 40.0,
        read_size_mean: 4_000.0,
        write_size_mean: 4_000.0,
        ..MicroConfig::default()
    }
}

/// The cells of a system workload: `(DCQCN-only, DCQCN-SRC)` per ratio or
/// intensity class, in the experiment's row order.
pub fn cells(w: Workload, seed: u64) -> Vec<Cell> {
    let scale = Scale::full();
    let ssd = SsdConfig::ssd_a();
    let mut cells = Vec::new();
    let mut push_pair =
        |label: String, base: SystemConfig, a: Vec<Assignment>, faults: Option<_>| {
            let a = Arc::new(a);
            for mode in [Mode::DcqcnOnly, Mode::DcqcnSrc] {
                let tag = if mode == Mode::DcqcnOnly {
                    "only"
                } else {
                    "src"
                };
                cells.push(Cell {
                    label: format!("{label}/{tag}"),
                    cfg: base.to_builder().mode(mode).build(),
                    requests: a.len() as u64,
                    reads: a.iter().filter(|x| x.request.op.is_read()).count() as u64,
                    assignments: a.clone(),
                    faults: faults.clone(),
                });
            }
        };
    match w {
        Workload::TpmTrain => unreachable!("tpm_train has no system cells"),
        Workload::Incast | Workload::FaultStorm => {
            for (n_targets, n_initiators) in FAULT_RATIOS {
                let spec = incast_spec(&scale, n_targets);
                let a = spread_source(&spec, seed, n_initiators, n_targets);
                let base = SystemConfig::builder()
                    .n_initiators(n_initiators)
                    .n_targets(n_targets)
                    .ssd(ssd.clone())
                    .workload(spec)
                    .background(paper_background(&a))
                    .pfc(paper_pfc())
                    .build();
                let faults = (w == Workload::FaultStorm).then(|| {
                    let h = fault_horizon(&scale);
                    let plan = faults_for_incast(1.0, h, n_initiators, n_targets, seed);
                    (plan, fault_robustness(&scale))
                });
                push_pair(format!("{n_targets}:{n_initiators}"), base, a, faults);
            }
        }
        Workload::Intensity => {
            let n = scale.requests_per_target;
            let classes = [
                ("light", light()),
                ("moderate", MicroConfig::moderate()),
                ("heavy", MicroConfig::heavy()),
            ];
            for (label, mc) in classes {
                let spec = WorkloadSpec::Micro(MicroConfig {
                    read_count: n,
                    write_count: n,
                    ..mc
                });
                let specs = vec![spec; 2];
                let a = per_target_sources(&specs, seed, 1);
                let base = SystemConfig::builder()
                    .n_initiators(1)
                    .n_targets(2)
                    .ssd(ssd.clone())
                    .workloads(specs)
                    .background(paper_background(&a))
                    .pfc(paper_pfc())
                    .build();
                push_pair(label.to_string(), base, a, None);
            }
        }
    }
    cells
}

/// Run `f` on every cell on the sweep runner, largest first, and return
/// the results in cell order. Largest-first leaves the small cells for
/// the end of a rep, so the two workers idle less while the last cell
/// finishes and the rep's host time depends less on which worker drew it.
pub fn run_cells<R: Send>(cells: &[Cell], f: impl Fn(&Cell) -> R + Sync) -> Vec<R> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cells[i].requests));
    let results = ScenarioRunner::from_env().run_cells(&order, |_, &i| f(&cells[i]));
    let mut indexed: Vec<(usize, R)> = order.into_iter().zip(results).collect();
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// FNV digest of the serialized report with the fast-path counters
/// zeroed: deleting a fast path must not read as a changed result.
pub fn system_digest(r: &SystemReport) -> u64 {
    let mut r = r.clone();
    r.tpm_cache_hits = 0;
    r.tpm_cache_misses = 0;
    r.bursts_coalesced = 0;
    r.packets_coalesced = 0;
    fnv(serde_json::to_string(&r)
        .expect("serializable report")
        .into_bytes())
}

/// Improvement of SRC over DCQCN-only per `(only, src)` pair, percent,
/// as the experiment rows compute it.
pub fn gains_pct(reports: &[SystemReport]) -> Vec<f64> {
    reports
        .chunks(2)
        .map(|p| {
            let only = p[0].aggregated_tput().as_gbps_f64();
            let src = p[1].aggregated_tput().as_gbps_f64();
            if only > 0.0 {
                (src - only) / only * 100.0
            } else {
                0.0
            }
        })
        .collect()
}

/// 16 held-out traces (the training grid's iat × size cells at mix 0.5,
/// seeds `seed + 10_000 + i`) swept over the training weights.
pub fn holdout(ssd: &SsdConfig, seed: u64) -> Vec<SweepPoint> {
    let cfg = TrainingConfig::full();
    let grid: Vec<(f64, f64)> = cfg
        .iat_means_us
        .iter()
        .flat_map(|&iat| cfg.size_means.iter().map(move |&size| (iat, size)))
        .collect();
    let per_class = cfg.requests_per_class;
    ScenarioRunner::from_env()
        .run_cells(&grid, |i, &(iat, size)| {
            let mc = MicroConfig {
                read_iat_mean_us: iat,
                write_iat_mean_us: iat,
                read_size_mean: size,
                write_size_mean: size,
                read_count: per_class,
                write_count: per_class,
                ..MicroConfig::default()
            };
            let trace = generate_micro(&mc, seed.wrapping_add(10_000 + i as u64));
            weight_sweep(ssd, &trace, &cfg.weights)
        })
        .into_iter()
        .flatten()
        .collect()
}

pub fn predictions(tpm: &ThroughputPredictionModel, rows: &[SweepPoint]) -> Vec<(f64, f64)> {
    rows.iter()
        .map(|p| tpm.predict(&p.features, p.weight))
        .collect()
}

/// R² of the predictions against the measured hold-out throughput.
pub fn holdout_r2(rows: &[SweepPoint], preds: &[(f64, f64)]) -> f64 {
    let truth: Vec<Vec<f64>> = rows.iter().map(|p| p.y()).collect();
    let pred: Vec<Vec<f64>> = preds.iter().map(|&(r, w)| vec![r, w]).collect();
    ml::r2_score_multi(&truth, &pred)
}

/// Digest of a training sweep: the f64 bits of every sample, then the
/// trained model's hold-out predictions.
pub fn training_digest(samples: &[SweepPoint], preds: &[(f64, f64)]) -> Result<u64, String> {
    let bad = samples
        .iter()
        .flat_map(|p| p.y())
        .chain(preds.iter().flat_map(|&(r, w)| [r, w]))
        .find(|v| !(v.is_finite() && *v >= 0.0));
    if let Some(v) = bad {
        return Err(format!("training sweep: throughput {v} Gbps"));
    }
    Ok(fnv_f64(
        samples
            .iter()
            .flat_map(|p| p.x().into_iter().chain(p.y()))
            .chain(preds.iter().flat_map(|&(r, w)| [r, w])),
    ))
}

/// `train_for_device`, split into its two public steps so the rep keeps
/// the samples it digests.
pub fn train(ssd: &SsdConfig, seed: u64) -> (Vec<SweepPoint>, ThroughputPredictionModel) {
    let cfg = TrainingConfig::full();
    let samples = generate_training_samples(ssd, &cfg, seed);
    let tpm = ThroughputPredictionModel::train(&samples_to_dataset(&samples), cfg.n_trees, seed);
    (samples, tpm)
}

/// Run `f`, turning a panic into an error naming its message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// What a rep needs that is not timed.
pub enum Prepared {
    Training {
        holdout: Vec<SweepPoint>,
    },
    System {
        workload: Workload,
        tpm: Arc<ThroughputPredictionModel>,
        cells: Vec<Cell>,
    },
}

impl Prepared {
    /// The set-up step: everything between process start and rep 1.
    pub fn new(w: Workload, seed: u64) -> Prepared {
        match w {
            Workload::TpmTrain => Prepared::Training {
                holdout: holdout(&SsdConfig::ssd_b(), seed),
            },
            _ => Prepared::system(
                w,
                seed,
                train_tpm(&SsdConfig::ssd_a(), &Scale::full(), TPM_SEED),
            ),
        }
    }

    pub fn system(w: Workload, seed: u64, tpm: Arc<ThroughputPredictionModel>) -> Prepared {
        Prepared::System {
            workload: w,
            tpm,
            cells: cells(w, seed),
        }
    }

    /// Simulated requests one rep issues.
    pub fn requests(&self) -> u64 {
        match self {
            Prepared::Training { .. } => {
                let cfg = TrainingConfig::full();
                let traces = cfg.iat_means_us.len()
                    * cfg.size_means.len()
                    * cfg.read_mixes.len()
                    * cfg.seeds_per_cell;
                (traces * 2 * cfg.requests_per_class * cfg.weights.len()) as u64
            }
            Prepared::System { cells, .. } => cells.iter().map(|c| c.requests).sum(),
        }
    }

    /// One timed rep. Digests and checks run after the clock stops.
    pub fn rep(&self, seed: u64) -> Rep {
        match self {
            Prepared::Training { holdout } => {
                let started = Instant::now();
                let trained = guarded(|| train(&SsdConfig::ssd_b(), seed));
                let wall_s = started.elapsed().as_secs_f64();
                match trained {
                    Ok((samples, tpm)) => Rep::training(wall_s, &samples, &tpm, holdout),
                    Err(e) => Rep::failed(wall_s, format!("sweep: panicked: {e}")),
                }
            }
            Prepared::System {
                workload,
                tpm,
                cells,
            } => {
                let started = Instant::now();
                let reports = run_cells(cells, |cell| guarded(|| cell.run(tpm)));
                let wall_s = started.elapsed().as_secs_f64();
                Rep::system(*workload, wall_s, cells, reports)
            }
        }
    }
}

/// A finished rep: host time, each run's digest or failure, and the
/// simulated results the deterministic metrics come from.
pub struct Rep {
    pub wall_s: f64,
    pub runs: Vec<(String, Result<u64, String>)>,
    /// `(name, value, unit)` of the simulated (deterministic) metrics.
    pub simulated: Vec<(&'static str, f64, &'static str)>,
    pub reports: Vec<SystemReport>,
}

impl Rep {
    pub fn training(
        wall_s: f64,
        samples: &[SweepPoint],
        tpm: &ThroughputPredictionModel,
        holdout: &[SweepPoint],
    ) -> Rep {
        let preds = predictions(tpm, holdout);
        Rep {
            wall_s,
            runs: vec![("sweep".into(), training_digest(samples, &preds))],
            simulated: vec![("tpm_holdout_r2", holdout_r2(holdout, &preds), "R2")],
            reports: Vec::new(),
        }
    }

    /// A training rep whose sweep panicked.
    pub fn failed(wall_s: f64, why: String) -> Rep {
        Rep {
            wall_s,
            runs: vec![("sweep".into(), Err(why))],
            simulated: Vec::new(),
            reports: Vec::new(),
        }
    }

    pub fn system(
        w: Workload,
        wall_s: f64,
        cells: &[Cell],
        reports: Vec<Result<SystemReport, String>>,
    ) -> Rep {
        let runs = cells
            .iter()
            .zip(&reports)
            .map(|(c, r)| {
                let outcome = match r {
                    Ok(r) => c.check(r),
                    Err(e) => Err(format!("{}: panicked: {e}", c.label)),
                };
                (c.label.clone(), outcome)
            })
            .collect();
        let reports: Vec<SystemReport> = reports.into_iter().filter_map(Result::ok).collect();
        let mut simulated = Vec::new();
        if reports.len() == cells.len() {
            let gains = gains_pct(&reports);
            simulated.push(("src_gain_pct", mean(&gains), "%"));
            if w == Workload::Incast {
                let gap: Vec<f64> = gains
                    .iter()
                    .zip(PAPER_GAIN_PCT)
                    .map(|(g, p)| (g - p).abs())
                    .collect();
                simulated.push(("paper_gap_pp", mean(&gap), "pp"));
            }
            let over: i64 = cells
                .iter()
                .zip(&reports)
                .map(|(c, r)| c.write_overcount(r))
                .sum();
            simulated.push(("fabric.write_overcount", over as f64, "count"));
        }
        Rep {
            wall_s,
            runs,
            simulated,
            reports,
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Hex digest for JSON output.
pub fn hex(d: &Result<u64, String>) -> serde::Value {
    match d {
        Ok(d) => format!("{d:016x}").to_value(),
        Err(e) => format!("failed: {e}").to_value(),
    }
}
