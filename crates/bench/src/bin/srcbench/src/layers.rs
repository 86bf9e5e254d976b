//! `srcbench trace`: the per-layer pass.
//!
//! Every number here comes from spans around the benchmark's own calls
//! into each crate's public functions, or from counters the simulator
//! already reports. Time inside `run_system` is split only by an outside
//! estimate (replaying each Target's requests through a bare storage
//! node); in-program spans are future work.

use crate::stats::quartiles;
use crate::trace::Recorder;
use crate::workloads::{guarded, run_cells, Cell};
use ml::{FlatForest, RandomForest, RandomForestParams};
use sim_engine::{ScenarioRunner, SimWorkspace};
use src_core::tpm::{samples_to_dataset, ThroughputPredictionModel, TrainingConfig};
use ssd_sim::standalone::run_closed_loop;
use ssd_sim::{SsdCommand, SsdConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use storage_node::{run_trace, run_trace_windowed_in, DisciplineKind, NodeConfig, SweepPoint};
use system_sim::SystemReport;
use workload::micro::{generate_micro, MicroConfig};
use workload::{extract_features, Trace};

const SWEEP: &str = "sim_engine.sweep";
const GEN: &str = "workload.gen";
const NODE_RUN: &str = "storage_node.run";
const FIT: &str = "ml.fit";
const FLATTEN: &str = "ml.flatten";
const SSD_REPLAY: &str = "ssd_sim.replay";
const PREDICT: &str = "ml.predict";
const GRID: &str = "system_sim.grid";
const CELL: &str = "system_sim.run";
const NODE_REPLAY: &str = "storage_node.replay";

/// The per-layer metrics `srcbench trace` prints, in `BENCHMARK.json`
/// order: `(name, unit)`. Layers a workload does not run read 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("workload.gen_s", "s"),
    ("storage_node.run_s", "s"),
    ("storage_node.run_p50_ms", "ms"),
    ("storage_node.run_p98_ms", "ms"),
    ("storage_node.sim_req_per_s", "1/s"),
    ("storage_node.allocs_per_req", "count"),
    ("ssd_sim.replay_s", "s"),
    ("ssd_sim.ns_per_cmd", "ns"),
    ("ml.fit_s", "s"),
    ("ml.flatten_s", "s"),
    ("ml.predict_ns", "ns"),
    ("sim_engine.runner_eff", "ratio"),
    ("system_sim.cell_max_share", "ratio"),
    ("system_sim.src_over_only", "ratio"),
    ("system_sim.storage_share", "ratio"),
    ("system_sim.allocs_per_req", "count"),
    ("net_sim.ecn_per_req", "count"),
    ("net_sim.cnps", "count"),
    ("net_sim.pauses", "count"),
    ("net_sim.coalesced_per_req", "count"),
    ("fabric.retries", "count"),
    ("fabric.timeouts", "count"),
    ("fabric.retry_ratio", "ratio"),
    ("fabric.write_overcount", "count"),
    ("core.decisions", "count"),
    ("core.tpm_queries", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// `(metric name, value)` pairs.
pub type Named = Vec<(&'static str, f64)>;

/// A traced training sweep and what the per-layer numbers need from it.
pub struct TracedTraining {
    pub samples: Vec<SweepPoint>,
    pub traces: Vec<Trace>,
    pub tpm: Arc<ThroughputPredictionModel>,
    /// Host time of sweep + fit + flatten: the traced counterpart of an
    /// untraced training rep.
    pub wall_s: f64,
    sweep_s: f64,
    requests: u64,
}

/// `train_for_device` decomposed into the public calls it makes, each in
/// a span: the same trace grid, seeds, order and per-worker workspace as
/// `generate_training_samples`, so the samples (and the digest gate that
/// checks them) are bit-identical to an untraced rep.
///
/// This is a replica of `generate_training_samples` (and of the
/// `weight_sweep` it calls) and must change together with it: the spans
/// time the replica's call structure, not the library's. `srcbench
/// verify` fails when the two produce different samples.
pub fn traced_training(rec: &Recorder, rep: u64, ssd: &SsdConfig, seed: u64) -> TracedTraining {
    let cfg = TrainingConfig::full();
    let mut combos: Vec<(f64, f64, f64)> = Vec::new();
    for &iat in &cfg.iat_means_us {
        for &size in &cfg.size_means {
            for &mix in &cfg.read_mixes {
                for _ in 0..cfg.seeds_per_cell.max(1) {
                    combos.push((iat, size, mix));
                }
            }
        }
    }
    let started = Instant::now();
    let per_trace = rec.span(rep, 0, SWEEP, "training grid", |sweep| {
        ScenarioRunner::from_env().run_cells(&combos, |i, &(iat, size, mix)| {
            let total = 2 * cfg.requests_per_class;
            let read_count = ((total as f64) * mix).round() as usize;
            let mc = MicroConfig {
                read_iat_mean_us: iat,
                write_iat_mean_us: iat,
                read_size_mean: size,
                write_size_mean: size,
                read_count: read_count.max(1),
                write_count: (total - read_count).max(1),
                ..MicroConfig::default()
            };
            let label = format!("trace{i}");
            let (trace, features) = rec.span(rep, sweep, GEN, label.clone(), |_| {
                let t = generate_micro(&mc, seed.wrapping_add(i as u64));
                let f = extract_features(t.requests());
                (t, f)
            });
            let mut ws = SimWorkspace::new();
            let points: Vec<SweepPoint> = cfg
                .weights
                .iter()
                .map(|&w| {
                    rec.span(rep, sweep, NODE_RUN, format!("{label}/w{w}"), |_| {
                        let node = NodeConfig {
                            ssd: ssd.clone(),
                            discipline: DisciplineKind::Ssq { weight: w },
                            merge_cap: None,
                        };
                        let r = run_trace_windowed_in(&node, &trace, &mut ws);
                        SweepPoint {
                            weight: w,
                            read_gbps: r.read_tput().as_gbps_f64(),
                            write_gbps: r.write_tput().as_gbps_f64(),
                            features,
                        }
                    })
                })
                .collect();
            (trace, points)
        })
    });
    let sweep_s = started.elapsed().as_secs_f64();

    let (mut samples, mut traces) = (Vec::new(), Vec::new());
    for (trace, points) in per_trace {
        samples.extend(points);
        traces.push(trace);
    }
    let requests = traces.iter().map(|t| t.len() as u64).sum::<u64>() * cfg.weights.len() as u64;
    let data = samples_to_dataset(&samples);
    let params = RandomForestParams {
        n_trees: cfg.n_trees,
        ..RandomForestParams::default()
    };
    let forest = rec.span(rep, 0, FIT, "forest", |_| {
        RandomForest::fit(&data, &params, seed)
    });
    rec.span(rep, 0, FLATTEN, "forest", |_| {
        black_box(FlatForest::from_forest(&forest));
    });
    let wall_s = started.elapsed().as_secs_f64();
    TracedTraining {
        // The model comes from the public constructor (untimed), which
        // fits the forest a second time: no public constructor takes a
        // fitted forest. It is the model an untraced rep trains.
        tpm: Arc::new(ThroughputPredictionModel::train(&data, cfg.n_trees, seed)),
        samples,
        traces,
        wall_s,
        sweep_s,
        requests,
    }
}

/// The bare device model on each training trace's commands
/// (`run_closed_loop`: no SSQ, no node loop, no arrival times). Returns
/// the number of commands replayed.
pub fn ssd_replay(rec: &Recorder, rep: u64, ssd: &SsdConfig, traces: &[Trace]) -> u64 {
    let counts = ScenarioRunner::from_env().run_cells(traces, |i, trace| {
        let cmds: Vec<SsdCommand> = trace
            .requests()
            .iter()
            .map(|r| SsdCommand {
                id: r.id,
                op: r.op,
                lba: r.lba,
                size: r.size,
            })
            .collect();
        let n = cmds.len() as u64;
        rec.span(rep, 0, SSD_REPLAY, format!("trace{i}"), |_| {
            black_box(run_closed_loop(ssd.clone(), cmds));
        });
        n
    });
    counts.iter().sum()
}

/// Median host time of one `ThroughputPredictionModel::predict` over the
/// hold-out rows, ns (five batches of 200 passes).
pub fn predict_ns(
    rec: &Recorder,
    rep: u64,
    tpm: &ThroughputPredictionModel,
    rows: &[SweepPoint],
) -> f64 {
    const PASSES: usize = 200;
    let calls = (PASSES * rows.len()) as f64;
    let batches: Vec<f64> = (0..5)
        .map(|b| {
            rec.span(rep, 0, PREDICT, format!("batch{b}"), |_| {
                let started = Instant::now();
                for _ in 0..PASSES {
                    for p in rows {
                        black_box(tpm.predict(black_box(&p.features), p.weight));
                    }
                }
                started.elapsed().as_nanos() as f64 / calls
            })
        })
        .collect();
    quartiles(&batches).1
}

/// One traced system rep: each cell in its own span. Returns the rep's
/// host time and each cell's report.
pub fn traced_cells(
    rec: &Recorder,
    rep: u64,
    cells: &[Cell],
    tpm: &Arc<ThroughputPredictionModel>,
) -> (f64, Vec<Result<SystemReport, String>>) {
    let started = Instant::now();
    let reports = rec.span(rep, 0, GRID, "rep", |grid| {
        run_cells(cells, |c| {
            rec.span(rep, grid, CELL, c.label.clone(), |_| guarded(|| c.run(tpm)))
        })
    });
    (started.elapsed().as_secs_f64(), reports)
}

/// The outside estimate of storage time inside `run_system`: each
/// Target's assigned requests replayed alone through a storage node with
/// the discipline that Target runs (FIFO for DCQCN-only, SSQ for SRC).
/// It ignores the network and faults, so it is an estimate, not a split.
pub fn storage_replay(rec: &Recorder, rep: u64, cells: &[Cell]) {
    let jobs: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(i, c)| (0..c.cfg.n_targets).map(move |t| (i, t)))
        .collect();
    ScenarioRunner::from_env().run_cells(&jobs, |_, &(i, t)| {
        let c = &cells[i];
        let requests = c.assignments.iter().filter(|a| a.target == t);
        let trace = Trace::from_requests(requests.map(|a| a.request).collect());
        let node = NodeConfig {
            ssd: c.cfg.ssd_for(t).clone(),
            discipline: if c.src() {
                DisciplineKind::Ssq { weight: 1 }
            } else {
                DisciplineKind::Fifo
            },
            merge_cap: None,
        };
        rec.span(rep, 0, NODE_REPLAY, format!("{}/t{t}", c.label), |_| {
            black_box(run_trace(&node, &trace));
        });
    });
}

/// Nearest-rank percentile (`p` in `[0, 1]`).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Training-layer metrics of the traced sweep in `rep`; `aux` holds the
/// device-replay and prediction spans.
pub fn training_layers(
    rec: &Recorder,
    rep: u64,
    aux: u64,
    tr: &TracedTraining,
    replayed_cmds: u64,
    predict_ns: f64,
) -> Named {
    let runs = rec.secs(rep, NODE_RUN);
    let run_s: f64 = runs.iter().sum();
    let gen_s = rec.total(rep, GEN);
    let replay_s = rec.total(aux, SSD_REPLAY);
    let requests = tr.requests as f64;
    let threads = ScenarioRunner::from_env().threads() as f64;
    vec![
        ("workload.gen_s", gen_s),
        ("storage_node.run_s", run_s),
        ("storage_node.run_p50_ms", quartiles(&runs).1 * 1e3),
        ("storage_node.run_p98_ms", percentile(&runs, 0.98) * 1e3),
        ("storage_node.sim_req_per_s", ratio(requests, run_s)),
        (
            "storage_node.allocs_per_req",
            ratio(rec.allocs(rep, NODE_RUN) as f64, requests),
        ),
        ("ssd_sim.replay_s", replay_s),
        (
            "ssd_sim.ns_per_cmd",
            ratio(replay_s * 1e9, replayed_cmds as f64),
        ),
        ("ml.fit_s", rec.total(rep, FIT)),
        ("ml.flatten_s", rec.total(rep, FLATTEN)),
        ("ml.predict_ns", predict_ns),
        (
            "sim_engine.runner_eff",
            ratio(gen_s + run_s, threads * tr.sweep_s),
        ),
    ]
}

/// System-layer metrics of the traced cell rep `rep` (host time `wall_s`)
/// and the storage replays in `aux`, plus the absolute times behind the
/// shares. With no system (`tpm_train`) every value is 0.
pub fn system_layers(
    rec: &Recorder,
    rep: u64,
    aux: u64,
    run: Option<(&[Cell], &[SystemReport], f64)>,
) -> (Named, Named) {
    let Some((cells, reports, wall_s)) = run else {
        let system = ["system_sim.", "net_sim.", "fabric.", "core."];
        let zeros = PER_LAYER
            .iter()
            .filter(|(n, _)| system.iter().any(|p| n.starts_with(p)))
            .map(|&(n, _)| (n, 0.0))
            .collect();
        return (zeros, Vec::new());
    };
    let (mut src_s, mut only_s, mut cell_max_s) = (0.0, 0.0, 0.0f64);
    rec.with_spans(rep, CELL, |spans| {
        for s in spans {
            if s.label.ends_with("/src") {
                src_s += s.secs();
            } else {
                only_s += s.secs();
            }
            cell_max_s = cell_max_s.max(s.secs());
        }
    });
    let run_s = src_s + only_s;
    let replay_s = rec.total(aux, NODE_REPLAY);
    let requests: f64 = cells.iter().map(|c| c.requests as f64).sum();
    let sum = |f: fn(&SystemReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let retries = sum(|r| r.retries);
    let hits = sum(|r| r.tpm_cache_hits);
    let queries = hits + sum(|r| r.tpm_cache_misses);
    let overcount: i64 = cells
        .iter()
        .zip(reports)
        .map(|(c, r)| c.write_overcount(r))
        .sum();
    let layers = vec![
        ("system_sim.cell_max_share", ratio(cell_max_s, wall_s)),
        ("system_sim.src_over_only", ratio(src_s, only_s)),
        ("system_sim.storage_share", ratio(replay_s, run_s)),
        (
            "system_sim.allocs_per_req",
            ratio(rec.allocs(rep, CELL) as f64, requests),
        ),
        ("net_sim.ecn_per_req", sum(|r| r.ecn_marked) / requests),
        ("net_sim.cnps", sum(|r| r.cnps)),
        ("net_sim.pauses", sum(|r| r.pauses_total)),
        (
            "net_sim.coalesced_per_req",
            sum(|r| r.packets_coalesced) / requests,
        ),
        ("fabric.retries", retries),
        ("fabric.timeouts", sum(|r| r.timeouts)),
        ("fabric.retry_ratio", retries / requests),
        ("fabric.write_overcount", overcount as f64),
        (
            "core.decisions",
            sum(|r| r.decisions.iter().map(|d| d.len() as u64).sum()),
        ),
        ("core.tpm_queries", queries),
        ("core.cache_hit_ratio", ratio(hits, queries)),
    ];
    let absolute = vec![
        ("system_sim.run_s", run_s),
        ("system_sim.cell_max_s", cell_max_s),
        ("storage_node.replay_s", replay_s),
        ("system_sim.non_storage_s", run_s - replay_s),
    ];
    (layers, absolute)
}
