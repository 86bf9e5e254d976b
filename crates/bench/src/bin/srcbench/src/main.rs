//! `srcbench` — the repository benchmark (see README.md next to this
//! package's manifest).
//!
//! ```text
//! srcbench run     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! srcbench trace   [--workload W] [--seed N] [--seconds S]
//! srcbench verify
//! srcbench compare A.json B.json
//! srcbench pin
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of stdout is `{"correct", "attempted", "failed", "metrics"}`; without
//! it, `run` re-executes itself once per workload so memory and caches
//! never carry over between workloads.

mod alloc;
mod compare;
mod gate;
mod layers;
mod stats;
mod trace;
mod verify;
mod workloads;

use gate::{Gate, Reference};
use layers::{TracedTraining, PER_LAYER};
use serde::{Serialize, Value};
use sim_engine::runner::with_threads;
use sim_engine::CHECKPOINT_ENV;
use ssd_sim::SsdConfig;
use stats::{num, obj, peak_rss_mib, quartiles};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Recorder;
use workloads::{guarded, holdout, Prepared, Rep, Workload, TPM_SEED};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The sweep runner's thread budget: this host's `nproc`. A constant, not
/// a flag, so every run of the benchmark loads the machine the same way.
const THREADS: usize = 2;
/// Set-ups per untraced process; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed reps per process at least (rep-to-rep digest check, median).
const MIN_REPS: usize = 2;
const DEFAULT_SECONDS: f64 = 10.0;

/// Span rep ids of the traced run.
const TRAIN_REP: u64 = 1;
const CELLS_REP: u64 = 2;
const AUX_REP: u64 = 3;

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String], trace: bool) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => out.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn usage() -> i32 {
    eprintln!(
        "usage: srcbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      srcbench trace [--workload W] [--seed N] [--seconds S]\n\
         \x20      srcbench verify\n\
         \x20      srcbench compare A.json B.json\n\
         \x20      srcbench pin\n\
         workloads: tpm_train, incast, fault_storm, intensity"
    );
    2
}

fn main() {
    // Hygiene before any work: with a checkpoint prefix set, training
    // replays a manifest and setup_s/wall_s silently collapse; a trace
    // prefix makes experiment paths stream files.
    std::env::remove_var(CHECKPOINT_ENV);
    std::env::remove_var("SRCSIM_TRACE");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let code = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => match parse_args(rest, cmd == "trace") {
            Ok(a) => match a.workload {
                Some(w) => with_threads(THREADS, || run_workload(&a, w)),
                None => run_all(&a),
            },
            Err(e) => {
                eprintln!("srcbench: {e}");
                usage()
            }
        },
        Some("verify") => with_threads(THREADS, verify::main),
        Some("compare") => match rest {
            [a, b] => compare::main(a, b),
            _ => usage(),
        },
        Some("pin") if rest.is_empty() => gate::pin(),
        _ => usage(),
    };
    std::process::exit(code);
}

/// Where JSON output goes: `$CARGO_TARGET_DIR/srcbench`, else
/// `target/srcbench`, relative to the working directory.
fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(base).join("srcbench");
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

fn write_json(path: &Path, value: &Value) {
    let text = serde_json::to_string_pretty(value).expect("serializable report");
    std::fs::write(path, text + "\n").expect("write the report");
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Provenance written into every JSON header.
fn header(a: &Args, seed: Option<u64>, reps: usize) -> Value {
    // Ask git only inside the working directory's own repository: its
    // upward search could otherwise read one outside it.
    let rev = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("schema", "srcbench/v1".to_value()),
        ("git_rev", rev.to_value()),
        ("rustc", command_output("rustc", &["-V"]).to_value()),
        ("nproc", nproc.to_value()),
        ("threads", THREADS.to_value()),
        ("workload", a.workload.map(Workload::name).to_value()),
        ("seed", seed.to_value()),
        ("trace", a.trace.to_value()),
        ("seconds", a.seconds.to_value()),
        ("reps", reps.to_value()),
    ])
}

/// A measured metric: its median as `value`, with quartiles and samples.
fn measured(unit: &str, values: &[f64]) -> Value {
    let (q1, median, q3) = quartiles(values);
    obj([
        ("value", median.to_value()),
        ("unit", unit.to_value()),
        ("q1", q1.to_value()),
        ("q3", q3.to_value()),
        ("n", values.len().to_value()),
        ("values", values.to_vec().to_value()),
    ])
}

fn named(values: &[(&str, f64, &str)]) -> Value {
    obj(values
        .iter()
        .map(|&(n, v, u)| (n, obj([("value", v.to_value()), ("unit", u.to_value())]))))
}

/// Set up: untraced runs set up `SETUPS` times (setup_s is the median);
/// the traced run sets up once, tracing a system workload's TPM training.
fn set_up(
    a: &Args,
    w: Workload,
    seed: u64,
    rec: &Recorder,
) -> (Prepared, Vec<f64>, Option<TracedTraining>) {
    if a.trace && w != Workload::TpmTrain {
        let started = Instant::now();
        alloc::set_counting(true);
        let tr = layers::traced_training(rec, TRAIN_REP, &SsdConfig::ssd_a(), TPM_SEED);
        alloc::set_counting(false);
        let prepared = Prepared::system(w, seed, tr.tpm.clone());
        return (prepared, vec![started.elapsed().as_secs_f64()], Some(tr));
    }
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..if a.trace { 1 } else { SETUPS } {
        let started = Instant::now();
        prepared = Some(Prepared::new(w, seed));
        times.push(started.elapsed().as_secs_f64());
    }
    (prepared.expect("at least one set-up"), times, None)
}

/// One workload in this process.
fn run_workload(a: &Args, w: Workload) -> i32 {
    let seed = a.seed.unwrap_or(w.default_seed());
    let mut gate = Gate::new(Reference::pinned().get(w, seed));
    let rec = Recorder::new();
    let (prepared, setups, traced_setup) = set_up(a, w, seed, &rec);

    // Timed reps: each a closed batch. A rep starts only if a rep of the
    // median length so far still ends within `--seconds`, so a run
    // measures at most `--seconds` once `MIN_REPS` are done.
    let mut walls = Vec::new();
    let mut last: Option<Rep> = None;
    let started = Instant::now();
    while walls.len() < MIN_REPS
        || started.elapsed().as_secs_f64() + quartiles(&walls).1 <= a.seconds
    {
        // Free the previous rep's reports first, so peak memory does not
        // depend on how many reps fit in `--seconds`.
        drop(last.take());
        let rep = prepared.rep(seed);
        gate.judge(&rep.runs);
        walls.push(rep.wall_s);
        last = Some(rep);
    }
    let last = last.expect("at least one rep");
    let requests = prepared.requests() as f64;
    let rates: Vec<f64> = walls.iter().map(|t| requests / t).collect();
    let e2e = obj([
        ("setup_s", measured("s", &setups)),
        ("wall_s", measured("s", &walls)),
        ("sim_req_per_s", measured("1/s", &rates)),
        ("peak_rss_mb", measured("MiB", &[peak_rss_mib()])),
    ]);

    let layers = if a.trace {
        let untraced = quartiles(&walls).1;
        match trace_pass(w, seed, &prepared, traced_setup, &rec, &mut gate, untraced) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("srcbench: {e}");
                return 1;
            }
        }
    } else {
        None
    };

    let mut simulated = last.simulated.clone();
    let error_rate = gate.failed as f64 / gate.attempted as f64;
    simulated.push(("run_error_rate", error_rate, "ratio"));
    let digests: Vec<Value> = last.runs.iter().map(|(_, d)| workloads::hex(d)).collect();
    let mut report = vec![
        ("header", header(a, Some(seed), walls.len())),
        ("correct", gate.correct().to_value()),
        ("attempted", gate.attempted.to_value()),
        ("failed", gate.failed.to_value()),
        ("metrics", e2e.clone()),
        ("simulated", named(&simulated)),
        ("digests", digests.to_value()),
        ("reference_checked", gate.has_reference().to_value()),
        ("failures", gate.failures.to_value()),
    ];
    let final_metrics = match &layers {
        Some((per_layer, absolute)) => {
            report.push(("layers", named(per_layer)));
            report.push(("system_times", named(absolute)));
            named(per_layer)
        }
        None => named(
            &END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = num(e2e.get(n).and_then(|m| m.get("value")));
                    (n, v.expect("every end-to-end metric measured"), u)
                })
                .collect::<Vec<_>>(),
        ),
    };
    let report = obj(report);
    let dir = out_dir();
    let stem = if a.trace {
        let spans = dir.join(format!("trace_{}.jsonl", w.name()));
        std::fs::write(&spans, rec.to_jsonl(w.name())).expect("write the span file");
        format!("trace_{}", w.name())
    } else {
        w.name().to_string()
    };
    let path = dir.join(format!("{stem}.json"));
    write_json(&path, &report);
    print_summary(&report, &path);

    let line = obj([
        ("correct", gate.correct().to_value()),
        ("attempted", gate.attempted.to_value()),
        ("failed", gate.failed.to_value()),
        ("metrics", final_metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("serializable line")
    );
    if gate.correct() {
        0
    } else {
        1
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The traced rep and the per-layer pass. Returns the per-layer metrics
/// in `BENCHMARK.json` order and the absolute system times behind the
/// system shares.
fn trace_pass(
    w: Workload,
    seed: u64,
    prepared: &Prepared,
    traced_setup: Option<TracedTraining>,
    rec: &Recorder,
    gate: &mut Gate,
    untraced_wall: f64,
) -> Result<(Metrics, Metrics), String> {
    alloc::set_counting(true);
    let (training, rows, traced_wall, system) = match prepared {
        Prepared::Training { holdout: rows } => {
            let traced =
                guarded(|| layers::traced_training(rec, TRAIN_REP, &SsdConfig::ssd_b(), seed));
            alloc::set_counting(false);
            let tr = traced.map_err(|e| {
                gate.judge(&[("sweep".into(), Err(e.clone()))]);
                format!("the traced sweep panicked: {e}")
            })?;
            gate.judge(&Rep::training(tr.wall_s, &tr.samples, &tr.tpm, rows).runs);
            let wall = tr.wall_s;
            (tr, rows.clone(), wall, None)
        }
        Prepared::System { tpm, cells, .. } => {
            let (wall, reports) = layers::traced_cells(rec, CELLS_REP, cells, tpm);
            alloc::set_counting(false);
            let rep = Rep::system(w, wall, cells, reports);
            gate.judge(&rep.runs);
            if rep.reports.len() != cells.len() {
                return Err("a traced cell panicked; no per-layer numbers".into());
            }
            layers::storage_replay(rec, AUX_REP, cells);
            let tr = traced_setup.expect("a system set-up is traced");
            let rows = holdout(&SsdConfig::ssd_a(), TPM_SEED);
            (tr, rows, wall, Some((cells, rep.reports)))
        }
    };
    let ssd = match w {
        Workload::TpmTrain => SsdConfig::ssd_b(),
        _ => SsdConfig::ssd_a(),
    };
    let cmds = layers::ssd_replay(rec, AUX_REP, &ssd, &training.traces);
    let predict_ns = layers::predict_ns(rec, AUX_REP, &training.tpm, &rows);
    let mut values = layers::training_layers(rec, TRAIN_REP, AUX_REP, &training, cmds, predict_ns);
    let run = system
        .as_ref()
        .map(|(cells, reports)| (cells.as_slice(), reports.as_slice(), traced_wall));
    let (sys, absolute) = layers::system_layers(rec, CELLS_REP, AUX_REP, run);
    values.extend(sys);
    values.push((
        "trace_overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    ));
    let per_layer = PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = values.iter().find(|(k, _)| *k == n).map(|&(_, v)| v);
            (n, v.expect("every per-layer metric measured"), u)
        })
        .collect();
    let absolute = absolute.into_iter().map(|(n, v)| (n, v, "s")).collect();
    Ok((per_layer, absolute))
}

/// Human-readable lines before the JSON line.
fn print_summary(report: &Value, path: &Path) {
    let h = report.get("header").expect("header");
    let field = |k: &str| {
        h.get(k).map_or(String::new(), |v| match v {
            Value::Str(s) => s.clone(),
            other => serde_json::to_string(other).unwrap_or_default(),
        })
    };
    println!(
        "srcbench {} seed={} threads={} reps={} (rev {}, {}, nproc {})",
        field("workload"),
        field("seed"),
        field("threads"),
        field("reps"),
        field("git_rev"),
        field("rustc"),
        field("nproc"),
    );
    for section in ["metrics", "simulated", "layers", "system_times"] {
        let Some(fields) = report.get(section).and_then(Value::as_object) else {
            continue;
        };
        println!("  {section}:");
        for (name, m) in fields {
            let unit = m.get("unit").map_or(String::new(), |u| match u {
                Value::Str(s) => s.clone(),
                _ => String::new(),
            });
            let value = num(m.get("value")).unwrap_or(f64::NAN);
            match (num(m.get("q1")), num(m.get("q3")), num(m.get("n"))) {
                (Some(q1), Some(q3), Some(n)) => println!(
                    "    {name:<28} {value:>14.6} {unit:<6} [q1 {q1:.6}, q3 {q3:.6}, n={n}]"
                ),
                _ => println!("    {name:<28} {value:>14.6} {unit}"),
            }
        }
    }
    println!(
        "  runs: {} attempted, {} failed; pinned reference checked: {}",
        num(report.get("attempted")).unwrap_or(0.0),
        num(report.get("failed")).unwrap_or(0.0),
        matches!(report.get("reference_checked"), Some(Value::Bool(true))),
    );
    println!("  report: {}", path.display());
}

/// Every workload, each in its own child process with the thread count
/// pinned and the checkpoint/trace knobs removed.
fn run_all(a: &Args) -> i32 {
    let exe = std::env::current_exe().expect("path of this executable");
    let cmd = if a.trace { "trace" } else { "run" };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut reports = Vec::new();
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let seed = a.seed.unwrap_or(w.default_seed()).to_string();
        let seconds = a.seconds.to_string();
        let out = Command::new(&exe)
            .args([
                cmd,
                "--workload",
                w.name(),
                "--seed",
                &seed,
                "--seconds",
                &seconds,
            ])
            .env("SRCSIM_THREADS", THREADS.to_string())
            .env_remove(CHECKPOINT_ENV)
            .env_remove("SRCSIM_TRACE")
            .stderr(Stdio::inherit())
            .output()
            .expect("run a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|l| serde_json::parse_value(l).ok());
        for line in lines {
            println!("{line}");
        }
        let Some(result) = result.filter(|r| r.get("metrics").is_some()) else {
            eprintln!(
                "srcbench: {} exited with {} and no result",
                w.name(),
                out.status
            );
            return 1;
        };
        correct &= matches!(result.get("correct"), Some(Value::Bool(true)));
        attempted += num(result.get("attempted")).unwrap_or(0.0);
        failed += num(result.get("failed")).unwrap_or(0.0);
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            metrics.push((format!("{}/{name}", w.name()), m.clone()));
        }
        let stem = if a.trace {
            format!("trace_{}", w.name())
        } else {
            w.name().into()
        };
        let file = out_dir().join(format!("{stem}.json"));
        let text = std::fs::read_to_string(&file).unwrap_or_default();
        reports.push(serde_json::parse_value(&text).unwrap_or(Value::Null));
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = out_dir().join(format!("{cmd}-{stamp}.json"));
    write_json(
        &path,
        &obj([
            ("header", header(a, a.seed, 0)),
            ("workloads", Value::Array(reports)),
        ]),
    );
    println!("all workloads: {path:?}");
    let line = Value::Object(vec![
        ("correct".into(), correct.to_value()),
        ("attempted".into(), (attempted as u64).to_value()),
        ("failed".into(), (failed as u64).to_value()),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("serializable line")
    );
    if correct {
        0
    } else {
        1
    }
}
