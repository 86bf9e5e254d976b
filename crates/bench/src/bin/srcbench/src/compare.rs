//! `srcbench compare A.json B.json`: for every (workload, metric) pair,
//! A's and B's medians and quartiles, the ratio B/A with its base, and a
//! verdict from the `BENCHMARK.json` bounds.
//!
//! Verdicts for a bounded metric: *unresolved* when either side's
//! quartile spread (IQR ÷ median) is wider than the bound — unless every
//! B value beats every A value — else *worse* / *better* when the medians
//! differ by more than the bound, else *unchanged* if both spreads are
//! within [`RESOLUTION`] and *unresolved* if not. Simulated metrics are
//! deterministic: *identical* or *CHANGED*. Per-layer numbers get no
//! verdict.

use crate::stats::num;
use serde::Value;

/// The widest quartile spread at which a within-bound difference still
/// reads *unchanged*. The bounds in `BENCHMARK.json` are as wide as this
/// host's noise forces them to be; noise wider than 10 % is reported as
/// unresolved rather than hidden under a wide bound.
const RESOLUTION: f64 = 0.10;

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

impl Side {
    fn of(m: &Value) -> Option<Side> {
        let median = num(m.get("value"))?;
        let values = match m.get("values") {
            Some(Value::Array(v)) => v.iter().filter_map(|x| num(Some(x))).collect(),
            _ => vec![median],
        };
        Some(Side {
            median,
            q1: num(m.get("q1")).unwrap_or(median),
            q3: num(m.get("q3")).unwrap_or(median),
            values,
        })
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn load(path: &str) -> Option<Value> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| eprintln!("compare: cannot read {path}: {e}"))
        .ok()?;
    serde_json::parse_value(&text)
        .map_err(|e| eprintln!("compare: {path} is not JSON: {e}"))
        .ok()
}

/// Per-workload reports of a combined `run-*.json` or of a single
/// workload's report, keyed by workload name.
fn workloads(doc: &Value) -> Vec<(String, &Value)> {
    let listed: Vec<&Value> = match doc.get("workloads") {
        Some(Value::Array(items)) => items.iter().collect(),
        _ => vec![doc],
    };
    listed
        .into_iter()
        .filter_map(|r| match r.get("header")?.get("workload")? {
            Value::Str(name) => Some((name.clone(), r)),
            _ => None,
        })
        .collect()
}

/// `name → (bound, lower is better)` from the end-to-end metrics of
/// `BENCHMARK.json` in the working directory.
fn bounds() -> Vec<(String, f64, bool)> {
    let Some(doc) = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| serde_json::parse_value(&t).ok())
    else {
        eprintln!("compare: no readable BENCHMARK.json here; bounded verdicts are skipped");
        return Vec::new();
    };
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|m| {
            let Some(Value::Str(name)) = m.get("name") else {
                return None;
            };
            let lower = matches!(m.get("better"), Some(Value::Str(b)) if b == "lower");
            Some((name.clone(), num(m.get("bound"))?, lower))
        })
        .collect()
}

fn verdict(a: &Side, b: &Side, bound: f64, lower_better: bool) -> &'static str {
    let beats = |x: f64, y: f64| if lower_better { x < y } else { x > y };
    let all_better = b
        .values
        .iter()
        .all(|&bv| a.values.iter().all(|&av| beats(bv, av)));
    let spread = a.spread().max(b.spread());
    if spread > bound {
        return if all_better { "better" } else { "unresolved" };
    }
    let rel = b.median / a.median - 1.0;
    let worse = if lower_better { rel } else { -rel };
    if worse > bound {
        "WORSE"
    } else if worse < -bound {
        "better"
    } else if spread > RESOLUTION {
        "unresolved"
    } else {
        "unchanged"
    }
}

pub fn main(path_a: &str, path_b: &str) -> i32 {
    let (Some(doc_a), Some(doc_b)) = (load(path_a), load(path_b)) else {
        return 2;
    };
    let bounds = bounds();
    let others = workloads(&doc_b);
    let mut worse = 0;
    println!("A = {path_a}\nB = {path_b}");
    for (name, ra) in workloads(&doc_a) {
        let Some((_, rb)) = others.iter().find(|(n, _)| *n == name) else {
            println!("{name}: not in B");
            continue;
        };
        println!("{name}:");
        for section in ["metrics", "simulated", "layers", "system_times"] {
            let Some(fields) = ra.get(section).and_then(Value::as_object) else {
                continue;
            };
            for (metric, ma) in fields {
                let (Some(a), Some(b)) = (
                    Side::of(ma),
                    rb.get(section)
                        .and_then(|s| s.get(metric))
                        .and_then(Side::of),
                ) else {
                    continue;
                };
                let unit = match ma.get("unit") {
                    Some(Value::Str(u)) => u.as_str(),
                    _ => "",
                };
                let v = match section {
                    "metrics" => match bounds.iter().find(|(n, ..)| n == metric) {
                        Some(&(_, bound, lower)) => verdict(&a, &b, bound, lower),
                        None => "no bound",
                    },
                    "simulated" if a.median.to_bits() == b.median.to_bits() => "identical",
                    "simulated" => "CHANGED",
                    _ => "",
                };
                worse += usize::from(v == "WORSE" || v == "CHANGED");
                let ratio = if a.median == 0.0 {
                    "n/a".to_string()
                } else {
                    format!("{:.4}", b.median / a.median)
                };
                println!(
                    "  {metric:<28} A {:>12.6} [{:.6}, {:.6}]  B {:>12.6} [{:.6}, {:.6}]  \
                     B/A {ratio} (base A {:.6} {unit})  {v}",
                    a.median, a.q1, a.q3, b.median, b.q1, b.q3, a.median,
                );
            }
        }
    }
    i32::from(worse > 0)
}
