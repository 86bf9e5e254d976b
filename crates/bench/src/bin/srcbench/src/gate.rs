//! The correctness gate: pinned reference digests, rep-to-rep digest
//! equality, and the per-run checks. `run_error_rate` is
//! `failed / attempted`.

use crate::workloads::{Prepared, Workload, TPM_SEED};
use serde::{Deserialize, Serialize};
use sim_engine::runner::with_threads;
use ssd_sim::SsdConfig;
use std::collections::BTreeMap;
use system_sim::experiments::{train_tpm, Scale};

/// Digests pinned at `SRCSIM_THREADS=1`: workload → seed → one hex digest
/// per run, in run order. Checking them at 2 threads makes every run a
/// thread-count determinism check too.
#[derive(Serialize, Deserialize)]
pub struct Reference {
    pub schema: String,
    pub threads: u64,
    pub digests: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

impl Reference {
    /// The reference compiled into this binary.
    pub fn pinned() -> Reference {
        serde_json::from_str(include_str!("../reference.json")).expect("reference.json parses")
    }

    pub fn get(&self, w: Workload, seed: u64) -> Option<Vec<u64>> {
        let hex = self.digests.get(w.name())?.get(&seed.to_string())?;
        hex.iter()
            .map(|h| u64::from_str_radix(h, 16).ok())
            .collect()
    }
}

/// Counts runs attempted and failed across reps.
pub struct Gate {
    reference: Option<Vec<u64>>,
    previous: Option<Vec<Option<u64>>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn new(reference: Option<Vec<u64>>) -> Gate {
        Gate {
            reference,
            previous: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// Judge one rep's runs: a run fails if it panicked, failed a check,
    /// or its digest differs from the pinned reference or from the
    /// previous rep's.
    pub fn judge(&mut self, runs: &[(String, Result<u64, String>)]) {
        let digests: Vec<Option<u64>> =
            runs.iter().map(|(_, r)| r.as_ref().ok().copied()).collect();
        for (i, (label, outcome)) in runs.iter().enumerate() {
            self.attempted += 1;
            let why = match outcome {
                Err(e) => Some(e.clone()),
                Ok(d) => {
                    if self.reference.as_ref().is_some_and(|r| r.get(i) != Some(d)) {
                        Some(format!(
                            "{label}: digest {d:016x} differs from the pinned reference"
                        ))
                    } else if self
                        .previous
                        .as_ref()
                        .is_some_and(|p| p.get(i) != Some(&Some(*d)))
                    {
                        Some(format!(
                            "{label}: digest {d:016x} differs from the previous rep"
                        ))
                    } else {
                        None
                    }
                }
            };
            if let Some(why) = why {
                self.failed += 1;
                eprintln!("srcbench: run failed: {why}");
                self.failures.push(why);
            }
        }
        self.previous = Some(digests);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Where `srcbench pin` writes the reference this binary compiles in.
const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

/// The seeds `srcbench pin` pins for every workload, besides its default
/// seed. Always the whole set: the reference file is rewritten whole.
const PINNED_SEEDS: std::ops::RangeInclusive<u64> = 0..=31;

/// `srcbench pin`: compute one rep's digests for every workload at every
/// pinned seed (plus the defaults) on one thread and write the reference
/// file.
pub fn pin() -> i32 {
    let digests = with_threads(1, || {
        let tpm = train_tpm(&SsdConfig::ssd_a(), &Scale::full(), TPM_SEED);
        let mut all = BTreeMap::new();
        for w in Workload::ALL {
            let mut per_seed = BTreeMap::new();
            let mut seeds: Vec<u64> = PINNED_SEEDS.collect();
            seeds.push(w.default_seed());
            seeds.sort_unstable();
            seeds.dedup();
            for seed in seeds {
                eprintln!("pin: {} seed {seed}", w.name());
                let prepared = match w {
                    Workload::TpmTrain => Prepared::new(w, seed),
                    _ => Prepared::system(w, seed, tpm.clone()),
                };
                let rep = prepared.rep(seed);
                let hex: Result<Vec<String>, String> = rep
                    .runs
                    .into_iter()
                    .map(|(_, r)| r.map(|d| format!("{d:016x}")))
                    .collect();
                match hex {
                    Ok(hex) => per_seed.insert(seed.to_string(), hex),
                    Err(e) => {
                        eprintln!("pin: {} seed {seed} failed: {e}", w.name());
                        return None;
                    }
                };
            }
            all.insert(w.name().to_string(), per_seed);
        }
        Some(all)
    });
    let Some(digests) = digests else { return 1 };
    let reference = Reference {
        schema: "srcbench-reference/v1".into(),
        threads: 1,
        digests,
    };
    let text = serde_json::to_string_pretty(&reference).expect("serializable reference");
    match std::fs::write(REFERENCE_PATH, text + "\n") {
        Ok(()) => {
            eprintln!("pin: wrote {REFERENCE_PATH}");
            0
        }
        Err(e) => {
            eprintln!("pin: cannot write {REFERENCE_PATH}: {e}");
            1
        }
    }
}
