//! [`ScenarioRunner`] — the deterministic parallel sweep engine every
//! experiment grid in the workspace runs on (Fig. 5 weight sweeps, the
//! Table I/III model grids, the Fig. 7–10 system campaigns, random-
//! forest training and cross-validation).
//!
//! # Determinism contract
//!
//! The paper's evaluation is an embarrassingly parallel set of
//! independent seeded simulations, so parallelism must never change
//! results. The runner enforces the two rules that guarantee it:
//!
//! 1. **Seeds derive from `(base_seed, cell_index)` only** — never
//!    from thread identity, completion order, or shared mutable state.
//!    [`cell_seed`] is the canonical SplitMix64 derivation;
//!    [`ScenarioRunner::run_seeded`] applies it for you. Callers with
//!    a legacy derivation (e.g. `seed.wrapping_add(index)`) keep it,
//!    as long as it is a pure function of the index.
//! 2. **Results are written back by cell index**, not completion
//!    order: `run(n, f)` returns exactly `(0..n).map(f).collect()`.
//!
//! Under these rules a run at `threads = 4` is byte-identical to
//! `threads = 1` — asserted by `tests/parallel_determinism.rs` at the
//! workspace root.
//!
//! # Thread budget
//!
//! [`ScenarioRunner::from_env`] resolves `SRCSIM_THREADS` (preferred)
//! or `RAYON_NUM_THREADS`, defaulting to the machine's available
//! parallelism; `threads = 1` runs inline with no threads spawned.
//! Cells that themselves use a runner (a sweep of sweeps, forest
//! training inside a grid cell) automatically run serially inside pool
//! workers, so the process never exceeds the configured budget.

use rayon::pool;

/// Deterministic parallel executor for independent scenario cells.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioRunner {
    threads: usize,
}

impl ScenarioRunner {
    /// Thread budget from the environment (`SRCSIM_THREADS`, then
    /// `RAYON_NUM_THREADS`, then available parallelism) — or from the
    /// innermost [`with_threads`] scope, which takes precedence.
    pub fn from_env() -> Self {
        ScenarioRunner {
            threads: pool::current_num_threads(),
        }
    }

    /// The serial reference executor (`threads = 1`).
    pub fn serial() -> Self {
        ScenarioRunner { threads: 1 }
    }

    /// Explicit thread budget (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        ScenarioRunner {
            threads: threads.max(1),
        }
    }

    /// Configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate `f(0..n)` on the pool; results in index order,
    /// identical to the serial `(0..n).map(f).collect()`.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        pool::with_threads(self.threads, || pool::run_indexed(n, f))
    }

    /// Evaluate `f(index, &cell)` for every cell of a grid; results in
    /// cell order.
    pub fn run_cells<C, T, F>(&self, cells: &[C], f: F) -> Vec<T>
    where
        C: Sync,
        T: Send,
        F: Fn(usize, &C) -> T + Sync,
    {
        self.run(cells.len(), |i| f(i, &cells[i]))
    }

    /// Evaluate `f(index, cell_seed(base_seed, index))` for every cell:
    /// the canonical seeded sweep. Results in index order.
    pub fn run_seeded<T, F>(&self, base_seed: u64, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        self.run(n, |i| f(i, cell_seed(base_seed, i as u64)))
    }
}

impl Default for ScenarioRunner {
    fn default() -> Self {
        ScenarioRunner::from_env()
    }
}

/// SplitMix64 per-cell seed derivation: decorrelates cells drawn from
/// one base seed while staying a pure function of `(base_seed, index)`
/// — the property the determinism contract requires. (Identical to the
/// derivation random-forest training has used since the seed PR, so
/// trained models are unchanged.)
pub fn cell_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scope `f` to an `n`-thread budget: every [`ScenarioRunner::from_env`]
/// and raw `rayon` call inside sees `n` threads. Restored on exit,
/// panic-safe. The determinism tests use this to compare serial and
/// parallel runs in one process without touching the environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    pool::with_threads(n, f)
}

/// Run two independent closures, in parallel when the budget allows,
/// and return `(a(), b())`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_index_order_under_parallelism() {
        // Later cells are cheaper, so they finish first; order must hold.
        let runner = ScenarioRunner::with_threads(4);
        let out = runner.run(12, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((12 - i) * 40) as u64));
            i as u64 * 7
        });
        assert_eq!(out, (0..12).map(|i| i * 7).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_identical() {
        let work = |runner: ScenarioRunner| {
            runner.run_seeded(42, 10, |i, seed| (i, seed, seed.rotate_left(i as u32)))
        };
        assert_eq!(
            work(ScenarioRunner::serial()),
            work(ScenarioRunner::with_threads(4))
        );
    }

    #[test]
    fn run_cells_passes_index_and_cell() {
        let cells = vec!["a", "b", "c"];
        let out = ScenarioRunner::with_threads(2).run_cells(&cells, |i, &c| format!("{i}{c}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn cell_seed_is_pure_and_decorrelated() {
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
        assert_ne!(cell_seed(7, 3), cell_seed(7, 4));
        assert_ne!(cell_seed(7, 3), cell_seed(8, 3));
        // Regression pin: forest training has derived per-tree seeds
        // with exactly this function since the seed PR; changing it
        // would silently retrain every model.
        let mut z: u64 = 7u64
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(3u64.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        assert_eq!(cell_seed(7, 3), z ^ (z >> 31));
    }

    #[test]
    fn panic_in_cell_reaches_caller_and_runner_survives() {
        let runner = ScenarioRunner::with_threads(4);
        let boom = std::panic::catch_unwind(|| {
            runner.run(6, |i| {
                if i == 2 {
                    panic!("cell 2 failed");
                }
                i
            })
        });
        assert!(boom.is_err());
        assert_eq!(runner.run(6, |i| i), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn nested_runner_is_serial_and_correct() {
        let outer = ScenarioRunner::with_threads(4);
        let out = out_nested(&outer);
        assert_eq!(out, vec![vec![0, 1], vec![10, 11], vec![20, 21]]);
    }

    fn out_nested(outer: &ScenarioRunner) -> Vec<Vec<usize>> {
        outer.run(3, |i| {
            let inner = ScenarioRunner::from_env();
            assert_eq!(inner.threads(), 1, "nested runner must fall back to serial");
            inner.run(2, |j| i * 10 + j)
        })
    }

    #[test]
    fn with_threads_scopes_from_env() {
        let t = with_threads(3, || ScenarioRunner::from_env().threads());
        assert_eq!(t, 3);
    }
}
