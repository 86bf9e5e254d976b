//! The workspace-reuse purity contract (see
//! `sim-engine/src/workspace.rs`): handing the SAME
//! [`SimWorkspace`] to many storage-node runs back-to-back — different
//! weights and traces — must produce results byte-identical to building
//! fresh state for every run. The scratch reset at the start of each run
//! is what makes reports pure functions of `(config, trace)` again.

use srcsim::sim_engine::SimWorkspace;
use srcsim::storage_node::{
    run_trace_windowed, run_trace_windowed_in, DisciplineKind, NodeConfig, NodeReport,
};
use srcsim::workload::micro::{generate_micro, MicroConfig};
use srcsim::workload::Trace;

/// Lossless comparable form of a [`NodeReport`]: Rust's `f64` Debug
/// formatting is shortest-round-trip, so equal strings mean equal bits.
fn node_digest(r: &NodeReport) -> String {
    format!("{r:?}")
}

fn node_trace(seed: u64, n: usize) -> Trace {
    generate_micro(
        &MicroConfig {
            read_count: n,
            write_count: n,
            read_iat_mean_us: 10.0,
            write_iat_mean_us: 10.0,
            read_size_mean: 28_000.0,
            write_size_mean: 28_000.0,
            ..MicroConfig::default()
        },
        seed,
    )
}

/// The device-level trace runner: different weights and traces through
/// one workspace, byte-identical to fresh runs.
#[test]
fn trace_runner_reuse_byte_identical() {
    let traces: Vec<(Trace, u32)> = (0..4)
        .map(|i| (node_trace(20 + i, 150 + 40 * i as usize), 1 << i))
        .collect();
    let fresh: Vec<String> = traces
        .iter()
        .map(|(t, w)| {
            let cfg = NodeConfig {
                discipline: DisciplineKind::Ssq { weight: *w },
                ..NodeConfig::default()
            };
            node_digest(&run_trace_windowed(&cfg, t))
        })
        .collect();
    let mut ws = SimWorkspace::new();
    for round in 0..2 {
        for ((t, w), want) in traces.iter().zip(&fresh) {
            let cfg = NodeConfig {
                discipline: DisciplineKind::Ssq { weight: *w },
                ..NodeConfig::default()
            };
            let got = node_digest(&run_trace_windowed_in(&cfg, t, &mut ws));
            assert_eq!(&got, want, "round {round} weight {w} diverged");
        }
    }
}
