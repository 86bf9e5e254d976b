//! Golden-trace regression anchor for the Fig. 9 scripted run.
//!
//! `tests/fixtures/fig9_trace_quick_seed42.jsonl` is the JSON-lines
//! telemetry trace the `fig9_dynamic` binary writes in quick mode at
//! seed 42 — the scripted convergence run merged with the congested
//! fabric slice, exactly as `run_buffered` assembles it. The fixture
//! was captured from a verified run and is byte-identical in both
//! sink modes (buffered `RingSink` and streaming `FileSink`).
//!
//! Any change to event ordering — the calendar event queue, the
//! allocation-free step plumbing, scheduler chunking — that perturbs
//! the simulation shows up here as a byte diff, turning "determinism
//! preserved" from a claim into a test.

use srcsim::sim_engine::runner::with_threads;
use srcsim::sim_engine::RingSink;
use srcsim::ssd_sim::SsdConfig;
use srcsim::system_sim::config::spread_source;
use srcsim::system_sim::experiments::{
    fig9, fig9_fabric_slice, paper_background, paper_pfc, train_tpm, Scale,
};
use srcsim::system_sim::{run_system, Mode, RunOptions, SystemConfig};
use srcsim::workload::micro::MicroConfig;
use srcsim::workload::WorkloadSpec;

const SEED: u64 = 42;
const FIXTURE: &str = include_str!("fixtures/fig9_trace_quick_seed42.jsonl");
const SRC_FIXTURE: &str = include_str!("fixtures/src_cell_trace_quick_seed42.jsonl");

/// Reproduce the exact trace `fig9_dynamic` writes in buffered quick
/// mode: scripted run and fabric slice into RingSinks, reports merged,
/// serialized as JSON lines.
fn quick_trace() -> String {
    let scale = Scale::quick();
    let mut sink = RingSink::new(1 << 20);
    let _ = fig9(&scale, SEED, &mut sink);
    let mut rep = sink.into_report();
    let mut fabric_sink = RingSink::new(1 << 20);
    let _ = fig9_fabric_slice(&scale, SEED, &mut fabric_sink);
    rep.merge(fabric_sink.into_report());
    rep.to_json_lines()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run in release")]
fn fig9_quick_trace_matches_committed_fixture() {
    let got = with_threads(1, quick_trace);
    if got != FIXTURE {
        // A full diff of 600 KB is useless in a test log; report the
        // first divergent line instead.
        let line = got
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        panic!(
            "fig9 quick trace diverged from the committed fixture \
             ({} vs {} lines, first differing line: {:?})",
            got.lines().count(),
            FIXTURE.lines().count(),
            line
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run in release")]
fn fig9_quick_trace_identical_at_four_threads() {
    // The scripted run is single-threaded today, but the contract is
    // thread-count independence of every committed artifact.
    let got = with_threads(4, quick_trace);
    assert!(
        got == FIXTURE,
        "fig9 quick trace at threads=4 diverged from the fixture"
    );
}

/// DCQCN-SRC quick cell: the fig9 fabric slice's topology and workload,
/// but with the SRC controller in the loop (`Mode::DcqcnSrc`, TPM
/// trained on SSD-B at the same seed). Pins the SRC-mode trace
/// vocabulary the DCQCN-only fixture above cannot see — SRC decisions,
/// SSQ weight changes, and the fast-path finalize counters
/// (`tpm_cache_hits`/`tpm_cache_misses`, `bursts_coalesced`).
fn src_cell_trace() -> String {
    let scale = Scale::quick();
    let ssd = SsdConfig::ssd_b();
    let tpm = train_tpm(&ssd, &scale, SEED);
    let n = (scale.requests_per_target / 2).max(150);
    let spec = WorkloadSpec::Micro(MicroConfig {
        read_iat_mean_us: 10.0,
        write_iat_mean_us: 10.0,
        read_size_mean: 40_000.0,
        write_size_mean: 40_000.0,
        read_count: n,
        write_count: n,
        ..MicroConfig::default()
    });
    let assignments = spread_source(&spec, SEED, 1, 2);
    let cfg = SystemConfig::builder()
        .n_initiators(1)
        .n_targets(2)
        .ssd(ssd)
        .workload(spec)
        .background(paper_background(&assignments))
        .pfc(paper_pfc())
        .mode(Mode::DcqcnSrc)
        .build();
    let mut sink = RingSink::new(1 << 20);
    let _ = run_system(
        &cfg,
        RunOptions::assignments(&assignments).tpm(tpm),
        &mut sink,
    );
    sink.into_report().to_json_lines()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run in release")]
fn src_cell_quick_trace_matches_committed_fixture() {
    let got = with_threads(1, src_cell_trace);
    if got != SRC_FIXTURE {
        let line = got
            .lines()
            .zip(SRC_FIXTURE.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        panic!(
            "SRC quick cell trace diverged from the committed fixture \
             ({} vs {} lines, first differing line: {:?})",
            got.lines().count(),
            SRC_FIXTURE.lines().count(),
            line
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run in release")]
fn src_cell_quick_trace_identical_at_four_threads() {
    let got = with_threads(4, src_cell_trace);
    assert!(
        got == SRC_FIXTURE,
        "SRC quick cell trace at threads=4 diverged from the fixture"
    );
}

/// Rewrites the committed fixtures from the current simulator — run
/// explicitly after an *intentional* trace-vocabulary change:
/// `SRCSIM_REGEN_FIXTURES=1 cargo test --release regen_fixtures -- --ignored`
#[test]
#[ignore = "fixture regeneration; run explicitly with SRCSIM_REGEN_FIXTURES=1"]
fn regen_fixtures() {
    if std::env::var_os("SRCSIM_REGEN_FIXTURES").is_none() {
        return;
    }
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::write(
        dir.join("src_cell_trace_quick_seed42.jsonl"),
        with_threads(1, src_cell_trace),
    )
    .unwrap();
}
