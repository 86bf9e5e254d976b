//! Shared helpers for the reproduction binaries.

use system_sim::experiments::{Scale, TrainKnob};

/// Parse the common `[quick|full]` CLI argument (default: full).
pub fn scale_from_args() -> Scale {
    match std::env::args().nth(1).as_deref() {
        Some("quick") => Scale::quick(),
        _ => Scale::full(),
    }
}

/// Pretty horizontal rule.
pub fn rule() {
    println!("{}", "-".repeat(72));
}

/// Announce checkpointing on stderr when `SRCSIM_CHECKPOINT` is set, so
/// long sweeps make their resume story visible up front. The manifests
/// themselves are opened lazily by each experiment's sweep.
pub fn announce_checkpoint() {
    if let Some(prefix) = std::env::var_os(sim_engine::CHECKPOINT_ENV) {
        eprintln!(
            "checkpointing sweeps to {}.<label>.<tag>.ckpt.jsonl \
             (re-run with the same config to resume)",
            prefix.to_string_lossy()
        );
    }
}

/// Format a scale for banners.
pub fn scale_label(s: &Scale) -> String {
    format!(
        "{} requests/class/target, {:?} training grid",
        s.requests_per_target, s.train
    )
}

/// Re-export for binary convenience.
pub use system_sim;

/// The knob type, re-exported.
pub type Knob = TrainKnob;
