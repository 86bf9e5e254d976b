//! The full disaggregated-storage system simulator (paper Fig. 1/3):
//! Initiators issuing NVMe-oF requests over an RDMA network with DCQCN
//! congestion control, Targets running the NVMe driver (FIFO or SSQ) in
//! front of simulated SSDs, and — in `DcqcnSrc` mode — the SRC
//! controller closing the loop from congestion notifications to SSQ
//! weights.
//!
//! Entry points:
//!
//! * [`config::SystemConfig`] + [`system::run_system`] — one end-to-end
//!   run producing a [`report::SystemReport`] (runtime throughput
//!   series, pause counts, weight decisions; Figs. 7, 8, 10, Table IV).
//!   [`system::RunOptions`] selects the workload source (seed vs
//!   pre-built assignments), TPM assignment (shared vs per-Target
//!   fleet), fault plan, and timeout/retry policy for the run.
//! * [`scripted::run_scripted`] — SSD + SRC with injected congestion
//!   events, no network (Fig. 9 convergence experiment).
//! * [`experiments`] — one function per table/figure of the paper,
//!   returning structured results that the bench binaries print.

pub mod config;
pub mod controlled;
pub mod error;
pub mod experiments;
pub mod motivation;
pub mod report;
pub mod scripted;
pub mod system;

pub use config::{Mode, SystemConfig, SystemConfigBuilder, TopologyKind};
pub use error::SimError;
pub use report::SystemReport;
pub use system::{run_system, RobustnessConfig, RunOptions};
