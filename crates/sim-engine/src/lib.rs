//! Deterministic discrete-event simulation substrate shared by every
//! simulator in this workspace.
//!
//! The crate provides four things:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond time base. At
//!   40 Gbps one byte serializes in exactly 200 ps, so integer time keeps
//!   every simulation bit-reproducible across platforms.
//! * [`EventQueue`] — a time-ordered event queue with a monotone sequence
//!   tie-breaker, so same-timestamp events are delivered in FIFO order:
//!   a calendar queue of 262 ns buckets with a binary-heap overflow for
//!   events beyond its 537 µs window.
//! * [`stats`] — streaming and batch statistics (mean, variance, squared
//!   coefficient of variation, skewness, autocorrelation, percentiles)
//!   used by the workload feature extractor and by metric collection.
//! * [`rate`] / [`series`] / [`token_bucket`] — data-rate arithmetic,
//!   time-binned series for per-millisecond throughput curves, and a
//!   token bucket used by NIC rate limiters.
//! * [`runner`] — the [`ScenarioRunner`] deterministic parallel sweep
//!   engine every experiment grid executes on, and [`telemetry`] —
//!   deterministic probes, sinks (including the streaming
//!   [`FileSink`]), and JSON-lines export.
//! * [`arrivals`] — [`ArrivalCursor`], which streams an arrival-sorted
//!   stimulus list into an event loop in the exact order pre-scheduling
//!   it would pop, and [`fastmap`] — [`FastMap`], the deterministic
//!   integer-keyed hash map of the per-event paths.
//! * [`faults`] — the seeded, deterministic fault-injection vocabulary
//!   ([`FaultPlan`], [`FaultEvent`]) the simulators interpret; an empty
//!   plan injects nothing and changes nothing.
//! * [`checkpoint`] — durable sweep progress: a JSON-lines manifest of
//!   completed cells with fsynced appends, replayed by
//!   [`ScenarioRunner::run_cells_resumable`] so an interrupted grid
//!   resumes byte-identically, recomputing only missing cells
//!   (`SRCSIM_CHECKPOINT` env knob via [`CheckpointSpec::from_env`]).
//!
//! # Example
//!
//! ```
//! use sim_engine::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_us(2), "second");
//! q.schedule(SimTime::from_us(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_us(1), "first"));
//! ```

pub mod arrivals;
pub mod checkpoint;
pub mod fastmap;
pub mod faults;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod runner;
pub mod series;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod token_bucket;
pub mod workspace;

pub use arrivals::ArrivalCursor;
pub use checkpoint::{CheckpointSpec, CHECKPOINT_ENV};
pub use fastmap::FastMap;
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultRng, FaultScope};
pub use queue::EventQueue;
pub use rate::{ByteSize, Rate};
pub use runner::ScenarioRunner;
pub use series::TimeBinSeries;
pub use telemetry::{
    FileSink, NullSink, ProbeBuffer, Reduced, Reduction, RingSink, TelemetryReport, TraceRecord,
    TraceSink,
};
pub use time::{SimDuration, SimTime};
pub use token_bucket::TokenBucket;
pub use workspace::{Scratch, SimWorkspace};
