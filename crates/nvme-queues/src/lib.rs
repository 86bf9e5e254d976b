//! NVMe driver submission-queue disciplines.
//!
//! Two disciplines are provided behind the [`QueueDiscipline`] trait:
//!
//! * [`fifo::FifoQueues`] — the default NVMe queuing of Fig. 4-a: one
//!   FIFO submission queue, commands fetched in order up to the device
//!   queue depth. This is what the DCQCN-only baseline runs.
//! * [`ssq::SsqQueues`] — the paper's separate submission queue
//!   (Fig. 4-b, Sec. III-A): reads and writes land in RSQ/WSQ, a
//!   weighted round-robin with per-queue tokens arbitrates fetches, the
//!   device queue depth is partitioned between the classes in proportion
//!   to the weights, and a consistency checker routes same-LBA dependent
//!   requests into their predecessor's queue so I/O order is preserved.
//!
//! The discipline is pure queueing logic — no simulated time. The
//! storage-node loop decides *when* to fetch (whenever the SSD has
//! capacity and the transmit queue has room).
//!
//! # Example
//!
//! ```
//! use nvme_queues::{QueueDiscipline, SsqQueues};
//! use workload::{IoType, Request};
//! use sim_engine::SimTime;
//!
//! let mut ssq = SsqQueues::new(64, 3); // write:read weight 3
//! for i in 0..8 {
//!     ssq.enqueue(Request { id: i, op: IoType::Read, lba: i * 100,
//!         size: 4096, arrival: SimTime::ZERO });
//!     ssq.enqueue(Request { id: 100 + i, op: IoType::Write,
//!         lba: 10_000 + i * 100, size: 4096, arrival: SimTime::ZERO });
//! }
//! // Under backlog, fetches favor writes 3:1.
//! let first = ssq.fetch().unwrap();
//! assert_eq!(first.op, IoType::Write);
//! ```

pub mod fifo;
pub mod ssq;

pub use fifo::FifoQueues;
pub use ssq::SsqQueues;

use workload::{IoType, Request};

/// One arbitration outcome (telemetry): which class the discipline
/// fetched and whether the fetch charged a weighted-round-robin token.
///
/// Disciplines are pure queueing logic with no simulated clock, so the
/// decision carries no timestamp; the owner of the event loop stamps
/// drained decisions with its own `SimTime` when forwarding them to a
/// trace sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchDecision {
    /// I/O class of the fetched command.
    pub op: IoType,
    /// `true` when the fetch spent a token of its class; `false` on the
    /// fade-out path (preferred queue empty, served free of charge).
    pub charged: bool,
    /// Write:read weight ratio in force when the decision was made.
    pub weight: u32,
}

/// A submission-queue discipline: accepts commands from the NVMe-oF
/// target driver, hands them to the device, and tracks the in-flight
/// budget (device queue depth).
pub trait QueueDiscipline: Send {
    /// Accept a command from above.
    fn enqueue(&mut self, cmd: Request);

    /// Fetch the next command for the device, if the discipline allows
    /// one right now. Increments the outstanding count for its class.
    fn fetch(&mut self) -> Option<Request> {
        self.fetch_gated(true)
    }

    /// Fetch with a read gate: when `read_allowed` is false (the
    /// transmit queue toward the network is full, so retrieved read data
    /// has nowhere to go), read commands must not be fetched.
    ///
    /// This is where the two disciplines diverge under congestion: the
    /// FIFO queue suffers head-of-line blocking (a read at the head
    /// stalls every write behind it — paper Sec. II-B), while the SSQ
    /// keeps serving WSQ (paper Sec. III-A).
    fn fetch_gated(&mut self, read_allowed: bool) -> Option<Request>;

    /// Notify that a previously fetched command of class `op` completed.
    fn on_complete(&mut self, op: IoType);

    /// Commands waiting in the queue(s).
    fn queued(&self) -> usize;

    /// Waiting commands of one class.
    fn queued_of(&self, op: IoType) -> usize;

    /// Commands currently outstanding at the device.
    fn outstanding(&self) -> usize;

    /// Update the write:read weight ratio (no-op for the FIFO baseline).
    fn set_weight_ratio(&mut self, _w: u32) {}

    /// Current write:read weight ratio (1 for the FIFO baseline).
    fn weight_ratio(&self) -> u32 {
        1
    }

    /// Track twins: arbiters for the weight ratios in `weights`, each
    /// starting a fresh round, that choose on the same queue state as
    /// the arbiter in force at every fetch and keep their own tokens.
    /// Replaces any twins tracked before. Call it before the first
    /// fetch for [`QueueDiscipline::twins`] to describe whole runs.
    /// Default: no-op (a discipline without weights has no twins).
    fn track_twins(&mut self, _weights: &[u32]) {}

    /// Weights of the tracked twins that have chosen the same queue, or
    /// no fetch, as the arbiter in force at every fetch so far: a run
    /// started at one of these weights would have made the same fetch
    /// at every call, so it is the same run. A twin is dropped at the
    /// first different choice, and [`QueueDiscipline::set_weight_ratio`]
    /// drops them all. Default: none.
    fn twins(&self) -> Vec<u32> {
        Vec::new()
    }

    /// True when nothing is queued or outstanding.
    fn is_idle(&self) -> bool {
        self.queued() == 0 && self.outstanding() == 0
    }

    /// Enqueue with block-layer-style merging where the discipline
    /// supports it; returns `true` when the request was absorbed into an
    /// existing command (default: plain enqueue, never merges).
    fn enqueue_or_merge(&mut self, cmd: Request) -> bool {
        self.enqueue(cmd);
        false
    }

    /// Configure the merge cap (no-op where unsupported).
    fn set_merge_cap(&mut self, _cap: Option<u64>) {}

    /// Turn fetch-decision telemetry on or off (default: discipline
    /// does not support telemetry; no-op).
    fn set_telemetry(&mut self, _on: bool) {}

    /// Drain accumulated [`FetchDecision`]s in decision order (default:
    /// none). Cheap when telemetry is off.
    fn drain_decisions(&mut self) -> Vec<FetchDecision> {
        Vec::new()
    }
}
