//! The storage stack itself: discipline + device, with a pump that moves
//! commands from the submission queues into the SSD whenever the
//! discipline's budget allows.

use nvme_queues::{FifoQueues, QueueDiscipline, SsqQueues};
use serde::{Deserialize, Serialize};
use sim_engine::{ProbeBuffer, SimTime, TraceRecord};
use ssd_sim::{CommandCompletion, Ssd, SsdCommand, SsdConfig, SsdEvent, SsdStep};
use workload::{IoType, Request};

/// Which submission-queue discipline a node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisciplineKind {
    /// Default NVMe FIFO queuing (the DCQCN-only baseline).
    Fifo,
    /// The paper's separate submission queue with an initial
    /// write:read weight ratio.
    Ssq {
        /// Initial weight ratio (w >= 1).
        weight: u32,
    },
}

/// Storage-node configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeConfig {
    /// SSD model configuration.
    pub ssd: SsdConfig,
    /// Queueing discipline.
    pub discipline: DisciplineKind,
    /// Block-layer-style request merging cap in bytes (None = off;
    /// SSQ only — the paper's Sec. V block-layer direction).
    pub merge_cap: Option<u64>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            ssd: SsdConfig::ssd_a(),
            discipline: DisciplineKind::Ssq { weight: 1 },
            merge_cap: None,
        }
    }
}

/// A Target's storage stack: NVMe submission queues in front of an SSD.
pub struct StorageNode {
    disc: Box<dyn QueueDiscipline>,
    ssd: Ssd,
    /// Read gate closed by the owner (e.g. a full transmit queue):
    /// while closed, read commands are not fetched into the device.
    /// Under FIFO this head-of-line-blocks writes too; under SSQ the
    /// write queue keeps flowing (paper Sec. II-B vs III-A).
    read_gate_open: bool,
    /// Requests absorbed by block-layer merging.
    merged: u64,
    /// Telemetry probes (fetch decisions, queue occupancy, SSD
    /// utilization); drained by the owning event loop.
    probes: ProbeBuffer,
    /// Scope tag on this node's records (target index in system runs).
    scope: u64,
    /// `busy_ps` snapshot at the previous utilization sample.
    util_prev: Option<(SimTime, Vec<u64>, Vec<u64>)>,
}

impl StorageNode {
    /// Build a node from a configuration.
    pub fn new(cfg: &NodeConfig) -> Self {
        let qd = cfg.ssd.queue_depth;
        let disc: Box<dyn QueueDiscipline> = match cfg.discipline {
            DisciplineKind::Fifo => Box::new(FifoQueues::new(qd)),
            DisciplineKind::Ssq { weight } => Box::new(SsqQueues::new(qd, weight)),
        };
        let mut disc = disc;
        disc.set_merge_cap(cfg.merge_cap);
        StorageNode {
            disc,
            ssd: Ssd::new(cfg.ssd.clone()),
            read_gate_open: true,
            merged: 0,
            probes: ProbeBuffer::default(),
            scope: 0,
            util_prev: None,
        }
    }

    /// Enable or disable telemetry (discipline fetch decisions, queue
    /// occupancy, SSD channel/chip utilization), tagging records with
    /// `scope` — the target index in multi-target runs.
    pub fn set_telemetry(&mut self, on: bool, scope: u64) {
        self.probes.set_enabled(on);
        self.disc.set_telemetry(on);
        self.scope = scope;
        self.util_prev = None;
    }

    /// Move pending probe records out, preserving record order.
    pub fn drain_probes(&mut self) -> Vec<TraceRecord> {
        self.probes.drain()
    }

    /// Drain pending probe records straight into `sink`, preserving
    /// order and the probe buffer's capacity (the hot-loop form of
    /// [`StorageNode::drain_probes`]).
    pub fn drain_probes_into(&mut self, sink: &mut dyn sim_engine::TraceSink) {
        self.probes.drain_into(sink);
    }

    /// Record one telemetry sample: SSD channel/chip utilization over
    /// the window since the previous sample, and per-class queue
    /// occupancy. The owner calls this on its series bin boundaries.
    pub fn sample_telemetry(&mut self, now: SimTime) {
        if !self.probes.is_enabled() {
            return;
        }
        let (chan, chip) = self.ssd.busy_ps(now);
        if let Some((t0, chan0, chip0)) = &self.util_prev {
            let dt = now.since(*t0).as_ps();
            if dt > 0 {
                let mean_util = |cur: &[u64], prev: &[u64]| {
                    let busy: u64 = cur.iter().zip(prev).map(|(a, b)| a - b).sum();
                    busy as f64 / (dt as f64 * cur.len().max(1) as f64)
                };
                let cu = mean_util(&chan, chan0);
                let pu = mean_util(&chip, chip0);
                self.probes.record(now, "ssd", self.scope, "chan_util", cu);
                self.probes.record(now, "ssd", self.scope, "chip_util", pu);
            }
        }
        self.util_prev = Some((now, chan, chip));
        let qr = self.disc.queued_of(IoType::Read) as f64;
        let qw = self.disc.queued_of(IoType::Write) as f64;
        self.probes
            .record(now, "ssq", self.scope, "queued_reads", qr);
        self.probes
            .record(now, "ssq", self.scope, "queued_writes", qw);
    }

    /// Accept one request from above (application or NVMe-oF target
    /// driver) and pump the device, appending the outputs to the
    /// caller-owned `step`. When merging is configured and the request
    /// was absorbed into an existing command, it will produce no
    /// separate completion.
    pub fn submit_into(&mut self, req: Request, now: SimTime, step: &mut SsdStep) {
        let merged = self.disc.enqueue_or_merge(req);
        self.merged += merged as u64;
        self.pump_into(now, step);
    }

    /// Requests absorbed by merging so far.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Advance on a device event, appending completions and new events
    /// to the caller-owned `step`. Queue-depth slots are returned to the
    /// discipline on *releases* (flash work finished), not on host
    /// completions — cached writes complete early but keep their slot
    /// until the destage lands.
    pub fn on_ssd_event_into(&mut self, ev: SsdEvent, now: SimTime, step: &mut SsdStep) {
        let rel_start = step.releases.len();
        self.ssd.handle_into(ev, now, step);
        for i in rel_start..step.releases.len() {
            self.disc.on_complete(step.releases[i].op);
        }
        self.pump_into(now, step);
    }

    /// Move fetchable commands into the SSD, honoring the read gate;
    /// outputs are appended to the caller-owned `step`.
    pub fn pump_into(&mut self, now: SimTime, step: &mut SsdStep) {
        while let Some(cmd) = self.disc.fetch_gated(self.read_gate_open) {
            let (n_compl, n_rel) = (step.completions.len(), step.releases.len());
            self.ssd.submit_into(
                SsdCommand {
                    id: cmd.id,
                    op: cmd.op,
                    lba: cmd.lba,
                    size: cmd.size,
                },
                now,
                step,
            );
            debug_assert!(step.completions.len() == n_compl && step.releases.len() == n_rel);
        }
        if self.probes.is_enabled() {
            for d in self.disc.drain_decisions() {
                let class = if d.op.is_read() { 0.0 } else { 1.0 };
                self.probes
                    .record(now, "ssq", self.scope, "fetch_class", class);
                if !d.charged {
                    self.probes
                        .record(now, "ssq", self.scope, "free_fetch", 1.0);
                }
            }
        }
    }

    /// Open or close the read gate (transmit-queue backpressure). The
    /// caller must pump after reopening.
    pub fn set_read_gate(&mut self, open: bool) {
        self.read_gate_open = open;
    }

    /// Whether the read gate is open.
    pub fn read_gate_open(&self) -> bool {
        self.read_gate_open
    }

    /// Change the SSQ weight ratio (no-op under FIFO).
    pub fn set_weight_ratio(&mut self, w: u32) {
        self.disc.set_weight_ratio(w);
    }

    /// Current weight ratio (1 under FIFO).
    pub fn weight_ratio(&self) -> u32 {
        self.disc.weight_ratio()
    }

    /// Access the queueing discipline (read-only).
    pub fn discipline(&self) -> &dyn QueueDiscipline {
        self.disc.as_ref()
    }

    /// Access the SSD model (read-only).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Fault overlay: scale the SSD's chip/channel service durations
    /// (latency-spike fault; 1.0 restores nominal service).
    pub fn set_ssd_latency_factor(&mut self, factor: f64) {
        self.ssd.set_latency_factor(factor);
    }

    /// Fault overlay: enter or leave an SSD fail-stop window. Leaving
    /// the halt restarts queued flash work and re-pumps the submission
    /// queues; resulting events land in `step`.
    pub fn set_ssd_halted(&mut self, halted: bool, now: SimTime, step: &mut SsdStep) {
        self.ssd.set_halted(halted, now, step);
        if !halted {
            self.pump_into(now, step);
        }
    }

    /// True when no work is queued, outstanding, or in flight.
    pub fn is_idle(&self) -> bool {
        self.disc.is_idle() && self.ssd.in_flight() == 0
    }
}

/// Extension trait: merge two [`SsdStep`]s (completions + schedules).
pub trait StepMerge {
    /// Append the completions and schedules of `other`.
    fn merge_from(&mut self, other: SsdStep);
}

impl StepMerge for SsdStep {
    fn merge_from(&mut self, other: SsdStep) {
        self.completions.extend(other.completions);
        self.releases.extend(other.releases);
        self.schedule.extend(other.schedule);
    }
}

/// Convenience: is this completion a read?
pub fn is_read(c: &CommandCompletion) -> bool {
    c.op.is_read()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::EventQueue;
    use workload::IoType;

    fn req(id: u64, op: IoType, size: u64) -> Request {
        Request {
            id,
            op,
            lba: id * 100,
            size,
            arrival: SimTime::ZERO,
        }
    }

    fn drain(node: &mut StorageNode, q: &mut EventQueue<SsdEvent>) -> Vec<CommandCompletion> {
        let mut out = Vec::new();
        let mut s = SsdStep::default();
        while let Some((t, e)) = q.pop() {
            s.clear();
            node.on_ssd_event_into(e, t, &mut s);
            out.extend_from_slice(&s.completions);
            for &(t2, e2) in &s.schedule {
                q.schedule(t2, e2);
            }
        }
        out
    }

    #[test]
    fn submit_and_complete() {
        let mut node = StorageNode::new(&NodeConfig::default());
        let mut q = EventQueue::new();
        let mut s = SsdStep::default();
        node.submit_into(req(1, IoType::Read, 16 * 1024), SimTime::ZERO, &mut s);
        for &(t, e) in &s.schedule {
            q.schedule(t, e);
        }
        let done = drain(&mut node, &mut q);
        assert_eq!(done.len(), 1);
        assert!(node.is_idle());
    }

    #[test]
    fn read_gate_blocks_reads() {
        let mut node = StorageNode::new(&NodeConfig::default());
        node.set_read_gate(false);
        let mut s = SsdStep::default();
        node.submit_into(req(1, IoType::Read, 4096), SimTime::ZERO, &mut s);
        assert!(s.schedule.is_empty(), "gated read must not start");
        assert_eq!(node.ssd().in_flight(), 0);
        assert_eq!(node.discipline().queued(), 1);
        // Reopen and pump.
        node.set_read_gate(true);
        node.pump_into(SimTime::ZERO, &mut s);
        assert!(!s.schedule.is_empty());
        assert_eq!(node.ssd().in_flight(), 1);
    }

    #[test]
    fn read_gate_head_of_line_semantics() {
        // FIFO: a gated read at the head stalls writes behind it.
        let mut fifo = StorageNode::new(&NodeConfig {
            discipline: DisciplineKind::Fifo,
            ..NodeConfig::default()
        });
        fifo.set_read_gate(false);
        let mut s = SsdStep::default();
        fifo.submit_into(req(1, IoType::Read, 4096), SimTime::ZERO, &mut s);
        fifo.submit_into(req(2, IoType::Write, 4096), SimTime::ZERO, &mut s);
        assert_eq!(fifo.ssd().in_flight(), 0, "FIFO head-of-line blocks");

        // SSQ: the write proceeds while reads are gated.
        let mut ssq = StorageNode::new(&NodeConfig {
            discipline: DisciplineKind::Ssq { weight: 1 },
            ..NodeConfig::default()
        });
        ssq.set_read_gate(false);
        ssq.submit_into(req(1, IoType::Read, 4096), SimTime::ZERO, &mut s);
        ssq.submit_into(req(2, IoType::Write, 4096), SimTime::ZERO, &mut s);
        assert_eq!(ssq.ssd().in_flight(), 1, "SSQ serves writes past the gate");
        assert_eq!(ssq.discipline().queued_of(IoType::Read), 1);
    }

    #[test]
    fn weight_ratio_plumbs_through() {
        let mut node = StorageNode::new(&NodeConfig {
            discipline: DisciplineKind::Ssq { weight: 2 },
            ..NodeConfig::default()
        });
        assert_eq!(node.weight_ratio(), 2);
        node.set_weight_ratio(5);
        assert_eq!(node.weight_ratio(), 5);
        let fifo = StorageNode::new(&NodeConfig {
            discipline: DisciplineKind::Fifo,
            ..NodeConfig::default()
        });
        assert_eq!(fifo.weight_ratio(), 1);
    }

    #[test]
    fn qd_respected_through_stack() {
        let cfg = NodeConfig {
            ssd: ssd_sim::SsdConfig {
                queue_depth: 4,
                ..ssd_sim::SsdConfig::ssd_a()
            },
            discipline: DisciplineKind::Fifo,
            merge_cap: None,
        };
        let mut node = StorageNode::new(&cfg);
        let mut s = SsdStep::default();
        for i in 0..10 {
            node.submit_into(req(i, IoType::Read, 16 * 1024), SimTime::ZERO, &mut s);
        }
        assert_eq!(node.ssd().in_flight(), 4);
        assert_eq!(node.discipline().queued(), 6);
    }
}
