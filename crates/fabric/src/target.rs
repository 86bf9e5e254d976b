//! The NVMe-oF Target driver: receives command capsules, forwards them to
//! the storage stack, and returns data/acknowledgments.

use crate::wire::{encode_tag, MsgKind, WireSend, CMD_HEADER_BYTES};
use net_sim::FlowId;
use sim_engine::{FastMap, SimTime};
use workload::{IoType, Request};

/// What the Target should hand to its storage stack.
#[derive(Clone, Copy, Debug)]
pub struct StorageSubmission {
    /// The request to enqueue on the NVMe driver.
    pub request: Request,
}

struct PendingCmd {
    op: IoType,
    size: u64,
    /// Inbound flow (target → the issuing initiator).
    reply_flow: FlowId,
    received: SimTime,
}

/// Target-side protocol state for one Target host.
pub struct TargetProto {
    pending: FastMap<u64, PendingCmd>,
    /// Completed write requests observed at the Target `(id, size, at)` —
    /// the paper measures write throughput here.
    writes_completed: u64,
    write_bytes_completed: u64,
}

impl TargetProto {
    /// Fresh driver.
    pub fn new() -> Self {
        TargetProto {
            pending: FastMap::default(),
            writes_completed: 0,
            write_bytes_completed: 0,
        }
    }

    /// A command capsule arrived (all its bytes). `lba`/`size` come from
    /// the shared request table (in-capsule metadata); `reply_flow` is
    /// the inbound flow back to the issuing Initiator. Returns the
    /// storage submission, or `None` when the command id is already in
    /// service — an initiator retry arrived while the original is still
    /// being processed, so the original's completion will answer both
    /// (the reply flow is refreshed to the retry's).
    pub fn on_command(
        &mut self,
        kind: MsgKind,
        req: &Request,
        reply_flow: FlowId,
        now: SimTime,
    ) -> Option<StorageSubmission> {
        let op = match kind {
            MsgKind::ReadCmd => IoType::Read,
            MsgKind::WriteCmd => IoType::Write,
            other => panic!("not a command capsule: {other:?}"),
        };
        assert_eq!(op, req.op, "capsule kind disagrees with request table");
        if let Some(p) = self.pending.get_mut(&req.id) {
            assert_eq!(p.op, op, "retried command changed its I/O type");
            p.reply_flow = reply_flow;
            return None;
        }
        self.pending.insert(
            req.id,
            PendingCmd {
                op,
                size: req.size,
                reply_flow,
                received: now,
            },
        );
        Some(StorageSubmission { request: *req })
    }

    /// The storage stack completed command `req_id`; returns the wire
    /// reply (read data or write ack).
    ///
    /// # Panics
    /// Panics for unknown ids.
    pub fn on_storage_completion(&mut self, req_id: u64, _now: SimTime) -> WireSend {
        let p = self
            .pending
            .remove(&req_id)
            .unwrap_or_else(|| panic!("storage completion for unknown command {req_id}"));
        match p.op {
            IoType::Read => WireSend {
                flow: p.reply_flow,
                bytes: CMD_HEADER_BYTES + p.size,
                tag: encode_tag(MsgKind::ReadData, req_id),
            },
            IoType::Write => {
                self.writes_completed += 1;
                self.write_bytes_completed += p.size;
                WireSend {
                    flow: p.reply_flow,
                    bytes: CMD_HEADER_BYTES,
                    tag: encode_tag(MsgKind::WriteAck, req_id),
                }
            }
        }
    }

    /// Commands accepted but not yet completed by storage.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// `(count, bytes)` of writes completed at this Target.
    pub fn writes_completed(&self) -> (u64, u64) {
        (self.writes_completed, self.write_bytes_completed)
    }

    /// Time a pending command was received (None when unknown).
    pub fn received_at(&self, req_id: u64) -> Option<SimTime> {
        self.pending.get(&req_id).map(|p| p.received)
    }
}

impl Default for TargetProto {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_tag;

    fn req(id: u64, op: IoType, size: u64) -> Request {
        Request {
            id,
            op,
            lba: id,
            size,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn read_flow() {
        let mut t = TargetProto::new();
        let r = req(1, IoType::Read, 44_000);
        let sub = t
            .on_command(MsgKind::ReadCmd, &r, FlowId(7), SimTime::from_us(3))
            .expect("fresh command submits");
        assert_eq!(sub.request.op, IoType::Read);
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.received_at(1), Some(SimTime::from_us(3)));
        let reply = t.on_storage_completion(1, SimTime::from_us(80));
        assert_eq!(reply.bytes, CMD_HEADER_BYTES + 44_000);
        assert_eq!(decode_tag(reply.tag), (MsgKind::ReadData, 1));
        assert_eq!(reply.flow, FlowId(7));
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn write_flow_counts_at_target() {
        let mut t = TargetProto::new();
        let r = req(2, IoType::Write, 23_000);
        let _ = t.on_command(MsgKind::WriteCmd, &r, FlowId(1), SimTime::ZERO);
        let reply = t.on_storage_completion(2, SimTime::from_us(50));
        assert_eq!(reply.bytes, CMD_HEADER_BYTES);
        assert_eq!(decode_tag(reply.tag), (MsgKind::WriteAck, 2));
        assert_eq!(t.writes_completed(), (1, 23_000));
    }

    #[test]
    #[should_panic(expected = "not a command capsule")]
    fn data_kind_rejected() {
        let mut t = TargetProto::new();
        let r = req(3, IoType::Read, 1);
        let _ = t.on_command(MsgKind::ReadData, &r, FlowId(0), SimTime::ZERO);
    }

    #[test]
    fn duplicate_command_is_absorbed() {
        // A retried command arriving while the original is in service
        // produces no second storage submission; the reply flow is
        // refreshed so the completion answers the retry's path.
        let mut t = TargetProto::new();
        let r = req(4, IoType::Read, 1);
        assert!(t
            .on_command(MsgKind::ReadCmd, &r, FlowId(0), SimTime::ZERO)
            .is_some());
        assert!(t
            .on_command(MsgKind::ReadCmd, &r, FlowId(9), SimTime::ZERO)
            .is_none());
        assert_eq!(t.in_flight(), 1);
        let reply = t.on_storage_completion(4, SimTime::from_us(5));
        assert_eq!(reply.flow, FlowId(9), "reply follows the retry's flow");
    }

    #[test]
    #[should_panic(expected = "unknown command")]
    fn unknown_completion_rejected() {
        let mut t = TargetProto::new();
        let _ = t.on_storage_completion(99, SimTime::ZERO);
    }
}
