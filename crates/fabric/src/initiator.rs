//! The NVMe-oF Initiator driver: issues trace requests to Targets and
//! tracks completions.

use crate::wire::{encode_tag, MsgKind, WireSend, CMD_HEADER_BYTES};
use net_sim::FlowId;
use sim_engine::{FastMap, SimTime};
use workload::{IoType, Request};

/// A completed request as observed at the Initiator.
#[derive(Clone, Copy, Debug)]
pub struct InitiatorCompletion {
    /// Global request id.
    pub req_id: u64,
    /// I/O type.
    pub op: IoType,
    /// Payload size, bytes.
    pub size: u64,
    /// Time the request was issued.
    pub issued: SimTime,
    /// Completion time at the Initiator.
    pub at: SimTime,
}

struct PendingReq {
    op: IoType,
    size: u64,
    issued: SimTime,
}

/// Initiator-side protocol state for one Initiator host. Requests may be
/// spread across several Targets; the caller supplies the per-request
/// outbound flow.
pub struct InitiatorProto {
    pending: FastMap<u64, PendingReq>,
    issued: u64,
}

impl InitiatorProto {
    /// Fresh driver.
    pub fn new() -> Self {
        InitiatorProto {
            pending: FastMap::default(),
            issued: 0,
        }
    }

    /// Issue one request toward a Target over `out_flow`. Returns the
    /// wire message to send.
    ///
    /// # Panics
    /// Panics on a duplicate in-flight request id.
    pub fn issue(&mut self, req: &Request, out_flow: FlowId, now: SimTime) -> WireSend {
        let prev = self.pending.insert(
            req.id,
            PendingReq {
                op: req.op,
                size: req.size,
                issued: now,
            },
        );
        assert!(prev.is_none(), "duplicate request id {}", req.id);
        self.issued += 1;
        Self::wire_send(req, out_flow)
    }

    /// Re-issue a timed-out request (retry). The pending entry's issue
    /// timestamp resets to `now`, so a later completion's latency
    /// measures from the attempt that succeeded.
    ///
    /// # Panics
    /// Panics if the request is not pending (completed or abandoned
    /// requests must not be retried).
    pub fn reissue(&mut self, req: &Request, out_flow: FlowId, now: SimTime) -> WireSend {
        let p = self
            .pending
            .get_mut(&req.id)
            .unwrap_or_else(|| panic!("retry of non-pending request {}", req.id));
        p.issued = now;
        self.issued += 1;
        Self::wire_send(req, out_flow)
    }

    fn wire_send(req: &Request, out_flow: FlowId) -> WireSend {
        match req.op {
            IoType::Read => WireSend {
                flow: out_flow,
                bytes: CMD_HEADER_BYTES,
                tag: encode_tag(MsgKind::ReadCmd, req.id),
            },
            IoType::Write => WireSend {
                flow: out_flow,
                bytes: CMD_HEADER_BYTES + req.size,
                tag: encode_tag(MsgKind::WriteCmd, req.id),
            },
        }
    }

    /// An inbound message completed (its last packet arrived). Returns
    /// the completion when it terminates a pending request, or `None`
    /// for a request no longer pending — a late reply to a request that
    /// was already completed (a retry raced its original) or abandoned.
    ///
    /// # Panics
    /// Panics on a kind mismatch for a request that *is* pending.
    pub fn on_inbound(
        &mut self,
        kind: MsgKind,
        req_id: u64,
        now: SimTime,
    ) -> Option<InitiatorCompletion> {
        let p = self.pending.remove(&req_id)?;
        match (kind, p.op) {
            (MsgKind::ReadData, IoType::Read) | (MsgKind::WriteAck, IoType::Write) => {}
            other => panic!("mismatched completion {other:?} for request {req_id}"),
        }
        Some(InitiatorCompletion {
            req_id,
            op: p.op,
            size: p.size,
            issued: p.issued,
            at: now,
        })
    }

    /// Give up on a pending request (retry budget exhausted). Returns
    /// true when the request was pending; a later reply for it is
    /// ignored by [`InitiatorProto::on_inbound`].
    pub fn abandon(&mut self, req_id: u64) -> bool {
        self.pending.remove(&req_id).is_some()
    }

    /// Requests still awaiting completion.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl Default for InitiatorProto {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, op: IoType, size: u64) -> Request {
        Request {
            id,
            op,
            lba: 0,
            size,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn read_sends_header_only() {
        let mut p = InitiatorProto::new();
        let w = p.issue(&req(1, IoType::Read, 44_000), FlowId(0), SimTime::ZERO);
        assert_eq!(w.bytes, CMD_HEADER_BYTES);
        assert_eq!(crate::wire::decode_tag(w.tag), (MsgKind::ReadCmd, 1));
        assert_eq!(p.in_flight(), 1);
    }

    #[test]
    fn write_sends_data_in_capsule() {
        let mut p = InitiatorProto::new();
        let w = p.issue(&req(2, IoType::Write, 23_000), FlowId(3), SimTime::ZERO);
        assert_eq!(w.bytes, CMD_HEADER_BYTES + 23_000);
        assert_eq!(w.flow, FlowId(3));
    }

    #[test]
    fn completion_round_trip() {
        let mut p = InitiatorProto::new();
        let t0 = SimTime::from_us(10);
        p.issue(&req(5, IoType::Read, 8_192), FlowId(0), t0);
        let c = p
            .on_inbound(MsgKind::ReadData, 5, SimTime::from_us(90))
            .expect("pending request completes");
        assert_eq!(c.size, 8_192);
        assert_eq!(c.issued, t0);
        assert_eq!(c.at, SimTime::from_us(90));
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "mismatched completion")]
    fn wrong_kind_panics() {
        let mut p = InitiatorProto::new();
        p.issue(&req(5, IoType::Read, 8_192), FlowId(0), SimTime::ZERO);
        let _ = p.on_inbound(MsgKind::WriteAck, 5, SimTime::ZERO);
    }

    #[test]
    fn unknown_completion_is_ignored() {
        // Late replies (a retry raced its original, or the request was
        // abandoned) are dropped, not errors.
        let mut p = InitiatorProto::new();
        assert!(p.on_inbound(MsgKind::ReadData, 9, SimTime::ZERO).is_none());
    }

    #[test]
    fn reissue_resets_issue_time_and_counts() {
        let mut p = InitiatorProto::new();
        let r = req(5, IoType::Read, 8_192);
        p.issue(&r, FlowId(0), SimTime::from_us(10));
        let w = p.reissue(&r, FlowId(0), SimTime::from_us(50));
        assert_eq!(w.bytes, CMD_HEADER_BYTES);
        assert_eq!(p.issued(), 2);
        assert_eq!(p.in_flight(), 1);
        let c = p
            .on_inbound(MsgKind::ReadData, 5, SimTime::from_us(90))
            .expect("still pending");
        assert_eq!(c.issued, SimTime::from_us(50), "latency from the retry");
    }

    #[test]
    #[should_panic(expected = "retry of non-pending request")]
    fn reissue_of_unknown_panics() {
        let mut p = InitiatorProto::new();
        let _ = p.reissue(&req(5, IoType::Read, 8_192), FlowId(0), SimTime::ZERO);
    }

    #[test]
    fn abandon_drops_pending_and_squelches_late_reply() {
        let mut p = InitiatorProto::new();
        p.issue(&req(7, IoType::Write, 4_096), FlowId(0), SimTime::ZERO);
        assert!(p.abandon(7));
        assert!(!p.abandon(7), "second abandon is a no-op");
        assert_eq!(p.in_flight(), 0);
        assert!(p.on_inbound(MsgKind::WriteAck, 7, SimTime::ZERO).is_none());
    }
}
