//! Wire encoding: message kinds multiplexed onto the network's `u64`
//! tag, plus the "send this" instruction both protocol ends emit.

use net_sim::FlowId;

/// NVMe-oF capsule header size (command or completion), bytes.
pub const CMD_HEADER_BYTES: u64 = 64;

/// Message kinds on the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Read command capsule, Initiator → Target.
    ReadCmd,
    /// Write command capsule with in-capsule data, Initiator → Target.
    WriteCmd,
    /// Read data transfer, Target → Initiator.
    ReadData,
    /// Write completion acknowledgment, Target → Initiator.
    WriteAck,
}

impl MsgKind {
    fn code(self) -> u64 {
        match self {
            MsgKind::ReadCmd => 0,
            MsgKind::WriteCmd => 1,
            MsgKind::ReadData => 2,
            MsgKind::WriteAck => 3,
        }
    }

    fn from_code(c: u64) -> MsgKind {
        match c {
            0 => MsgKind::ReadCmd,
            1 => MsgKind::WriteCmd,
            2 => MsgKind::ReadData,
            3 => MsgKind::WriteAck,
            _ => unreachable!("2-bit code"),
        }
    }
}

/// Pack `(kind, request id)` into a network tag.
///
/// # Panics
/// Panics if `req_id` does not fit in 62 bits.
pub fn encode_tag(kind: MsgKind, req_id: u64) -> u64 {
    assert!(req_id < (1 << 62), "request id overflows tag");
    (req_id << 2) | kind.code()
}

/// Unpack a network tag into `(kind, request id)`.
pub fn decode_tag(tag: u64) -> (MsgKind, u64) {
    (MsgKind::from_code(tag & 0b11), tag >> 2)
}

/// An instruction to put bytes on a flow (executed by the system loop
/// via `Network::send_into`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSend {
    /// Which flow carries the message.
    pub flow: FlowId,
    /// Total bytes (header + payload).
    pub bytes: u64,
    /// Encoded tag.
    pub tag: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        for kind in [
            MsgKind::ReadCmd,
            MsgKind::WriteCmd,
            MsgKind::ReadData,
            MsgKind::WriteAck,
        ] {
            for id in [0u64, 1, 12345, (1 << 62) - 1] {
                let (k, i) = decode_tag(encode_tag(kind, id));
                assert_eq!((k, i), (kind, id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows tag")]
    fn oversized_id_rejected() {
        let _ = encode_tag(MsgKind::ReadCmd, 1 << 62);
    }

    proptest::proptest! {
        #[test]
        fn prop_round_trip(id in 0u64..(1 << 62), k in 0u64..4) {
            let kind = match k { 0 => MsgKind::ReadCmd, 1 => MsgKind::WriteCmd,
                                 2 => MsgKind::ReadData, _ => MsgKind::WriteAck };
            let (k2, id2) = decode_tag(encode_tag(kind, id));
            proptest::prop_assert_eq!((k2, id2), (kind, id));
        }
    }
}
