//! The on-wire packet model.
//!
//! A [`Packet`] is an 8-byte handle to a heap-allocated [`PacketBody`]: the
//! body is written once, by the sender that builds the packet, and every hop
//! after that moves the handle and reads the fields in place. The one
//! allocation per packet is visible in the source — [`Packet::data`],
//! [`Packet::control`] and an explicit `.clone()` are the only places a body
//! is made. A trimmed packet is the same body with [`Flags::TRIMMED`] set
//! and its wire `size` cut to [`HEADER_BYTES`]; the `payload` field still
//! records how many payload bytes the original carried so receivers can
//! account for goodput precisely.
//!
//! Multipath forwarding uses a [`PathTag`]: in a Clos topology the complete
//! path between two hosts is determined by which uplinks are chosen on the
//! way up, so a single integer (interpreted arithmetically by the switches)
//! replaces a per-packet route vector.

use ndp_sim::Time;

/// Host identifier (index into the topology's host list).
pub type HostId = u32;
/// Globally unique flow/connection identifier.
pub type FlowId = u64;
/// Source-routing tag: selects one of the equal-cost paths between two hosts.
pub type PathTag = u32;

/// Bytes of a trimmed header, and of ACK/NACK/PULL control packets (§3.2.4
/// sizes headers and control packets at 64 bytes).
pub const HEADER_BYTES: u32 = 64;

/// Packet type. `Data` covers full and trimmed data packets (see
/// [`Flags::TRIMMED`]); everything else is a control packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data packet (possibly trimmed to a header by a switch).
    Data,
    /// NDP/TCP acknowledgment. For TCP-family transports `ack` is the
    /// cumulative byte ack; for NDP it acknowledges packet `seq`.
    Ack,
    /// NDP negative acknowledgment: the payload of packet `seq` was trimmed.
    Nack,
    /// NDP pull: `ack` carries the per-connection pull counter.
    Pull,
    /// DCQCN congestion notification packet (sent by the NP back to the RP).
    Cnp,
    /// PFC pause/resume, link-local. `xoff == true` pauses the upstream.
    Pause { xoff: bool },
    /// pHost token/grant (receiver-driven credit without trimming).
    Token,
}

/// Per-packet flag bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Flags(pub u16);

impl Flags {
    /// First-RTT packet: carries connection-establishment state (§3.2.2 —
    /// every packet in the first RTT carries SYN + its sequence offset).
    pub const SYN: Flags = Flags(1 << 0);
    /// Sender has no more data after this packet ("last packet" marking).
    pub const FIN: Flags = Flags(1 << 1);
    /// Payload was trimmed off by a switch.
    pub const TRIMMED: Flags = Flags(1 << 2);
    /// Header was returned to the sender by a switch whose header queue
    /// overflowed (§3.2.4 return-to-sender).
    pub const RTS: Flags = Flags(1 << 3);
    /// ECN Congestion Experienced mark.
    pub const CE: Flags = Flags(1 << 4);
    /// ECN-capable transport.
    pub const ECT: Flags = Flags(1 << 5);
    /// Application-level high priority (receiver pulls these first).
    pub const PRIO: Flags = Flags(1 << 6);
    /// Retransmission (used by statistics, not by switches).
    pub const RTX: Flags = Flags(1 << 7);

    pub fn has(self, f: Flags) -> bool {
        self.0 & f.0 != 0
    }
    #[must_use]
    pub fn with(self, f: Flags) -> Flags {
        Flags(self.0 | f.0)
    }
    #[must_use]
    pub fn without(self, f: Flags) -> Flags {
        Flags(self.0 & !f.0)
    }
}

/// The fields of a packet (or control message) traversing the simulated
/// network. Lives on the heap behind a [`Packet`] handle.
///
/// Layout contract: exactly 56 bytes (statically asserted below), which
/// is why `seq`/`ack` are 32-bit on the wire (checked narrowing via
/// [`Packet::seq32`]/[`Packet::ack32`]) and the bookkeeping fields are
/// packed small; 7 bytes of padding are spare.
#[derive(Clone, Debug)]
pub struct PacketBody {
    pub src: HostId,
    pub dst: HostId,
    pub flow: FlowId,
    pub kind: PacketKind,
    /// Packet sequence number (NDP, pHost) or first byte sequence (TCP).
    pub seq: u32,
    /// Cumulative ACK (TCP), pull counter (NDP PULL), token id (pHost), or
    /// echoed sequence (NDP ACK/NACK carry `seq` directly).
    pub ack: u32,
    /// Bytes on the wire right now (shrinks to `HEADER_BYTES` when trimmed).
    pub size: u32,
    /// Payload bytes this packet stands for (unchanged by trimming).
    pub payload: u32,
    /// Multipath source-routing tag.
    pub path: PathTag,
    /// MPTCP subflow index (0 otherwise).
    pub subflow: u16,
    pub flags: Flags,
    /// Time the packet (or the original it acknowledges) was first sent.
    /// A PULL carries the instant its host sent it.
    pub sent: Time,
}

/// A packet in flight: an owning 8-byte handle to its [`PacketBody`].
///
/// The event queue, the TX trains, every queue slot and every hop handoff
/// move the handle; the body stays where its sender wrote it and is read
/// (and trimmed, marked, bounced) in place through `Deref`/`DerefMut`.
/// Not `Copy`: duplicating a packet allocates a second body, so it takes
/// an explicit `.clone()`.
#[derive(Clone, Debug)]
pub struct Packet(Box<PacketBody>);

impl std::ops::Deref for Packet {
    type Target = PacketBody;
    #[inline]
    fn deref(&self) -> &PacketBody {
        &self.0
    }
}

impl std::ops::DerefMut for Packet {
    #[inline]
    fn deref_mut(&mut self) -> &mut PacketBody {
        &mut self.0
    }
}

// The layout is the hot path's memory traffic, so it is a contract, not a
// bound. What moves per scheduler entry, queue slot and train element is
// the 8-byte handle (`Option<Packet>` uses the null niche); what a sender
// allocates is a 56-byte body — a 64-byte malloc chunk. Two measured dead
// ends on `permutation_k8` `wall_s`, so nobody re-walks them:
//
// * `#[repr(align(64))]` on the body (one cache line each): **+28%** —
//   an over-aligned allocation leaves malloc's small-bin fast path.
// * A 64-byte body (what widening `seq`/`ack` to `u64` would make it;
//   the malloc chunk goes 64 → 80 bytes): **+7%**. So sequence numbers
//   stay 32-bit on the wire and an overflowing flow is refused at
//   [`Packet::seq32`], and any new per-packet field (an ingress index,
//   say) must fit the 7 spare bytes.
const _: () = assert!(std::mem::size_of::<Packet>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Packet>>() == 8);
const _: () = assert!(std::mem::size_of::<PacketBody>() == 56);

#[cold]
#[inline(never)]
fn seq_overflow(field: &'static str, v: u64) -> ! {
    panic!(
        "{field} {v} overflows the packet's 32-bit wire field \
         (flows are bounded to 2^32 packets / cumulative units; \
         widen Packet::{field} if a workload legitimately needs more)"
    )
}

impl Packet {
    /// Checked narrowing for the 32-bit `seq` wire field. Sequence
    /// bookkeeping upstream is `u64`; this is the single funnel through
    /// which it reaches the wire, so an overflowing flow fails loudly
    /// here instead of wrapping silently mid-simulation.
    #[inline]
    pub fn seq32(v: u64) -> u32 {
        match u32::try_from(v) {
            Ok(s) => s,
            Err(_) => seq_overflow("seq", v),
        }
    }

    /// Checked narrowing for the 32-bit `ack` wire field (cumulative acks,
    /// pull counters, token ids). See [`Packet::seq32`].
    #[inline]
    pub fn ack32(v: u64) -> u32 {
        match u32::try_from(v) {
            Ok(a) => a,
            Err(_) => seq_overflow("ack", v),
        }
    }

    /// A full data packet of `size` wire bytes (including protocol headers).
    pub fn data(src: HostId, dst: HostId, flow: FlowId, seq: u64, size: u32) -> Packet {
        Packet(Box::new(PacketBody {
            src,
            dst,
            flow,
            kind: PacketKind::Data,
            seq: Packet::seq32(seq),
            ack: 0,
            size,
            payload: size.saturating_sub(HEADER_BYTES),
            path: 0,
            subflow: 0,
            flags: Flags::default(),
            sent: Time::ZERO,
        }))
    }

    /// A 64-byte control packet of the given kind.
    pub fn control(src: HostId, dst: HostId, flow: FlowId, kind: PacketKind) -> Packet {
        Packet(Box::new(PacketBody {
            src,
            dst,
            flow,
            kind,
            seq: 0,
            ack: 0,
            size: HEADER_BYTES,
            payload: 0,
            path: 0,
            subflow: 0,
            flags: Flags::default(),
            sent: Time::ZERO,
        }))
    }

    /// True for anything that is not a data packet (trimmed headers are
    /// still `Data` but are treated as control by the NDP switch — see
    /// [`Packet::ndp_priority`]).
    pub fn is_control(&self) -> bool {
        self.kind != PacketKind::Data
    }

    /// Should an NDP switch place this packet in the high-priority queue?
    /// Trimmed headers, ACKs, NACKs and PULLs all go there (§3.1).
    pub fn ndp_priority(&self) -> bool {
        self.is_control() || self.flags.has(Flags::TRIMMED)
    }

    /// Trim the payload off, leaving a header (§3.1). Idempotent.
    pub fn trim(&mut self) {
        self.flags = self.flags.with(Flags::TRIMMED);
        self.size = HEADER_BYTES;
    }

    /// Return-to-sender: swap src/dst and mark, so switches route the header
    /// back to its origin (§3.2.4).
    pub fn bounce_to_sender(&mut self) {
        let body = &mut *self.0;
        std::mem::swap(&mut body.src, &mut body.dst);
        self.flags = self.flags.with(Flags::RTS);
    }

    pub fn is_trimmed(&self) -> bool {
        self.flags.has(Flags::TRIMMED)
    }

    pub fn is_rts(&self) -> bool {
        self.flags.has(Flags::RTS)
    }

    #[must_use]
    pub fn with_path(mut self, path: PathTag) -> Packet {
        self.path = path;
        self
    }

    #[must_use]
    pub fn with_flags(mut self, f: Flags) -> Packet {
        self.flags = self.flags.with(f);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_set_and_clear() {
        let f = Flags::default().with(Flags::SYN).with(Flags::CE);
        assert!(f.has(Flags::SYN));
        assert!(f.has(Flags::CE));
        assert!(!f.has(Flags::FIN));
        let f = f.without(Flags::SYN);
        assert!(!f.has(Flags::SYN));
        assert!(f.has(Flags::CE));
    }

    #[test]
    fn trim_shrinks_wire_size_but_keeps_payload_accounting() {
        let mut p = Packet::data(1, 2, 77, 5, 9000);
        assert_eq!(p.payload, 9000 - HEADER_BYTES);
        p.trim();
        assert_eq!(p.size, HEADER_BYTES);
        assert_eq!(p.payload, 9000 - HEADER_BYTES);
        assert!(p.is_trimmed());
        assert!(p.ndp_priority());
        // Trimming twice is harmless.
        p.trim();
        assert_eq!(p.size, HEADER_BYTES);
    }

    #[test]
    fn bounce_swaps_endpoints() {
        let mut p = Packet::data(3, 9, 1, 0, 9000);
        p.trim();
        p.bounce_to_sender();
        assert_eq!((p.src, p.dst), (9, 3));
        assert!(p.is_rts());
    }

    #[test]
    fn control_packets_are_priority() {
        for kind in [
            PacketKind::Ack,
            PacketKind::Nack,
            PacketKind::Pull,
            PacketKind::Cnp,
        ] {
            let p = Packet::control(0, 1, 2, kind);
            assert!(p.is_control());
            assert!(p.ndp_priority());
            assert_eq!(p.size, HEADER_BYTES);
        }
        let d = Packet::data(0, 1, 2, 0, 1500);
        assert!(!d.is_control());
        assert!(!d.ndp_priority());
    }

    #[test]
    fn packet_layout_is_the_contract() {
        // The compile-time asserts next to the struct are the real guard;
        // this keeps the numbers visible in test output.
        assert_eq!(std::mem::size_of::<Packet>(), 8);
        assert_eq!(std::mem::size_of::<Option<Packet>>(), 8);
        assert_eq!(std::mem::size_of::<PacketBody>(), 56);
    }

    #[test]
    fn seq32_and_ack32_round_trip_in_range() {
        assert_eq!(Packet::seq32(0), 0);
        assert_eq!(Packet::seq32(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(Packet::ack32(12_345), 12_345);
    }

    #[test]
    #[should_panic(expected = "overflows the packet's 32-bit wire field")]
    fn seq32_overflow_panics_descriptively() {
        let _ = Packet::seq32(u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "overflows the packet's 32-bit wire field")]
    fn ack32_overflow_panics_descriptively() {
        let _ = Packet::ack32(1 << 40);
    }
}
