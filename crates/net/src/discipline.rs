//! Service disciplines: what one output port buffers, refuses and serves
//! next — the part of the switch the paper's comparisons actually vary.
//!
//! A [`Discipline`] owns its buffers and three decisions: *admit* an
//! arrival (queue it, trim it, mark it, hand a packet back as refused, or
//! at an idle, empty port hand it back to be served at once), *pop* the
//! next packet to serialize, and report *occupancy*. Everything
//! else about a port — the TX clock, pause state and the PFC pause frames,
//! down/flush, return-to-sender, the wire — is the link's
//! ([`crate::queue::Queue`]), which also owns the counters: a discipline
//! reports each trim and mark through the link's [`Tap`] and never touches
//! [`crate::queue::QueueStats`] itself.
//!
//! * [`Fifo`] — one FIFO with three optional thresholds:
//!   **DropTail** (none; + ECN marking for DCTCP), **Cp** (Cut Payload as
//!   proposed in [9]: trim into the same FIFO, no priority, no
//!   randomization — Figure 2's baseline) and **Lossless** (PFC Xoff/Xon
//!   thresholds; the link pauses its upstreams when they are crossed).
//! * [`NdpQueues`] — §3.1's switch: a short data queue (eight packets by
//!   default) and a header/control queue of the same number of bytes.
//!   Overflowing data packets are *trimmed* to 64-byte headers; a coin
//!   picks the victim — the arrival or the tail of the data queue (this
//!   breaks the phase effects of Figure 2). 10:1 weighted round robin
//!   gives headers early feedback without starving data (avoiding CP's
//!   collapse). A header that does not fit is refused; the link returns
//!   it to its sender (§3.2.4) or drops it.
//! * Every host NIC serves its backlogged flows round-robin
//!   ([`FlowRoundRobin`]): in one shared FIFO a short flow, or the ACKs of
//!   a flow the host receives, would wait behind every other flow's
//!   window — NDP's first windows go out at line rate (§3.2), and TCP's
//!   grow into the NIC's buffer. The drop-tail NIC ([`DropTailNic`],
//!   every fabric but NDP and CP) is a byte-capped round robin with no
//!   thresholds; the NDP NIC ([`Discipline::ndp_nic`]) is the NDP port
//!   with a deep round-robin data queue, so it adds the header queue.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::flight::HopKind;
use crate::packet::{Flags, FlowId, Packet, PacketKind};
use crate::queue::Tap;

/// One FIFO; the optional thresholds select DropTail, Cp or Lossless.
pub struct Fifo {
    q: VecDeque<Packet>,
    bytes: u64,
    /// Physical buffer bound: an arrival that does not fit is refused.
    cap_bytes: u64,
    /// Cp: untrimmed data arriving beyond this occupancy is trimmed.
    trim_thresh_bytes: Option<u64>,
    /// Mark CE on arriving ECT packets when occupancy exceeds this.
    ecn_thresh_bytes: Option<u64>,
    /// Lossless: PFC `(xoff, xon)` occupancy thresholds.
    pfc: Option<(u64, u64)>,
}

/// What [`Discipline::admit`] did with an arrival.
pub(crate) enum Admit {
    Queued,
    /// The port is idle and empty: serve it now, as a push and pop would.
    Serve(Packet),
    /// The arrival, or the header of the victim it displaced.
    Refused(Packet),
}

impl Fifo {
    fn admit(&mut self, mut pkt: Packet, idle: bool, tap: &mut Tap<'_>) -> Admit {
        if let Some(t) = self.trim_thresh_bytes {
            if pkt.kind == PacketKind::Data && !pkt.is_trimmed() && self.bytes + pkt.size as u64 > t
            {
                pkt.trim();
                tap.note(HopKind::Trim, &pkt);
            }
        }
        if self.bytes + pkt.size as u64 > self.cap_bytes {
            // On a lossless port correctly-sized skid buffers make this
            // unreachable; it is counted so tests can assert losslessness.
            return Admit::Refused(pkt);
        }
        if let Some(k) = self.ecn_thresh_bytes {
            if self.bytes > k && pkt.flags.has(Flags::ECT) {
                pkt.flags = pkt.flags.with(Flags::CE);
                tap.note(HopKind::EcnMark, &pkt);
            }
        }
        // Not on a lossless port: its Xoff edge must see the packet resident.
        if idle && self.q.is_empty() && self.pfc.is_none() {
            return Admit::Serve(pkt);
        }
        self.bytes += pkt.size as u64;
        self.q.push_back(pkt);
        Admit::Queued
    }

    fn pop(&mut self) -> Option<Packet> {
        let p = self.q.pop_front()?;
        self.bytes -= p.size as u64;
        Some(p)
    }
}

/// The data queue of an NDP port: what [`NdpQueues`] needs of it.
trait DataQueue {
    fn len(&self) -> usize;
    fn push(&mut self, pkt: Packet);
    fn pop(&mut self) -> Option<Packet>;
    /// Queue `pkt` in place of the packet an overflow may trim instead of
    /// it, and return that packet (`pkt` itself when there is none).
    fn swap_tail(&mut self, pkt: Packet) -> Packet;
}

/// The switch's data queue: one FIFO; the overflow victim is its tail.
impl DataQueue for VecDeque<Packet> {
    fn len(&self) -> usize {
        VecDeque::len(self)
    }

    fn push(&mut self, pkt: Packet) {
        self.push_back(pkt);
    }

    fn pop(&mut self) -> Option<Packet> {
        self.pop_front()
    }

    fn swap_tail(&mut self, pkt: Packet) -> Packet {
        let tail = self.pop_back().expect("data_cap_pkts >= 1");
        self.push_back(pkt);
        tail
    }
}

/// A host NIC's queue: one FIFO lane per backlogged flow, served one
/// packet per lane per turn. With one backlogged flow it is a FIFO.
pub struct FlowRoundRobin {
    /// The first `active` lanes are the backlogged flows in service order
    /// (the front sends next); the rest are drained lanes, reused by the
    /// next flows to arrive. A lane that drains while others stay
    /// backlogged gives its buffer back, so a NIC that once interleaved
    /// many flows holds no more than one lane's buffer when it drains.
    lanes: VecDeque<Lane>,
    /// `u32`s keep `Discipline` the size its switch variants set, so no
    /// link grows for the NIC.
    active: u32,
    /// Packets over all lanes.
    len: u32,
}

struct Lane {
    flow: FlowId,
    pkts: VecDeque<Packet>,
}

impl FlowRoundRobin {
    /// Room for one lane up front: a host usually sends one flow at a
    /// time, and then serving it allocates no more than a FIFO would.
    fn new() -> FlowRoundRobin {
        FlowRoundRobin {
            lanes: VecDeque::with_capacity(1),
            active: 0,
            len: 0,
        }
    }

    /// The backlogged lane of `flow`, if it has one.
    fn lane(&mut self, flow: FlowId) -> Option<&mut Lane> {
        let active = self.active as usize;
        self.lanes.range_mut(..active).find(|l| l.flow == flow)
    }
}

impl DataQueue for FlowRoundRobin {
    fn len(&self) -> usize {
        self.len as usize
    }

    fn push(&mut self, pkt: Packet) {
        self.len += 1;
        if let Some(lane) = self.lane(pkt.flow) {
            lane.pkts.push_back(pkt);
            return;
        }
        // A newly backlogged flow joins the end of the round, in the first
        // drained lane (or a new one).
        let active = self.active as usize;
        if active == self.lanes.len() {
            self.lanes.push_back(Lane {
                flow: pkt.flow,
                pkts: VecDeque::new(),
            });
        }
        let lane = &mut self.lanes[active];
        lane.flow = pkt.flow;
        lane.pkts.push_back(pkt);
        self.active += 1;
    }

    fn pop(&mut self) -> Option<Packet> {
        if self.active == 0 {
            return None;
        }
        let front = &mut self.lanes[0];
        let pkt = front
            .pkts
            .pop_front()
            .expect("a backlogged lane is nonempty");
        self.len -= 1;
        let drained = front.pkts.is_empty();
        if self.active == 1 {
            // The only backlogged flow: there is no round to rotate.
            if drained {
                self.active = 0;
            }
        } else {
            // Rotate the front lane to the back: [rest of the round,
            // drained lanes, front]. A drained front stays there, among the
            // drained lanes, without its buffer; a backlogged one trades
            // places with the first drained lane, so it ends the round.
            if drained {
                front.pkts = VecDeque::new();
                self.lanes.rotate_left(1);
                self.active -= 1;
            } else {
                self.lanes.rotate_left(1);
                let last = self.lanes.len() - 1;
                self.lanes.swap(self.active as usize - 1, last);
            }
        }
        Some(pkt)
    }

    /// The victim is the arriving flow's own tail: an overflow never trims
    /// another flow's packet.
    fn swap_tail(&mut self, pkt: Packet) -> Packet {
        match self.lane(pkt.flow) {
            Some(lane) => {
                let tail = lane.pkts.pop_back().expect("a backlogged lane is nonempty");
                lane.pkts.push_back(pkt);
                tail
            }
            None => pkt,
        }
    }
}

/// The drop-tail host NIC: a [`FlowRoundRobin`] behind a byte cap. An
/// arrival that does not fit is refused; nothing is trimmed, marked or
/// paused.
pub struct DropTailNic {
    lanes: FlowRoundRobin,
    bytes: u64,
    cap_bytes: u64,
}

impl DropTailNic {
    fn admit(&mut self, pkt: Packet, idle: bool) -> Admit {
        if self.bytes + pkt.size as u64 > self.cap_bytes {
            return Admit::Refused(pkt);
        }
        if idle && self.lanes.len() == 0 {
            return Admit::Serve(pkt);
        }
        self.bytes += pkt.size as u64;
        self.lanes.push(pkt);
        Admit::Queued
    }

    fn pop(&mut self) -> Option<Packet> {
        let p = self.lanes.pop()?;
        self.bytes -= p.size as u64;
        Some(p)
    }
}

/// The NDP port: data queue + priority header queue under 10:1 WRR. The
/// data queue is a FIFO at a switch and a [`FlowRoundRobin`] at a host NIC.
pub struct NdpQueues<D = VecDeque<Packet>> {
    data: D,
    hdr: VecDeque<Packet>,
    data_cap_pkts: usize,
    hdr_cap_bytes: u64,
    /// Bytes in each queue, maintained incrementally so per-packet
    /// occupancy accounting stays O(1).
    data_bytes: u64,
    hdr_bytes: u64,
    /// Consecutive header-queue services while data waits (WRR state).
    hdr_run: u32,
}

// Every method here is private, so the private bound leaks nothing.
#[allow(private_bounds)]
impl<D: DataQueue> NdpQueues<D> {
    fn new(data: D, data_cap_pkts: usize, mtu: u32) -> NdpQueues<D> {
        assert!(
            data_cap_pkts > 0,
            "a zero-packet data queue has no tail to trim"
        );
        NdpQueues {
            data,
            hdr: VecDeque::new(),
            data_cap_pkts,
            hdr_cap_bytes: data_cap_pkts as u64 * mtu as u64,
            data_bytes: 0,
            hdr_bytes: 0,
            hdr_run: 0,
        }
    }

    fn admit(&mut self, pkt: Packet, idle: bool, rng: &mut SmallRng, tap: &mut Tap<'_>) -> Admit {
        let serve_now = idle && self.queued_packets() == 0;
        let hdr = if pkt.ndp_priority() {
            pkt
        } else if self.data.len() < self.data_cap_pkts {
            if serve_now {
                debug_assert_eq!(self.hdr_run, 0, "a header run outlived the data");
                return Admit::Serve(pkt);
            }
            self.data_bytes += pkt.size as u64;
            self.data.push(pkt);
            return Admit::Queued;
        } else {
            // Data queue full: trim. Decide with 50% probability whether
            // the victim is the arriving packet or the one at the tail of
            // the data queue (§3.1, breaks phase effects).
            let mut victim = if rng.gen::<bool>() {
                pkt
            } else {
                let size = pkt.size as u64;
                let tail = self.data.swap_tail(pkt);
                self.data_bytes = self.data_bytes + size - tail.size as u64;
                tail
            };
            victim.trim();
            tap.note(HopKind::Trim, &victim);
            victim
        };
        if self.hdr_bytes + hdr.size as u64 > self.hdr_cap_bytes {
            return Admit::Refused(hdr);
        }
        if serve_now {
            return Admit::Serve(hdr);
        }
        self.hdr_bytes += hdr.size as u64;
        self.hdr.push_back(hdr);
        Admit::Queued
    }

    /// Headers served per data packet while data waits (§3.1's 10:1 WRR).
    const WRR_RATIO: u32 = 10;

    /// Weighted round robin, headers preferred: serve the header queue
    /// unless `WRR_RATIO` headers in a row were served while data waited.
    fn pop(&mut self) -> Option<Packet> {
        let data_waits = self.data.len() > 0;
        let serve_hdr = !self.hdr.is_empty() && (!data_waits || self.hdr_run < Self::WRR_RATIO);
        if serve_hdr {
            let p = self.hdr.pop_front()?;
            self.hdr_bytes -= p.size as u64;
            if data_waits {
                self.hdr_run += 1;
            }
            Some(p)
        } else {
            let p = self.data.pop()?;
            self.data_bytes -= p.size as u64;
            self.hdr_run = 0;
            Some(p)
        }
    }

    fn queued_packets(&self) -> usize {
        self.data.len() + self.hdr.len()
    }
}

/// The queueing discipline of one egress port. A closed enum — the link
/// dispatches statically on it once per admit/pop.
pub enum Discipline {
    Fifo(Fifo),
    Ndp(NdpQueues),
    NdpNic(NdpQueues<FlowRoundRobin>),
    DropTailNic(DropTailNic),
}

impl Discipline {
    fn fifo(cap_bytes: u64) -> Fifo {
        assert!(cap_bytes > 0, "a zero-byte buffer refuses every packet");
        Fifo {
            q: VecDeque::new(),
            bytes: 0,
            cap_bytes,
            trim_thresh_bytes: None,
            ecn_thresh_bytes: None,
            pfc: None,
        }
    }

    /// Plain FIFO; with `ecn_thresh_bytes`, the DCTCP marking fabric.
    pub fn droptail(cap_bytes: u64, ecn_thresh_bytes: Option<u64>) -> Discipline {
        Discipline::Fifo(Fifo {
            ecn_thresh_bytes,
            ..Self::fifo(cap_bytes)
        })
    }

    /// CP queue: trim when the data region (`trim_thresh_bytes`) is full;
    /// the physical buffer is twice that, leaving room for queued headers
    /// (mirroring the NDP queue's header budget so Figure 2 compares switch
    /// *policies*, not buffer sizes).
    pub fn cp(trim_thresh_bytes: u64) -> Discipline {
        Discipline::Fifo(Fifo {
            trim_thresh_bytes: Some(trim_thresh_bytes),
            ..Self::fifo(trim_thresh_bytes * 2)
        })
    }

    /// PFC lossless FIFO (optionally ECN-marking: the DCQCN fabric).
    pub fn lossless(cap_bytes: u64, xoff: u64, xon: u64, ecn: Option<u64>) -> Discipline {
        assert!(xon <= xoff && xoff <= cap_bytes);
        Discipline::Fifo(Fifo {
            ecn_thresh_bytes: ecn,
            pfc: Some((xoff, xon)),
            ..Self::fifo(cap_bytes)
        })
    }

    /// The NDP switch queue: `data_cap_pkts` full packets plus a header
    /// queue holding the same number of bytes (8 × 9 KB = 72 KB ≈ 1125
    /// headers, the figure §3.2.4 quotes).
    pub fn ndp(data_cap_pkts: usize, mtu: u32) -> Discipline {
        Discipline::Ndp(NdpQueues::new(VecDeque::new(), data_cap_pkts, mtu))
    }

    /// The NDP host NIC: the NDP port with its data queue served
    /// round-robin over the host's backlogged flows.
    pub fn ndp_nic(data_cap_pkts: usize, mtu: u32) -> Discipline {
        assert!(
            u32::try_from(data_cap_pkts).is_ok(),
            "a NIC counts its packets in a u32"
        );
        Discipline::NdpNic(NdpQueues::new(FlowRoundRobin::new(), data_cap_pkts, mtu))
    }

    /// The drop-tail host NIC: the host's backlogged flows served
    /// round-robin out of `cap_bytes` of buffer.
    pub fn droptail_nic(cap_bytes: u64) -> Discipline {
        assert!(cap_bytes > 0, "a zero-byte buffer refuses every packet");
        // Every packet holds at least one byte.
        assert!(
            u32::try_from(cap_bytes).is_ok(),
            "a NIC counts its packets in a u32"
        );
        Discipline::DropTailNic(DropTailNic {
            lanes: FlowRoundRobin::new(),
            bytes: 0,
            cap_bytes,
        })
    }

    /// Decide the fate of an arrival. Trims and marks are reported through
    /// `tap`; a packet that could not be buffered (the arrival, or the
    /// header of the victim it displaced) comes back for the link to
    /// bounce or drop; one that passes every check at an `idle` port (the
    /// serializer free, nothing buffered, not lossless) comes back to be
    /// served at once. The NDP coin is the only RNG draw.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        pkt: Packet,
        idle: bool,
        rng: &mut SmallRng,
        tap: &mut Tap<'_>,
    ) -> Admit {
        match self {
            Discipline::Fifo(f) => f.admit(pkt, idle, tap),
            Discipline::Ndp(n) => n.admit(pkt, idle, rng, tap),
            Discipline::NdpNic(n) => n.admit(pkt, idle, rng, tap),
            Discipline::DropTailNic(n) => n.admit(pkt, idle),
        }
    }

    /// The next packet to serialize.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Packet> {
        match self {
            Discipline::Fifo(f) => f.pop(),
            Discipline::Ndp(n) => n.pop(),
            Discipline::NdpNic(n) => n.pop(),
            Discipline::DropTailNic(n) => n.pop(),
        }
    }

    /// Bytes currently buffered.
    pub fn occupancy_bytes(&self) -> u64 {
        match self {
            Discipline::Fifo(f) => f.bytes,
            Discipline::Ndp(n) => n.data_bytes + n.hdr_bytes,
            Discipline::NdpNic(n) => n.data_bytes + n.hdr_bytes,
            Discipline::DropTailNic(n) => n.bytes,
        }
    }

    pub fn queued_packets(&self) -> usize {
        match self {
            Discipline::Fifo(f) => f.q.len(),
            Discipline::Ndp(n) => n.queued_packets(),
            Discipline::NdpNic(n) => n.queued_packets(),
            Discipline::DropTailNic(n) => n.lanes.len(),
        }
    }

    /// PFC `(xoff, xon)` thresholds when this is a lossless discipline.
    pub(crate) fn pfc(&self) -> Option<(u64, u64)> {
        match self {
            Discipline::Fifo(f) => f.pfc,
            Discipline::Ndp(_) | Discipline::NdpNic(_) | Discipline::DropTailNic(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::queue::QueueStats;

    const MTU: u32 = 9000;

    /// A port under test: its discipline, the coin's RNG and the counters.
    struct Port(Discipline, SmallRng, QueueStats);

    impl Port {
        fn new(d: Discipline) -> Port {
            Port(d, SmallRng::seed_from_u64(7), QueueStats::default())
        }

        /// Admit `pkt` at a busy port; the refused packet, if any.
        fn admit(&mut self, pkt: Packet) -> Option<Packet> {
            match self.arrive(pkt, false) {
                Admit::Queued => None,
                Admit::Refused(p) => Some(p),
                Admit::Serve(_) => unreachable!("a busy port serves nothing at once"),
            }
        }

        /// Admit `pkt`, with the serializer free when `idle`.
        fn arrive(&mut self, pkt: Packet, idle: bool) -> Admit {
            let Port(d, rng, st) = self;
            d.admit(pkt, idle, rng, &mut Tap::detached(st))
        }

        /// Pop `n` packets (fewer if the port empties) as (flow, seq,
        /// kind, trimmed).
        fn pop(&mut self, n: usize) -> Vec<(FlowId, u32, PacketKind, bool)> {
            std::iter::from_fn(|| self.0.pop())
                .take(n)
                .map(|p| (p.flow, p.seq, p.kind, p.is_trimmed()))
                .collect()
        }

        /// Pop `n` packets as (flow, seq).
        fn order(&mut self, n: usize) -> Vec<(FlowId, u32)> {
            self.pop(n).iter().map(|&(f, s, ..)| (f, s)).collect()
        }
    }

    fn data(flow: FlowId, seq: u64) -> Packet {
        Packet::data(0, 1, flow, seq, MTU)
    }

    fn pull(seq: u64) -> Packet {
        let mut p = Packet::control(0, 1, 9, PacketKind::Pull);
        p.seq = Packet::seq32(seq);
        p
    }

    /// Drive the switch FIFO and the NIC through the same one-flow script
    /// of arrivals (`d` data, `h` header) and pops (`.`), on the same coin;
    /// every served, trimmed or refused packet must match. Returns the
    /// number of trims.
    fn same_as_fifo(cap: usize, script: &[u8]) -> u64 {
        let mut fifo = Port::new(Discipline::ndp(cap, MTU));
        let mut nic = Port::new(Discipline::ndp_nic(cap, MTU));
        for (i, &op) in script.iter().enumerate() {
            let i = i as u64;
            match op {
                b'd' => assert_eq!(
                    fifo.admit(data(1, i)).map(|p| p.seq),
                    nic.admit(data(1, i)).map(|p| p.seq)
                ),
                b'h' => assert!(fifo.admit(pull(i)).is_none() && nic.admit(pull(i)).is_none()),
                _ => assert_eq!(fifo.pop(1), nic.pop(1)),
            }
            assert_eq!(fifo.0.occupancy_bytes(), nic.0.occupancy_bytes());
        }
        assert_eq!(fifo.pop(usize::MAX), nic.pop(usize::MAX));
        assert_eq!(fifo.2.trimmed, nic.2.trimmed);
        nic.2.trimmed
    }

    #[test]
    fn one_flow_is_served_in_the_fifos_exact_order() {
        let script = b"ddddhdd.d..hhh.dddddddddddddhd.....hhhhhhhhhhhhd...ddd..........d.";
        assert_eq!(same_as_fifo(4096, script), 0);
    }

    #[test]
    fn one_flow_overflow_trims_the_same_victims_as_the_fifo() {
        // A 3-packet data queue under long bursts: each overflow draws the
        // coin and trims the arrival or the tail exactly as the FIFO does.
        // The pops serve the trimmed headers first, so the data queue stays
        // full and 37 of the 40 arrivals overflow it.
        let script = b"dddddddddddddddddddd.d.dddd......dddddd.ddddddddd";
        assert_eq!(same_as_fifo(3, script), 37);
    }

    #[test]
    fn a_short_flow_is_served_second_behind_a_first_window() {
        // NDP's first window, or a TCP window in the drop-tail NIC.
        let nics = [
            Discipline::ndp_nic(4096, MTU),
            Discipline::droptail_nic(4096 * MTU as u64),
        ];
        for d in nics {
            let mut nic = Port::new(d);
            for seq in 0..30 {
                nic.admit(data(1, seq));
            }
            nic.admit(data(2, 0));
            let mut want = vec![(1, 0), (2, 0)];
            want.extend((1..30).map(|s| (1, s)));
            assert_eq!(nic.order(31), want);
        }
    }

    #[test]
    fn backlogged_flows_take_one_packet_a_turn() {
        let mut nic = Port::new(Discipline::ndp_nic(4096, MTU));
        for seq in 0..3 {
            nic.admit(data(1, seq));
        }
        for seq in 0..2 {
            nic.admit(data(2, seq));
        }
        assert_eq!(nic.order(2), [(1, 0), (2, 0)]);
        // A newly backlogged flow joins the end of the round.
        nic.admit(data(3, 0));
        assert_eq!(nic.order(usize::MAX), [(1, 1), (2, 1), (3, 0), (1, 2)]);
        // So does a flow that drained and comes back.
        nic.admit(data(2, 2));
        nic.admit(data(1, 3));
        assert_eq!(nic.order(usize::MAX), [(2, 2), (1, 3)]);
    }

    #[test]
    fn headers_pre_empt_data_under_the_ten_to_one_wrr() {
        let mut nic = Port::new(Discipline::ndp_nic(4096, MTU));
        for seq in 0..2 {
            nic.admit(data(1, seq));
            nic.admit(data(2, seq));
        }
        for seq in 0..25 {
            nic.admit(pull(seq));
        }
        let kinds: String = nic
            .pop(usize::MAX)
            .iter()
            .map(|&(_, _, kind, _)| if kind == PacketKind::Data { 'd' } else { 'h' })
            .collect();
        assert_eq!(
            kinds,
            format!("{0}d{0}d{1}dd", "h".repeat(10), "h".repeat(5))
        );
    }

    #[test]
    fn the_nic_variant_grows_no_link() {
        // Every link holds a `Discipline`: the NICs must fit in the size the
        // FIFO and switch variants already set, payload plus tag.
        use std::mem::size_of;
        let switch = size_of::<Fifo>().max(size_of::<NdpQueues>());
        assert!(size_of::<DropTailNic>() <= switch);
        assert!(size_of::<Discipline>() <= switch + 8);
    }

    #[test]
    fn an_overflow_never_trims_another_flows_packet() {
        let mut nic = Port::new(Discipline::ndp_nic(4, MTU));
        for seq in 0..4 {
            nic.admit(data(1, seq));
        }
        // Flow 2 has no tail of its own: its arrival is the victim, whatever
        // the coin says.
        for seq in 0..8 {
            assert!(nic.admit(data(2, seq)).is_none());
        }
        assert_eq!(nic.2.trimmed, 8);
        let served = nic.pop(usize::MAX);
        let untrimmed: Vec<_> = served.iter().filter(|p| !p.3).map(|p| (p.0, p.1)).collect();
        assert_eq!(untrimmed, [(1, 0), (1, 1), (1, 2), (1, 3)]);
        assert!(served.iter().filter(|p| p.3).all(|p| p.0 == 2));
    }

    fn ack(flow: FlowId) -> Packet {
        Packet::control(1, 0, flow, PacketKind::Ack)
    }

    /// Drive the drop-tail FIFO and the drop-tail NIC, both `cap_pkts`
    /// MTUs deep, through the same one-flow script of data (`d`) and ACK
    /// (`a`) arrivals and pops (`.`): every served or refused packet and
    /// the occupancy must match. Returns the number of refusals.
    fn same_as_droptail(cap_pkts: u64, script: &[u8]) -> usize {
        let cap = cap_pkts * MTU as u64;
        let mut fifo = Port::new(Discipline::droptail(cap, None));
        let mut nic = Port::new(Discipline::droptail_nic(cap));
        let mut refused = 0;
        for (i, &op) in script.iter().enumerate() {
            let pkt = match op {
                b'd' => data(1, i as u64),
                b'a' => ack(1),
                _ => {
                    assert_eq!(fifo.pop(1), nic.pop(1));
                    continue;
                }
            };
            let want = fifo.admit(pkt.clone()).map(|p| (p.kind, p.seq));
            assert_eq!(nic.admit(pkt).map(|p| (p.kind, p.seq)), want);
            refused += want.is_some() as usize;
            assert_eq!(fifo.0.occupancy_bytes(), nic.0.occupancy_bytes());
            assert_eq!(fifo.0.queued_packets(), nic.0.queued_packets());
        }
        assert_eq!(fifo.pop(usize::MAX), nic.pop(usize::MAX));
        assert_eq!(nic.0.occupancy_bytes(), 0);
        refused
    }

    #[test]
    fn one_flow_on_the_droptail_nic_is_the_droptail_fifo() {
        // Five MTUs of buffer: the bursts overflow it, and an ACK still fits
        // where a data packet no longer does.
        let script = b"dddddddaa..ddadd.d...ddddddddaaa......adddddda.dd.a........d.";
        assert_eq!(same_as_droptail(5, script), 19);
    }

    #[test]
    fn an_ack_lane_is_not_queued_behind_a_data_backlog() {
        // A host sending flow 1 and receiving flow 2: flow 2's ACKs take
        // turns with flow 1's window.
        let mut nic = Port::new(Discipline::droptail_nic(4096 * MTU as u64));
        for seq in 0..30 {
            nic.admit(data(1, seq));
        }
        nic.admit(ack(2));
        nic.admit(ack(2));
        let kinds: Vec<_> = nic
            .pop(5)
            .iter()
            .map(|&(f, _, kind, _)| (f, kind))
            .collect();
        let (d, a) = ((1, PacketKind::Data), (2, PacketKind::Ack));
        assert_eq!(kinds, [d, a, d, a, d]);
    }

    #[test]
    fn an_arrival_past_the_byte_cap_is_refused_and_the_others_stay() {
        let mut nic = Port::new(Discipline::droptail_nic(4 * MTU as u64));
        for seq in 0..4 {
            assert!(nic.admit(data(1, seq)).is_none());
        }
        let refused = nic.admit(data(2, 0)).expect("the buffer is full");
        assert_eq!((refused.flow, refused.seq), (2, 0));
        assert_eq!(nic.0.occupancy_bytes(), 4 * MTU as u64);
        assert_eq!(nic.order(usize::MAX), [(1, 0), (1, 1), (1, 2), (1, 3)]);
        assert_eq!(nic.2.trimmed + nic.2.ecn_marked, 0);
    }

    /// Drive two ports through the same busy-port script (two flows'
    /// data, `d`/`e`, and pulls, `h`, with pops, `.`, so header runs build
    /// up while data waits), then pop both dry: they must serve, refuse
    /// and count the same.
    fn same_busy_script(a: &mut Port, b: &mut Port) {
        for (i, op) in b"ddehhhhhhhhhhhhe.dd..hh.e......".iter().enumerate() {
            let i = i as u64;
            let refused = |p: Option<Packet>| p.map(|p| format!("{p:?}"));
            match op {
                b'd' | b'e' => {
                    let pkt = || data(1 + (op - b'd') as FlowId, i);
                    assert_eq!(refused(a.admit(pkt())), refused(b.admit(pkt())));
                }
                b'h' => assert_eq!(refused(a.admit(pull(i))), refused(b.admit(pull(i)))),
                _ => assert_eq!(a.pop(1), b.pop(1)),
            }
        }
        assert_eq!(a.pop(usize::MAX), b.pop(usize::MAX));
        assert_eq!(format!("{:?}", a.2), format!("{:?}", b.2));
    }

    /// The hand-off is the push and pop it replaces, for every constructor
    /// and every kind of arrival, at a port that has served traffic before:
    /// the same packet (flags and trim included), the same counters, both
    /// ports empty after, and both in the same state, so a follow-up
    /// script serves them in the same order.
    #[test]
    fn an_idle_port_serves_at_once_what_admit_and_pop_would() {
        let builds: [fn() -> Discipline; 6] = [
            || Discipline::ndp(2, MTU),
            || Discipline::droptail(2 * MTU as u64, Some(MTU as u64)),
            || Discipline::cp(MTU as u64),
            || Discipline::lossless(2 * MTU as u64, MTU as u64 / 2, 0, Some(MTU as u64)),
            || Discipline::ndp_nic(2, MTU),
            || Discipline::droptail_nic(2 * MTU as u64),
        ];
        let arrivals: [fn() -> Packet; 6] = [
            || data(1, 0),
            || data(1, 0).with_flags(Flags::ECT),
            || pull(0),
            || ack(1),
            || {
                let mut p = data(1, 0);
                p.trim();
                p
            },
            // Over CP's trim threshold and over every byte cap.
            || Packet::data(0, 1, 1, 0, 3 * MTU),
        ];
        for build in builds {
            for arrival in arrivals {
                let (mut handed, mut pushed) = (Port::new(build()), Port::new(build()));
                same_busy_script(&mut handed, &mut pushed);
                // (served, the packet); the hand-off, or the push and pop.
                let (at_once, got) = match handed.arrive(arrival(), true) {
                    Admit::Serve(p) => (true, (true, format!("{p:?}"))),
                    Admit::Refused(p) => (false, (false, format!("{p:?}"))),
                    Admit::Queued => (false, (true, format!("{:?}", handed.0.pop().unwrap()))),
                };
                let want = match pushed.admit(arrival()) {
                    Some(p) => (false, format!("{p:?}")),
                    None => (true, format!("{:?}", pushed.0.pop().unwrap())),
                };
                assert_eq!(got, want);
                // Every packet a port takes is handed off, except on the
                // lossless port.
                assert_eq!(at_once, want.0 && handed.0.pfc().is_none());
                assert_eq!(format!("{:?}", handed.2), format!("{:?}", pushed.2));
                for port in [&handed, &pushed] {
                    assert_eq!((port.0.occupancy_bytes(), port.0.queued_packets()), (0, 0));
                }
                same_busy_script(&mut handed, &mut pushed);
            }
        }
    }
}
