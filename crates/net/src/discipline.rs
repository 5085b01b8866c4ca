//! Service disciplines: what one output port buffers, refuses and serves
//! next — the part of the switch the paper's comparisons actually vary.
//!
//! A [`Discipline`] owns its buffers and three decisions: *admit* an
//! arrival (queue it, trim it, mark it, or hand a packet back as refused),
//! *pop* the next packet to serialize, and report *occupancy*. Everything
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

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::flight::HopKind;
use crate::packet::{Flags, Packet, PacketKind};
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

impl Fifo {
    fn admit(&mut self, mut pkt: Packet, tap: &mut Tap<'_>) -> Option<Packet> {
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
            return Some(pkt);
        }
        if let Some(k) = self.ecn_thresh_bytes {
            if self.bytes > k && pkt.flags.has(Flags::ECT) {
                pkt.flags = pkt.flags.with(Flags::CE);
                tap.note(HopKind::EcnMark, &pkt);
            }
        }
        self.bytes += pkt.size as u64;
        self.q.push_back(pkt);
        None
    }

    fn pop(&mut self) -> Option<Packet> {
        let p = self.q.pop_front()?;
        self.bytes -= p.size as u64;
        Some(p)
    }
}

/// The NDP port: data queue + priority header queue under 10:1 WRR.
pub struct NdpQueues {
    data: VecDeque<Packet>,
    hdr: VecDeque<Packet>,
    data_cap_pkts: usize,
    hdr_cap_bytes: u64,
    /// Bytes in each queue, maintained incrementally so per-packet
    /// occupancy accounting stays O(1).
    data_bytes: u64,
    hdr_bytes: u64,
    /// Consecutive header-queue services while data waits (WRR state).
    hdr_run: u32,
    /// WRR ratio: serve up to this many headers per data packet (10).
    wrr_ratio: u32,
}

impl NdpQueues {
    fn admit(&mut self, pkt: Packet, rng: &mut SmallRng, tap: &mut Tap<'_>) -> Option<Packet> {
        let hdr = if pkt.ndp_priority() {
            pkt
        } else if self.data.len() < self.data_cap_pkts {
            self.data_bytes += pkt.size as u64;
            self.data.push_back(pkt);
            return None;
        } else {
            // Data queue full: trim. Decide with 50% probability whether
            // the victim is the arriving packet or the one at the tail of
            // the data queue (§3.1, breaks phase effects).
            let mut victim = if rng.gen::<bool>() {
                pkt
            } else {
                let tail = self.data.pop_back().expect("data_cap_pkts >= 1");
                self.data_bytes = self.data_bytes - tail.size as u64 + pkt.size as u64;
                self.data.push_back(pkt);
                tail
            };
            victim.trim();
            tap.note(HopKind::Trim, &victim);
            victim
        };
        if self.hdr_bytes + hdr.size as u64 > self.hdr_cap_bytes {
            return Some(hdr);
        }
        self.hdr_bytes += hdr.size as u64;
        self.hdr.push_back(hdr);
        None
    }

    /// Weighted round robin, headers preferred: serve the header queue
    /// unless `wrr_ratio` headers in a row were served while data waited.
    fn pop(&mut self) -> Option<Packet> {
        let serve_hdr =
            !self.hdr.is_empty() && (self.data.is_empty() || self.hdr_run < self.wrr_ratio);
        if serve_hdr {
            let p = self.hdr.pop_front()?;
            self.hdr_bytes -= p.size as u64;
            if !self.data.is_empty() {
                self.hdr_run += 1;
            }
            Some(p)
        } else {
            let p = self.data.pop_front()?;
            self.data_bytes -= p.size as u64;
            self.hdr_run = 0;
            Some(p)
        }
    }
}

/// The queueing discipline of one egress port. A closed enum — the link
/// dispatches statically on it once per admit/pop.
pub enum Discipline {
    Fifo(Fifo),
    Ndp(NdpQueues),
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
        assert!(
            data_cap_pkts > 0,
            "a zero-packet data queue has no tail to trim"
        );
        Discipline::Ndp(NdpQueues {
            data: VecDeque::new(),
            hdr: VecDeque::new(),
            data_cap_pkts,
            hdr_cap_bytes: data_cap_pkts as u64 * mtu as u64,
            data_bytes: 0,
            hdr_bytes: 0,
            hdr_run: 0,
            wrr_ratio: 10,
        })
    }

    /// Decide the fate of an arrival. Trims and marks are reported through
    /// `tap`; a packet that could not be buffered (the arrival, or the
    /// header of the victim it displaced) comes back for the link to
    /// bounce or drop. The NDP coin is the only RNG draw.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        pkt: Packet,
        rng: &mut SmallRng,
        tap: &mut Tap<'_>,
    ) -> Option<Packet> {
        match self {
            Discipline::Fifo(f) => f.admit(pkt, tap),
            Discipline::Ndp(n) => n.admit(pkt, rng, tap),
        }
    }

    /// The next packet to serialize.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Packet> {
        match self {
            Discipline::Fifo(f) => f.pop(),
            Discipline::Ndp(n) => n.pop(),
        }
    }

    /// Bytes currently buffered.
    pub fn occupancy_bytes(&self) -> u64 {
        match self {
            Discipline::Fifo(f) => f.bytes,
            Discipline::Ndp(n) => n.data_bytes + n.hdr_bytes,
        }
    }

    pub fn queued_packets(&self) -> usize {
        match self {
            Discipline::Fifo(f) => f.q.len(),
            Discipline::Ndp(n) => n.data.len() + n.hdr.len(),
        }
    }

    /// PFC `(xoff, xon)` thresholds when this is a lossless discipline.
    pub(crate) fn pfc(&self) -> Option<(u64, u64)> {
        match self {
            Discipline::Fifo(f) => f.pfc,
            Discipline::Ndp(_) => None,
        }
    }
}
