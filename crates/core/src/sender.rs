//! The NDP sender state machine.
//!
//! Lifecycle (§3.2): push `min(IW, total)` packets immediately at line rate
//! (all carrying SYN and their sequence offset), then go quiescent. Every
//! subsequent transmission is triggered by a PULL (retransmissions queued
//! by NACKs go first, then new data; a pull that finds nothing to send is
//! banked for the NACK it overtook), a returned header (return-to-sender,
//! with the anti-incast-echo rules of §3.2.4), or — only for genuinely lost
//! packets, i.e. corruption — the retransmission timeout.

use std::collections::VecDeque;

use ndp_net::host::{Endpoint, EndpointCtx, FlowHarvest, Launch, NDP_RTO};
use ndp_net::packet::{Flags, FlowId, HostId, Packet, PacketKind, HEADER_BYTES};
use ndp_sim::{FxHashSet, Time};
use ndp_transport::SeqWindow;

use crate::path::PathSet;

const RTO_TOKEN: u8 = 1;

/// Slot values of the per-seq window: below [`ACKED`], the path the packet
/// is outstanding on (a path set never approaches 2^32 entries); `IDLE` is
/// never sent, or fed back (NACK/RTS) and waiting to be pulled again.
const IDLE: u32 = u32::MAX;
const ACKED: u32 = u32::MAX - 1;

/// Sender-side counters for the evaluation figures, beside the flow's
/// [`Launch`] ledger (its `retransmissions`, and its `timeouts`: the
/// RTO-driven sends, corruption recovery).
#[derive(Clone, Debug, Default)]
pub struct NdpSenderStats {
    pub data_sent: u64,
    /// Retransmissions triggered via NACK→pull.
    pub rtx_nack: u64,
    /// Retransmissions triggered by returned (RTS) headers.
    pub rtx_rts: u64,
    pub acks: u64,
    pub nacks: u64,
    pub pulls: u64,
    pub rts_received: u64,
    /// Pull credits that found nothing to send and could not be banked:
    /// the bank was full, or an ACK retired the packet a credit was held
    /// for.
    pub wasted_pulls: u64,
}

/// Configuration for one NDP flow.
#[derive(Clone, Debug)]
pub struct NdpFlowCfg {
    pub size_bytes: u64,
    /// Initial window in packets (the paper's only sender parameter; 30 by
    /// default, §6.2).
    pub iw_pkts: u64,
    pub mtu: u32,
    /// Number of sender-selectable paths to the destination.
    pub n_paths: u32,
    /// Path-scoreboard outlier exclusion (§3.2.3). Fig 22 ablates this.
    pub path_penalty: bool,
    /// Receiver pulls this flow with strict priority.
    pub high_priority: bool,
}

impl NdpFlowCfg {
    pub fn new(size_bytes: u64) -> NdpFlowCfg {
        NdpFlowCfg {
            size_bytes,
            iw_pkts: 30,
            mtu: 9000,
            n_paths: 1,
            path_penalty: true,
            high_priority: false,
        }
    }

    pub fn payload_per_pkt(&self) -> u64 {
        (self.mtu - HEADER_BYTES) as u64
    }

    /// Total packets for the transfer.
    pub fn total_pkts(&self) -> u64 {
        self.size_bytes.div_ceil(self.payload_per_pkt()).max(1)
    }
}

/// The sender endpoint.
pub struct NdpSender {
    flow: FlowId,
    dst: HostId,
    cfg: NdpFlowCfg,
    total_pkts: u64,
    next_new: u64,
    /// Packets queued for retransmission (pulled before new data).
    rtx_q: VecDeque<u64>,
    rtx_set: FxHashSet<u64>,
    /// Per-seq state, one `u32` slot each ([`IDLE`], the path a packet is
    /// outstanding on, or [`ACKED`]), held from the lowest un-ACKed seq to
    /// the highest sent: O(packets in flight), not O(flow size). Send and
    /// the three feedback paths index it flat; the one ordered query
    /// (oldest outstanding seq, RTO only) scans the window.
    window: SeqWindow<u32>,
    acked_count: u64,
    outstanding_count: u64,
    /// Pull credits that found nothing to send, held for the NACK or
    /// returned header they overtook (pulls and feedback take different
    /// paths). Never more than `outstanding_count`: a credit can only be
    /// spent on a packet that can still be NACKed or bounced.
    banked: u64,
    /// Total ACK+NACK feedback received (each queues a pull at the rx).
    feedback: u64,
    /// Highest pull counter honoured.
    pull_ctr: u64,
    /// First-window sequences returned to sender (RTS echo suppression).
    first_window_rts: FxHashSet<u64>,
    iw_sent: u64,
    /// The last 16 feedback kinds for the RTS "mostly ACKed" rule, newest
    /// in bit 0 (1 = ACK), and how many of those bits are real.
    recent: u16,
    recent_len: u32,
    paths: PathSet,
    rto_armed: bool,
    /// Time of the most recent feedback (ACK/NACK/new PULL/RTS) or send. The
    /// RTO is a reliability net for *corrupted* packets (§3.2): it fires
    /// only when the flow has been completely silent for a full RTO, never
    /// merely because a burst's tail is still being serialized or pulled.
    last_activity: Time,
    pub tx: Launch,
    pub stats: NdpSenderStats,
}

impl NdpSender {
    pub fn new(flow: FlowId, dst: HostId, cfg: NdpFlowCfg) -> NdpSender {
        let total_pkts = cfg.total_pkts();
        let paths = PathSet::new(cfg.n_paths, cfg.path_penalty);
        // One allocation covers any flow that fits its initial window.
        let window = SeqWindow::new(IDLE, ACKED, total_pkts.min(cfg.iw_pkts) as usize);
        NdpSender {
            flow,
            dst,
            cfg,
            total_pkts,
            next_new: 0,
            rtx_q: VecDeque::new(),
            rtx_set: FxHashSet::default(),
            window,
            acked_count: 0,
            outstanding_count: 0,
            banked: 0,
            feedback: 0,
            pull_ctr: 0,
            first_window_rts: FxHashSet::default(),
            iw_sent: 0,
            recent: 0,
            recent_len: 0,
            paths,
            rto_armed: false,
            last_activity: Time::ZERO,
            tx: Launch::default(),
            stats: NdpSenderStats::default(),
        }
    }

    pub fn total_pkts(&self) -> u64 {
        self.total_pkts
    }

    fn pkt_wire_size(&self, seq: u64) -> u32 {
        let per = self.cfg.payload_per_pkt();
        let offset = seq * per;
        let payload = self.cfg.size_bytes.saturating_sub(offset).min(per).max(1) as u32;
        payload + HEADER_BYTES
    }

    fn send_data(
        &mut self,
        seq: u64,
        rtx: bool,
        avoid_path: Option<u32>,
        ctx: &mut EndpointCtx<'_, '_>,
    ) {
        debug_assert!(seq < self.total_pkts, "send_data past end of flow");
        let path = match avoid_path {
            Some(p) => self.paths.next_avoiding(ctx.rng(), p),
            None => self.paths.next(ctx.rng()),
        };
        let mut pkt = Packet::data(
            ctx.host(),
            self.dst,
            self.flow,
            seq,
            self.pkt_wire_size(seq),
        );
        pkt.path = path;
        pkt.sent = ctx.now();
        if seq < self.cfg.iw_pkts {
            // §3.2.2: every first-RTT packet carries SYN + its offset so
            // whichever arrives first can establish connection state.
            pkt.flags = pkt.flags.with(Flags::SYN);
        }
        if rtx {
            pkt.flags = pkt.flags.with(Flags::RTX);
            self.tx.retransmissions += 1;
        }
        // Mark the last packet (§3.2). Trimming preserves flags, so the
        // receiver learns the transfer length even if this packet's payload
        // is cut; it completes only once *all* of 0..total has arrived.
        if seq == self.total_pkts - 1 {
            pkt.flags = pkt.flags.with(Flags::FIN);
        }
        if self.cfg.high_priority {
            pkt.flags = pkt.flags.with(Flags::PRIO);
        }
        let prev = self.window.get(seq);
        debug_assert!(prev != ACKED, "resending ACKed seq {seq}");
        if prev == IDLE {
            self.outstanding_count += 1;
        }
        self.window.set(seq, path);
        self.stats.data_sent += 1;
        self.last_activity = ctx.now();
        ctx.send(pkt);
        self.arm_rto(ctx);
    }

    #[inline]
    fn clear_outstanding(&mut self, seq: u64) {
        if self.window.get(seq) < ACKED {
            self.window.set(seq, IDLE);
            self.outstanding_count -= 1;
        }
    }

    fn arm_rto(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        if !self.rto_armed && self.outstanding_count > 0 {
            self.rto_armed = true;
            ctx.timer_in(NDP_RTO, RTO_TOKEN);
        }
    }

    fn queue_rtx(&mut self, seq: u64) {
        if self.window.get(seq) != ACKED && self.rtx_set.insert(seq) {
            self.rtx_q.push_back(seq);
        }
    }

    fn pop_rtx(&mut self) -> Option<u64> {
        while let Some(seq) = self.rtx_q.pop_front() {
            self.rtx_set.remove(&seq);
            if self.window.get(seq) != ACKED {
                return Some(seq);
            }
        }
        None
    }

    /// Send up to `n` packets in response to pull credits: retransmissions
    /// first, then new data (§3.2). A credit that finds nothing to send is
    /// banked for the NACK it overtook.
    fn pump(&mut self, n: u64, ctx: &mut EndpointCtx<'_, '_>) {
        for _ in 0..n {
            if let Some(seq) = self.pop_rtx() {
                self.stats.rtx_nack += 1;
                self.send_data(seq, true, None, ctx);
            } else if self.next_new < self.total_pkts {
                let seq = self.next_new;
                self.next_new += 1;
                self.send_data(seq, false, None, ctx);
            } else if self.banked < self.outstanding_count {
                self.banked += 1;
            } else {
                self.stats.wasted_pulls += 1;
            }
        }
    }

    /// A retransmission was just queued: pay for it with a banked pull
    /// now rather than wait for the next pull (or, if none is coming, an
    /// RTO).
    fn spend_banked(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        if self.banked > 0 {
            self.banked -= 1;
            self.pump(1, ctx);
        }
    }

    /// Debug builds check, after every event, that the bank holds no more
    /// credits than there are packets to spend them on, and that every
    /// packet sent after the initial window was paid for exactly once: by
    /// a pull credit (on arrival or from the bank), an immediate RTS
    /// resend or an RTO / self-clock resend.
    fn check_pull_ledger(&self) {
        debug_assert!(
            self.banked <= self.outstanding_count,
            "{} pulls banked for {} outstanding packets",
            self.banked,
            self.outstanding_count
        );
        let s = &self.stats;
        debug_assert_eq!(
            s.data_sent,
            self.iw_sent + (s.pulls - s.wasted_pulls - self.banked) + s.rtx_rts + self.tx.timeouts,
            "a packet sent without a credit, or a credit spent twice"
        );
    }

    fn on_ack(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        let seq = u64::from(pkt.seq);
        if seq >= self.total_pkts {
            return;
        }
        self.stats.acks += 1;
        self.paths.on_ack(pkt.path);
        self.push_recent(true);
        self.feedback += 1;
        let prev = self.window.get(seq);
        if prev < ACKED {
            self.outstanding_count -= 1;
            if self.banked > self.outstanding_count {
                self.banked -= 1;
                self.stats.wasted_pulls += 1;
            }
        }
        if prev != ACKED {
            self.window.set(seq, ACKED);
            self.acked_count += 1;
            if self.acked_count == self.total_pkts {
                self.tx.complete(ctx);
            }
        }
    }

    fn on_nack(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        let seq = u64::from(pkt.seq);
        if seq >= self.total_pkts {
            return;
        }
        self.stats.nacks += 1;
        self.paths.on_nack(pkt.path);
        self.push_recent(false);
        self.feedback += 1;
        // Feedback received: the packet is known-trimmed, stop RTO-tracking
        // it (the receiver queued a pull; retransmission will be pulled, at
        // once if that pull overtook this NACK and was banked).
        self.clear_outstanding(seq);
        self.queue_rtx(seq);
        self.spend_banked(ctx);
    }

    fn push_recent(&mut self, ack: bool) {
        self.recent = self.recent << 1 | u16::from(ack);
        self.recent_len = (self.recent_len + 1).min(u16::BITS);
    }

    /// §3.2.4 return-to-sender: resend immediately only if (a) we are not
    /// expecting more pulls, or (b) the whole first window bounced, or (c)
    /// feedback is mostly ACKs (asymmetric network — a different path will
    /// likely work). Otherwise queue for pulling, which keeps the pull
    /// clock going without echoing the incast.
    fn on_rts(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        let seq = u64::from(pkt.seq);
        if seq >= self.total_pkts {
            return;
        }
        self.stats.rts_received += 1;
        self.clear_outstanding(seq);
        if self.window.get(seq) == ACKED {
            return;
        }
        if seq < self.iw_sent {
            self.first_window_rts.insert(seq);
        }
        let expecting_pulls = self.feedback > self.pull_ctr;
        let whole_window_returned = self.iw_sent > 0
            && self.first_window_rts.len() as u64 >= self.iw_sent.min(self.total_pkts);
        let mostly_acked =
            self.recent_len >= 8 && self.recent.count_ones() * 4 >= self.recent_len * 3;
        if !expecting_pulls || whole_window_returned || mostly_acked {
            self.stats.rtx_rts += 1;
            self.send_data(seq, true, Some(pkt.path), ctx);
        } else {
            self.queue_rtx(seq);
            self.spend_banked(ctx);
        }
    }

    /// RTO expiry with nothing outstanding: the sender's half of the
    /// liveness net. While a pull is owed (feedback beyond the pull
    /// counter), stay quiet — the pull may sit in a deep receiver queue,
    /// and if it was lost the receiver's sweep repeats it. With no pull
    /// owed and work still queued, no one else will restart the clock, so
    /// after a full RTO of silence self-clock one packet (rtx first). It
    /// goes out via [`NdpSender::send_data`] and re-arms the regular RTO.
    /// A pull that overtook its NACK is banked and spent by that NACK, so
    /// this is the backstop for a credit the bank's bound clamped away.
    fn restart_pull_clock(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        if self.feedback > self.pull_ctr {
            return;
        }
        if self.rtx_q.is_empty() && self.next_new >= self.total_pkts {
            return;
        }
        let now = ctx.now();
        let deadline = self.last_activity + NDP_RTO;
        if now < deadline {
            // Feedback flowed more recently than a full RTO ago: the pull
            // may simply be queued. Keep the net armed and check again.
            self.rto_armed = true;
            ctx.timer_in(deadline - now, RTO_TOKEN);
            return;
        }
        self.tx.timeouts += 1;
        if let Some(seq) = self.pop_rtx() {
            self.send_data(seq, true, None, ctx);
        } else {
            let seq = self.next_new;
            self.next_new += 1;
            self.send_data(seq, false, None, ctx);
        }
    }

    /// The RTO timer fired: a flow owed no pull restarts its clock, and a
    /// full RTO of silence with packets outstanding resends the oldest.
    fn on_rto(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.rto_armed = false;
        if self.tx.is_complete() {
            return;
        }
        if self.outstanding_count == 0 {
            self.restart_pull_clock(ctx);
            return;
        }
        let now = ctx.now();
        let deadline = self.last_activity + NDP_RTO;
        if now < deadline {
            // Feedback is still flowing: the flow isn't stalled, so nothing
            // is presumed lost. Re-arm for the remaining silence window.
            self.rto_armed = true;
            ctx.timer_in(deadline - now, RTO_TOKEN);
            return;
        }
        // Full RTO of silence with packets outstanding: something was
        // genuinely lost (corruption, or a dropped header). Resend the
        // oldest outstanding packet on a different path and penalize the
        // old one (§3.2.3).
        let oldest = self.window.iter().find(|&(_, p)| p < ACKED);
        if let Some((seq, path)) = oldest {
            self.paths.on_loss(path);
            self.tx.timeouts += 1;
            self.send_data(seq, true, Some(path), ctx);
        }
        self.arm_rto(ctx);
    }
}

impl Endpoint for NdpSender {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.tx.start(ctx);
        let burst = self.cfg.iw_pkts.min(self.total_pkts);
        self.iw_sent = burst;
        for _ in 0..burst {
            let seq = self.next_new;
            self.next_new += 1;
            self.send_data(seq, false, None, ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        // A stale (repeated or reordered) pull grants nothing, so it is
        // not activity either: it must not push back a data RTO.
        if pkt.kind == PacketKind::Pull && u64::from(pkt.ack) <= self.pull_ctr {
            return;
        }
        self.last_activity = ctx.now();
        match pkt.kind {
            PacketKind::Ack => self.on_ack(pkt, ctx),
            PacketKind::Nack => self.on_nack(pkt, ctx),
            PacketKind::Pull => {
                let n = u64::from(pkt.ack) - self.pull_ctr;
                self.pull_ctr = u64::from(pkt.ack);
                self.stats.pulls += n;
                self.pump(n, ctx);
            }
            PacketKind::Data if pkt.is_rts() => self.on_rts(pkt, ctx),
            _ => {}
        }
        self.check_pull_ledger();
    }

    fn on_timer(&mut self, token: u8, ctx: &mut EndpointCtx<'_, '_>) {
        if token == RTO_TOKEN {
            self.on_rto(ctx);
            self.check_pull_ledger();
        }
    }

    fn harvest(&self) -> FlowHarvest {
        FlowHarvest {
            rts_events: self.stats.rts_received,
            ..self.tx.harvest()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NdpReceiver;
    use ndp_net::host::{Host, HostLatency};
    use ndp_sim::{Speed, World};
    use ndp_topology::{BackToBack, QueueSpec};

    #[test]
    fn rto_scan_is_bounded_by_the_window_not_the_flow() {
        // The RTO's oldest-outstanding search walks the sender's per-seq
        // window, so its cost is the window's length. Lose one packet
        // 100k packets into a flow: when the RTO finally fires for it, the
        // window holds the tail of the flow behind the hole, not the 100k
        // settled packets in front of it.
        /// A receiver that never sees the first copy of one sequence.
        struct DropOnce {
            inner: NdpReceiver,
            seq: Option<u32>,
        }
        impl Endpoint for DropOnce {
            fn on_start(&mut self, c: &mut EndpointCtx<'_, '_>) {
                self.inner.on_start(c);
            }
            fn on_packet(&mut self, p: Packet, c: &mut EndpointCtx<'_, '_>) {
                if self.seq == Some(p.seq) {
                    self.seq = None;
                } else {
                    self.inner.on_packet(p, c);
                }
            }
            fn on_timer(&mut self, t: u8, c: &mut EndpointCtx<'_, '_>) {
                self.inner.on_timer(t, c);
            }
        }
        const SETTLED: u64 = 100_000;
        const TAIL: u64 = 50;
        let mut w: World<Packet> = World::new(9);
        let b = BackToBack::build(
            &mut w,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
            HostLatency::default(),
        );
        let cfg = NdpFlowCfg {
            n_paths: 1,
            ..NdpFlowCfg::new((SETTLED + TAIL) * 8936)
        };
        let sender = NdpSender::new(1, 1, cfg);
        let receiver = DropOnce {
            inner: NdpReceiver::new(0),
            seq: Some(SETTLED as u32),
        };
        w.get_mut::<Host>(b.hosts[0])
            .add_endpoint(1, Box::new(sender));
        w.get_mut::<Host>(b.hosts[1])
            .add_endpoint(1, Box::new(receiver));
        w.post_wake(Time::ZERO, b.hosts[0], 1 << 8);
        let mut scanned = None;
        // 100k 9 KB packets take 0.72 s at 10 Gb/s.
        for ms in 1..=800 {
            w.run_until(Time::from_ms(ms));
            let s: &NdpSender = w.get::<Host>(b.hosts[0]).endpoint(1);
            if s.tx.timeouts == 0 && s.stats.acks == SETTLED + TAIL - 1 {
                // Silent, one packet outstanding: the next timer scans this.
                scanned = Some(s.window.len());
            }
        }
        let s: &NdpSender = w.get::<Host>(b.hosts[0]).endpoint(1);
        assert!(s.tx.is_complete(), "the hole must be repaired");
        assert_eq!(s.tx.timeouts, 1, "by exactly one RTO");
        assert_eq!(scanned, Some(TAIL as usize), "slots the RTO walked");
    }
}
