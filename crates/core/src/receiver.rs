//! The NDP receiver state machine.
//!
//! §3.2: for each arriving trimmed header, NACK immediately (the sender
//! must *prepare* the retransmission); for each arriving data packet, ACK
//! immediately (the sender may free the buffer); for **every** arrival,
//! add a PULL to the host's shared pull queue. When the FIN-marked last
//! packet arrives and the transfer is complete, cancel any queued pulls
//! for this sender so the pacer doesn't waste link capacity on them.
//!
//! Reordering needs no special handling: nothing here infers loss from
//! sequence gaps — trimmed headers carry exact per-packet information, in
//! any order (§3.2.1).

use ndp_net::host::{Delivery, Endpoint, EndpointCtx, FlowHarvest, PullPriority};
use ndp_net::packet::{Flags, HostId, Packet, PacketKind};
use ndp_transport::SeqWindow;

/// Receiver-side counters NDP keeps beyond its [`FlowHarvest`].
#[derive(Clone, Debug, Default)]
pub struct NdpReceiverStats {
    pub data_pkts: u64,
    pub duplicate_pkts: u64,
    pub headers: u64,
}

/// The receiver endpoint for one NDP connection.
pub struct NdpReceiver {
    peer: HostId,
    prio: PullPriority,
    /// `total = FIN seq + 1`, learned from any FIN-flagged arrival
    /// (trimmed headers keep their flags).
    total: Option<u64>,
    /// Received-or-not per seq, held from the lowest missing seq up.
    received: SeqWindow<bool>,
    received_count: u64,
    rx: Delivery,
    pub stats: NdpReceiverStats,
}

impl NdpReceiver {
    pub fn new(peer: HostId) -> NdpReceiver {
        NdpReceiver {
            peer,
            prio: PullPriority::Normal,
            total: None,
            received: SeqWindow::new(false, true, 0),
            received_count: 0,
            rx: Delivery::default(),
            stats: NdpReceiverStats::default(),
        }
    }

    /// Pull this connection with strict priority (§5.1 "Benefits of
    /// prioritization": the receiver is the only entity that can
    /// dynamically prioritize its inbound traffic).
    pub fn with_priority(mut self, prio: PullPriority) -> NdpReceiver {
        self.prio = prio;
        self
    }

    fn mark(&mut self, seq: u64) -> bool {
        let new = self.received.settle(seq);
        self.received_count += u64::from(new);
        new
    }

    fn check_done(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        let Some(total) = self.total else { return };
        if self.rx.is_complete() || self.received_count < total {
            return;
        }
        // Remove queued pulls for this sender (§3.2) and retire the
        // connection id into time-wait (§3.2.2 at-most-once semantics).
        ctx.pull_cancel();
        ctx.enter_time_wait();
        self.rx.complete(ctx);
    }

    fn reply(&self, kind: PacketKind, data: &Packet, ctx: &mut EndpointCtx<'_, '_>) {
        let mut r = Packet::control(ctx.host(), self.peer, data.flow, kind);
        r.seq = data.seq;
        // Echo the data packet's path so the sender's scoreboard can
        // attribute the ACK/NACK (§3.2.3), and its send time for RTT
        // estimation.
        r.path = data.path;
        r.sent = data.sent;
        ctx.send(r);
    }
}

/// Passive open (listen): nothing happens at start — §3.2.2, connection
/// state is established by whichever packet arrives first.
impl Endpoint for NdpReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind != PacketKind::Data || pkt.is_rts() {
            return;
        }
        self.rx.arrived(ctx);
        if pkt.flags.has(Flags::FIN) {
            self.total = Some(u64::from(pkt.seq) + 1);
        }
        if pkt.is_trimmed() {
            // Payload was cut: NACK so the sender readies a retransmission.
            self.stats.headers += 1;
            self.reply(PacketKind::Nack, &pkt, ctx);
            if !self.rx.is_complete() {
                ctx.pull_request(self.peer, self.prio);
            }
        } else {
            self.stats.data_pkts += 1;
            if self.mark(u64::from(pkt.seq)) {
                self.rx.deliver(pkt.payload as u64, ctx);
            } else {
                self.stats.duplicate_pkts += 1;
            }
            self.reply(PacketKind::Ack, &pkt, ctx);
            if !self.rx.is_complete() {
                ctx.pull_request(self.peer, self.prio);
            }
            self.check_done(ctx);
        }
    }

    fn harvest(&self) -> FlowHarvest {
        FlowHarvest {
            trimmed_headers: self.stats.headers,
            ..self.rx.harvest()
        }
    }
}
