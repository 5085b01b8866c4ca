//! pHost [16]: receiver-driven credits *without* packet trimming.
//!
//! §6.2 "Who needs packet trimming?": pHost sprays packets per-packet over
//! a drop-tail fabric with small buffers and bursts the first RTT at line
//! rate, like NDP — but when the first window is dropped wholesale (incast)
//! the receiver has no idea what was sent. Its only recovery signal is a
//! token timeout. The paper finds a 432:1 incast takes pHost 1–1.5 s vs
//! NDP's 140 ms, and permutation utilization is ~70 % vs 95 %.
//!
//! This implementation reuses the host pull-pacer as the token pacer
//! (both are receiver-paced credit schemes); the differences are all on
//! the loss-recovery side: no NACKs, no return-to-sender, timeout-driven
//! re-credits.

use ndp_net::host::{
    start_token, Delivery, Endpoint, EndpointCtx, FlowHarvest, Launch, PullPriority,
};
use ndp_net::packet::{Flags, FlowId, HostId, Packet, PacketKind, HEADER_BYTES};
use ndp_sim::{ComponentId, Time, World};
use ndp_transport::{attach_endpoints, SeqWindow};
use rand::Rng;

const TIMEOUT_TOKEN: u8 = 1;

/// First-RTT free window in packets: the line-rate burst a flow sends
/// before any token.
const IW_PKTS: u64 = 30;

/// Receiver-side token timeout: re-issue credits if the flow stalls.
const TOKEN_TIMEOUT: Time = Time::from_us(500);

/// The pHost sender.
pub struct PHostSender {
    flow: FlowId,
    dst: HostId,
    size_bytes: u64,
    payload_per_pkt: u64,
    total_pkts: u64,
    next_new: u64,
    acked: SeqWindow<bool>,
    acked_count: u64,
    token_ctr: u64,
    scan: u64,
    pub tx: Launch,
}

impl PHostSender {
    pub fn new(flow: FlowId, dst: HostId, size_bytes: u64, mtu: u32) -> PHostSender {
        let payload_per_pkt = (mtu - HEADER_BYTES) as u64;
        let total_pkts = size_bytes.div_ceil(payload_per_pkt).max(1);
        let acked = SeqWindow::new(false, true, total_pkts.min(IW_PKTS) as usize);
        PHostSender {
            flow,
            dst,
            size_bytes,
            payload_per_pkt,
            total_pkts,
            next_new: 0,
            acked,
            acked_count: 0,
            token_ctr: 0,
            scan: 0,
            tx: Launch::default(),
        }
    }

    fn wire_size(&self, seq: u64) -> u32 {
        let per = self.payload_per_pkt;
        let payload = self.size_bytes.saturating_sub(seq * per).min(per).max(1) as u32;
        payload + HEADER_BYTES
    }

    fn send_seq(&mut self, seq: u64, rtx: bool, ctx: &mut EndpointCtx<'_, '_>) {
        let mut pkt = Packet::data(ctx.host(), self.dst, self.flow, seq, self.wire_size(seq));
        // Per-packet spraying: random tag, reduced modulo fan-out in-switch.
        pkt.path = ctx.rng().gen();
        pkt.sent = ctx.now();
        if seq == self.total_pkts - 1 {
            pkt.flags = pkt.flags.with(Flags::FIN);
        }
        if rtx {
            pkt.flags = pkt.flags.with(Flags::RTX);
            self.tx.retransmissions += 1;
        }
        ctx.send(pkt);
    }

    /// Token-driven send: unsent data first, then round-robin over unacked.
    fn pump(&mut self, n: u64, ctx: &mut EndpointCtx<'_, '_>) {
        for _ in 0..n {
            if self.next_new < self.total_pkts {
                let seq = self.next_new;
                self.next_new += 1;
                self.send_seq(seq, false, ctx);
            } else if self.acked_count < self.total_pkts {
                // Resend the next unacked packet in scan order; one exists
                // at or above the acked floor, so skip the prefix below it.
                loop {
                    let at = self.scan % self.total_pkts;
                    let seq = at.max(self.acked.floor());
                    self.scan += seq - at + 1;
                    if !self.acked.get(seq) {
                        self.send_seq(seq, true, ctx);
                        break;
                    }
                }
            }
        }
    }
}

impl Endpoint for PHostSender {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.tx.start(ctx);
        let burst = IW_PKTS.min(self.total_pkts);
        for _ in 0..burst {
            let seq = self.next_new;
            self.next_new += 1;
            self.send_seq(seq, false, ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        match pkt.kind {
            PacketKind::Ack => {
                let seq = u64::from(pkt.seq);
                if seq < self.total_pkts && self.acked.settle(seq) {
                    self.acked_count += 1;
                    if self.acked_count == self.total_pkts {
                        self.tx.complete(ctx);
                    }
                }
            }
            PacketKind::Pull | PacketKind::Token if u64::from(pkt.ack) > self.token_ctr => {
                let n = u64::from(pkt.ack) - self.token_ctr;
                self.token_ctr = u64::from(pkt.ack);
                self.pump(n, ctx);
            }
            _ => {}
        }
    }

    fn harvest(&self) -> FlowHarvest {
        self.tx.harvest()
    }
}

/// The pHost receiver: ACK per packet, token per arrival, timeout-driven
/// re-credits when the flow stalls.
pub struct PHostReceiver {
    peer: HostId,
    total: Option<u64>,
    received: SeqWindow<bool>,
    received_count: u64,
    last_arrival: Time,
    timer_armed: bool,
    rx: Delivery,
    pub timeout_credits: u64,
}

impl PHostReceiver {
    pub fn new(peer: HostId) -> PHostReceiver {
        PHostReceiver {
            peer,
            total: None,
            received: SeqWindow::new(false, true, 0),
            received_count: 0,
            last_arrival: Time::ZERO,
            timer_armed: false,
            rx: Delivery::default(),
            timeout_credits: 0,
        }
    }

    fn mark(&mut self, seq: u64) -> bool {
        let new = self.received.settle(seq);
        self.received_count += u64::from(new);
        new
    }

    fn arm_timer(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        if !self.timer_armed && !self.rx.is_complete() {
            self.timer_armed = true;
            ctx.timer_in(TOKEN_TIMEOUT, TIMEOUT_TOKEN);
        }
    }
}

impl Endpoint for PHostReceiver {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        // pHost announces flows with an RTS control packet, so the receiver
        // can run its token timeout even if the *entire* first data window
        // is dropped (the common case in big incasts). We model the RTS by
        // starting the receiver's timeout clock at flow start.
        self.arm_timer(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind != PacketKind::Data || pkt.is_trimmed() {
            return;
        }
        self.rx.arrived(ctx);
        self.last_arrival = ctx.now();
        if pkt.flags.has(Flags::FIN) {
            self.total = Some(u64::from(pkt.seq) + 1);
        }
        if self.mark(u64::from(pkt.seq)) {
            self.rx.deliver(pkt.payload as u64, ctx);
        }
        // Per-packet ACK.
        let mut ack = Packet::control(ctx.host(), self.peer, pkt.flow, PacketKind::Ack);
        ack.seq = pkt.seq;
        ack.path = ctx.rng().gen();
        ack.sent = pkt.sent;
        ctx.send(ack);
        if let Some(total) = self.total {
            if self.received_count >= total && !self.rx.is_complete() {
                ctx.pull_cancel();
                self.rx.complete(ctx);
                return;
            }
        }
        ctx.pull_request(self.peer, PullPriority::Normal);
        self.arm_timer(ctx);
    }

    fn on_timer(&mut self, token: u8, ctx: &mut EndpointCtx<'_, '_>) {
        if token != TIMEOUT_TOKEN {
            return;
        }
        self.timer_armed = false;
        if self.rx.is_complete() {
            return;
        }
        if ctx.now().saturating_sub(self.last_arrival) >= TOKEN_TIMEOUT {
            // The flow stalled: whatever tokens were out are presumed lost
            // along with their data. Issue a fresh batch of credits.
            let missing = match self.total {
                Some(t) => t - self.received_count,
                None => 8,
            };
            self.timeout_credits += 1;
            for _ in 0..missing.min(8) {
                ctx.pull_request(self.peer, PullPriority::Normal);
            }
        }
        self.arm_timer(ctx);
    }

    /// pHost's only timer is the receiver's token timeout, so its
    /// `timeouts` tally lives here, not on the sender.
    fn harvest(&self) -> FlowHarvest {
        FlowHarvest {
            timeouts: self.timeout_credits,
            ..self.rx.harvest()
        }
    }
}

/// Attach a pHost flow (use a small drop-tail fabric).
pub fn attach_phost_flow(
    world: &mut World<Packet>,
    flow: FlowId,
    src: (ComponentId, HostId),
    dst: (ComponentId, HostId),
    size_bytes: u64,
    mtu: u32,
    start: Time,
) {
    let receiver = PHostReceiver::new(src.1);
    let sender = PHostSender::new(flow, dst.1, size_bytes, mtu);
    attach_endpoints(world, flow, (src.0, sender), (dst.0, receiver), start);
    // Start the receiver's token-timeout clock (models pHost's RTS).
    world.post_wake(start, dst.0, start_token(flow));
}

/// pHost's [`Transport`] adapter: receiver-driven credits *without* packet
/// trimming, over small drop-tail queues (§6.2).
pub struct PHostTransport;

pub static PHOST: PHostTransport = PHostTransport;

impl ndp_transport::Transport for PHostTransport {
    fn label(&self) -> &'static str {
        "pHost"
    }

    fn fabric(&self) -> ndp_transport::QueueSpec {
        ndp_transport::QueueSpec::phost_default()
    }

    fn attach(
        &self,
        world: &mut World<Packet>,
        topo: &dyn ndp_transport::Topology,
        spec: &ndp_transport::FlowSpec,
    ) {
        let [src, dst] = spec.ends(topo);
        let mtu = topo.mtu();
        attach_phost_flow(world, spec.flow, src, dst, spec.size, mtu, spec.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::Host;
    use ndp_sim::Speed;
    use ndp_topology::{QueueSpec, SingleBottleneck};

    #[test]
    fn clean_link_transfer_completes() {
        let mut w: World<Packet> = World::new(1);
        let sb = SingleBottleneck::build(
            &mut w,
            1,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::phost_default(),
        );
        let size = 5_000_000u64;
        attach_phost_flow(
            &mut w,
            1,
            (sb.senders[0], 0),
            (sb.receiver, 1),
            size,
            9000,
            Time::ZERO,
        );
        w.run_until(Time::from_ms(100));
        let rx = w.get::<Host>(sb.receiver).harvest(1);
        assert_eq!(rx.delivered_bytes, size);
        assert!(rx.completion_time.is_some());
    }

    #[test]
    fn incast_recovers_only_via_timeouts_and_is_slow() {
        let mut w: World<Packet> = World::new(2);
        let n = 30usize;
        let sb = SingleBottleneck::build(
            &mut w,
            n,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::phost_default(),
        );
        let size = 30 * 8936u64;
        for s in 0..n as u64 {
            attach_phost_flow(
                &mut w,
                s + 1,
                (sb.senders[s as usize], s as u32),
                (sb.receiver, n as u32),
                size,
                9000,
                Time::ZERO,
            );
        }
        w.run_until(Time::from_secs(5));
        let mut last = Time::ZERO;
        let mut timeout_credits = 0;
        for s in 0..n as u64 {
            let rx = w.get::<Host>(sb.receiver).endpoint::<PHostReceiver>(s + 1);
            let done = rx.harvest().completion_time;
            last = last.max(done.unwrap_or_else(|| panic!("flow {s} incomplete")));
            timeout_credits += rx.timeout_credits;
        }
        assert!(
            timeout_credits > 0,
            "incast must lose bursts and need timeout recovery"
        );
        // Ideal is ~6.5 ms (30 × 30 × 9 KB at 10 Gb/s); pHost pays at least
        // the initial token-timeout stall on top. The dramatic divergence
        // from NDP shows up at 432:1 scale (see the inline_phost
        // experiment); here we assert the qualitative signature: losses
        // recovered only by timeout, completion strictly above ideal.
        assert!(last > Time::from_ms(6), "pHost incast took {last}");
    }
}
