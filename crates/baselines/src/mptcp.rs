//! Multipath TCP with LIA coupling (RFC 6356), the paper's
//! high-throughput baseline [31].
//!
//! Eight subflows per connection, each pinned to a distinct (randomly
//! chosen) path tag, sharing one transfer. Each subflow runs TCP's
//! NewReno loss recovery ([`crate::tcp`]'s shared machine, with DCTCP's
//! 10 ms RTO floor) over its own sequence space and reacts to it exactly
//! as a TCP sender does, an RTO expiry going back N included; only the
//! *increase* is coupled:
//!
//! ```text
//! per ack:  cwnd_r += min( a · bytes / cwnd_total , bytes / cwnd_r )
//! a = cwnd_total · max_r(cwnd_r / rtt_r²) / ( Σ_r cwnd_r / rtt_r )²
//! ```
//!
//! Data is allocated to subflows on demand from a shared pool, so a stalled
//! subflow simply stops claiming bytes.

use ndp_net::host::{Delivery, Endpoint, EndpointCtx, FlowHarvest, Launch};
use ndp_net::packet::{Flags, FlowId, HostId, Packet, PacketKind, PathTag, HEADER_BYTES};
use ndp_sim::{ComponentId, Time, World};
use ndp_transport::attach_endpoints;
use rand::Rng;

use crate::tcp::{Ack, NewReno, Reassembly, Timeout};

const RTO_TOKEN_BASE: u8 = 1; // token = base + subflow index

/// Subflows per connection (the paper's MPTCP runs eight).
const N_SUBFLOWS: usize = 8;

/// Each subflow's initial congestion window, in segments.
const INIT_CWND_PKTS: u64 = 2;

/// The floor of each subflow's RFC 6298 RTO.
const MIN_RTO: Time = Time::from_ms(10);

struct Subflow {
    path: PathTag,
    /// Bytes claimed from the shared pool (local seq space size so far).
    claimed: u64,
    rec: NewReno,
}

/// The MPTCP sender endpoint.
pub struct MptcpSender {
    flow: FlowId,
    dst: HostId,
    size_bytes: u64,
    mss: u64,
    subs: Vec<Subflow>,
    /// Bytes of the transfer not yet claimed by any subflow.
    pool: u64,
    total_acked: u64,
    pub tx: Launch,
}

impl MptcpSender {
    pub fn new(flow: FlowId, dst: HostId, size_bytes: u64, mtu: u32) -> MptcpSender {
        let mss = (mtu - HEADER_BYTES) as u64;
        let subs = (0..N_SUBFLOWS)
            .map(|_| Subflow {
                // Drawn per subflow in `on_start`.
                path: 0,
                claimed: 0,
                rec: NewReno::new(INIT_CWND_PKTS, mss, MIN_RTO),
            })
            .collect();
        MptcpSender {
            flow,
            dst,
            size_bytes,
            mss,
            subs,
            pool: size_bytes,
            total_acked: 0,
            tx: Launch::default(),
        }
    }

    /// RFC 6356 coupled-increase coefficient.
    fn lia_alpha(&self) -> f64 {
        let total: u64 = self.subs.iter().map(|s| s.rec.cwnd).sum();
        if total == 0 {
            return 1.0;
        }
        let mut best = 0.0f64;
        let mut denom = 0.0f64;
        for s in &self.subs {
            let rtt = s.rec.srtt.unwrap_or(Time::from_us(100)).as_secs().max(1e-9);
            best = best.max(s.rec.cwnd as f64 / (rtt * rtt));
            denom += s.rec.cwnd as f64 / rtt;
        }
        if denom <= 0.0 {
            return 1.0;
        }
        total as f64 * best / (denom * denom)
    }

    fn send_segment(&mut self, idx: usize, seq: u64, ctx: &mut EndpointCtx<'_, '_>) {
        let s = &mut self.subs[idx];
        let payload = (s.claimed - seq).min(self.mss);
        let mut pkt = Packet::data(
            ctx.host(),
            self.dst,
            self.flow,
            seq,
            payload as u32 + HEADER_BYTES,
        );
        pkt.path = s.path;
        pkt.subflow = idx as u16;
        pkt.sent = ctx.now();
        ctx.send(pkt);
        if let Some(delay) = s.rec.sent(seq, ctx.now()) {
            ctx.timer_in(delay, RTO_TOKEN_BASE + idx as u8);
        }
    }

    fn send_available(&mut self, idx: usize, ctx: &mut EndpointCtx<'_, '_>) {
        loop {
            let s = &mut self.subs[idx];
            if s.rec.flight() >= s.rec.cwnd {
                break;
            }
            // Claim more bytes from the shared pool if needed.
            if s.rec.snd_nxt >= s.claimed {
                let want = self.mss.min(self.pool);
                if want == 0 {
                    break;
                }
                self.pool -= want;
                s.claimed += want;
            }
            let seq = s.rec.snd_nxt;
            s.rec.snd_nxt += (s.claimed - seq).min(self.mss);
            self.send_segment(idx, seq, ctx);
        }
    }

    fn on_ack(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        let idx = pkt.subflow as usize;
        if idx >= self.subs.len() {
            return;
        }
        let alpha = self.lia_alpha();
        let total_cwnd: u64 = self.subs.iter().map(|s| s.rec.cwnd).sum();
        let mss = self.mss;
        let s = &mut self.subs[idx];
        match s.rec.on_ack(u64::from(pkt.ack), pkt.sent, ctx.now()) {
            Ack::Advanced(newly) => {
                self.total_acked += newly;
                let lia = |cwnd| lia_increment(alpha, newly, mss, total_cwnd, cwnd);
                if let Some(hole) = s.rec.open(newly, lia) {
                    self.send_segment(idx, hole, ctx);
                }
                if self.total_acked >= self.size_bytes {
                    self.tx.complete(ctx);
                }
                self.send_available(idx, ctx);
            }
            Ack::FastRetransmit(seq) => {
                self.tx.retransmissions += 1;
                self.send_segment(idx, seq, ctx);
            }
            Ack::Recovering => self.send_available(idx, ctx),
            Ack::Ignored => {}
        }
    }
}

impl Endpoint for MptcpSender {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.tx.start(ctx);
        // Independent random path per subflow (per-flow ECMP hashing).
        for s in &mut self.subs {
            s.path = ctx.rng().gen();
        }
        for idx in 0..self.subs.len() {
            self.send_available(idx, ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind == PacketKind::Ack {
            self.on_ack(pkt, ctx);
        }
    }

    fn on_timer(&mut self, token: u8, ctx: &mut EndpointCtx<'_, '_>) {
        let idx = (token - RTO_TOKEN_BASE) as usize;
        let Some(s) = self.subs.get_mut(idx) else {
            return;
        };
        match s.rec.on_rto(ctx.now()) {
            Timeout::Expired => {
                self.tx.retransmissions += 1;
                self.tx.timeouts += 1;
                self.send_available(idx, ctx);
            }
            Timeout::Rearm(left) => ctx.timer_in(left, token),
            Timeout::Idle => {}
        }
    }

    fn harvest(&self) -> FlowHarvest {
        self.tx.harvest()
    }
}

/// RFC 6356 congestion-avoidance increment for one subflow:
/// `min(alpha · bytes · mss / total_cwnd, bytes · mss / cwnd)` — coupled
/// growth, capped by what a regular TCP would do.
pub fn lia_increment(alpha: f64, newly: u64, mss: u64, total_cwnd: u64, cwnd: u64) -> u64 {
    let inc_coupled = alpha * newly as f64 * mss as f64 / total_cwnd.max(1) as f64;
    let inc_uncoupled = newly as f64 * mss as f64 / cwnd.max(1) as f64;
    inc_coupled.min(inc_uncoupled).max(1.0) as u64
}

/// Per-subflow cumulative-ACK receiver.
pub struct MptcpReceiver {
    peer: HostId,
    subflows: Vec<Reassembly>,
    rx: Delivery,
    total: u64,
}

impl MptcpReceiver {
    pub fn new(peer: HostId, n_subflows: usize, total: u64) -> MptcpReceiver {
        MptcpReceiver {
            peer,
            subflows: vec![Reassembly::default(); n_subflows],
            rx: Delivery::default(),
            total,
        }
    }
}

impl Endpoint for MptcpReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        let Some(stream) = self.subflows.get_mut(pkt.subflow as usize) else {
            return;
        };
        self.rx.arrived(ctx);
        let start = u64::from(pkt.seq);
        let delivered = stream.absorb(start, start + pkt.payload as u64);
        let rcv_nxt = stream.rcv_nxt();
        if delivered > 0 {
            self.rx.deliver(delivered, ctx);
        }
        let mut ack = Packet::control(ctx.host(), self.peer, pkt.flow, PacketKind::Ack);
        ack.ack = Packet::ack32(rcv_nxt);
        ack.subflow = pkt.subflow;
        ack.path = pkt.path;
        ack.sent = pkt.sent;
        if pkt.flags.has(Flags::CE) {
            ack.flags = ack.flags.with(Flags::CE);
        }
        ctx.send(ack);
        if self.rx.bytes() >= self.total {
            self.rx.complete(ctx);
        }
    }

    fn harvest(&self) -> FlowHarvest {
        self.rx.harvest()
    }
}

/// Attach an MPTCP flow.
pub fn attach_mptcp_flow(
    world: &mut World<Packet>,
    flow: FlowId,
    src: (ComponentId, HostId),
    dst: (ComponentId, HostId),
    size_bytes: u64,
    mtu: u32,
    start: Time,
) {
    let receiver = MptcpReceiver::new(src.1, N_SUBFLOWS, size_bytes);
    let sender = MptcpSender::new(flow, dst.1, size_bytes, mtu);
    attach_endpoints(world, flow, (src.0, sender), (dst.0, receiver), start);
}

/// MPTCP's [`Transport`] adapter: 8 subflows on distinct paths, coupled
/// by the LIA increase, over the TCP drop-tail fabric.
pub struct MptcpTransport;

pub static MPTCP: MptcpTransport = MptcpTransport;

impl ndp_transport::Transport for MptcpTransport {
    fn label(&self) -> &'static str {
        "MPTCP"
    }

    fn fabric(&self) -> ndp_transport::QueueSpec {
        ndp_transport::QueueSpec::droptail_default()
    }

    fn attach(
        &self,
        world: &mut World<Packet>,
        topo: &dyn ndp_transport::Topology,
        spec: &ndp_transport::FlowSpec,
    ) {
        let [src, dst] = spec.ends(topo);
        let mtu = topo.mtu();
        attach_mptcp_flow(world, spec.flow, src, dst, spec.size, mtu, spec.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::Host;
    use ndp_topology::{FatTree, FatTreeCfg, QueueSpec};

    #[test]
    fn mptcp_fills_a_fat_tree_path_bundle() {
        let mut w: World<Packet> = World::new(1);
        let cfg = FatTreeCfg::new(4).with_fabric(QueueSpec::droptail_default());
        let ft = FatTree::build(&mut w, cfg);
        let size = 20_000_000u64;
        attach_mptcp_flow(
            &mut w,
            1,
            (ft.hosts[0], 0),
            (ft.hosts[15], 15),
            size,
            9000,
            Time::ZERO,
        );
        w.run_until(Time::from_ms(200));
        assert_eq!(w.get::<Host>(ft.hosts[15]).harvest(1).delivered_bytes, size);
        let tx = w.get::<Host>(ft.hosts[0]).endpoint::<MptcpSender>(1);
        let fct = tx.tx.fct().unwrap();
        let goodput = size as f64 * 8.0 / fct.as_secs() / 1e9;
        assert!(
            goodput > 7.0,
            "8 subflows should fill most of the 10G access link: {goodput:.2}"
        );
    }

    #[test]
    fn lia_alpha_is_one_for_identical_subflows() {
        let mut s = MptcpSender::new(1, 1, 1_000_000, 9000);
        for sub in &mut s.subs {
            sub.rec.cwnd = 100_000;
            sub.rec.srtt = Some(Time::from_us(100));
        }
        let a = s.lia_alpha();
        // For n identical subflows, alpha = total*·(c/r²)/(n·c/r)² = 1/n·...
        // numerically: total=8c, best=c/r², denom=8c/r → a = 8c·c/r² / 64c²/r² = 1/8.
        assert!((a - 1.0 / 8.0).abs() < 1e-9, "alpha {a}");
    }

    #[test]
    fn coupled_increase_is_an_eighth_of_uncoupled_for_equal_subflows() {
        // LIA's defining property: with 8 identical healthy subflows, the
        // aggregate grows like ONE regular TCP, i.e. each subflow gets
        // roughly 1/8 of the uncoupled increment.
        let mss = 8936u64;
        let c = 100 * mss;
        let total = 8 * c;
        let alpha = 1.0 / 8.0; // from lia_alpha_is_one_for_identical_subflows
        let coupled = lia_increment(alpha, mss, mss, total, c);
        let uncoupled = lia_increment(1e9, mss, mss, c, c); // cap side
        assert_eq!(uncoupled, mss * mss / c);
        // coupled = (1/8)·mss²/(8c) = uncoupled/64 per subflow, so the
        // 8-subflow aggregate grows at uncoupled/8 — one TCP's worth.
        assert!(
            coupled * 8 <= uncoupled,
            "coupled {coupled} must be well below uncoupled {uncoupled}"
        );
        // Never zero: growth must not stall entirely.
        assert!(coupled >= 1);
    }
}
