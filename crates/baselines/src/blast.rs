//! Unresponsive constant-bit-rate senders and counting sinks.
//!
//! Figure 2 compares switch service models under *unresponsive* load:
//! "many unresponsive flows converge on a 10 Gb/s link that can only
//! support one of them". The sender here just clocks MTU-sized packets at
//! a fixed rate forever; the sink counts untrimmed payload per flow so the
//! experiment can compute each flow's share of fair goodput.

use ndp_net::host::{Delivery, Endpoint, EndpointCtx, FlowHarvest};
use ndp_net::packet::{FlowId, HostId, Packet, PacketKind, HEADER_BYTES};
use ndp_net::Host;
use ndp_sim::{ComponentId, Speed, Time, World};
use ndp_transport::attach_endpoints;

const TICK: u8 = 1;

/// Sends MTU packets at `rate` until stopped (never reacts to anything).
pub struct BlastSender {
    flow: FlowId,
    dst: HostId,
    mtu: u32,
    rate: Speed,
    /// Stop after this many packets (practically unbounded by default).
    limit: u64,
    seq: u64,
    pub sent: u64,
}

impl BlastSender {
    pub fn new(flow: FlowId, dst: HostId, mtu: u32, rate: Speed) -> BlastSender {
        BlastSender {
            flow,
            dst,
            mtu,
            rate,
            limit: u64::MAX,
            seq: 0,
            sent: 0,
        }
    }

    pub fn with_limit(mut self, pkts: u64) -> BlastSender {
        self.limit = pkts;
        self
    }

    fn emit(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        if self.seq >= self.limit {
            return;
        }
        let mut pkt = Packet::data(ctx.host(), self.dst, self.flow, self.seq, self.mtu);
        pkt.sent = ctx.now();
        self.seq += 1;
        self.sent += 1;
        ctx.send(pkt);
        ctx.timer_in(self.rate.tx_time(self.mtu as u64), TICK);
    }
}

impl Endpoint for BlastSender {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.emit(ctx);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut EndpointCtx<'_, '_>) {}
    fn on_timer(&mut self, token: u8, ctx: &mut EndpointCtx<'_, '_>) {
        if token == TICK {
            self.emit(ctx);
        }
    }
}

/// Counts delivered (untrimmed) payload and trimmed headers.
#[derive(Default)]
pub struct CountSink {
    rx: Delivery,
    pub data_pkts: u64,
    pub headers: u64,
}

impl CountSink {
    pub fn new() -> CountSink {
        CountSink::default()
    }
}

impl Endpoint for CountSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        if pkt.is_trimmed() {
            self.headers += 1;
        } else {
            self.data_pkts += 1;
            self.rx.deliver(pkt.payload as u64, ctx);
        }
    }
    fn harvest(&self) -> FlowHarvest {
        self.rx.harvest()
    }
}

/// Attach an unresponsive blast flow.
pub fn attach_blast(
    world: &mut World<Packet>,
    flow: FlowId,
    src: (ComponentId, HostId),
    dst: (ComponentId, HostId),
    mtu: u32,
    rate: Speed,
    start: Time,
) {
    let (sender, sink) = (BlastSender::new(flow, dst.1, mtu, rate), CountSink::new());
    attach_endpoints(world, flow, (src.0, sender), (dst.0, sink), start);
}

/// blast's [`ndp_transport::Transport`] adapter: an unresponsive CBR
/// sender clocking MTU packets at its host's line rate until it has
/// pushed `spec.size` bytes of payload, counted by a [`CountSink`].
/// There is no completion handshake — the harvest's `completion_time` is
/// always `None`; the interesting quantity is delivered goodput under
/// overload.
pub struct BlastTransport;

pub static BLAST: BlastTransport = BlastTransport;

impl ndp_transport::Transport for BlastTransport {
    fn label(&self) -> &'static str {
        "blast"
    }

    fn fabric(&self) -> ndp_transport::QueueSpec {
        ndp_transport::QueueSpec::ndp_default()
    }

    fn attach(
        &self,
        world: &mut World<Packet>,
        topo: &dyn ndp_transport::Topology,
        spec: &ndp_transport::FlowSpec,
    ) {
        let [src, dst] = spec.ends(topo);
        let mtu = topo.mtu();
        let rate = world.get::<Host>(src.0).link_rate();
        let per = (mtu - HEADER_BYTES) as u64;
        let limit = spec.size.div_ceil(per).max(1);
        let sender = BlastSender::new(spec.flow, dst.1, mtu, rate).with_limit(limit);
        let sink = CountSink::new();
        attach_endpoints(world, spec.flow, (src.0, sender), (dst.0, sink), spec.start);
    }
}

/// Fair-share goodput fraction for a flow: what it delivered vs an equal
/// split of the bottleneck's payload capacity over `span`.
pub fn fair_share_fraction(
    payload_bytes: u64,
    n_flows: usize,
    link: Speed,
    mtu: u32,
    span: Time,
) -> f64 {
    let payload_rate = link.as_bps() as f64 * (mtu - HEADER_BYTES) as f64 / mtu as f64 / 8.0;
    let fair = payload_rate * span.as_secs() / n_flows as f64;
    payload_bytes as f64 / fair
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::queue::Queue;
    use ndp_topology::{QueueSpec, SingleBottleneck};

    /// `n` line-rate blasts into one receiver, sender `s` starting at
    /// `s × stagger`, run for `span`.
    fn run_blast(
        n: usize,
        fabric: QueueSpec,
        seed: u64,
        stagger: Time,
        span: Time,
    ) -> (World<Packet>, SingleBottleneck) {
        let mut w: World<Packet> = World::new(seed);
        let sb =
            SingleBottleneck::build(&mut w, n, Speed::gbps(10), Time::from_us(1), 9000, fabric);
        for s in 0..n {
            attach_blast(
                &mut w,
                s as u64 + 1,
                (sb.senders[s], s as HostId),
                (sb.receiver, n as HostId),
                9000,
                Speed::gbps(10),
                stagger * s as u64,
            );
        }
        w.run_until(span);
        (w, sb)
    }

    /// The same 40:1 blast overload through every switch service model
    /// (§2.3's design-space tour): drop-tail drops and never trims, CP
    /// trims into its FIFO and drops nothing, NDP trims, and lossless PFC
    /// pauses its feeders and drops nothing. Blast packets are not
    /// ECN-capable, so the 200-packet ECN queue marks none and behaves as
    /// plain drop-tail. Measured over 5 ms (Gb/s, trimmed, dropped,
    /// pauses): NDP 9.25, 27,077, 19,482, 0; CP 7.18, 27,226, 0, 0;
    /// drop-tail (8 packets) 9.91, 0, 27,031, 0; ECN 9.91, 0, 26,839, 0;
    /// PFC 9.91, 0, 0, 6.
    #[test]
    fn every_switch_model_meets_a_blast_overload_its_own_way() {
        let bottleneck = |fabric| {
            let (w, sb) = run_blast(40, fabric, 11, Time::from_ns(180), Time::from_ms(5));
            w.get::<Queue>(sb.bottleneck).stats.clone()
        };
        let droptail = bottleneck(QueueSpec::DropTail {
            cap_pkts: 8,
            ecn_thresh_pkts: None,
        });
        assert!(
            droptail.dropped_data > 0 && droptail.trimmed == 0,
            "{droptail:?}"
        );
        let cp = bottleneck(QueueSpec::Cp { thresh_pkts: 8 });
        assert!(cp.trimmed > 0 && cp.dropped_data == 0, "{cp:?}");
        let ndp = bottleneck(QueueSpec::ndp_default());
        assert!(ndp.trimmed > 0, "{ndp:?}");
        let ecn = bottleneck(QueueSpec::dctcp_default());
        assert!(ecn.dropped_data > 0 && ecn.trimmed == 0, "{ecn:?}");
        let pfc = bottleneck(QueueSpec::dcqcn_default());
        assert!(pfc.xoff_sent > 0 && pfc.dropped_data == 0, "{pfc:?}");
    }

    #[test]
    fn single_blast_achieves_line_rate() {
        let (w, sb) = run_blast(
            1,
            QueueSpec::ndp_default(),
            1,
            Time::ZERO,
            Time::from_ms(10),
        );
        let frac = fair_share_fraction(
            w.get::<Host>(sb.receiver).harvest(1).delivered_bytes,
            1,
            Speed::gbps(10),
            9000,
            Time::from_ms(10),
        );
        assert!(frac > 0.97, "single flow share {frac:.3}");
    }

    #[test]
    fn ndp_switch_sustains_goodput_under_heavy_overload() {
        let n = 50;
        let (w, sb) = run_blast(
            n,
            QueueSpec::ndp_default(),
            2,
            Time::ZERO,
            Time::from_ms(10),
        );
        let host = w.get::<Host>(sb.receiver);
        let total: u64 = (1..=n as u64)
            .map(|f| host.harvest(f).delivered_bytes)
            .sum();
        let frac = fair_share_fraction(total, 1, Speed::gbps(10), 9000, Time::from_ms(10));
        // WRR 10:1 bounds header bandwidth: goodput stays high.
        assert!(frac > 0.85, "NDP aggregate goodput fraction {frac:.3}");
        let q = w.get::<Queue>(sb.bottleneck);
        assert!(q.stats.trimmed > 0);
    }

    #[test]
    fn cp_switch_collapses_more_than_ndp() {
        let n = 100;
        let agg = |fabric: QueueSpec, seed| {
            let (w, sb) = run_blast(n, fabric, seed, Time::ZERO, Time::from_ms(10));
            let host = w.get::<Host>(sb.receiver);
            let total: u64 = (1..=n as u64)
                .map(|f| host.harvest(f).delivered_bytes)
                .sum();
            fair_share_fraction(total, 1, Speed::gbps(10), 9000, Time::from_ms(10))
        };
        let ndp = agg(QueueSpec::ndp_default(), 3);
        let cp = agg(QueueSpec::Cp { thresh_pkts: 8 }, 3);
        assert!(
            ndp > cp + 0.02,
            "NDP ({ndp:.3}) must beat CP ({cp:.3}) under 100-flow overload"
        );
    }

    #[test]
    fn blast_respects_limit() {
        let mut w: World<Packet> = World::new(4);
        let sb = SingleBottleneck::build(
            &mut w,
            1,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
        );
        let sender = BlastSender::new(1, 1, 9000, Speed::gbps(10)).with_limit(17);
        w.get_mut::<Host>(sb.senders[0])
            .add_endpoint(1, Box::new(sender));
        w.get_mut::<Host>(sb.receiver)
            .add_endpoint(1, Box::new(CountSink::new()));
        w.post_wake(Time::ZERO, sb.senders[0], 1 << 8);
        w.run_until_idle();
        let sink = w.get::<Host>(sb.receiver).endpoint::<CountSink>(1);
        assert_eq!(sink.data_pkts + sink.headers, 17);
    }
}
