//! DCQCN [40]: rate-based congestion control for RoCEv2 over lossless
//! (PFC) Ethernet.
//!
//! Roles: the switch (CP) ECN-marks packets above a threshold; the
//! receiver (NP) sends at most one CNP per 50 µs when marked packets
//! arrive; the sender (RP) reacts to CNPs with a multiplicative decrease
//! driven by the EWMA `alpha`, and recovers through timer-driven
//! fast-recovery / additive-increase / hyper-increase stages. Senders
//! start at line rate (as RoCE NICs do). Reliability comes from the
//! fabric: PFC guarantees no congestion loss, which is exactly the
//! property whose collateral damage Figures 15/16/19 explore.

use ndp_net::host::{Delivery, Endpoint, EndpointCtx, FlowHarvest, Launch};
use ndp_net::packet::{Flags, FlowId, HostId, Packet, PacketKind, HEADER_BYTES};
use ndp_sim::{ComponentId, Speed, Time, World};
use ndp_transport::attach_endpoints;
use rand::Rng;

const TICK: u8 = 1;
const ALPHA_TIMER: u8 = 2;
const INCREASE_TIMER: u8 = 3;

// DCQCN's parameters: the DCQCN paper's defaults, scaled to 10 Gb/s.

/// The RP's start and ceiling rate: the 10 Gb/s line rate.
const LINE_RATE: Speed = Speed::gbps(10);
/// The RP's rate floor.
const MIN_RATE: Speed = Speed::mbps(10);
/// EWMA gain for `alpha`.
const G: f64 = 1.0 / 16.0;
/// NP-side minimum CNP spacing.
const CNP_INTERVAL: Time = Time::from_us(50);
/// RP-side alpha decay timer period.
const ALPHA_INTERVAL: Time = Time::from_us(55);
/// RP-side rate increase timer period.
const INCREASE_INTERVAL: Time = Time::from_us(300);
/// Fast-recovery stages before additive increase.
const STAGES: u32 = 5;
/// Additive increase step.
const RAI: Speed = Speed::mbps(40);
/// Hyper increase step (after `STAGES` further stages).
const RHAI: Speed = Speed::mbps(400);

/// A DCQCN flow.
#[derive(Clone, Debug)]
pub struct DcqcnCfg {
    pub size_bytes: u64,
    pub mtu: u32,
    /// Per-flow ECMP path tag.
    pub path: u32,
}

impl DcqcnCfg {
    pub fn new(size_bytes: u64) -> DcqcnCfg {
        DcqcnCfg {
            size_bytes,
            mtu: 9000,
            path: 0,
        }
    }

    pub fn mss(&self) -> u64 {
        (self.mtu - HEADER_BYTES) as u64
    }
}

/// RP statistics.
#[derive(Clone, Debug, Default)]
pub struct DcqcnStats {
    pub cnps_received: u64,
    pub rate_samples: Vec<(u64, u64)>,
}

/// The DCQCN sender (reaction point).
pub struct DcqcnSender {
    flow: FlowId,
    dst: HostId,
    cfg: DcqcnCfg,
    rc: f64,
    rt: f64,
    alpha: f64,
    cnp_since_alpha_timer: bool,
    stage: u32,
    sent_bytes: u64,
    seq: u64,
    running: bool,
    pub tx: Launch,
    pub stats: DcqcnStats,
}

impl DcqcnSender {
    pub fn new(flow: FlowId, dst: HostId, cfg: DcqcnCfg) -> DcqcnSender {
        let rc = LINE_RATE.as_bps() as f64;
        DcqcnSender {
            flow,
            dst,
            cfg,
            rc,
            rt: rc,
            alpha: 1.0,
            cnp_since_alpha_timer: false,
            stage: 0,
            sent_bytes: 0,
            seq: 0,
            running: false,
            tx: Launch::default(),
            stats: DcqcnStats::default(),
        }
    }

    fn gap(&self) -> Time {
        Speed::bps(self.rc.max(MIN_RATE.as_bps() as f64) as u64).tx_time(self.cfg.mtu as u64)
    }

    fn send_one(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        if self.sent_bytes >= self.cfg.size_bytes {
            self.running = false;
            return;
        }
        let payload = (self.cfg.size_bytes - self.sent_bytes).min(self.cfg.mss());
        let mut pkt = Packet::data(
            ctx.host(),
            self.dst,
            self.flow,
            self.seq,
            payload as u32 + HEADER_BYTES,
        );
        pkt.flags = pkt.flags.with(Flags::ECT);
        pkt.path = self.cfg.path;
        pkt.sent = ctx.now();
        if self.sent_bytes + payload >= self.cfg.size_bytes {
            pkt.flags = pkt.flags.with(Flags::FIN);
        }
        self.seq += 1;
        self.sent_bytes += payload;
        ctx.send(pkt);
        if self.sent_bytes < self.cfg.size_bytes {
            let g = self.gap();
            ctx.timer_in(g, TICK);
        } else {
            self.running = false;
        }
    }

    fn on_cnp(&mut self) {
        self.stats.cnps_received += 1;
        self.cnp_since_alpha_timer = true;
        self.rt = self.rc;
        self.alpha = (1.0 - G) * self.alpha + G;
        self.rc *= 1.0 - self.alpha / 2.0;
        let min = MIN_RATE.as_bps() as f64;
        if self.rc < min {
            self.rc = min;
        }
        self.stage = 0;
    }

    /// Alpha timer: decay `alpha` unless a CNP arrived since the last tick.
    fn on_alpha_timer(&mut self) {
        if !self.cnp_since_alpha_timer {
            self.alpha *= 1.0 - G;
        }
        self.cnp_since_alpha_timer = false;
    }

    fn on_increase_timer(&mut self) {
        self.stage += 1;
        if self.stage <= STAGES {
            // Fast recovery towards the rate before the cut.
            self.rc = (self.rc + self.rt) / 2.0;
        } else if self.stage <= 2 * STAGES {
            self.rt += RAI.as_bps() as f64;
            self.rc = (self.rc + self.rt) / 2.0;
        } else {
            self.rt += RHAI.as_bps() as f64;
            self.rc = (self.rc + self.rt) / 2.0;
        }
        let max = LINE_RATE.as_bps() as f64;
        if self.rc > max {
            self.rc = max;
        }
        if self.rt > max {
            self.rt = max;
        }
    }
}

impl Endpoint for DcqcnSender {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.tx.start(ctx);
        if self.cfg.path == 0 {
            self.cfg.path = ctx.rng().gen();
        }
        self.running = true;
        ctx.timer_in(ALPHA_INTERVAL, ALPHA_TIMER);
        ctx.timer_in(INCREASE_INTERVAL, INCREASE_TIMER);
        self.send_one(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, _ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind == PacketKind::Cnp {
            self.on_cnp();
        }
    }

    fn on_timer(&mut self, token: u8, ctx: &mut EndpointCtx<'_, '_>) {
        match token {
            TICK => self.send_one(ctx),
            ALPHA_TIMER => {
                self.on_alpha_timer();
                if self.sent_bytes < self.cfg.size_bytes {
                    ctx.timer_in(ALPHA_INTERVAL, ALPHA_TIMER);
                }
            }
            INCREASE_TIMER => {
                self.on_increase_timer();
                self.stats
                    .rate_samples
                    .push((ctx.now().as_ps(), self.rc as u64));
                if self.sent_bytes < self.cfg.size_bytes {
                    ctx.timer_in(INCREASE_INTERVAL, INCREASE_TIMER);
                }
            }
            _ => {}
        }
    }

    fn harvest(&self) -> FlowHarvest {
        self.tx.harvest()
    }
}

/// The DCQCN receiver (notification point).
pub struct DcqcnReceiver {
    peer: HostId,
    total: u64,
    last_cnp: Option<Time>,
    rx: Delivery,
    pub cnps_sent: u64,
}

impl DcqcnReceiver {
    pub fn new(peer: HostId, total: u64) -> DcqcnReceiver {
        DcqcnReceiver {
            peer,
            total,
            last_cnp: None,
            rx: Delivery::default(),
            cnps_sent: 0,
        }
    }
}

impl Endpoint for DcqcnReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        self.rx.arrived(ctx);
        self.rx.deliver(pkt.payload as u64, ctx);
        if pkt.flags.has(Flags::CE) {
            let due = match self.last_cnp {
                None => true,
                Some(t) => ctx.now() - t >= CNP_INTERVAL,
            };
            if due {
                self.last_cnp = Some(ctx.now());
                self.cnps_sent += 1;
                let mut cnp = Packet::control(ctx.host(), self.peer, pkt.flow, PacketKind::Cnp);
                cnp.path = pkt.path;
                ctx.send(cnp);
            }
        }
        if self.rx.bytes() >= self.total {
            self.rx.complete(ctx);
        }
    }

    fn harvest(&self) -> FlowHarvest {
        self.rx.harvest()
    }
}

/// Attach a DCQCN flow (requires a lossless fabric to be loss-free).
pub fn attach_dcqcn_flow(
    world: &mut World<Packet>,
    flow: FlowId,
    src: (ComponentId, HostId),
    dst: (ComponentId, HostId),
    cfg: DcqcnCfg,
    start: Time,
) {
    let receiver = DcqcnReceiver::new(src.1, cfg.size_bytes);
    let sender = DcqcnSender::new(flow, dst.1, cfg);
    attach_endpoints(world, flow, (src.0, sender), (dst.0, receiver), start);
}

/// DCQCN's [`Transport`] adapter: rate-based RoCE congestion control over
/// the lossless (PFC) ECN-marking fabric.
pub struct DcqcnTransport;

pub static DCQCN: DcqcnTransport = DcqcnTransport;

impl ndp_transport::Transport for DcqcnTransport {
    fn label(&self) -> &'static str {
        "DCQCN"
    }

    fn fabric(&self) -> ndp_transport::QueueSpec {
        ndp_transport::QueueSpec::dcqcn_default()
    }

    fn attach(
        &self,
        world: &mut World<Packet>,
        topo: &dyn ndp_transport::Topology,
        spec: &ndp_transport::FlowSpec,
    ) {
        let [src, dst] = spec.ends(topo);
        let mut cfg = DcqcnCfg::new(spec.size);
        cfg.mtu = topo.mtu();
        cfg.path = ndp_transport::flow_hash_path(spec.flow).max(1);
        attach_dcqcn_flow(world, spec.flow, src, dst, cfg, spec.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::Host;
    use ndp_sim::Speed;
    use ndp_topology::{QueueSpec, SingleBottleneck};

    #[test]
    fn single_flow_runs_at_line_rate() {
        let mut w: World<Packet> = World::new(1);
        let sb = SingleBottleneck::build(
            &mut w,
            1,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::dcqcn_default(),
        );
        let size = 5_000_000u64;
        attach_dcqcn_flow(
            &mut w,
            1,
            (sb.senders[0], 0),
            (sb.receiver, 1),
            DcqcnCfg::new(size),
            Time::ZERO,
        );
        w.run_until(Time::from_ms(100));
        let rx = w.get::<Host>(sb.receiver).endpoint::<DcqcnReceiver>(1);
        let h = rx.harvest();
        assert_eq!(h.delivered_bytes, size);
        let fct = h.completion_time.unwrap() - h.first_data.unwrap();
        let goodput = size as f64 * 8.0 / fct.as_secs() / 1e9;
        assert!(
            goodput > 9.0,
            "uncongested DCQCN should run at line rate: {goodput:.2}"
        );
        assert_eq!(rx.cnps_sent, 0, "no marks on an idle link");
    }

    #[test]
    fn two_flows_get_marked_and_back_off_without_loss() {
        let mut w: World<Packet> = World::new(2);
        let sb = SingleBottleneck::build(
            &mut w,
            2,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::dcqcn_default(),
        );
        let size = 20_000_000u64;
        for s in 0..2u64 {
            attach_dcqcn_flow(
                &mut w,
                s + 1,
                (sb.senders[s as usize], s as u32),
                (sb.receiver, 2),
                DcqcnCfg::new(size),
                Time::ZERO,
            );
        }
        w.run_until(Time::from_secs(1));
        let mut cnps = 0;
        for s in 0..2u64 {
            let rx = w.get::<Host>(sb.receiver).endpoint::<DcqcnReceiver>(s + 1);
            assert_eq!(rx.harvest().delivered_bytes, size, "flow {s}");
            cnps += rx.cnps_sent;
            let tx = w
                .get::<Host>(sb.senders[s as usize])
                .endpoint::<DcqcnSender>(s + 1);
            assert!(tx.stats.cnps_received > 0, "sender {s} never throttled");
        }
        assert!(cnps > 0);
        let q = w.get::<ndp_net::queue::Queue>(sb.bottleneck);
        assert_eq!(q.stats.dropped_data, 0, "lossless fabric must not drop");
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut s = DcqcnSender::new(1, 1, DcqcnCfg::new(1_000_000));
        s.on_cnp();
        let a0 = s.alpha;
        // The first tick after a CNP holds alpha; quiet ticks decay it.
        s.on_alpha_timer();
        assert_eq!(s.alpha, a0, "a CNP since the last tick holds alpha");
        for _ in 0..10 {
            s.on_alpha_timer();
        }
        assert!(s.alpha < a0 / 1.5);
    }

    /// Sends `left` CE-marked 1 KB packets `gap` apart and logs when each
    /// CNP comes back.
    struct MarkedSource {
        gap: Time,
        left: u32,
        cnps: Vec<Time>,
    }

    impl MarkedSource {
        fn send(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
            let mut pkt = Packet::data(ctx.host(), 1, 1, 0, 1000);
            pkt.flags = Flags::CE;
            ctx.send(pkt);
            self.left -= 1;
            if self.left > 0 {
                ctx.timer_in(self.gap, TICK);
            }
        }
    }

    impl Endpoint for MarkedSource {
        fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
            self.send(ctx);
        }

        fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
            if pkt.kind == PacketKind::Cnp {
                self.cnps.push(ctx.now());
            }
        }

        fn on_timer(&mut self, _token: u8, ctx: &mut EndpointCtx<'_, '_>) {
            self.send(ctx);
        }
    }

    #[test]
    fn receiver_spaces_cnps_by_the_cnp_interval() {
        let mut w: World<Packet> = World::new(3);
        let b = ndp_topology::BackToBack::build(
            &mut w,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::dcqcn_default(),
            ndp_net::host::HostLatency::default(),
        );
        let src = MarkedSource {
            gap: Time::from_us(5),
            left: 100,
            cnps: Vec::new(),
        };
        let rx = DcqcnReceiver::new(0, u64::MAX);
        attach_endpoints(&mut w, 1, (b.hosts[0], src), (b.hosts[1], rx), Time::ZERO);
        w.run_until(Time::from_ms(1));
        let cnps = &w.get::<Host>(b.hosts[0]).endpoint::<MarkedSource>(1).cnps;
        // 100 marked packets over 495 us: one CNP every 50 us.
        assert_eq!(cnps.len(), 10, "{cnps:?}");
        for pair in cnps.windows(2) {
            assert_eq!(pair[1] - pair[0], CNP_INTERVAL, "{cnps:?}");
        }
    }

    #[test]
    fn rate_cut_and_fast_recovery() {
        let mut s = DcqcnSender::new(1, 1, DcqcnCfg::new(1_000_000));
        let line = LINE_RATE.as_bps() as f64;
        s.on_cnp();
        assert!(s.rc < line, "CNP must cut the rate");
        let after_cut = s.rc;
        for _ in 0..STAGES {
            s.on_increase_timer();
        }
        assert!(s.rc > after_cut, "fast recovery must restore rate");
        assert!(s.rc <= line);
    }
}
