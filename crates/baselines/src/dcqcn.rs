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

use std::any::Any;

use ndp_net::host::{Endpoint, EndpointCtx, FlowHarvest};
use ndp_net::packet::{Flags, FlowId, HostId, Packet, PacketKind, HEADER_BYTES};
use ndp_sim::{ComponentId, Speed, Time, World};
use ndp_transport::attach_endpoints;
use rand::Rng;

const TICK: u8 = 1;
const ALPHA_TIMER: u8 = 2;
const INCREASE_TIMER: u8 = 3;

/// DCQCN parameters (DCQCN paper defaults scaled to 10 Gb/s).
#[derive(Clone, Debug)]
pub struct DcqcnCfg {
    pub size_bytes: u64,
    pub mtu: u32,
    pub line_rate: Speed,
    pub min_rate: Speed,
    /// EWMA gain for alpha.
    pub g: f64,
    /// NP-side minimum CNP spacing.
    pub cnp_interval: Time,
    /// RP-side alpha decay timer.
    pub alpha_timer: Time,
    /// RP-side rate increase timer.
    pub increase_timer: Time,
    /// Fast-recovery stages before additive increase.
    pub stages: u32,
    /// Additive increase step.
    pub rai: Speed,
    /// Hyper increase step (after 5 further stages).
    pub rhai: Speed,
    /// Per-flow ECMP path tag.
    pub path: u32,
}

impl DcqcnCfg {
    pub fn new(size_bytes: u64) -> DcqcnCfg {
        DcqcnCfg {
            size_bytes,
            mtu: 9000,
            line_rate: Speed::gbps(10),
            min_rate: Speed::mbps(10),
            g: 1.0 / 16.0,
            cnp_interval: Time::from_us(50),
            alpha_timer: Time::from_us(55),
            increase_timer: Time::from_us(300),
            stages: 5,
            rai: Speed::mbps(40),
            rhai: Speed::mbps(400),
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
    pub start_time: Option<Time>,
    pub cnps_received: u64,
    pub packets_sent: u64,
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
    pub stats: DcqcnStats,
}

impl DcqcnSender {
    pub fn new(flow: FlowId, dst: HostId, cfg: DcqcnCfg) -> DcqcnSender {
        let rc = cfg.line_rate.as_bps() as f64;
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
            stats: DcqcnStats::default(),
        }
    }

    pub fn current_rate(&self) -> Speed {
        Speed::bps(self.rc as u64)
    }

    fn gap(&self) -> Time {
        Speed::bps(self.rc.max(self.cfg.min_rate.as_bps() as f64) as u64)
            .tx_time(self.cfg.mtu as u64)
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
        self.stats.packets_sent += 1;
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
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.rc *= 1.0 - self.alpha / 2.0;
        let min = self.cfg.min_rate.as_bps() as f64;
        if self.rc < min {
            self.rc = min;
        }
        self.stage = 0;
    }

    fn on_increase_timer(&mut self) {
        self.stage += 1;
        if self.stage <= self.cfg.stages {
            // Fast recovery towards the rate before the cut.
            self.rc = (self.rc + self.rt) / 2.0;
        } else if self.stage <= 2 * self.cfg.stages {
            self.rt += self.cfg.rai.as_bps() as f64;
            self.rc = (self.rc + self.rt) / 2.0;
        } else {
            self.rt += self.cfg.rhai.as_bps() as f64;
            self.rc = (self.rc + self.rt) / 2.0;
        }
        let max = self.cfg.line_rate.as_bps() as f64;
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
        self.stats.start_time = Some(ctx.now());
        if self.cfg.path == 0 {
            self.cfg.path = ctx.rng().gen();
        }
        self.running = true;
        ctx.timer_in(self.cfg.alpha_timer, ALPHA_TIMER);
        ctx.timer_in(self.cfg.increase_timer, INCREASE_TIMER);
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
                if !self.cnp_since_alpha_timer {
                    self.alpha *= 1.0 - self.cfg.g;
                }
                self.cnp_since_alpha_timer = false;
                if self.sent_bytes < self.cfg.size_bytes {
                    ctx.timer_in(self.cfg.alpha_timer, ALPHA_TIMER);
                }
            }
            INCREASE_TIMER => {
                self.on_increase_timer();
                self.stats
                    .rate_samples
                    .push((ctx.now().as_ps(), self.rc as u64));
                if self.sent_bytes < self.cfg.size_bytes {
                    ctx.timer_in(self.cfg.increase_timer, INCREASE_TIMER);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The DCQCN receiver (notification point).
pub struct DcqcnReceiver {
    peer: HostId,
    total: u64,
    last_cnp: Option<Time>,
    cnp_interval: Time,
    pub payload_bytes: u64,
    pub completion_time: Option<Time>,
    pub first_arrival: Option<Time>,
    pub cnps_sent: u64,
}

impl DcqcnReceiver {
    pub fn new(peer: HostId, total: u64) -> DcqcnReceiver {
        DcqcnReceiver {
            peer,
            total,
            last_cnp: None,
            cnp_interval: Time::from_us(50),
            payload_bytes: 0,
            completion_time: None,
            first_arrival: None,
            cnps_sent: 0,
        }
    }
}

impl Endpoint for DcqcnReceiver {
    fn on_start(&mut self, _ctx: &mut EndpointCtx<'_, '_>) {}

    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        if self.first_arrival.is_none() {
            self.first_arrival = Some(ctx.now());
        }
        self.payload_bytes += pkt.payload as u64;
        ctx.account_delivered(pkt.payload as u64);
        if pkt.flags.has(Flags::CE) {
            let due = match self.last_cnp {
                None => true,
                Some(t) => ctx.now() - t >= self.cnp_interval,
            };
            if due {
                self.last_cnp = Some(ctx.now());
                self.cnps_sent += 1;
                let mut cnp = Packet::control(ctx.host(), self.peer, pkt.flow, PacketKind::Cnp);
                cnp.path = pkt.path;
                ctx.send(cnp);
            }
        }
        if self.payload_bytes >= self.total && self.completion_time.is_none() {
            self.completion_time = Some(ctx.now());
            ctx.complete();
        }
    }

    fn on_timer(&mut self, _token: u8, _ctx: &mut EndpointCtx<'_, '_>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn harvest(&self) -> FlowHarvest {
        FlowHarvest {
            delivered_bytes: self.payload_bytes,
            completion_time: self.completion_time,
            first_data: self.first_arrival,
            ..FlowHarvest::default()
        }
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
        spec: &ndp_transport::FlowSpec,
        src: (ComponentId, HostId),
        dst: (ComponentId, HostId),
        _n_paths: u32,
        mtu: u32,
    ) {
        let mut cfg = DcqcnCfg::new(spec.size);
        cfg.mtu = mtu;
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
        assert_eq!(rx.payload_bytes, size);
        let fct = rx.completion_time.unwrap() - rx.first_arrival.unwrap();
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
            assert_eq!(rx.payload_bytes, size, "flow {s}");
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
        // Simulate alpha timer without CNPs.
        for _ in 0..10 {
            s.cnp_since_alpha_timer = false;
            s.alpha *= 1.0 - s.cfg.g;
        }
        assert!(s.alpha < a0 / 1.5);
    }

    #[test]
    fn rate_cut_and_fast_recovery() {
        let mut s = DcqcnSender::new(1, 1, DcqcnCfg::new(1_000_000));
        let line = s.cfg.line_rate.as_bps() as f64;
        s.on_cnp();
        assert!(s.rc < line, "CNP must cut the rate");
        let after_cut = s.rc;
        for _ in 0..s.cfg.stages {
            s.on_increase_timer();
        }
        assert!(s.rc > after_cut, "fast recovery must restore rate");
        assert!(s.rc <= line);
    }
}
