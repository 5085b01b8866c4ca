//! Small topologies: back-to-back host pairs (Figures 8/11/12), the
//! eight-host two-tier NetFPGA testbed replica (Figure 9), the six-host
//! sender-limited setup (Figure 21) and a single-bottleneck funnel
//! (Figure 2).

use ndp_net::host::{Host, HostLatency};
use ndp_net::packet::{HostId, Packet};
use ndp_net::queue::{LinkClass, Queue};
use ndp_net::switch::{Router, Switch};
use ndp_sim::{ComponentId, Speed, Time, World};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::routes::{LeafRouter, TableRouter};
use crate::spec::QueueSpec;
use crate::topology::{push_links_1d, push_links_2d, Hop, LinkRef, Topology};

/// Two hosts wired NIC-to-NIC (the paper's §5.1/§6 calibration setup).
pub struct BackToBack {
    pub hosts: [ComponentId; 2],
    pub host_nic: [ComponentId; 2],
    pub link_speed: Speed,
    pub link_delay: Time,
    pub mtu: u32,
}

impl BackToBack {
    pub fn build(
        world: &mut World<Packet>,
        link_speed: Speed,
        link_delay: Time,
        mtu: u32,
        fabric: QueueSpec,
        latency: HostLatency,
    ) -> BackToBack {
        let h0 = world.reserve();
        let h1 = world.reserve();
        let mk = |world: &mut World<Packet>, to: ComponentId| {
            fabric.link(world, to, LinkClass::HostNic, link_speed, link_delay, mtu)
        };
        let nic0 = mk(world, h1);
        let nic1 = mk(world, h0);
        world.install(
            h0,
            Host::new(0, nic0, link_speed, mtu).with_latency(latency.clone()),
        );
        world.install(
            h1,
            Host::new(1, nic1, link_speed, mtu).with_latency(latency),
        );
        BackToBack {
            hosts: [h0, h1],
            host_nic: [nic0, nic1],
            link_speed,
            link_delay,
            mtu,
        }
    }
}

impl Topology for BackToBack {
    fn label(&self) -> &'static str {
        "backtoback"
    }

    fn n_hosts(&self) -> usize {
        2
    }

    fn host(&self, h: HostId) -> ComponentId {
        self.hosts[h as usize]
    }

    fn host_nic(&self, h: HostId) -> ComponentId {
        self.host_nic[h as usize]
    }

    fn mtu(&self) -> u32 {
        self.mtu
    }

    fn host_link_speed(&self) -> Speed {
        self.link_speed
    }

    fn n_paths(&self, _src: HostId, _dst: HostId) -> u32 {
        1
    }

    fn path_profile(&self, _src: HostId, _dst: HostId) -> Vec<Hop> {
        vec![Hop {
            speed: self.link_speed,
            delay: self.link_delay,
        }]
    }

    fn links(&self) -> Vec<LinkRef> {
        let mut out = Vec::new();
        push_links_1d(&mut out, "host_nic", LinkClass::HostNic, &self.host_nic);
        out
    }
}

/// Configuration for [`TwoTier::build`].
#[derive(Clone, Debug)]
pub struct TwoTierCfg {
    pub n_tors: usize,
    pub hosts_per_tor: usize,
    pub n_spines: usize,
    pub link_speed: Speed,
    pub link_delay: Time,
    pub mtu: u32,
    pub fabric: QueueSpec,
    pub rts: bool,
    pub host_latency: HostLatency,
}

impl TwoTierCfg {
    /// The paper's testbed: 8 servers, four 4-port ToRs (2 down/2 up),
    /// two spines — built from six switches total (§5.1).
    pub fn testbed() -> TwoTierCfg {
        TwoTierCfg {
            n_tors: 4,
            hosts_per_tor: 2,
            n_spines: 2,
            link_speed: Speed::gbps(10),
            link_delay: Time::from_us(1),
            mtu: 9000,
            fabric: QueueSpec::ndp_default(),
            rts: true,
            host_latency: HostLatency::default(),
        }
    }

    /// Figure 21's sender-limited topology: two ToRs of three hosts under
    /// a pair of spines. Hosts: A=0 B=1 C=2 | D=3 E=4 F=5.
    pub fn sender_limited() -> TwoTierCfg {
        TwoTierCfg {
            n_tors: 2,
            hosts_per_tor: 3,
            ..TwoTierCfg::testbed()
        }
    }

    /// Figure 18/19's collateral-damage setup: one ToR with two hosts plus
    /// many sender racks — modelled as `n` single-host racks feeding two
    /// spines (aggregation switches).
    pub fn collateral(n_sender_racks: usize) -> TwoTierCfg {
        TwoTierCfg {
            n_tors: 1 + n_sender_racks,
            hosts_per_tor: 2,
            ..TwoTierCfg::testbed()
        }
    }

    pub fn n_hosts(&self) -> usize {
        self.n_tors * self.hosts_per_tor
    }

    pub fn with_fabric(mut self, fabric: QueueSpec) -> TwoTierCfg {
        self.fabric = fabric;
        self
    }
}

/// A two-tier leaf/spine network.
pub struct TwoTier {
    pub cfg: TwoTierCfg,
    pub hosts: Vec<ComponentId>,
    pub host_nic: Vec<ComponentId>,
    pub tors: Vec<ComponentId>,
    pub spines: Vec<ComponentId>,
    /// `tor_down[tor][i]`
    pub tor_down: Vec<Vec<ComponentId>>,
    /// `tor_up[tor][s]`
    pub tor_up: Vec<Vec<ComponentId>>,
    /// `spine_down[s][tor]`
    pub spine_down: Vec<Vec<ComponentId>>,
}

impl TwoTier {
    pub fn build(world: &mut World<Packet>, cfg: TwoTierCfg) -> TwoTier {
        let n_hosts = cfg.n_hosts();
        let hpt = cfg.hosts_per_tor;
        let hosts: Vec<ComponentId> = (0..n_hosts).map(|_| world.reserve()).collect();
        let tors: Vec<ComponentId> = (0..cfg.n_tors).map(|_| world.reserve()).collect();
        let spines: Vec<ComponentId> = (0..cfg.n_spines).map(|_| world.reserve()).collect();

        let mk = |world: &mut World<Packet>, to: ComponentId, class: LinkClass| {
            cfg.fabric
                .link(world, to, class, cfg.link_speed, cfg.link_delay, cfg.mtu)
        };

        let mut host_nic = Vec::new();
        let mut tor_down = vec![Vec::new(); cfg.n_tors];
        let mut tor_up = vec![Vec::new(); cfg.n_tors];
        let mut spine_down = vec![Vec::new(); cfg.n_spines];
        for (h, &host) in hosts.iter().enumerate() {
            let tor = h / hpt;
            host_nic.push(mk(world, tors[tor], LinkClass::HostNic));
            tor_down[tor].push(mk(world, host, LinkClass::TorDown));
        }
        for up in tor_up.iter_mut() {
            for &spine in &spines {
                up.push(mk(world, spine, LinkClass::TorUp));
            }
        }
        for down in spine_down.iter_mut() {
            for &tor in &tors {
                down.push(mk(world, tor, LinkClass::AggDown));
            }
        }

        for tor in 0..cfg.n_tors {
            let mut ports = tor_down[tor].clone();
            ports.extend(tor_up[tor].iter().copied());
            world.install(
                tors[tor],
                Switch::new(
                    ports,
                    Box::new(LeafRouter::new(n_hosts, hpt, tor, cfg.n_spines)),
                ),
            );
        }
        for s in 0..cfg.n_spines {
            world.install(
                spines[s],
                Switch::new(
                    spine_down[s].clone(),
                    Box::new(TableRouter::new(n_hosts, |d| d / hpt)),
                ),
            );
        }
        for h in 0..n_hosts {
            world.install(
                hosts[h],
                Host::new(h as HostId, host_nic[h], cfg.link_speed, cfg.mtu)
                    .with_latency(cfg.host_latency.clone()),
            );
        }

        let tt = TwoTier {
            cfg,
            hosts,
            host_nic,
            tors,
            spines,
            tor_down,
            tor_up,
            spine_down,
        };
        tt.finish_wiring(world);
        tt
    }

    fn finish_wiring(&self, world: &mut World<Packet>) {
        if self.cfg.fabric.is_ndp() && self.cfg.rts {
            for tor in 0..self.tors.len() {
                for &q in self.tor_down[tor].iter().chain(self.tor_up[tor].iter()) {
                    world.get_mut::<Queue>(q).set_bounce_to(self.tors[tor]);
                }
            }
            for s in 0..self.spines.len() {
                for &q in &self.spine_down[s] {
                    world.get_mut::<Queue>(q).set_bounce_to(self.spines[s]);
                }
            }
        }
        if self.cfg.fabric.is_lossless() {
            let hpt = self.cfg.hosts_per_tor;
            for tor in 0..self.tors.len() {
                let mut feeders: Vec<ComponentId> =
                    (0..hpt).map(|i| self.host_nic[tor * hpt + i]).collect();
                for s in 0..self.spines.len() {
                    feeders.push(self.spine_down[s][tor]);
                }
                for &q in self.tor_down[tor].iter().chain(self.tor_up[tor].iter()) {
                    world.get_mut::<Queue>(q).set_upstreams(feeders.clone());
                }
            }
            for s in 0..self.spines.len() {
                let feeders: Vec<ComponentId> =
                    (0..self.tors.len()).map(|t| self.tor_up[t][s]).collect();
                for &q in &self.spine_down[s] {
                    world.get_mut::<Queue>(q).set_upstreams(feeders.clone());
                }
            }
        }
    }

    pub fn n_paths(&self, src: HostId, dst: HostId) -> u32 {
        let hpt = self.cfg.hosts_per_tor as u32;
        if src / hpt == dst / hpt {
            1
        } else {
            self.cfg.n_spines as u32
        }
    }
}

impl Topology for TwoTier {
    fn label(&self) -> &'static str {
        "twotier"
    }

    fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    fn host(&self, h: HostId) -> ComponentId {
        self.hosts[h as usize]
    }

    fn host_nic(&self, h: HostId) -> ComponentId {
        self.host_nic[h as usize]
    }

    fn mtu(&self) -> u32 {
        self.cfg.mtu
    }

    fn host_link_speed(&self) -> Speed {
        self.cfg.link_speed
    }

    fn n_paths(&self, src: HostId, dst: HostId) -> u32 {
        TwoTier::n_paths(self, src, dst)
    }

    fn path_profile(&self, src: HostId, dst: HostId) -> Vec<Hop> {
        let hop = Hop {
            speed: self.cfg.link_speed,
            delay: self.cfg.link_delay,
        };
        let hpt = self.cfg.hosts_per_tor as u32;
        // Same rack: NIC + ToR-down. Cross rack: NIC, ToR-up, spine-down,
        // ToR-down.
        if src / hpt == dst / hpt {
            vec![hop; 2]
        } else {
            vec![hop; 4]
        }
    }

    fn links(&self) -> Vec<LinkRef> {
        let mut out = Vec::new();
        push_links_1d(&mut out, "host_nic", LinkClass::HostNic, &self.host_nic);
        push_links_2d(&mut out, "tor_down", LinkClass::TorDown, &self.tor_down);
        push_links_2d(&mut out, "tor_up", LinkClass::TorUp, &self.tor_up);
        push_links_2d(&mut out, "spine_down", LinkClass::AggDown, &self.spine_down);
        out
    }
}

/// N sender hosts funnelled through one switch into a single receiver link
/// (Figure 2's congestion-collapse microbenchmark).
pub struct SingleBottleneck {
    pub senders: Vec<ComponentId>,
    pub sender_nic: Vec<ComponentId>,
    pub receiver: ComponentId,
    pub bottleneck: ComponentId,
    pub switch: ComponentId,
}

struct AllToPortZero;
impl Router for AllToPortZero {
    fn route(&self, _pkt: &Packet, _rng: &mut SmallRng) -> usize {
        0
    }
}

impl SingleBottleneck {
    /// Sender i is host id `i`; the receiver is host id `n_senders`.
    pub fn build(
        world: &mut World<Packet>,
        n_senders: usize,
        link_speed: Speed,
        link_delay: Time,
        mtu: u32,
        fabric: QueueSpec,
    ) -> SingleBottleneck {
        let receiver = world.reserve();
        let sw = world.reserve();
        let mk = |world: &mut World<Packet>, to: ComponentId, class: LinkClass| {
            fabric.link(world, to, class, link_speed, link_delay, mtu)
        };
        let bottleneck = mk(world, receiver, LinkClass::TorDown);
        if fabric.is_ndp() {
            world.get_mut::<Queue>(bottleneck).set_bounce_to(sw);
        }
        let mut senders = Vec::new();
        let mut sender_nic = Vec::new();
        for i in 0..n_senders {
            let h = world.reserve();
            let nic = mk(world, sw, LinkClass::HostNic);
            world.install(h, Host::new(i as HostId, nic, link_speed, mtu));
            senders.push(h);
            sender_nic.push(nic);
        }
        // The receiver's own NIC carries ACK/pull traffic back through a
        // return switch with one port per sender, routed by dst id.
        let ret_sw = world.reserve();
        let rx_nic = mk(world, ret_sw, LinkClass::HostNic);
        world.install(
            receiver,
            Host::new(n_senders as HostId, rx_nic, link_speed, mtu),
        );
        let ret_ports = senders
            .iter()
            .map(|&s| mk(world, s, LinkClass::TorDown))
            .collect();
        struct ByDst;
        impl Router for ByDst {
            fn route(&self, pkt: &Packet, _rng: &mut SmallRng) -> usize {
                pkt.dst as usize
            }
        }
        world.install(ret_sw, Switch::new(ret_ports, Box::new(ByDst)));
        world.install(sw, Switch::new(vec![bottleneck], Box::new(AllToPortZero)));
        SingleBottleneck {
            senders,
            sender_nic,
            receiver,
            bottleneck,
            switch: sw,
        }
    }
}

/// Deterministic random permutation with no fixed points (every host sends
/// to exactly one other host and receives from exactly one), the paper's
/// worst-case "permutation traffic matrix".
pub fn derangement(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    assert!(n >= 2);
    loop {
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher-Yates.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        if perm.iter().enumerate().all(|(i, &p)| i != p) {
            return perm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::host::HostLatency;
    use rand::SeedableRng;

    #[test]
    fn back_to_back_delivers_both_ways() {
        let mut w: World<Packet> = World::new(1);
        let b2b = BackToBack::build(
            &mut w,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
            HostLatency::default(),
        );
        w.post(Time::ZERO, b2b.host_nic[0], Packet::data(0, 1, 5, 0, 9000));
        w.post(Time::ZERO, b2b.host_nic[1], Packet::data(1, 0, 6, 0, 9000));
        w.run_until_idle();
        assert_eq!(w.get::<Host>(b2b.hosts[1]).stats().unknown_flow_drops, 1);
        assert_eq!(w.get::<Host>(b2b.hosts[0]).stats().unknown_flow_drops, 1);
        // One hop: 7.2us serialization + 1us propagation.
        assert_eq!(w.now(), Time::from_ns(8_200));
    }

    #[test]
    fn testbed_shape() {
        let cfg = TwoTierCfg::testbed();
        assert_eq!(cfg.n_hosts(), 8);
        let mut w: World<Packet> = World::new(1);
        let tt = TwoTier::build(&mut w, cfg);
        assert_eq!(tt.tors.len() + tt.spines.len(), 6, "six 4-port switches");
        assert_eq!(tt.n_paths(0, 1), 1);
        assert_eq!(tt.n_paths(0, 2), 2);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // src/dst index pairs are the point
    fn two_tier_routes_all_pairs() {
        let mut w: World<Packet> = World::new(1);
        let tt = TwoTier::build(&mut w, TwoTierCfg::testbed());
        let n = tt.hosts.len();
        let mut expected = vec![0u64; n];
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                for tag in 0..tt.n_paths(src as u32, dst as u32) {
                    let pkt = Packet::data(src as u32, dst as u32, (src * n + dst) as u64, 0, 1500)
                        .with_path(tag);
                    w.post(Time::ZERO, tt.host_nic[src], pkt);
                    expected[dst] += 1;
                }
            }
        }
        w.run_until_idle();
        for dst in 0..n {
            assert_eq!(
                w.get::<Host>(tt.hosts[dst]).stats().unknown_flow_drops,
                expected[dst],
                "host {dst}"
            );
        }
    }

    #[test]
    fn single_bottleneck_funnels() {
        let mut w: World<Packet> = World::new(1);
        let sb = SingleBottleneck::build(
            &mut w,
            4,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
        );
        for s in 0..4u32 {
            w.post(
                Time::ZERO,
                sb.sender_nic[s as usize],
                Packet::data(s, 4, s as u64, 0, 9000),
            );
        }
        w.run_until_idle();
        assert_eq!(w.get::<Host>(sb.receiver).stats().unknown_flow_drops, 4);
    }

    #[test]
    fn derangement_has_no_fixed_points_and_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [2usize, 3, 10, 432] {
            let d = derangement(n, &mut rng);
            let mut seen = vec![false; n];
            for (i, &p) in d.iter().enumerate() {
                assert_ne!(i, p);
                assert!(!seen[p]);
                seen[p] = true;
            }
        }
    }
}
