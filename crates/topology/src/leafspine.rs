//! Two-tier leaf-spine fabric with an explicit oversubscription knob —
//! the rack-scale network shape FatPaths/PL2-style evaluations demand
//! alongside three-tier FatTrees, and the shape of the paper's own small
//! setups: the eight-host NetFPGA testbed (Figure 9), the six-host
//! sender-limited rig (Figure 21) and the collateral-damage racks
//! (Figure 19) are [`LeafSpineCfg`] constructors.
//!
//! Every dimension is configurable: leaf (ToR) count, hosts per leaf, spine
//! count, and — the distinguishing knob — a **separate uplink speed**, so
//! a 4:1 oversubscribed fabric can be expressed either by scarce spines
//! (few uplinks at host speed) or by slow uplinks (one per spine at a
//! quarter rate). [`LeafSpineCfg::oversub_ratio`] reports the resulting
//! ratio, and the topology's [`Topology::path_profile`] charges uplink
//! crossings at the uplink speed, so `ideal_fct` stays an honest lower
//! bound on oversubscribed paths.
//!
//! Path tags work exactly as everywhere else in the crate: cross-rack
//! tag `t` selects spine `t % n_spines`; same-rack pairs have one path.

use ndp_net::host::Host;
use ndp_net::packet::{HostId, Packet};
use ndp_net::queue::LinkClass;
use ndp_net::switch::Switch;
use ndp_sim::{ComponentId, Speed, World};

use crate::routes::{RouteMode, Step, TreeRouter};
use crate::spec::QueueSpec;
use crate::topology::{push_links_1d, push_links_2d, Hop, HopList, LinkRef, Topology, LINK_DELAY};
use crate::wiring::wire_back_refs;

/// Configuration for [`LeafSpine::build`].
#[derive(Clone, Debug)]
pub struct LeafSpineCfg {
    pub n_tors: usize,
    pub hosts_per_tor: usize,
    pub n_spines: usize,
    /// Host access-link speed.
    pub host_speed: Speed,
    /// ToR↔spine link speed; below `host_speed` this oversubscribes the
    /// fabric even with plentiful spines.
    pub uplink_speed: Speed,
    pub mtu: u32,
    pub fabric: QueueSpec,
}

impl LeafSpineCfg {
    /// Paper-style defaults: 10 Gb/s everywhere, 1 us links, 9 KB
    /// jumbograms, NDP switches.
    pub fn new(n_tors: usize, hosts_per_tor: usize, n_spines: usize) -> LeafSpineCfg {
        LeafSpineCfg {
            n_tors,
            hosts_per_tor,
            n_spines,
            host_speed: Speed::gbps(10),
            uplink_speed: Speed::gbps(10),
            mtu: 9000,
            fabric: QueueSpec::ndp_default(),
        }
    }

    /// The paper's testbed: 8 servers, four 4-port ToRs (2 down/2 up),
    /// two spines — built from six switches total (§5.1).
    pub fn testbed() -> LeafSpineCfg {
        LeafSpineCfg::new(4, 2, 2)
    }

    /// Figure 21's sender-limited topology: two ToRs of three hosts under
    /// a pair of spines. Hosts: A=0 B=1 C=2 | D=3 E=4 F=5.
    pub fn sender_limited() -> LeafSpineCfg {
        LeafSpineCfg::new(2, 3, 2)
    }

    /// Figure 18/19's collateral-damage setup: one ToR with two hosts plus
    /// many sender racks — modelled as `n` two-host racks feeding two
    /// spines (aggregation switches).
    pub fn collateral(n_sender_racks: usize) -> LeafSpineCfg {
        LeafSpineCfg::new(1 + n_sender_racks, 2, 2)
    }

    pub fn with_fabric(mut self, fabric: QueueSpec) -> LeafSpineCfg {
        self.fabric = fabric;
        self
    }

    pub fn with_uplink_speed(mut self, s: Speed) -> LeafSpineCfg {
        self.uplink_speed = s;
        self
    }

    pub fn with_mtu(mut self, mtu: u32) -> LeafSpineCfg {
        self.mtu = mtu;
        self
    }

    pub fn n_hosts(&self) -> usize {
        self.n_tors * self.hosts_per_tor
    }

    /// ToR oversubscription ratio: downlink capacity over uplink capacity
    /// (1.0 = full bisection, 4.0 = the paper's Figure-23 regime).
    pub fn oversub_ratio(&self) -> f64 {
        (self.hosts_per_tor as f64 * self.host_speed.as_bps() as f64)
            / (self.n_spines as f64 * self.uplink_speed.as_bps() as f64)
    }

    /// Leaf `tor`: its hosts on ports `0..hpt`; everything else takes
    /// uplink `hpt + tag % n_spines`.
    pub(crate) fn leaf_router(&self, tor: usize) -> TreeRouter {
        let hpt = self.hosts_per_tor;
        TreeRouter::new(
            self.n_hosts(),
            |d| {
                if d / hpt == tor {
                    Step::Port(d % hpt)
                } else {
                    Step::Up(0)
                }
            },
            hpt..hpt + self.n_spines,
            vec![(0..self.n_spines as u16).collect()],
            RouteMode::SourceTag,
        )
    }

    /// A spine: port `p` leads down to leaf `p`.
    pub(crate) fn spine_router(&self) -> TreeRouter {
        TreeRouter::by_dst(self.n_hosts(), |d| d / self.hosts_per_tor)
    }
}

/// A built leaf-spine fabric: component ids for hosts, switches and every
/// queue, plus the config that shaped them.
pub struct LeafSpine {
    pub cfg: LeafSpineCfg,
    pub hosts: Vec<ComponentId>,
    pub host_nic: Vec<ComponentId>,
    pub tors: Vec<ComponentId>,
    pub spines: Vec<ComponentId>,
    /// `tor_down[tor][i]`: queue from ToR to its i-th host.
    pub tor_down: Vec<Vec<ComponentId>>,
    /// `tor_up[tor][s]`: queue from ToR to spine `s`.
    pub tor_up: Vec<Vec<ComponentId>>,
    /// `spine_down[s][tor]`: queue from spine `s` to `tor`.
    pub spine_down: Vec<Vec<ComponentId>>,
}

impl LeafSpine {
    /// Wire a leaf-spine fabric into `world`. Panics on an empty tier
    /// before anything is built.
    pub fn build(world: &mut World<Packet>, cfg: LeafSpineCfg) -> LeafSpine {
        for (field, n) in [
            ("n_tors", cfg.n_tors),
            ("hosts_per_tor", cfg.hosts_per_tor),
            ("n_spines", cfg.n_spines),
        ] {
            assert!(n >= 1, "{cfg:?}: {field} must be at least 1");
        }
        let n_hosts = cfg.n_hosts();
        let hpt = cfg.hosts_per_tor;
        let hosts: Vec<ComponentId> = (0..n_hosts).map(|_| world.reserve()).collect();
        let tors: Vec<ComponentId> = (0..cfg.n_tors).map(|_| world.reserve()).collect();
        let spines: Vec<ComponentId> = (0..cfg.n_spines).map(|_| world.reserve()).collect();

        let mk = |world: &mut World<Packet>, to: ComponentId, class: LinkClass, speed: Speed| {
            cfg.fabric
                .link(world, to, class, speed, LINK_DELAY, cfg.mtu)
        };

        let mut host_nic = Vec::with_capacity(n_hosts);
        let mut tor_down = vec![Vec::with_capacity(hpt); cfg.n_tors];
        let mut tor_up = vec![Vec::with_capacity(cfg.n_spines); cfg.n_tors];
        let mut spine_down = vec![Vec::with_capacity(cfg.n_tors); cfg.n_spines];
        for (h, &host) in hosts.iter().enumerate() {
            let tor = h / hpt;
            host_nic.push(mk(world, tors[tor], LinkClass::HostNic, cfg.host_speed));
            tor_down[tor].push(mk(world, host, LinkClass::TorDown, cfg.host_speed));
        }
        for up in tor_up.iter_mut() {
            for &spine in &spines {
                up.push(mk(world, spine, LinkClass::TorUp, cfg.uplink_speed));
            }
        }
        for down in spine_down.iter_mut() {
            for &tor in &tors {
                down.push(mk(world, tor, LinkClass::AggDown, cfg.uplink_speed));
            }
        }

        for tor in 0..cfg.n_tors {
            let mut ports = tor_down[tor].clone();
            ports.extend(tor_up[tor].iter().copied());
            let router = Box::new(cfg.leaf_router(tor));
            world.install(tors[tor], Switch::new(ports, router));
        }
        for s in 0..cfg.n_spines {
            let router = Box::new(cfg.spine_router());
            world.install(spines[s], Switch::new(spine_down[s].clone(), router));
        }
        for h in 0..n_hosts {
            world.install(
                hosts[h],
                Host::new(h as HostId, host_nic[h], cfg.host_speed, cfg.mtu),
            );
        }

        wire_back_refs(world, cfg.fabric);
        LeafSpine {
            cfg,
            hosts,
            host_nic,
            tors,
            spines,
            tor_down,
            tor_up,
            spine_down,
        }
    }

    fn same_rack(&self, a: HostId, b: HostId) -> bool {
        let hpt = self.cfg.hosts_per_tor as u32;
        a / hpt == b / hpt
    }
}

impl Topology for LeafSpine {
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
        self.cfg.host_speed
    }

    fn n_paths(&self, src: HostId, dst: HostId) -> u32 {
        if self.same_rack(src, dst) {
            1
        } else {
            self.cfg.n_spines as u32
        }
    }

    fn path_profile(&self, src: HostId, dst: HostId) -> HopList {
        let access = Hop {
            speed: self.cfg.host_speed,
            delay: LINK_DELAY,
        };
        let uplink = Hop {
            speed: self.cfg.uplink_speed,
            delay: LINK_DELAY,
        };
        if self.same_rack(src, dst) {
            HopList::new(&[access, access])
        } else {
            HopList::new(&[access, uplink, uplink, access])
        }
    }

    fn bulk_speed(&self, src: HostId, dst: HostId) -> Speed {
        if self.same_rack(src, dst) {
            self.cfg.host_speed
        } else {
            // Min cut: the access links, or the whole spine tier — a
            // multipath sender sprays over every uplink in parallel, so
            // four 5 Gb/s spines sustain 10 Gb/s for one host pair.
            let spine_cut = Speed::bps(
                self.cfg
                    .uplink_speed
                    .as_bps()
                    .saturating_mul(self.cfg.n_spines as u64),
            );
            self.cfg.host_speed.min(spine_cut)
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

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_sim::Time;

    #[test]
    fn shape_and_oversub_math() {
        let full = LeafSpineCfg::new(8, 4, 4);
        assert_eq!(full.n_hosts(), 32);
        assert!((full.oversub_ratio() - 1.0).abs() < 1e-9);
        // 4:1 via slow uplinks: 8 hosts at 10G over 4 spines at 5G.
        let over = LeafSpineCfg::new(4, 8, 4).with_uplink_speed(Speed::gbps(5));
        assert!((over.oversub_ratio() - 4.0).abs() < 1e-9);
        // 4:1 via scarce spines.
        let scarce = LeafSpineCfg::new(4, 8, 2);
        assert!((scarce.oversub_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn testbed_shape() {
        let cfg = LeafSpineCfg::testbed();
        assert_eq!(cfg.n_hosts(), 8);
        let mut w: World<Packet> = World::new(1);
        let tt = LeafSpine::build(&mut w, cfg);
        assert_eq!(tt.tors.len() + tt.spines.len(), 6, "six 4-port switches");
        assert_eq!(tt.n_paths(0, 1), 1);
        assert_eq!(tt.n_paths(0, 2), 2);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // src/dst index pairs are the point
    fn two_tier_routes_all_pairs() {
        let mut w: World<Packet> = World::new(1);
        let tt = LeafSpine::build(&mut w, LeafSpineCfg::testbed());
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
    #[should_panic(expected = "n_tors must be at least 1")]
    fn no_tors_fails_at_the_door() {
        LeafSpine::build(&mut World::new(1), LeafSpineCfg::new(0, 2, 2));
    }

    #[test]
    #[should_panic(expected = "hosts_per_tor must be at least 1")]
    fn host_less_racks_fail_at_the_door() {
        LeafSpine::build(&mut World::new(1), LeafSpineCfg::new(4, 0, 2));
    }

    #[test]
    #[should_panic(expected = "n_spines must be at least 1")]
    fn no_spines_fails_at_the_door() {
        LeafSpine::build(&mut World::new(1), LeafSpineCfg::new(4, 2, 0));
    }

    #[test]
    fn paths_hops_and_links() {
        let mut w: World<Packet> = World::new(1);
        let ls = LeafSpine::build(&mut w, LeafSpineCfg::new(4, 2, 3));
        assert_eq!(ls.n_paths(0, 1), 1); // same rack
        assert_eq!(ls.n_paths(0, 2), 3); // cross rack: one per spine
        assert_eq!(ls.n_hops(0, 1), 2);
        assert_eq!(ls.n_hops(0, 2), 4);
        // host_nic (8) + tor_down (8) + tor_up (4*3) + spine_down (3*4)
        assert_eq!(ls.links().len(), 8 + 8 + 12 + 12);
    }

    #[test]
    fn every_tag_reaches_destination_across_spines() {
        let mut w: World<Packet> = World::new(1);
        let ls = LeafSpine::build(&mut w, LeafSpineCfg::new(4, 2, 3));
        for tag in 0..ls.n_paths(0, 7) {
            let pkt = Packet::data(0, 7, 100 + tag as u64, 0, 9000).with_path(tag);
            w.post(Time::ZERO, ls.host_nic[0], pkt);
        }
        w.run_until_idle();
        let h = w.get::<Host>(ls.hosts[7]);
        assert_eq!(h.stats().unknown_flow_drops, 3);
        // Each spine saw exactly one packet.
        for s in 0..3 {
            assert_eq!(w.get::<Switch>(ls.spines[s]).rx_pkts, 1, "spine {s}");
        }
    }

    #[test]
    fn slow_uplinks_slow_the_wire_and_the_bound() {
        let cfg = LeafSpineCfg::new(2, 2, 1).with_uplink_speed(Speed::gbps(1));
        let mut w: World<Packet> = World::new(1);
        let ls = LeafSpine::build(&mut w, cfg);
        let pkt = Packet::data(0, 3, 7, 0, 9000).with_path(0);
        w.post(Time::ZERO, ls.host_nic[0], pkt);
        w.run_until_idle();
        // nic (7.2us @10G) + 2 uplink crossings (72us @1G each) +
        // tor_down (7.2us @10G) + 4us propagation.
        let expect = Time::from_ns(2 * 7_200) + Time::from_us(2 * 72) + Time::from_us(4);
        assert_eq!(w.now(), expect);
        // The one-way wire latency of a single full packet IS the ideal
        // FCT of a one-packet flow: the bound is tight and honest.
        let bytes = (9000 - ndp_net::packet::HEADER_BYTES) as u64;
        assert_eq!(ls.ideal_fct(0, 3, bytes), expect);
    }
}
