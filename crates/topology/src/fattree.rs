//! k-ary three-tier FatTree (Al-Fares et al. [1]), the paper's main
//! evaluation substrate: 128 hosts (k=8), 432 hosts (k=12) and 8192 hosts
//! (k=32), plus the 4:1 oversubscribed 512-host variant of Figure 23
//! (k=8 with 16 hosts per ToR).
//!
//! # Path-tag arithmetic
//!
//! With `half = k/2`:
//! * hosts under the same ToR have a single path (`n_paths == 1`);
//! * hosts in the same pod have `half` paths — the tag selects the
//!   aggregation switch;
//! * hosts in different pods have `half²` paths — the tag *is* the core
//!   switch index: `agg = tag / half`, `core uplink = tag % half`.
//!
//! Down-routing is purely destination-based, exactly as in a real FatTree
//! (one path down from any core to any host).

use ndp_net::host::{Host, HostLatency};
use ndp_net::packet::{HostId, Packet};
use ndp_net::queue::LinkClass;
use ndp_net::switch::Switch;
use ndp_sim::{ComponentId, Speed, World};

use crate::routes::{RouteMode, Step, TreeRouter};
use crate::spec::QueueSpec;
use crate::topology::{push_links_1d, push_links_2d, Hop, HopList, LinkRef, Topology, LINK_DELAY};
use crate::wiring::wire_back_refs;

/// Configuration for [`FatTree::build`].
#[derive(Clone, Debug)]
pub struct FatTreeCfg {
    /// Pod/port parameter; must be even. Hosts = `k³/4` at default density.
    pub k: usize,
    /// Hosts attached to each ToR (`k/2` for full provisioning; larger
    /// values oversubscribe the ToR uplinks, e.g. 16 with k=8 gives the
    /// paper's 4:1 oversubscribed 512-host network).
    pub hosts_per_tor: usize,
    pub link_speed: Speed,
    pub mtu: u32,
    pub fabric: QueueSpec,
    pub route_mode: RouteMode,
    pub host_latency: HostLatency,
}

impl FatTreeCfg {
    /// Paper defaults: 10 Gb/s links, 9 KB jumbograms, NDP switches with
    /// eight-packet queues, sender-chosen paths.
    pub fn new(k: usize) -> FatTreeCfg {
        FatTreeCfg {
            k,
            hosts_per_tor: k / 2,
            link_speed: Speed::gbps(10),
            mtu: 9000,
            fabric: QueueSpec::ndp_default(),
            route_mode: RouteMode::SourceTag,
            host_latency: HostLatency::default(),
        }
    }

    pub fn with_fabric(mut self, fabric: QueueSpec) -> FatTreeCfg {
        self.fabric = fabric;
        self
    }

    pub fn with_mtu(mut self, mtu: u32) -> FatTreeCfg {
        self.mtu = mtu;
        self
    }

    pub fn with_route_mode(mut self, m: RouteMode) -> FatTreeCfg {
        self.route_mode = m;
        self
    }

    pub fn with_hosts_per_tor(mut self, n: usize) -> FatTreeCfg {
        self.hosts_per_tor = n;
        self
    }

    pub fn n_hosts(&self) -> usize {
        self.index().n_hosts()
    }

    pub(crate) fn index(&self) -> FtIndex {
        FtIndex {
            half: self.k / 2,
            hpt: self.hosts_per_tor,
        }
    }
}

/// The fabric's index arithmetic, and the router of each switch tier.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FtIndex {
    half: usize,
    hpt: usize,
}

/// A ToR's uplink rule towards its own pod: the tag picks the agg,
/// `tag % half`.
const INTRA: usize = 0;
/// A ToR's uplink rule towards another pod: the tag is the core index,
/// reached through agg `tag / half`.
const INTER: usize = 1;

impl FtIndex {
    fn n_hosts(self) -> usize {
        2 * self.half * self.half * self.hpt
    }
    fn pod_of(self, h: usize) -> usize {
        h / (self.hpt * self.half)
    }
    fn tor_in_pod_of(self, h: usize) -> usize {
        (h / self.hpt) % self.half
    }
    fn idx_in_tor(self, h: usize) -> usize {
        h % self.hpt
    }

    /// How many switch tiers a packet from `a` to `b` climbs: 0 under one
    /// ToR, 1 within a pod, 2 across pods.
    fn climb(self, a: HostId, b: HostId) -> u32 {
        let (a, b) = (a as usize, b as usize);
        if self.pod_of(a) != self.pod_of(b) {
            2
        } else if self.tor_in_pod_of(a) != self.tor_in_pod_of(b) {
            1
        } else {
            0
        }
    }

    /// A `tag → f(tag)` rule over the fabric's tag space `[0, half²)`.
    fn rule(self, f: impl Fn(usize) -> usize) -> Vec<u16> {
        (0..self.half * self.half).map(|t| f(t) as u16).collect()
    }

    /// ToR `t` of `pod`: its hosts on ports `0..hpt`, aggs on `hpt..hpt+half`.
    pub(crate) fn tor_router(self, pod: usize, t: usize, mode: RouteMode) -> TreeRouter {
        let half = self.half;
        TreeRouter::new(
            self.n_hosts(),
            |d| {
                if self.pod_of(d) != pod {
                    Step::Up(INTER)
                } else if self.tor_in_pod_of(d) != t {
                    Step::Up(INTRA)
                } else {
                    Step::Port(self.idx_in_tor(d))
                }
            },
            self.hpt..self.hpt + half,
            vec![self.rule(|t| t % half), self.rule(|t| t / half)],
            mode,
        )
    }

    /// An agg of `pod`: the pod's ToRs on ports `0..half`, its cores on
    /// `half..2·half`, picked by `tag % half`.
    pub(crate) fn agg_router(self, pod: usize, mode: RouteMode) -> TreeRouter {
        let half = self.half;
        TreeRouter::new(
            self.n_hosts(),
            |d| {
                if self.pod_of(d) == pod {
                    Step::Port(self.tor_in_pod_of(d))
                } else {
                    Step::Up(0)
                }
            },
            half..2 * half,
            vec![self.rule(|t| t % half)],
            mode,
        )
    }

    /// A core: port `p` leads down to pod `p`.
    pub(crate) fn core_router(self) -> TreeRouter {
        TreeRouter::by_dst(self.n_hosts(), |d| self.pod_of(d))
    }
}

/// A built FatTree: component ids for hosts, switches and every queue.
/// `Clone` is cheap (id vectors only) — harness components that attach
/// flows mid-run (e.g. the experiments' request driver) carry their own copy.
#[derive(Clone)]
pub struct FatTree {
    pub cfg: FatTreeCfg,
    /// Host components, indexed by [`HostId`].
    pub hosts: Vec<ComponentId>,
    /// Host NIC egress queues, indexed by [`HostId`].
    pub host_nic: Vec<ComponentId>,
    pub tors: Vec<ComponentId>,
    pub aggs: Vec<ComponentId>,
    pub cores: Vec<ComponentId>,
    /// `tor_down[tor][i]`: queue from ToR to its i-th host.
    pub tor_down: Vec<Vec<ComponentId>>,
    /// `tor_up[tor][a]`: queue from ToR to agg `a` of its pod.
    pub tor_up: Vec<Vec<ComponentId>>,
    /// `agg_down[agg][t]`: queue from agg to ToR `t` of its pod.
    pub agg_down: Vec<Vec<ComponentId>>,
    /// `agg_up[agg][m]`: queue from agg to its m-th core.
    pub agg_up: Vec<Vec<ComponentId>>,
    /// `core_down[c][pod]`: queue from core `c` down to `pod`.
    pub core_down: Vec<Vec<ComponentId>>,
}

impl FatTree {
    /// Wire a FatTree into `world`. Panics on a degenerate shape (odd or
    /// zero `k`, host-less ToRs) before anything is built.
    pub fn build(world: &mut World<Packet>, cfg: FatTreeCfg) -> FatTree {
        let k = cfg.k;
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "{cfg:?}: k must be even and at least 2"
        );
        assert!(
            cfg.hosts_per_tor >= 1,
            "{cfg:?}: hosts_per_tor must be at least 1"
        );
        let half = k / 2;
        let hpt = cfg.hosts_per_tor;
        let n_hosts = cfg.n_hosts();
        let n_tors = k * half;
        let n_aggs = k * half;
        let n_cores = half * half;
        let ix = cfg.index();

        // Reserve endpoints of all links first.
        let hosts: Vec<ComponentId> = (0..n_hosts).map(|_| world.reserve()).collect();
        let tors: Vec<ComponentId> = (0..n_tors).map(|_| world.reserve()).collect();
        let aggs: Vec<ComponentId> = (0..n_aggs).map(|_| world.reserve()).collect();
        let cores: Vec<ComponentId> = (0..n_cores).map(|_| world.reserve()).collect();

        let mk_link = |world: &mut World<Packet>, to: ComponentId, class: LinkClass| {
            cfg.fabric
                .link(world, to, class, cfg.link_speed, LINK_DELAY, cfg.mtu)
        };

        // Host <-> ToR links.
        let mut host_nic = Vec::with_capacity(n_hosts);
        let mut tor_down = vec![Vec::with_capacity(hpt); n_tors];
        for (h, &host) in hosts.iter().enumerate() {
            let tor = ix.pod_of(h) * half + ix.tor_in_pod_of(h);
            host_nic.push(mk_link(world, tors[tor], LinkClass::HostNic));
            tor_down[tor].push(mk_link(world, host, LinkClass::TorDown));
        }

        // ToR <-> Agg links (within each pod).
        let mut tor_up = vec![Vec::with_capacity(half); n_tors];
        let mut agg_down = vec![Vec::with_capacity(half); n_aggs];
        for pod in 0..k {
            for t in 0..half {
                let tor = pod * half + t;
                for a in 0..half {
                    let agg = pod * half + a;
                    tor_up[tor].push(mk_link(world, aggs[agg], LinkClass::TorUp));
                }
            }
            for a in 0..half {
                let agg = pod * half + a;
                for t in 0..half {
                    let tor = pod * half + t;
                    agg_down[agg].push(mk_link(world, tors[tor], LinkClass::AggDown));
                }
            }
        }

        // Agg <-> Core links. Agg `a` (in-pod index) owns cores a*half..a*half+half.
        let mut agg_up = vec![Vec::with_capacity(half); n_aggs];
        let mut core_down = vec![vec![ComponentId::DANGLING; k]; n_cores];
        // Index arithmetic (pod/agg/core offsets) IS the wiring spec here;
        // iterator chains would bury it.
        #[allow(clippy::needless_range_loop)]
        for pod in 0..k {
            for a in 0..half {
                let agg = pod * half + a;
                for m in 0..half {
                    let core = a * half + m;
                    agg_up[agg].push(mk_link(world, cores[core], LinkClass::AggUp));
                    core_down[core][pod] = mk_link(world, aggs[agg], LinkClass::CoreDown);
                }
            }
        }

        // Install switches with their port vectors.
        for pod in 0..k {
            for t in 0..half {
                let tor = pod * half + t;
                let mut ports = tor_down[tor].clone();
                ports.extend(tor_up[tor].iter().copied());
                let router = ix.tor_router(pod, t, cfg.route_mode);
                world.install(tors[tor], Switch::new(ports, Box::new(router)));
            }
            for a in 0..half {
                let agg = pod * half + a;
                let mut ports = agg_down[agg].clone();
                ports.extend(agg_up[agg].iter().copied());
                let router = ix.agg_router(pod, cfg.route_mode);
                world.install(aggs[agg], Switch::new(ports, Box::new(router)));
            }
        }
        for c in 0..n_cores {
            let router = Box::new(ix.core_router());
            world.install(cores[c], Switch::new(core_down[c].clone(), router));
        }

        // Install hosts.
        for h in 0..n_hosts {
            let host = Host::new(h as HostId, host_nic[h], cfg.link_speed, cfg.mtu)
                .with_latency(cfg.host_latency.clone());
            world.install(hosts[h], host);
        }

        wire_back_refs(world, cfg.fabric);
        FatTree {
            cfg,
            hosts,
            host_nic,
            tors,
            aggs,
            cores,
            tor_down,
            tor_up,
            agg_down,
            agg_up,
            core_down,
        }
    }
}

impl Topology for FatTree {
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

    /// Each tier climbed multiplies the choices by `half`: 1 path under
    /// one ToR, `half` within a pod (the tag picks the agg), `half²`
    /// across pods (the tag is the core index).
    fn n_paths(&self, src: HostId, dst: HostId) -> u32 {
        let ix = self.cfg.index();
        (ix.half as u32).pow(ix.climb(src, dst))
    }

    /// 2 links under one ToR (NIC + ToR-down), 4 within a pod, 6 across
    /// pods.
    fn n_hops(&self, src: HostId, dst: HostId) -> u32 {
        2 + 2 * self.cfg.index().climb(src, dst)
    }

    fn path_profile(&self, src: HostId, dst: HostId) -> HopList {
        let hop = Hop {
            speed: self.cfg.link_speed,
            delay: LINK_DELAY,
        };
        HopList::uniform(hop, self.n_hops(src, dst) as usize)
    }

    fn links(&self) -> Vec<LinkRef> {
        let mut out = Vec::new();
        push_links_1d(&mut out, "host_nic", LinkClass::HostNic, &self.host_nic);
        push_links_2d(&mut out, "tor_down", LinkClass::TorDown, &self.tor_down);
        push_links_2d(&mut out, "tor_up", LinkClass::TorUp, &self.tor_up);
        push_links_2d(&mut out, "agg_down", LinkClass::AggDown, &self.agg_down);
        push_links_2d(&mut out, "agg_up", LinkClass::AggUp, &self.agg_up);
        push_links_2d(&mut out, "core_down", LinkClass::CoreDown, &self.core_down);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::queue::Queue;
    use ndp_sim::Time;

    #[test]
    fn host_counts_match_paper_topologies() {
        assert_eq!(FatTreeCfg::new(8).n_hosts(), 128);
        assert_eq!(FatTreeCfg::new(12).n_hosts(), 432);
        assert_eq!(FatTreeCfg::new(32).n_hosts(), 8192);
        // Oversubscribed Fig-23 variant.
        assert_eq!(FatTreeCfg::new(8).with_hosts_per_tor(16).n_hosts(), 512);
    }

    #[test]
    #[should_panic(expected = "k must be even and at least 2")]
    fn odd_k_fails_at_the_door() {
        FatTree::build(&mut World::new(1), FatTreeCfg::new(5));
    }

    #[test]
    #[should_panic(expected = "hosts_per_tor must be at least 1")]
    fn host_less_tors_fail_at_the_door() {
        FatTree::build(&mut World::new(1), FatTreeCfg::new(4).with_hosts_per_tor(0));
    }

    #[test]
    fn index_math() {
        let ix = FtIndex { half: 4, hpt: 4 }; // k=8
                                              // Host 0: pod 0, tor 0, idx 0; host 17: pod 1, tor 0, idx 1.
        assert_eq!(ix.pod_of(0), 0);
        assert_eq!(ix.pod_of(17), 1);
        assert_eq!(ix.tor_in_pod_of(17), 0);
        assert_eq!(ix.idx_in_tor(17), 1);
        assert_eq!(ix.tor_in_pod_of(13), 3);
    }

    #[test]
    fn path_counts() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        // k=4: 16 hosts, 2 per tor.
        assert_eq!(ft.n_hosts(), 16);
        assert_eq!(ft.n_paths(0, 1), 1); // same ToR
        assert_eq!(ft.n_paths(0, 2), 2); // same pod, different ToR
        assert_eq!(ft.n_paths(0, 5), 4); // different pod
    }

    #[test]
    fn hop_counts() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        assert_eq!(ft.n_hops(0, 1), 2); // same ToR
        assert_eq!(ft.n_hops(0, 2), 4); // same pod, different ToR
        assert_eq!(ft.n_hops(0, 5), 6); // different pod
                                        // Consistent with the measured one-way latency test below:
                                        // host 0 -> 15 crosses 6 links.
        assert_eq!(ft.n_hops(0, 15), 6);
    }

    #[test]
    fn component_counts() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        assert_eq!(ft.tors.len(), 8);
        assert_eq!(ft.aggs.len(), 8);
        assert_eq!(ft.cores.len(), 4);
        assert_eq!(ft.host_nic.len(), 16);
        // Every reserved slot must be installed (no vacated components).
        for id in w.ids() {
            // get() panics on vacated slots; try all known types.
            let ok = w.try_get::<Host>(id).is_some()
                || w.try_get::<Switch>(id).is_some()
                || w.try_get::<Queue>(id).is_some();
            assert!(ok, "component {id} not installed");
        }
    }

    /// A raw packet injected at a host NIC reaches the right destination
    /// host across every tier, for every path tag.
    #[test]
    fn any_path_tag_reaches_destination() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        let src: HostId = 0;
        for dst in [1u32, 2, 3, 5, 12, 15] {
            for tag in 0..ft.n_paths(src, dst) {
                let pkt = Packet::data(src, dst, 1000 + dst as u64 * 100 + tag as u64, 0, 9000)
                    .with_path(tag);
                w.post(w.now(), ft.host_nic[0], pkt);
            }
        }
        w.run_until_idle();
        // All packets must arrive at their hosts (they land in
        // unknown_flow_drops since no endpoints are registered — that
        // counter doubles as a delivery proof).
        let mut total = 0;
        for dst in [1usize, 2, 3, 5, 12, 15] {
            let h = w.get::<Host>(ft.hosts[dst]);
            let expect = ft.n_paths(src, dst as HostId) as u64;
            assert_eq!(
                h.stats().unknown_flow_drops + h.stats().timewait_rejects,
                expect,
                "host {dst} deliveries"
            );
            total += expect;
        }
        assert_eq!(total, 1 + 2 + 2 + 4 + 4 + 4);
    }

    /// Distinct inter-pod tags traverse distinct cores: with all 4 tags in
    /// a k=4 tree, each core must see exactly one packet.
    #[test]
    fn tags_spread_over_cores() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        for tag in 0..4 {
            let pkt = Packet::data(0, 15, tag as u64, 0, 9000).with_path(tag);
            w.post(Time::ZERO, ft.host_nic[0], pkt);
        }
        w.run_until_idle();
        for c in 0..4 {
            assert_eq!(w.get::<Switch>(ft.cores[c]).rx_pkts, 1, "core {c}");
        }
    }

    #[test]
    fn one_way_latency_is_serialization_plus_propagation() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        // Host 0 -> host 15 crosses 6 links: nic, tor-up, agg-up, core-down,
        // agg-down, tor-down. 9 KB at 10 Gb/s = 7.2 us per hop
        // (store-and-forward), 1 us propagation per link.
        let pkt = Packet::data(0, 15, 7, 0, 9000).with_path(0);
        w.post(Time::ZERO, ft.host_nic[0], pkt);
        w.run_until_idle();
        let expect = Time::from_ns(6 * 7_200) + Time::from_us(6);
        assert_eq!(w.now(), expect);
    }

    #[test]
    fn a_degraded_core_link_slows_the_path() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        // Pod 0's agg 0 and its first core, both directions.
        for label in ["agg_up[0][0]", "core_down[0][0]"] {
            let link = ft.links().into_iter().find(|l| l.label == label);
            ft.set_link_speed(&mut w, link.expect(label).queue, Speed::gbps(1));
        }
        // Tag 0 = agg 0, core uplink 0 — the degraded link.
        let pkt = Packet::data(0, 15, 7, 0, 9000).with_path(0);
        w.post(Time::ZERO, ft.host_nic[0], pkt);
        w.run_until_idle();
        // One hop now takes 72 us instead of 7.2.
        let expect = Time::from_ns(5 * 7_200) + Time::from_us(72) + Time::from_us(6);
        assert_eq!(w.now(), expect);
    }

    #[test]
    fn random_uplinks_mode_spreads_traffic() {
        let mut w: World<Packet> = World::new(42);
        let cfg = FatTreeCfg::new(4).with_route_mode(RouteMode::RandomUplinks);
        let ft = FatTree::build(&mut w, cfg);
        for i in 0..400 {
            let pkt = Packet::data(0, 15, i, 0, 1500);
            w.post(Time::from_us(i * 2), ft.host_nic[0], pkt);
        }
        w.run_until_idle();
        for c in 0..4 {
            let n = w.get::<Switch>(ft.cores[c]).rx_pkts;
            assert!(n > 50, "core {c} starved: {n}");
        }
    }
}
