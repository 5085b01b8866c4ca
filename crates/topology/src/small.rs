//! Small topologies: back-to-back host pairs (Figures 8/11/12) and a
//! single-bottleneck funnel (Figure 2). The testbed-sized two-tier setups
//! are [`crate::LeafSpineCfg`] constructors.

use ndp_net::host::{Host, HostLatency};
use ndp_net::packet::{HostId, Packet};
use ndp_net::queue::LinkClass;
use ndp_net::switch::Switch;
use ndp_sim::{ComponentId, Speed, Time, World};

use crate::routes::TreeRouter;
use crate::spec::QueueSpec;
use crate::topology::{push_links_1d, Hop, HopList, LinkRef, Topology};
use crate::wiring::wire_back_refs;

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

    fn path_profile(&self, _src: HostId, _dst: HostId) -> HopList {
        let hop = Hop {
            speed: self.link_speed,
            delay: self.link_delay,
        };
        HopList::uniform(hop, 1)
    }

    fn links(&self) -> Vec<LinkRef> {
        let mut out = Vec::new();
        push_links_1d(&mut out, "host_nic", LinkClass::HostNic, &self.host_nic);
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
        let by_dst = TreeRouter::by_dst(n_senders, |d| d);
        world.install(ret_sw, Switch::new(ret_ports, Box::new(by_dst)));
        let all_to_receiver = TreeRouter::by_dst(n_senders + 1, |_| 0);
        world.install(sw, Switch::new(vec![bottleneck], Box::new(all_to_receiver)));
        wire_back_refs(world, fabric);
        SingleBottleneck {
            senders,
            sender_nic,
            receiver,
            bottleneck,
            switch: sw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::host::HostLatency;

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
}
