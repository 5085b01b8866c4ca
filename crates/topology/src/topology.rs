//! The pluggable topology surface.
//!
//! The paper's evaluation is a matrix of transports × scenarios, and a
//! scenario is above all a fabric shape. Every builder in this crate —
//! the three-tier [`crate::FatTree`], the two-tier [`crate::LeafSpine`]
//! (rack-scale fabrics and the paper's testbed) and the calibration
//! [`crate::BackToBack`] pair — implements one object-safe [`Topology`]
//! trait: how many hosts it wires, how source-routed path tags map to
//! path counts, what an unloaded flow's ideal completion time is, and how
//! to enumerate/degrade its links at runtime. Experiment harnesses hold
//! `&dyn Topology` and never know which fabric they are driving, so
//! adding a fabric shape is a single builder file plus one registry line
//! in `ndp-experiments` — exactly like adding a protocol.
//!
//! # Ideal FCT and per-hop speeds
//!
//! [`Topology::ideal_fct`] is the unloaded-network lower bound that
//! FCT-slowdown reporting normalizes against. It is computed from the
//! topology's own link speeds — the per-hop [`Topology::path_profile`]
//! for the first packet's store-and-forward latency, and the min-cut
//! [`Topology::bulk_speed`] for the pipelined bulk — so a fabric with
//! slow uplinks (an oversubscribed leaf-spine) or asymmetric tiers
//! yields an honest bound that no transport can beat and a multipath
//! transport can approach. A path profile is a [`HopList`], at most
//! [`MAX_HOPS`] hops held inline, so the bound allocates nothing: a
//! driver asks for it for every request it completes.

use ndp_net::packet::{HostId, Packet, HEADER_BYTES};
use ndp_net::queue::{LinkClass, Queue, QueueStats};
use ndp_net::switch::Switch;
use ndp_sim::{ComponentId, Speed, Time, World};

use crate::wiring::Wiring;

/// One-way propagation delay of every FatTree and leaf-spine link (1 µs,
/// the paper's simulated fabrics).
pub const LINK_DELAY: Time = Time::from_us(1);

/// One hop of a path: the link's speed and one-way propagation delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    pub speed: Speed,
    pub delay: Time,
}

/// The most links a path crosses on any fabric here: a FatTree's
/// inter-pod path (NIC, ToR up, agg up, core down, agg down, ToR down).
pub const MAX_HOPS: usize = 6;

/// A path's hops in order, held inline: at most [`MAX_HOPS`] of them, read
/// as a `&[Hop]`. [`Topology::path_profile`] returns one, so the ideal-FCT
/// bound a driver computes for every request it completes allocates
/// nothing.
#[derive(Clone, Copy, Debug)]
pub struct HopList {
    hops: [Hop; MAX_HOPS],
    len: u8,
}

impl HopList {
    /// `hops`, in path order. Panics past [`MAX_HOPS`].
    pub fn new(hops: &[Hop]) -> HopList {
        let mut list = HopList::uniform(
            Hop {
                speed: Speed::bps(0),
                delay: Time::ZERO,
            },
            hops.len(),
        );
        list.hops[..hops.len()].copy_from_slice(hops);
        list
    }

    /// `n` crossings of identical links. Panics past [`MAX_HOPS`].
    pub fn uniform(hop: Hop, n: usize) -> HopList {
        assert!(n <= MAX_HOPS, "a {n}-hop path is longer than MAX_HOPS");
        HopList {
            hops: [hop; MAX_HOPS],
            len: n as u8,
        }
    }
}

impl std::ops::Deref for HopList {
    type Target = [Hop];

    fn deref(&self) -> &[Hop] {
        &self.hops[..self.len as usize]
    }
}

/// One directional link of a built topology: the egress [`Queue`]
/// component that models it, its tier class, and a human-readable label
/// (`"agg_up[0][1]"`) stable across builds of the same shape.
#[derive(Clone, Debug)]
pub struct LinkRef {
    pub queue: ComponentId,
    pub class: LinkClass,
    pub label: String,
}

/// Flip the live-mask bit for `queue`'s port on its owning switch, if a
/// switch owns it (host-NIC queues have no owner — nothing can reroute
/// around a dead NIC). Derives the owner from the arena, so it is
/// O(world); fine for rare failure events, while the scheduled-campaign
/// path ([`crate::ChaosController`]) resolves owners once at install time.
pub fn mask_link(world: &mut World<Packet>, queue: ComponentId, up: bool) {
    if let Some((sw, port)) = Wiring::of(world).owner(queue) {
        world.get_mut::<Switch>(sw).set_port_up(port, up);
    }
}

/// Ideal (unloaded-network, store-and-forward) completion time of a
/// `bytes` flow: every wire byte serializes once through `bulk` — the
/// sustainable src→dst bandwidth — and the flow's *final* packet then
/// store-and-forwards across the remaining hops at their own speeds,
/// plus propagation. A true lower bound, so slowdowns normalized by it
/// are ≥ 1 (the registry proptests drive real unloaded flows against it
/// on every registered topology).
///
/// Two details make the bound honest where naive formulas fail:
///
/// * `bulk` is a *min-cut*, not a single-path bottleneck: a multipath
///   transport sprays bulk data over every parallel uplink, so e.g. four
///   5 Gb/s spines carry 10 Gb/s of one host's traffic.
/// * the tail charge uses the flow's **last** packet (the remainder,
///   which every transport here sends after its full-MTU packets), not
///   the first full packet — a 2.5 KB remainder crosses five 10 Gb/s
///   hops 3× faster than a 9 KB jumbogram, and real runs exploit that.
///
/// The tail drops the single most expensive hop: the bulk serialization
/// already accounts for the last packet crossing the narrowest link once.
pub fn ideal_fct_over(hops: &[Hop], bulk: Speed, mtu: u32, bytes: u64) -> Time {
    assert!(!hops.is_empty(), "path must cross at least one link");
    let per = (mtu - HEADER_BYTES) as u64;
    let bytes = bytes.max(1);
    let pkts = bytes.div_ceil(per);
    let wire = bytes + pkts * HEADER_BYTES as u64;
    // Wire size of the final packet: the payload remainder (a full
    // packet when the size divides evenly) plus its header.
    let last = ((bytes - 1) % per) + 1 + HEADER_BYTES as u64;
    let prop: Time = hops.iter().map(|h| h.delay).sum();
    let (total, max) = hops
        .iter()
        .fold((Time::ZERO, Time::ZERO), |(total, max), h| {
            let t = h.speed.tx_time(last);
            (total + t, max.max(t))
        });
    bulk.tx_time(wire) + (total - max) + prop
}

/// A fabric under evaluation: host/path arithmetic, ideal-FCT lower
/// bounds, link enumeration and runtime failure injection. Object-safe —
/// harnesses drive `&dyn Topology` (or `Arc<dyn Topology>` when a
/// component owns it across the run).
///
/// Implementations are the builder handles themselves (`FatTree`,
/// `LeafSpine`, `BackToBack`): they already carry every component id the
/// trait needs, so implementing it is pure arithmetic.
pub trait Topology: Send + Sync {
    /// Number of hosts wired into the world.
    fn n_hosts(&self) -> usize;

    /// The host component for endpoint registration.
    fn host(&self, h: HostId) -> ComponentId;

    /// The host's NIC egress queue (raw packet injection, NIC stats).
    fn host_nic(&self, h: HostId) -> ComponentId;

    fn mtu(&self) -> u32;

    /// Speed of the host access links — the reference rate offered-load
    /// fractions and per-flow goodput are measured against.
    fn host_link_speed(&self) -> Speed;

    /// Number of distinct sender-selectable paths between two hosts;
    /// packets tagged `0..n_paths(src, dst)` must all reach `dst`.
    fn n_paths(&self, src: HostId, dst: HostId) -> u32;

    /// Per-hop speeds/delays of the fastest src→dst path (used for
    /// [`Topology::ideal_fct`]; length is the hop count).
    fn path_profile(&self, src: HostId, dst: HostId) -> HopList;

    /// Number of links a packet crosses from `src` to `dst`.
    fn n_hops(&self, src: HostId, dst: HostId) -> u32 {
        self.path_profile(src, dst).len() as u32
    }

    /// Sustainable src→dst bulk bandwidth for a transport that can use
    /// every parallel path: the minimum cut over the access links and
    /// the (multiplied) fabric tiers. Defaults to the single-path
    /// bottleneck, which is exact when tiers are never slower in
    /// aggregate than an access link; topologies whose oversubscription
    /// comes from *slow uplinks in parallel* (see `LeafSpine`) override
    /// it with the real cut.
    fn bulk_speed(&self, src: HostId, dst: HostId) -> Speed {
        self.path_profile(src, dst)
            .iter()
            .map(|h| h.speed)
            .min()
            .expect("path must cross at least one link")
    }

    /// Unloaded-network lower bound on the completion time of a `bytes`
    /// flow — see [`ideal_fct_over`] for the exact model.
    fn ideal_fct(&self, src: HostId, dst: HostId, bytes: u64) -> Time {
        ideal_fct_over(
            &self.path_profile(src, dst),
            self.bulk_speed(src, dst),
            self.mtu(),
            bytes,
        )
    }

    /// Every directional link of the fabric (host NICs included), with
    /// tier classes and stable labels.
    fn links(&self) -> Vec<LinkRef>;

    /// Renegotiate one directional link to `speed` at runtime (Figure 22
    /// style asymmetric failure). `queue` is a [`LinkRef::queue`] id.
    fn set_link_speed(&self, world: &mut World<Packet>, queue: ComponentId, speed: Speed) {
        world.get_mut::<Queue>(queue).set_rate(speed);
    }

    /// Hard-fail one directional link: buffered packets are lost, arrivals
    /// drop (or bounce back to their sender on an RTS-capable NDP queue),
    /// and the owning switch's live-mask is updated so its router steers
    /// traffic onto equivalent live ports where any exist. The link's
    /// original rate is remembered; [`Topology::restore_link`] brings it
    /// back. (Before the fabric-chaos subsystem this merely renegotiated
    /// the rate down to a 10 Mb/s crawl and forgot the original speed.)
    fn fail_link(&self, world: &mut World<Packet>, queue: ComponentId) {
        world.get_mut::<Queue>(queue).set_down(true);
        mask_link(world, queue, false);
    }

    /// Recover a failed (or degraded) link: back up at its construction-time
    /// nominal rate, and the owning switch's live-mask bit is cleared.
    fn restore_link(&self, world: &mut World<Packet>, queue: ComponentId) {
        world.get_mut::<Queue>(queue).restore();
        mask_link(world, queue, true);
    }

    /// Aggregate queue statistics by link class over this topology's own
    /// links (trim-location analysis).
    fn stats_by_class(&self, world: &World<Packet>) -> Vec<(LinkClass, QueueStats)> {
        let mut acc: Vec<(LinkClass, QueueStats)> = Vec::new();
        for link in self.links() {
            let st = &world.get::<Queue>(link.queue).stats;
            accumulate_stats(&mut acc, link.class, st);
        }
        acc
    }
}

/// Fold one queue's stats into [`Topology::stats_by_class`]'s per-class
/// accumulator.
fn accumulate_stats(acc: &mut Vec<(LinkClass, QueueStats)>, class: LinkClass, st: &QueueStats) {
    let slot = match acc.iter_mut().find(|(c, _)| *c == class) {
        Some((_, s)) => s,
        None => {
            acc.push((class, QueueStats::default()));
            &mut acc.last_mut().expect("just pushed").1
        }
    };
    slot.forwarded_pkts += st.forwarded_pkts;
    slot.forwarded_bytes += st.forwarded_bytes;
    slot.payload_bytes += st.payload_bytes;
    slot.trimmed += st.trimmed;
    slot.bounced += st.bounced;
    slot.dropped_data += st.dropped_data;
    slot.dropped_ctrl += st.dropped_ctrl;
    slot.ecn_marked += st.ecn_marked;
    slot.xoff_sent += st.xoff_sent;
    slot.dropped_down += st.dropped_down;
    slot.max_occupancy_bytes = slot.max_occupancy_bytes.max(st.max_occupancy_bytes);
}

/// Push a `LinkRef` per queue id of a 2-D id table (`name[i][j]`).
pub(crate) fn push_links_2d(
    out: &mut Vec<LinkRef>,
    name: &str,
    class: LinkClass,
    table: &[Vec<ComponentId>],
) {
    for (i, row) in table.iter().enumerate() {
        for (j, &queue) in row.iter().enumerate() {
            out.push(LinkRef {
                queue,
                class,
                label: format!("{name}[{i}][{j}]"),
            });
        }
    }
}

/// Push a `LinkRef` per queue id of a 1-D id list (`name[i]`).
pub(crate) fn push_links_1d(
    out: &mut Vec<LinkRef>,
    name: &str,
    class: LinkClass,
    ids: &[ComponentId],
) {
    for (i, &queue) in ids.iter().enumerate() {
        out.push(LinkRef {
            queue,
            class,
            label: format!("{name}[{i}]"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTree, FatTreeCfg};

    fn uniform(hops: usize) -> Vec<Hop> {
        vec![
            Hop {
                speed: Speed::gbps(10),
                delay: Time::from_us(1),
            };
            hops
        ]
    }

    #[test]
    fn uniform_ideal_matches_historical_formula() {
        // Cross-pod single full packet on k=4 defaults: 6 links of 7.2 us
        // serialization + 1 us propagation each (the topology one-way
        // latency test measures the same number on the wire).
        let bytes = (9000 - HEADER_BYTES) as u64;
        let line = Speed::gbps(10);
        assert_eq!(
            ideal_fct_over(&uniform(6), line, 9000, bytes),
            Time::from_ns(6 * 7_200) + Time::from_us(6)
        );
        // Two packets: one extra line-rate serialization behind the first.
        assert_eq!(
            ideal_fct_over(&uniform(6), line, 9000, 2 * bytes),
            Time::from_ns(7 * 7_200) + Time::from_us(6)
        );
        // Same-ToR flows only cross 2 links.
        assert_eq!(
            ideal_fct_over(&uniform(2), line, 9000, bytes),
            Time::from_ns(2 * 7_200) + Time::from_us(2)
        );
    }

    #[test]
    fn trait_ideal_fct_delegates_to_path_profile() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        let bytes = (9000 - HEADER_BYTES) as u64;
        let t: &dyn Topology = &ft;
        assert_eq!(
            t.ideal_fct(0, 15, bytes),
            Time::from_ns(6 * 7_200) + Time::from_us(6)
        );
        assert_eq!(t.n_hops(0, 15), 6);
        assert_eq!(t.n_hops(0, 1), 2);
    }

    #[test]
    fn slow_bottleneck_hop_raises_the_bound() {
        // A 4-hop single-spine leaf-spine path with a 1 Gb/s uplink: the
        // bound must charge the two uplink crossings at 1 Gb/s and
        // pipeline the bulk at the 1 Gb/s cut, strictly above the
        // all-10G bound.
        let host = Hop {
            speed: Speed::gbps(10),
            delay: Time::from_us(1),
        };
        let uplink = Hop {
            speed: Speed::gbps(1),
            delay: Time::from_us(1),
        };
        let path = [host, uplink, uplink, host];
        let bytes = 90_000u64;
        let slow = ideal_fct_over(&path, Speed::gbps(1), 9000, bytes);
        let fast = ideal_fct_over(&uniform(4), Speed::gbps(10), 9000, bytes);
        assert!(slow > fast, "{slow:?} vs {fast:?}");
        // All wire bytes through the 1 Gb/s cut; the 704 B final packet
        // then store-and-forwards over one more 1G hop (the other is the
        // cut) and the two 10G access hops; prop: 4us.
        let pkts = bytes.div_ceil((9000 - HEADER_BYTES) as u64);
        let wire = bytes + pkts * HEADER_BYTES as u64;
        let last = bytes - (pkts - 1) * (9000 - HEADER_BYTES) as u64 + HEADER_BYTES as u64;
        assert_eq!(last, 704);
        let expect = Speed::gbps(1).tx_time(wire)
            + Speed::gbps(1).tx_time(last)
            + Speed::gbps(10).tx_time(last) * 2
            + Time::from_us(4);
        assert_eq!(slow, expect);
    }

    #[test]
    fn partial_last_packet_tightens_the_tail() {
        // 2 full packets + a small remainder: the tail charge uses the
        // remainder, so the bound sits strictly below the naive
        // first-packet-store-and-forward figure — which real unloaded
        // runs beat (that naive figure was the seed's formula, and the
        // registry proptests caught a real NDP run outrunning it).
        let per = (9000 - HEADER_BYTES) as u64;
        let bytes = 2 * per + 1000;
        let naive = Speed::gbps(10).tx_time(6 * 9000 + (bytes + 3 * 64 - 9000)) + Time::from_us(6);
        let bound = ideal_fct_over(&uniform(6), Speed::gbps(10), 9000, bytes);
        assert!(bound < naive, "{bound:?} vs naive {naive:?}");
        // Exact: wire once at 10G + five crossings of the 1064 B tail.
        let wire = bytes + 3 * HEADER_BYTES as u64;
        let expect =
            Speed::gbps(10).tx_time(wire) + Speed::gbps(10).tx_time(1064) * 5 + Time::from_us(6);
        assert_eq!(bound, expect);
    }

    #[test]
    fn fail_and_restore_round_trip_masks_port_and_recovers_nominal_rate() {
        let mut w: World<Packet> = World::new(1);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        let t: &dyn Topology = &ft;
        let link = t
            .links()
            .into_iter()
            .find(|l| l.label == "agg_up[0][0]")
            .expect("fat-tree exposes agg uplinks");
        let owner_port = |w: &World<Packet>| {
            w.ids()
                .filter_map(|id| {
                    w.try_get::<Switch>(id)?
                        .ports()
                        .iter()
                        .position(|&q| q == link.queue)
                        .map(|p| (id, p))
                })
                .next()
                .expect("an agg switch owns this uplink")
        };
        let nominal = w.get::<Queue>(link.queue).rate();
        // Degrade first, then hard-fail: restore must forget both.
        t.set_link_speed(&mut w, link.queue, Speed::gbps(1));
        t.fail_link(&mut w, link.queue);
        assert!(w.get::<Queue>(link.queue).is_down());
        let (sw, p) = owner_port(&w);
        assert!(!w.get::<Switch>(sw).port_is_up(p), "dead port masked");
        t.restore_link(&mut w, link.queue);
        let q = w.get::<Queue>(link.queue);
        assert!(!q.is_down());
        assert_eq!(q.rate(), nominal, "recovery renegotiates the original rate");
        assert!(w.get::<Switch>(sw).port_is_up(p), "mask cleared");
    }
}
