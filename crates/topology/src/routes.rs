//! The one switch router of every tree fabric, tabulated at build time.
//!
//! A switch in a folded Clos makes one decision per packet: deliver down
//! (or across) towards the destination, or go up, where the sender's
//! path tag picks the uplink (§3.1.1). [`TreeRouter`] holds that decision
//! as data, so the FatTree's ToR/agg/core tiers, the leaf-spine's leaf
//! and spine tiers and the single-bottleneck funnel are all the same type
//! with different tables:
//!
//! * a `dst → u16` table holding either the downlink port or the index of
//!   the uplink rule that applies;
//! * the uplink rules, each a `tag → offset` table covering the fabric's
//!   tag space — a whole number of periods of the tier's tag arithmetic,
//!   so a tag past the table (the u32 [`flow_hash_path`] tags TCP-family
//!   flows carry) wraps as `rule[tag % len]` with the same answer;
//! * the uplink port range, which [`RouteMode::RandomUplinks`] draws from
//!   and a dead uplink is rerouted within.
//!
//! The fabric is static, so a tabulated route costs one L1 load for a
//! local delivery plus one more for the tag → uplink map, where the
//! arithmetic form spent ~30-cycle integer divisions (`dst / hpt`,
//! `tag % n_spines`) on the simulator's hottest path. Tables are u16 and
//! sized by host count: a few hundred bytes per switch even at paper
//! scale.

use std::ops::Range;

use ndp_net::packet::{FlowId, Packet};
use ndp_net::switch::Router;
use rand::rngs::SmallRng;
use rand::Rng;

/// How switches pick uplinks for packets heading up the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteMode {
    /// Senders choose the path: switches obey the packet's path tag
    /// (NDP's source-based load balancing, §3.1.1).
    SourceTag,
    /// Per-packet random ECMP: every switch picks a uniformly random
    /// uplink (§3.1.1's baseline; ~10 % worse at small buffers).
    RandomUplinks,
}

/// Deterministic per-flow "ECMP hash" for single-path transports: the
/// path tag every packet of the flow carries.
pub fn flow_hash_path(flow: FlowId) -> u32 {
    (flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// Table entries at or above this are uplink-rule indices (`e - RULE0`);
/// below it they are ports. Room for the two rules a FatTree ToR needs.
const RULE0: u16 = u16::MAX - 1;

/// Where a switch sends one destination's packets.
pub(crate) enum Step {
    /// Out of this port, whatever the tag.
    Port(usize),
    /// Up, through the uplink chosen by rule `i`.
    Up(usize),
}

/// A tree-fabric switch's forwarding decision (see the module doc).
pub(crate) struct TreeRouter {
    /// dst → port, or `RULE0 + i` for uplink rule `i`.
    table: Vec<u16>,
    /// Uplink rules: path tag → offset into the uplink range.
    rules: Vec<Vec<u16>>,
    /// The uplink ports are `up_lo..up_lo + n_up`.
    up_lo: usize,
    n_up: usize,
    mode: RouteMode,
}

impl TreeRouter {
    /// Tabulate `step` over every destination host. Panics when a port
    /// or rule index does not fit the u16 table.
    pub(crate) fn new(
        n_hosts: usize,
        step: impl Fn(usize) -> Step,
        uplinks: Range<usize>,
        rules: Vec<Vec<u16>>,
        mode: RouteMode,
    ) -> TreeRouter {
        let table = (0..n_hosts)
            .map(|d| match step(d) {
                Step::Port(p) => {
                    assert!(p < RULE0 as usize, "fabric too large for u16 tables");
                    p as u16
                }
                Step::Up(i) => {
                    assert!(
                        i < rules.len() && i <= (u16::MAX - RULE0) as usize,
                        "no rule {i}"
                    );
                    RULE0 + i as u16
                }
            })
            .collect();
        TreeRouter {
            table,
            rules,
            up_lo: uplinks.start,
            n_up: uplinks.len(),
            mode,
        }
    }

    /// A switch without uplinks: the port is a function of the destination.
    pub(crate) fn by_dst(n_hosts: usize, port_of: impl Fn(usize) -> usize) -> TreeRouter {
        TreeRouter::new(
            n_hosts,
            |d| Step::Port(port_of(d)),
            0..0,
            Vec::new(),
            RouteMode::SourceTag,
        )
    }
}

impl Router for TreeRouter {
    fn route(&self, pkt: &Packet, rng: &mut SmallRng) -> usize {
        let e = self.table[pkt.dst as usize];
        if e < RULE0 {
            return e as usize;
        }
        let off = match self.mode {
            RouteMode::RandomUplinks => rng.gen_range(0..self.n_up),
            RouteMode::SourceTag => {
                let rule = &self.rules[(e - RULE0) as usize];
                let tag = pkt.path as usize;
                match rule.get(tag) {
                    Some(&off) => off as usize,
                    None => rule[tag % rule.len()] as usize,
                }
            }
        };
        self.up_lo + off
    }

    /// Scan the uplinks starting just past the dead choice, wrapping, and
    /// take the first live one. Uplinks in a tree fabric are
    /// interchangeable for delivery — routing above this tier is purely
    /// destination-based — so only the tag's spreading is bent around the
    /// dead link. A dead port that is not an uplink has no equivalent: the
    /// packet keeps heading for the dead queue, which drops or bounces it.
    fn reroute(&self, _pkt: &Packet, chosen: usize, up: &[bool]) -> Option<usize> {
        let (lo, n) = (self.up_lo, self.n_up);
        if chosen < lo || chosen >= lo + n {
            return None;
        }
        (1..n).map(|i| lo + (chosen - lo + i) % n).find(|&p| up[p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTreeCfg, LeafSpineCfg};
    use ndp_net::packet::{HostId, Packet};
    use rand::SeedableRng;

    fn pkt(dst: HostId, path: u32) -> Packet {
        let mut p = Packet::data(0, dst, 1, 0, 1000);
        p.path = path;
        p
    }

    /// Tags `0..2 * n_tags` (the table and one wrap past it) plus the tags
    /// 64 TCP-family flows carry, which only take the wrap path.
    fn tags(n_tags: usize) -> Vec<u32> {
        let hashed = (0..64).map(flow_hash_path);
        (0..2 * n_tags as u32).chain(hashed).collect()
    }

    /// `r` routes every `(dst, tag)` as `want` does.
    fn check(r: &TreeRouter, n_hosts: usize, n_tags: usize, want: impl Fn(usize, usize) -> usize) {
        let (mut rng, tags) = (SmallRng::seed_from_u64(1), tags(n_tags));
        for dst in 0..n_hosts {
            for &tag in &tags {
                let got = r.route(&pkt(dst as HostId, tag), &mut rng);
                assert_eq!(got, want(dst, tag as usize), "dst {dst} tag {tag}");
            }
        }
    }

    #[test]
    fn every_fattree_tier_matches_its_tag_arithmetic() {
        for k in [4, 6, 8] {
            let cfg = FatTreeCfg::new(k).with_hosts_per_tor(16);
            let (ix, half, hpt, n) = (cfg.index(), k / 2, 16, cfg.n_hosts());
            let (pod_of, tor_of) = (|d: usize| d / (hpt * half), |d: usize| d / hpt % half);
            for pod in 0..k {
                for t in 0..half {
                    let r = ix.tor_router(pod, t, RouteMode::SourceTag);
                    check(&r, n, half * half, |d, tag| {
                        if pod_of(d) != pod {
                            hpt + (tag / half) % half
                        } else if tor_of(d) != t {
                            hpt + tag % half
                        } else {
                            d % hpt
                        }
                    });
                }
                let r = ix.agg_router(pod, RouteMode::SourceTag);
                check(&r, n, half * half, |d, tag| {
                    if pod_of(d) == pod {
                        tor_of(d)
                    } else {
                        half + tag % half
                    }
                });
            }
            check(&ix.core_router(), n, half * half, |d, _| pod_of(d));
        }
    }

    #[test]
    fn leaf_router_matches_arithmetic_form() {
        let cfg = LeafSpineCfg::new(6, 4, 3);
        let (hpt, n_spines, n) = (4, 3, cfg.n_hosts());
        for tor in 0..6 {
            check(&cfg.leaf_router(tor), n, n_spines, |d, tag| {
                if d / hpt == tor {
                    d % hpt
                } else {
                    hpt + tag % n_spines
                }
            });
        }
        check(&cfg.spine_router(), n, n_spines, |d, _| d / hpt);
    }

    #[test]
    fn leaf_reroute_skips_dead_uplinks_and_leaves_downlinks_alone() {
        let r = LeafSpineCfg::new(6, 4, 3).leaf_router(0); // 0..4 down, 4..7 up
        let mut up = vec![true; 7];
        up[5] = false;
        assert_eq!(r.reroute(&pkt(9, 1), 5, &up), Some(6), "next uplink");
        up[6] = false;
        assert_eq!(r.reroute(&pkt(9, 1), 5, &up), Some(4), "wraps around");
        up[4] = false;
        assert_eq!(r.reroute(&pkt(9, 1), 5, &up), None, "all uplinks dead");
        assert_eq!(
            r.reroute(&pkt(1, 0), 1, &[true; 7]),
            None,
            "downlinks have no equivalent"
        );
        let spine = LeafSpineCfg::new(6, 4, 3).spine_router();
        assert_eq!(
            spine.reroute(&pkt(9, 1), 2, &[false; 6]),
            None,
            "no uplinks"
        );
    }

    #[test]
    fn table_router_is_the_tabulated_function() {
        let r = TreeRouter::by_dst(12, |d| d / 4);
        let mut rng = SmallRng::seed_from_u64(1);
        for dst in 0..12 {
            assert_eq!(r.route(&pkt(dst as HostId, 0), &mut rng), dst / 4);
        }
    }
}
