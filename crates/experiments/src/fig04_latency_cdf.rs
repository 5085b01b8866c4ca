//! Figure 4: CDF of per-packet delivery latency (first send → ACKed data
//! arrival) for permutation, random, and 100:1 incast traffic on the
//! 432-host FatTree.
//!
//! Expected shape: permutation and random medians around ~100 µs; the
//! 135 KB incast (whole transfer inside the first RTT) shows heavy
//! trimming with a long tail; the 1350 KB incast settles into pull-paced
//! delivery with a low median.

use ndp_metrics::{Cdf, Table};
use ndp_net::packet::{HostId, Packet, PacketBody};
use ndp_sim::{Time, World};
use ndp_topology::{FatTree, FatTreeCfg, Topology};

use crate::harness::{attach_on, FlowSpec, Proto, Scale, Tap};

pub struct Report {
    pub permutation: Cdf,
    pub random: Cdf,
    pub incast_135k: Cdf,
    pub incast_1350k: Cdf,
}

/// One sample per packet that grew the receiver's delivered bytes: its
/// one-way delivery latency (original send → first untrimmed arrival).
fn delivery_latency(pkt: &PacketBody, now: Time, delivered: u64) -> Option<Time> {
    (delivered > 0).then(|| now - pkt.sent)
}

/// Attach an NDP flow and tap its receiver for delivery latencies.
fn attach_tapped(world: &mut World<Packet>, ft: &FatTree, spec: &FlowSpec) {
    attach_on(world, ft, Proto::Ndp, spec);
    Tap::install(
        world,
        ft.hosts[spec.dst as usize],
        spec.flow,
        delivery_latency,
    );
}

fn collect_latencies(world: &World<Packet>, ft: &FatTree, flows: &[(u64, usize)]) -> Cdf {
    let mut samples = Vec::new();
    for &(flow, dst) in flows {
        let taken = Tap::samples(world, ft.hosts[dst], flow);
        samples.extend(taken.iter().map(|t| t.as_ps() as f64 / 1e6));
    }
    Cdf::from_samples(samples)
}

fn tm_run(scale: Scale, seed: u64, random: bool, horizon: Time) -> Cdf {
    let cfg = FatTreeCfg::new(scale.big_k());
    let mut world: World<Packet> = World::new(seed);
    let ft = FatTree::build(&mut world, cfg);
    let n = ft.n_hosts();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    let dsts = if random {
        ndp_workloads::random_matrix(n, &mut rng)
    } else {
        ndp_workloads::permutation(n, &mut rng)
    };
    let mut flows = Vec::new();
    for (src, &dst) in dsts.iter().enumerate() {
        let flow = src as u64 + 1;
        let spec = FlowSpec::new(
            flow,
            src as HostId,
            dst as HostId,
            crate::harness::LONG_FLOW,
        );
        attach_tapped(&mut world, &ft, &spec);
        flows.push((flow, dst));
    }
    world.run_until(horizon);
    collect_latencies(&world, &ft, &flows)
}

fn incast_traced(scale: Scale, size: u64, seed: u64) -> Cdf {
    let cfg = FatTreeCfg::new(scale.big_k());
    let mut world: World<Packet> = World::new(seed);
    let ft = FatTree::build(&mut world, cfg);
    let n = ft.n_hosts();
    let n_senders = match scale {
        Scale::Paper => 100,
        Scale::Quick => 50,
    };
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    let workers = ndp_workloads::incast(0, n_senders, n, &mut rng);
    let mut flows = Vec::new();
    for (i, &w) in workers.iter().enumerate() {
        let flow = i as u64 + 1;
        let spec = FlowSpec::new(flow, w as HostId, 0, size);
        attach_tapped(&mut world, &ft, &spec);
        flows.push((flow, 0usize));
    }
    world.run_until(Time::from_secs(2));
    collect_latencies(&world, &ft, &flows)
}

pub fn run(scale: Scale) -> Report {
    let horizon = match scale {
        Scale::Paper => Time::from_ms(20),
        Scale::Quick => Time::from_ms(6),
    };
    Report {
        permutation: tm_run(scale, 11, false, horizon),
        random: tm_run(scale, 12, true, horizon),
        incast_135k: incast_traced(scale, 135_000, 13),
        incast_1350k: incast_traced(scale, 1_350_000, 14),
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "percentile",
            "perm (us)",
            "random (us)",
            "incast 135K",
            "incast 1350K",
        ]);
        for p in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.00] {
            t.row([
                format!("{:.0}%", p * 100.0),
                format!("{:.1}", self.permutation.percentile(p)),
                format!("{:.1}", self.random.percentile(p)),
                format!("{:.1}", self.incast_135k.percentile(p)),
                format!("{:.1}", self.incast_1350k.percentile(p)),
            ]);
        }
        write!(f, "Figure 4 — delivery latency CDF (us)\n{}", t.render())
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "median delivery latency: permutation {:.0}us, random {:.0}us, incast-135K {:.0}us, incast-1350K {:.0}us",
            self.permutation.median(),
            self.random.median(),
            self.incast_135k.median(),
            self.incast_1350k.median()
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        use crate::registry::{cdf_json, CDF_POINTS};
        Json::obj([
            ("unit", Json::str("us")),
            ("permutation", cdf_json(&self.permutation, CDF_POINTS)),
            ("random", cdf_json(&self.random, CDF_POINTS)),
            ("incast_135k", cdf_json(&self.incast_135k, CDF_POINTS)),
            ("incast_1350k", cdf_json(&self.incast_1350k, CDF_POINTS)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig04", &rep);
        // Loaded-but-uncongested traffic keeps sub-ms medians.
        assert!(
            rep.permutation.median() < 1_000.0,
            "perm median {}",
            rep.permutation.median()
        );
        assert!(rep.random.median() < 2_000.0);
        // The all-in-first-RTT incast has a far heavier tail than the
        // pull-paced large incast median.
        assert!(rep.incast_135k.percentile(0.99) > rep.incast_1350k.median());
        assert!(!rep.incast_1350k.is_empty() && !rep.incast_135k.is_empty());
    }
}
