//! Figure 4: CDF of per-packet delivery latency (first send → ACKed data
//! arrival) for permutation, random, and 100:1 incast traffic on the
//! 432-host FatTree.
//!
//! Expected shape: permutation and random medians around ~100 µs; the
//! 135 KB incast (whole transfer inside the first RTT) shows heavy
//! trimming with a long tail; the 1350 KB incast settles into pull-paced
//! delivery with a low median.

use ndp_metrics::{Cdf, Table};
use ndp_net::packet::{HostId, PacketBody};
use ndp_sim::Time;
use ndp_topology::{FatTree, FatTreeCfg};

use crate::harness::{incast_flows, FlowSet, FlowSpec, Proto, Scale, Tap, LONG_FLOW};

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

/// Run NDP `flows` on the 432-host-network FatTree to `horizon` with every
/// receiver tapped, and pool their delivery latencies (us).
fn tapped_run(scale: Scale, seed: u64, flows: &[FlowSpec], horizon: Time) -> Cdf {
    let cfg = FatTreeCfg::new(scale.big_k());
    let mut set = FlowSet::attach(seed, Proto::Ndp, flows, |w| {
        Box::new(FatTree::build(w, cfg))
    });
    for f in flows {
        Tap::install(
            &mut set.world,
            set.topo.host(f.dst),
            f.flow,
            delivery_latency,
        );
    }
    set.world.run_until(horizon);
    let samples = flows.iter().flat_map(|f| {
        let taken = Tap::samples(&set.world, set.topo.host(f.dst), f.flow);
        taken.iter().map(|t| t.as_ps() as f64 / 1e6)
    });
    Cdf::from_samples(samples)
}

fn tm_run(scale: Scale, seed: u64, random: bool, horizon: Time) -> Cdf {
    let n = FatTreeCfg::new(scale.big_k()).n_hosts();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    let dsts = if random {
        ndp_workloads::random_matrix(n, &mut rng)
    } else {
        ndp_workloads::permutation(n, &mut rng)
    };
    let flows: Vec<FlowSpec> = (dsts.into_iter().enumerate())
        .map(|(src, dst)| FlowSpec::new(src as u64 + 1, src as HostId, dst as HostId, LONG_FLOW))
        .collect();
    tapped_run(scale, seed, &flows, horizon)
}

fn incast_traced(scale: Scale, size: u64, seed: u64) -> Cdf {
    let n = FatTreeCfg::new(scale.big_k()).n_hosts();
    let n_senders = match scale {
        Scale::Paper => 100,
        Scale::Quick => 50,
    };
    let flows = incast_flows(n, n_senders, size, seed);
    tapped_run(scale, seed, &flows, Time::from_secs(2))
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

    /// A packet's latency is sampled once, at its first untrimmed arrival:
    /// a copy of an already-delivered data packet, posted to the receiver
    /// mid-flow, adds no sample. (No quick fig04 run delivers a duplicate,
    /// so its document cannot tell the two rules apart.)
    #[test]
    fn a_duplicate_arrival_adds_no_sample() {
        use ndp_net::packet::{Packet, HEADER_BYTES};
        use ndp_sim::Speed;
        use ndp_topology::{BackToBack, QueueSpec};
        let pkts = 100;
        let flow = FlowSpec::new(1, 0, 1, pkts * u64::from(9000 - HEADER_BYTES));
        let mut set = FlowSet::attach(1, Proto::Ndp, &[flow], |w| {
            let (speed, delay, fabric) =
                (Speed::gbps(10), Time::from_us(1), QueueSpec::ndp_default());
            Box::new(BackToBack::build(
                w,
                speed,
                delay,
                9000,
                fabric,
                Default::default(),
            ))
        });
        let rx = set.topo.host(1);
        Tap::install(&mut set.world, rx, 1, delivery_latency);
        set.world.run_until(Time::from_us(300));
        assert!(set.rx(&flow).delivered_bytes > 0 && set.rx(&flow).completion_time.is_none());
        let now = set.world.now();
        set.world.post(now, rx, Packet::data(0, 1, 1, 0, 9000));
        set.world.run_until(Time::from_ms(5));
        assert_eq!(set.rx(&flow).delivered_bytes, flow.size);
        assert_eq!(Tap::samples(&set.world, rx, 1).len() as u64, pkts);
    }

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
