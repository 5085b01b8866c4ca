//! Figure 22: permutation throughput when one core↔agg link renegotiates
//! from 10 Gb/s to 1 Gb/s (asymmetric failure) on the 128-host FatTree.
//!
//! Expected: NDP (with the §3.2.3 path penalty) and MPTCP route around the
//! sick link; NDP *without* the penalty keeps spraying onto it and a
//! band of flows collapses to ~3 Gb/s; a few DCTCP flows hash onto the
//! link and get crushed (~0.4 Gb/s).
//!
//! Since every host NIC serves its flows round-robin, MPTCP's slowest
//! flow reads 2.76 → 2.91 Gb/s at quick scale; DCTCP's stays 0.83, and
//! the ordering holds. Since DCTCP's `alpha` starts at 1 and its RTO
//! expiry goes back N, DCTCP's slowest flow reads 0.94 Gb/s and its mean
//! 4.51 (4.25); the ordering holds. Since MPTCP's subflows react to the
//! shared NewReno machine as TCP does, MPTCP's mean reads 6.770 Gb/s
//! (6.775) and its slowest flow stays 2.91.

use ndp_metrics::Table;
use ndp_net::queue::LinkClass;
use ndp_sim::{Speed, Time};
use ndp_topology::{
    link_index, ChaosController, FabricEvent, FabricOp, FatTree, FatTreeCfg, Topology,
};

use crate::harness::{permutation_flows, FlowSet, Proto, Scale};

pub struct Report {
    /// (protocol, sorted per-flow Gb/s)
    pub results: Vec<(Proto, Vec<f64>)>,
}

fn trial(proto: Proto, scale: Scale, seed: u64) -> Vec<f64> {
    let k = match scale {
        Scale::Paper => 8, // 128 hosts, as in the paper
        Scale::Quick => 4,
    };
    let cfg = FatTreeCfg::new(k).with_fabric(proto.fabric());
    let flows = permutation_flows(cfg.n_hosts(), seed);
    let mut set = FlowSet::attach(seed, proto, &flows, |w| {
        let ft = FatTree::build(w, cfg);
        // Degrade pod 0, agg 0, uplink 0 in both directions, through the
        // fabric-chaos machinery: two `LinkDegrade` events at t=0 walked by
        // a `ChaosController`. The controller's wake is posted before any
        // flow attaches, so the renegotiated speed applies before the first
        // packet is serialized — same outcome as degrading the queues by
        // hand, one less ad-hoc failure path.
        let links = ft.links();
        let schedule: Vec<FabricEvent> = ["agg_up[0][0]", "core_down[0][0]"]
            .iter()
            .map(|label| {
                let link =
                    link_index(&links, label).expect("k>=4 FatTree has the degraded core link");
                debug_assert!(matches!(
                    links[link].class,
                    LinkClass::AggUp | LinkClass::CoreDown
                ));
                FabricEvent {
                    at: Time::ZERO,
                    op: FabricOp::LinkDegrade {
                        link,
                        speed: Speed::gbps(1),
                    },
                }
            })
            .collect();
        ChaosController::install_into(w, &ft, schedule);
        Box::new(ft)
    });
    let duration = match scale {
        Scale::Paper => Time::from_ms(30),
        Scale::Quick => Time::from_ms(12),
    };
    set.world.run_until(duration);
    let mut per_flow: Vec<f64> = flows.iter().map(|f| set.gbps(f, duration)).collect();
    per_flow.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_flow
}

pub fn run(scale: Scale) -> Report {
    let protos = [Proto::Ndp, Proto::NdpNoPenalty, Proto::Mptcp, Proto::Dctcp];
    Report {
        results: protos.iter().map(|&p| (p, trial(p, scale, 19))).collect(),
    }
}

impl Report {
    pub fn min(&self, proto: Proto) -> f64 {
        self.results
            .iter()
            .find(|(p, _)| *p == proto)
            .and_then(|(_, v)| v.first().copied())
            .unwrap_or(f64::NAN)
    }

    pub fn mean(&self, proto: Proto) -> f64 {
        self.results
            .iter()
            .find(|(p, _)| *p == proto)
            .map(|(_, v)| v.iter().sum::<f64>() / v.len() as f64)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["protocol", "min Gb/s", "p10 Gb/s", "mean Gb/s", "max Gb/s"]);
        for (p, v) in &self.results {
            t.row([
                p.label().to_string(),
                format!("{:.2}", v[0]),
                format!("{:.2}", v[v.len() / 10]),
                format!("{:.2}", self.mean(*p)),
                format!("{:.2}", v[v.len() - 1]),
            ]);
        }
        write!(
            f,
            "Figure 22 — permutation with a core link degraded to 1 Gb/s\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "slowest flow with degraded core link: NDP {:.1} Gb/s, NDP-no-penalty {:.1}, MPTCP {:.1}, DCTCP {:.1}",
            self.min(Proto::Ndp),
            self.min(Proto::NdpNoPenalty),
            self.min(Proto::Mptcp),
            self.min(Proto::Dctcp)
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([(
            "protocols",
            Json::arr(self.results.iter().map(|(p, v)| {
                Json::obj([
                    ("proto", Json::str(p.label())),
                    ("mean_gbps", Json::num(self.mean(*p))),
                    (
                        "per_flow_gbps_sorted",
                        Json::arr(v.iter().map(|&g| Json::num(g))),
                    ),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_penalty_rescues_ndp() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig22", &rep);
        let with = rep.min(Proto::Ndp);
        let without = rep.min(Proto::NdpNoPenalty);
        assert!(
            with > without + 0.5,
            "penalty must lift the worst flow: with {with:.2} vs without {without:.2}"
        );
        assert!(rep.mean(Proto::Ndp) > 0.8 * rep.mean(Proto::NdpNoPenalty));
        // DCTCP's unluckiest flow is crushed by the 1G link.
        assert!(
            rep.min(Proto::Dctcp) < 1.5,
            "DCTCP min {:.2}",
            rep.min(Proto::Dctcp)
        );
    }
}
