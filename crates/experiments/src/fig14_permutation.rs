//! Figure 14: per-flow throughput under a permutation traffic matrix on
//! the 432-host FatTree, for NDP (8-pkt queues), MPTCP (8 subflows,
//! 200-pkt queues), DCTCP and DCQCN.
//!
//! Expected shape: DCTCP/DCQCN suffer per-flow-ECMP collisions (~40 %
//! utilization, slowest flows ≪ 1 Gb/s); MPTCP reaches ~89 %; NDP ~92 %+
//! with the tightest distribution (slowest flow ≈ 9 Gb/s).
//!
//! Every host here sends one flow and receives another; since every host
//! NIC serves its flows round-robin, the ACKs and MPTCP's subflows take
//! turns at it. Measured at quick scale, utilization MPTCP 76.1 → 75.5 %
//! (slowest flow 3.66 → 4.58 Gb/s), DCTCP 52.6 → 54.1 %; the ordering
//! holds. Since DCTCP's `alpha` starts at 1 and its RTO expiry goes back
//! N, DCTCP reads 54.6 % with its slowest flow at 0.71 Gb/s (0.79).
//! Since MPTCP's subflows react to the shared NewReno machine as TCP does,
//! MPTCP reads 75.50 % (75.52) with its slowest flow still at 4.58 Gb/s.

use ndp_metrics::Table;
use ndp_sim::Time;
use ndp_topology::FatTreeCfg;

use crate::harness::{permutation_world_run, PermutationResult, Proto, Scale};
use crate::sweep::{self, PermutationPoint};
use crate::topo::{TopoEntry, TopoSpec};

pub struct Report {
    pub results: Vec<(Proto, PermutationResult)>,
}

pub fn run(scale: Scale, topo: Option<&'static TopoEntry>) -> Report {
    let duration = match scale {
        Scale::Paper => Time::from_ms(30),
        Scale::Quick => Time::from_ms(10),
    };
    // Default fabric: the figure's own "big" FatTree (432 hosts at paper
    // scale); any registered topology can stand in via --topo.
    let fabric = match topo {
        Some(e) => e.spec(scale),
        None => TopoSpec::fattree(FatTreeCfg::new(scale.big_k())),
    };
    let protos = [Proto::Ndp, Proto::Mptcp, Proto::Dctcp, Proto::Dcqcn];
    let points: Vec<_> = protos
        .iter()
        .map(|&proto| PermutationPoint {
            proto,
            topo: fabric.clone(),
            duration,
            seed: 7,
            iw: None,
        })
        .collect();
    Report {
        results: protos
            .into_iter()
            .zip(sweep::run(&points, permutation_world_run))
            .collect(),
    }
}

impl Report {
    pub fn utilization(&self, proto: Proto) -> f64 {
        self.results
            .iter()
            .find(|(p, _)| *p == proto)
            .map(|(_, r)| r.utilization)
            .unwrap_or(0.0)
    }

    pub fn min_gbps(&self, proto: Proto) -> f64 {
        self.results
            .iter()
            .find(|(p, _)| *p == proto)
            .and_then(|(_, r)| r.per_flow_gbps.first().copied())
            .unwrap_or(0.0)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "protocol",
            "util %",
            "min Gb/s",
            "p10 Gb/s",
            "median Gb/s",
            "max Gb/s",
        ]);
        for (p, r) in &self.results {
            let v = &r.per_flow_gbps;
            let n = v.len();
            t.row([
                p.label().to_string(),
                format!("{:.1}", 100.0 * r.utilization),
                format!("{:.2}", v[0]),
                format!("{:.2}", v[n / 10]),
                format!("{:.2}", v[n / 2]),
                format!("{:.2}", v[n - 1]),
            ]);
        }
        write!(
            f,
            "Figure 14 — permutation per-flow throughput\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "utilization: NDP {:.0}%, MPTCP {:.0}%, DCTCP {:.0}%, DCQCN {:.0}%; slowest NDP flow {:.1} Gb/s",
            100.0 * self.utilization(Proto::Ndp),
            100.0 * self.utilization(Proto::Mptcp),
            100.0 * self.utilization(Proto::Dctcp),
            100.0 * self.utilization(Proto::Dcqcn),
            self.min_gbps(Proto::Ndp)
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([(
            "protocols",
            Json::arr(self.results.iter().map(|(p, r)| {
                Json::obj([
                    ("proto", Json::str(p.label())),
                    ("utilization", Json::num(r.utilization)),
                    (
                        "per_flow_gbps_sorted",
                        Json::arr(r.per_flow_gbps.iter().map(|&g| Json::num(g))),
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
    fn ranking_matches_paper() {
        let rep = run(Scale::Quick, None);
        crate::registry::document::pin("fig14", &rep);
        let ndp = rep.utilization(Proto::Ndp);
        let mptcp = rep.utilization(Proto::Mptcp);
        let dctcp = rep.utilization(Proto::Dctcp);
        let dcqcn = rep.utilization(Proto::Dcqcn);
        assert!(ndp > 0.85, "NDP utilization {ndp:.2}");
        assert!(ndp > mptcp, "NDP {ndp:.2} > MPTCP {mptcp:.2}");
        assert!(mptcp > dctcp, "MPTCP {mptcp:.2} > DCTCP {dctcp:.2}");
        assert!(
            dctcp < 0.75,
            "single-path ECMP collisions should cap DCTCP: {dctcp:.2}"
        );
        assert!(dcqcn < 0.75, "DCQCN is also single-path: {dcqcn:.2}");
        // Fairness: NDP's slowest flow stays near line rate.
        assert!(
            rep.min_gbps(Proto::Ndp) > 0.75 * 10.0 * ndp,
            "NDP min flow {:.2}",
            rep.min_gbps(Proto::Ndp)
        );
    }
}
