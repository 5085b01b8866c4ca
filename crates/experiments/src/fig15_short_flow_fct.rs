//! Figure 15: FCT of repeated 90 KB transfers between two otherwise-idle
//! hosts while every other host sources four long flows to random
//! destinations — the standing-queue test.
//!
//! Expected ordering (medians): NDP ≪ DCTCP ≤ DCQCN ≪ MPTCP, because NDP's
//! in-network buffers are 8 packets while DCTCP's marking holds ~30 and
//! MPTCP greedily fills the 200-packet buffers.
//!
//! Measured at quick scale since every host NIC serves its flows
//! round-robin: medians NDP 0.155, DCTCP 0.488 → 0.535, MPTCP 0.885 →
//! 0.659 ms (a probe's packets no longer wait behind its host's four long
//! flows). NDP ≪ DCTCP < MPTCP holds; DCQCN completes no probe (ROADMAP
//! item 2). Since DCTCP's `alpha` starts at 1 and its RTO expiry goes
//! back N, its median reads 0.429 ms (0.535 before) and its p99 1.180 ms
//! (2.109); the ordering holds.
//!
//! Since MPTCP's subflows react to the shared NewReno machine exactly as
//! TCP does, MPTCP's median read 0.972 ms (0.659 before). The
//! background's subflows inflate on duplicate ACKs and refill after a
//! partial ACK, either of which alone raises the median (go-back-N alone
//! leaves it at 0.659; ROADMAP 9(e)).
//!
//! The probe chain runs on the lifecycle driver (`driver::Chains`): each
//! probe attaches at its start and detaches at its completion, and starts
//! once. Before, every probe was attached at t=0 and started by both ends'
//! completion wakes of its predecessor, so 14 of 15 MPTCP probes re-rolled
//! all eight subflow paths mid-transfer. Medians now read NDP 0.149 ms
//! (0.155), DCTCP 0.429 ms (unchanged) and MPTCP 1.068 ms (0.972), MPTCP's
//! p90 1.790 ms (1.997) and its max 12.675 ms (10.121). A 90 KB probe is
//! one or two segments per subflow, too few for three duplicate ACKs, so
//! a lost probe segment waits out the 10 ms RTO floor: that is the max.
//! NDP ≪ DCTCP < MPTCP holds, as the paper expects of a transport that
//! fills the 200-packet buffers, and NDP's worst probe stays under 1 ms.
//! At paper scale (60 probes) MPTCP's median reads 1.400 ms (1.333) and
//! its p90 2.252 ms (10.307): fewer probes wait out the RTO floor.

use ndp_metrics::{Cdf, Table};
use ndp_net::packet::HostId;
use ndp_sim::Time;
use ndp_topology::FatTreeCfg;
use ndp_workloads::FlowLeg;

use crate::driver::{run_driven, Chains, DrivenSpec, Instruments};
use crate::harness::{attach_on, FlowSpec, Proto, Scale, LONG_FLOW};
use crate::topo::TopoSpec;

pub struct Report {
    pub cdfs: Vec<(Proto, Cdf)>,
}

fn probe_fcts(proto: Proto, scale: Scale, seed: u64) -> Cdf {
    // Probes: one chain of 90KB transfers A->B, the first at 1 ms and
    // each later one 100 us after the previous completes. The run ends
    // once the last probe has landed (or at the cap).
    let n_probes = match scale {
        Scale::Paper => 60,
        Scale::Quick => 15,
    };
    let cap = match scale {
        Scale::Paper => Time::from_secs(5),
        Scale::Quick => Time::from_secs(2),
    };
    let topo = TopoSpec::fattree(FatTreeCfg::new(scale.big_k()));
    let spec = DrivenSpec {
        proto,
        topo: &topo,
        seed,
        sched: None,
        warmup: Time::ZERO,
        // No open-loop window: the run may end as soon as the chain is done.
        arrivals_end: Time::ZERO,
        drain: cap,
        // 1 ms chunks: the run stops within 1 ms of the last probe.
        chunk_of: Time::ZERO,
        request_trees: false,
        cell: "",
    };
    let mut samples = Vec::new();
    run_driven(
        &spec,
        |world, ft, _| {
            let n = ft.n_hosts();
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
            // Background: every host except the two probes sources long
            // flows, numbered from 1000 so they never share an id with a
            // probe (the driver numbers those from 1).
            let probe_a = 0usize;
            let probe_b = n / 2; // different pod
            let mut flow_id = 1_000u64;
            let bg_per_host = match scale {
                Scale::Paper => 4,
                Scale::Quick => 2,
            };
            for src in 0..n {
                if src == probe_a || src == probe_b {
                    continue;
                }
                for _ in 0..bg_per_host {
                    let dst = ndp_workloads::uniform_where(n, &mut rng, |d| {
                        d != src && d != probe_a && d != probe_b
                    });
                    let spec = FlowSpec::new(flow_id, src as HostId, dst as HostId, LONG_FLOW);
                    flow_id += 1;
                    attach_on(world, ft.as_ref(), proto, &spec);
                }
            }
            let probe = FlowLeg {
                src: probe_a as HostId,
                dst: probe_b as HostId,
                bytes: 90_000,
            };
            let chain = vec![(probe, Time::from_us(100)); n_probes];
            let source = Chains::new(vec![(Time::from_ms(1), chain)]);
            (Box::new(source), Instruments::default())
        },
        |c| samples.push(c.latency.as_ms()),
    );
    Cdf::from_samples(samples)
}

pub fn run(scale: Scale) -> Report {
    let protos = [Proto::Ndp, Proto::Dctcp, Proto::Dcqcn, Proto::Mptcp];
    Report {
        cdfs: protos
            .iter()
            .map(|&p| (p, probe_fcts(p, scale, 17)))
            .collect(),
    }
}

impl Report {
    /// Median probe FCT in ms; NaN when the protocol is absent or none of
    /// its probes completed inside the horizon.
    pub fn median(&self, proto: Proto) -> f64 {
        self.cdfs
            .iter()
            .find(|(p, _)| *p == proto)
            .map_or(f64::NAN, |(_, c)| c.percentile_or_nan(0.5))
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["protocol", "median (ms)", "p90 (ms)", "p99 (ms)", "samples"]);
        for (p, c) in &self.cdfs {
            if c.is_empty() {
                t.row([
                    p.label().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "0".into(),
                ]);
                continue;
            }
            t.row([
                p.label().to_string(),
                format!("{:.3}", c.median()),
                format!("{:.3}", c.percentile(0.90)),
                format!("{:.3}", c.percentile(0.99)),
                c.len().to_string(),
            ]);
        }
        write!(
            f,
            "Figure 15 — 90KB FCTs under background load\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let ms = |proto| match self.median(proto) {
            m if m.is_finite() => format!("{m:.2}ms"),
            _ => "-".to_string(),
        };
        format!(
            "median 90KB FCT: NDP {}, DCTCP {}, DCQCN {}, MPTCP {}",
            ms(Proto::Ndp),
            ms(Proto::Dctcp),
            ms(Proto::Dcqcn),
            ms(Proto::Mptcp)
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        use crate::registry::{cdf_json, CDF_POINTS};
        Json::obj([
            ("unit", Json::str("ms")),
            (
                "protocols",
                Json::arr(self.cdfs.iter().map(|(p, c)| {
                    Json::obj([
                        ("proto", Json::str(p.label())),
                        ("samples", Json::num(c.len() as f64)),
                        ("fct", cdf_json(c, CDF_POINTS)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Report as _;

    /// A protocol whose probes all starve (quick-scale DCQCN completes 0 of
    /// 15) renders as `-` / an empty array everywhere, never a panic.
    #[test]
    fn a_protocol_with_no_samples_renders_as_a_dash() {
        let rep = Report {
            cdfs: vec![
                (Proto::Ndp, Cdf::from_samples([0.15, 0.16, 0.17])),
                (Proto::Dcqcn, Cdf::new()),
            ],
        };
        assert_eq!(
            rep.headline(),
            "median 90KB FCT: NDP 0.16ms, DCTCP -, DCQCN -, MPTCP -"
        );
        let table = rep.to_string();
        assert!(table.contains("NDP") && table.contains("0.160"), "{table}");
        let dcqcn = table.lines().find(|l| l.contains("DCQCN")).expect("row");
        assert_eq!(dcqcn.matches('-').count(), 3, "{dcqcn}");
        let json = crate::registry::Report::to_json(&rep).render();
        assert!(
            json.contains(r#"{"proto":"DCQCN","samples":0,"fct":[]}"#),
            "{json}"
        );
    }

    #[test]
    fn ndp_beats_dctcp_beats_mptcp() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig15", &rep);
        let ndp = rep.median(Proto::Ndp);
        let dctcp = rep.median(Proto::Dctcp);
        let mptcp = rep.median(Proto::Mptcp);
        assert!(ndp < dctcp, "NDP {ndp:.3}ms < DCTCP {dctcp:.3}ms");
        assert!(dctcp < mptcp, "DCTCP {dctcp:.3}ms < MPTCP {mptcp:.3}ms");
        // NDP's worst case stays within ~2x the unloaded transfer time.
        let c = &rep.cdfs.iter().find(|(p, _)| *p == Proto::Ndp).unwrap().1;
        assert!(
            c.percentile(1.0) < 1.0,
            "NDP p100 {:.3}ms",
            c.percentile(1.0)
        );
    }
}
