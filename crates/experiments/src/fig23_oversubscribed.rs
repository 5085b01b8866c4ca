//! Figure 23: the Facebook web workload on a 4:1 oversubscribed FatTree
//! (512 servers, 16 per ToR), closed-loop flow arrivals, moderate (5
//! connections/host) and high (10 connections/host) load; FCT CDFs for
//! NDP vs DCTCP, plus the ToR trim fraction NDP sustains.
//!
//! Expected: at moderate load (~40 % of NDP packets trimmed at the ToR
//! uplinks) NDP's median FCT is about half of DCTCP's; at high load (~70 %
//! trimmed) NDP still edges DCTCP and — the key claim — does **not**
//! collapse: packets that clear the ToR almost always reach the receiver.
//!
//! Each connection is one closed-loop chain on the lifecycle driver
//! (`driver::Chains`): a flow attaches when it starts, a think gap after
//! its predecessor completes, and detaches when it completes.
//!
//! Measured at quick scale, NDP does not collapse: its high-load p90 is
//! 0.327 ms, well under one `NDP_RTO`, because a pull that overtakes its
//! NACK is banked and pays for the resend when the NACK arrives. It does
//! not edge DCTCP at high load, though: its median is 0.064 ms against
//! DCTCP's 0.056 ms (0.055 before DCTCP's host NIC served its flows
//! round-robin; ROADMAP item 10). Since DCTCP's `alpha` starts at 1 and
//! its RTO expiry goes back N, DCTCP's high-load median is 0.043 ms and
//! its p90 0.218 ms, both below NDP's; at moderate load NDP's median
//! stays ahead, 0.020 against 0.021 ms. On the driver, flow ids count in
//! start order rather than plan order, so DCTCP's flow-hashed paths
//! changed, and no chained flow starts twice: the four medians, the NDP
//! 5-connection row and the ToR-up trim (14.7% at 10 connections) did not
//! move; DCTCP's high-load p90 went 0.246 → 0.218 ms and NDP's
//! 0.334 → 0.327 ms.
//!
//! The ToR-up trim is far below the paper's: 4.6 % and 14.7 % at quick
//! scale (4.8 % and 18.1 % at paper scale), not ~40 % and ~70 %. It is
//! higher at high load, which is all the test asserts of it.

use std::sync::Arc;

use ndp_metrics::{Cdf, Table};
use ndp_net::queue::LinkClass;
use ndp_sim::Time;
use ndp_topology::FatTreeCfg;
use ndp_workloads::{closed_loop_gap_ps, FlowLeg, FlowSizeDist};

use crate::driver::{run_driven, Chains, DrivenSpec, Instruments};
use crate::harness::{Proto, Scale};
use crate::topo::TopoSpec;

pub struct LoadResult {
    pub proto: Proto,
    pub conns_per_host: usize,
    pub fct_cdf: Cdf,
    pub tor_up_trim_fraction: f64,
}

pub struct Report {
    pub results: Vec<LoadResult>,
}

fn trial(proto: Proto, scale: Scale, conns_per_host: usize, seed: u64) -> LoadResult {
    let (k, hpt) = match scale {
        Scale::Paper => (8, 16), // 512 hosts, 4:1 oversubscribed
        Scale::Quick => (4, 8),  // 64 hosts, 4:1 oversubscribed
    };
    let topo = TopoSpec::fattree(FatTreeCfg::new(k).with_hosts_per_tor(hpt).with_mtu(1500));
    let horizon = match scale {
        Scale::Paper => Time::from_ms(60),
        Scale::Quick => Time::from_ms(30),
    };
    let cell = format!("conns{conns_per_host}");
    let spec = DrivenSpec {
        proto,
        topo: &topo,
        seed,
        sched: None,
        warmup: Time::ZERO,
        arrivals_end: horizon,
        drain: Time::ZERO,
        chunk_of: horizon,
        request_trees: false,
        cell: &cell,
    };
    let flows_per_slot = match scale {
        Scale::Paper => 12,
        Scale::Quick => 6,
    };
    let mut fabric = None;
    // FCT = completion - actual start, where a chained flow starts its
    // think gap after its predecessor completes; this includes all
    // queueing delay, which is where DCTCP's deep buffers show up.
    let mut samples = Vec::new();
    let (_, world) = run_driven(
        &spec,
        |_, ft, _| {
            fabric = Some(Arc::clone(ft));
            let n = ft.n_hosts();
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
            let dist = FlowSizeDist::FacebookWeb;
            // One chain per host x connection slot.
            let mut chains = Vec::with_capacity(n * conns_per_host);
            for host in 0..n {
                for _slot in 0..conns_per_host {
                    let mut first = Time::ZERO;
                    let mut legs = Vec::with_capacity(flows_per_slot);
                    for j in 0..flows_per_slot {
                        // No rack locality: uniformly random remote destination.
                        let dst =
                            ndp_workloads::uniform_where(n, &mut rng, |d| d / hpt != host / hpt);
                        let bytes = dist.sample(&mut rng).max(64);
                        let gap = Time::from_ps(closed_loop_gap_ps(1_000_000_000, &mut rng));
                        if j == 0 {
                            first =
                                Time::from_ps(rand::Rng::gen_range(&mut rng, 0..1_000_000_000u64));
                        }
                        let (src, dst) = (host as u32, dst as u32);
                        legs.push((FlowLeg { src, dst, bytes }, gap));
                    }
                    chains.push((first, legs));
                }
            }
            (Box::new(Chains::new(chains)), Instruments::default())
        },
        |c| samples.push(c.latency.as_ms()),
    );
    let stats = fabric.expect("set-up ran").stats_by_class(&world);
    let tor_up = stats
        .iter()
        .find(|(c, _)| *c == LinkClass::TorUp)
        .map(|(_, s)| s);
    let trim_fraction = tor_up
        .map(|s| {
            let attempts = s.forwarded_pkts + s.dropped_data;
            if attempts == 0 {
                0.0
            } else {
                s.trimmed as f64 / attempts as f64
            }
        })
        .unwrap_or(0.0);
    LoadResult {
        proto,
        conns_per_host,
        fct_cdf: Cdf::from_samples(samples),
        tor_up_trim_fraction: trim_fraction,
    }
}

pub fn run(scale: Scale) -> Report {
    let mut results = Vec::new();
    for &(conns, seed) in &[(5usize, 41u64), (10, 43)] {
        results.push(trial(Proto::Ndp, scale, conns, seed));
        results.push(trial(Proto::Dctcp, scale, conns, seed));
    }
    Report { results }
}

impl Report {
    pub fn median(&self, proto: Proto, conns: usize) -> f64 {
        self.results
            .iter()
            .find(|r| r.proto == proto && r.conns_per_host == conns)
            .map(|r| {
                if r.fct_cdf.is_empty() {
                    f64::NAN
                } else {
                    r.fct_cdf.median()
                }
            })
            .unwrap_or(f64::NAN)
    }

    pub fn trim_fraction(&self, conns: usize) -> f64 {
        self.results
            .iter()
            .find(|r| r.proto == Proto::Ndp && r.conns_per_host == conns)
            .map(|r| r.tor_up_trim_fraction)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "protocol",
            "conns/host",
            "median (ms)",
            "p90 (ms)",
            "p99 (ms)",
            "ToR-up trim %",
            "flows",
        ]);
        for r in &self.results {
            if r.fct_cdf.is_empty() {
                continue;
            }
            t.row([
                r.proto.label().to_string(),
                r.conns_per_host.to_string(),
                format!("{:.3}", r.fct_cdf.median()),
                format!("{:.3}", r.fct_cdf.percentile(0.90)),
                format!("{:.3}", r.fct_cdf.percentile(0.99)),
                format!("{:.1}", 100.0 * r.tor_up_trim_fraction),
                r.fct_cdf.len().to_string(),
            ]);
        }
        write!(
            f,
            "Figure 23 — Facebook web workload, 4:1 oversubscribed fabric\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "median FCT moderate load: NDP {:.2}ms vs DCTCP {:.2}ms (trim {:.0}%); high load: NDP {:.2}ms vs DCTCP {:.2}ms (trim {:.0}%)",
            self.median(Proto::Ndp, 5),
            self.median(Proto::Dctcp, 5),
            100.0 * self.trim_fraction(5),
            self.median(Proto::Ndp, 10),
            self.median(Proto::Dctcp, 10),
            100.0 * self.trim_fraction(10)
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        use crate::registry::{cdf_json, CDF_POINTS};
        Json::obj([(
            "results",
            Json::arr(self.results.iter().map(|r| {
                Json::obj([
                    ("proto", Json::str(r.proto.label())),
                    ("conns_per_host", Json::num(r.conns_per_host as f64)),
                    ("samples", Json::num(r.fct_cdf.len() as f64)),
                    ("tor_up_trim_fraction", Json::num(r.tor_up_trim_fraction)),
                    ("fct_ms", cdf_json(&r.fct_cdf, CDF_POINTS)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::host::NDP_RTO;

    #[test]
    fn ndp_survives_oversubscription_and_beats_dctcp_at_moderate_load() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig23", &rep);
        let ndp5 = rep.median(Proto::Ndp, 5);
        let dctcp5 = rep.median(Proto::Dctcp, 5);
        assert!(ndp5.is_finite() && dctcp5.is_finite());
        assert!(
            ndp5 < dctcp5,
            "NDP {ndp5:.3}ms must beat DCTCP {dctcp5:.3}ms"
        );
        // Trimming is substantial under oversubscription but NDP does not
        // collapse: high-load median stays within ~4x moderate-load median.
        assert!(rep.trim_fraction(10) > rep.trim_fraction(5));
        let ndp10 = rep.median(Proto::Ndp, 10);
        assert!(
            ndp10 < ndp5 * 6.0 + 1.0,
            "high load {ndp10:.3} vs moderate {ndp5:.3}"
        );
        // A trimmed packet is resent one pull later, not one RTO later
        // (§3.2): at high load nine flows in ten finish inside an RTO.
        let high = rep
            .results
            .iter()
            .find(|r| r.proto == Proto::Ndp && r.conns_per_host == 10);
        let p90 = high
            .expect("a high-load NDP trial")
            .fct_cdf
            .percentile(0.90);
        assert!(
            p90 < NDP_RTO.as_ms(),
            "high-load NDP p90 {p90:.3}ms is an RTO or more"
        );
    }
}
