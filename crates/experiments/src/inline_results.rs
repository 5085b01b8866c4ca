//! The paper's inline (non-figure) quantitative claims:
//!
//! * §3.1.1 — sender-permutation load balancing vs switch-random ECMP:
//!   uplink trim fraction 0.01 % vs 2.4 %, and a capacity edge for
//!   sender-chosen paths.
//! * §6.2 — permutation utilization vs topology size with 8-packet
//!   buffers: 98 % at 128 hosts declining gently to 90 % at 8192.
//! * §6.2 — pHost: 432:1 incast ~10× slower than NDP; permutation
//!   utilization ~70 % vs NDP's 95 %.
//! * §6.1.1 — long-lived incast beside a permutation: NDP keeps ~92 %
//!   utilization, DCTCP ~40 %, DCQCN collapses (~17 %).
//!
//! Since every host NIC serves its flows round-robin, at quick scale
//! pHost's permutation utilization reads 0.805 → 0.769 and, beside the
//! incast, DCTCP's 0.576 → 0.556 and DCQCN's 0.074 → 0.098. Since DCTCP's
//! `alpha` starts at 1 and its RTO expiry goes back N, DCTCP's reads
//! 0.589 beside the incast.

use ndp_metrics::Table;
use ndp_net::packet::HostId;
use ndp_net::queue::LinkClass;
use ndp_sim::Time;
use ndp_topology::{FatTree, FatTreeCfg, RouteMode};

use crate::harness::{
    incast_run, permutation_flows, permutation_run, FlowSet, FlowSpec, Proto, Scale, LONG_FLOW,
};
use crate::topo::TopoSpec;

pub struct Report {
    pub lb_source_trim_pct: f64,
    pub lb_random_trim_pct: f64,
    pub lb_source_util: f64,
    pub lb_random_util: f64,
    pub scaling: Vec<(usize, f64)>,
    pub phost_incast_ms: f64,
    pub ndp_incast_ms: f64,
    pub phost_perm_util: f64,
    pub ndp_perm_util: f64,
    pub side_effect_utils: Vec<(Proto, f64)>,
}

/// §3.1.1 — run a permutation with sender-chosen paths vs per-packet
/// random ECMP and compare uplink (ToR-up + Agg-up) trim fractions.
fn lb_comparison(scale: Scale, mode: RouteMode, seed: u64) -> (f64, f64) {
    let k = match scale {
        Scale::Paper => 8,
        Scale::Quick => 4,
    };
    let cfg = FatTreeCfg::new(k).with_route_mode(mode);
    let n = cfg.n_hosts();
    let flows = permutation_flows(n, seed);
    let mut set = FlowSet::attach(seed, Proto::Ndp, &flows, |w| {
        Box::new(FatTree::build(w, cfg))
    });
    let duration = match scale {
        Scale::Paper => Time::from_ms(20),
        Scale::Quick => Time::from_ms(8),
    };
    set.world.run_until(duration);
    let stats = set.topo.stats_by_class(&set.world);
    let mut up_trim = 0u64;
    let mut up_fwd = 0u64;
    for (c, s) in &stats {
        if matches!(c, LinkClass::TorUp | LinkClass::AggUp) {
            up_trim += s.trimmed;
            up_fwd += s.forwarded_pkts;
        }
    }
    (
        100.0 * up_trim as f64 / (up_trim + up_fwd).max(1) as f64,
        utilization(&set, &flows, duration),
    )
}

/// `flows`' share of the 10 Gb/s host links over `span`: their delivered
/// bytes summed, then converted once.
fn utilization(set: &FlowSet, flows: &[FlowSpec], span: Time) -> f64 {
    let total: u64 = flows.iter().map(|f| set.rx(f).delivered_bytes).sum();
    total as f64 * 8.0 / span.as_secs() / 1e9 / (set.topo.n_hosts() as f64 * 10.0)
}

pub fn run(scale: Scale) -> Report {
    let (src_trim, src_util) = lb_comparison(scale, RouteMode::SourceTag, 3);
    let (rnd_trim, rnd_util) = lb_comparison(scale, RouteMode::RandomUplinks, 3);

    // Topology-size scaling sweep.
    let ks: &[usize] = match scale {
        Scale::Paper => &[4, 8, 12, 16],
        Scale::Quick => &[4, 8],
    };
    let scaling: Vec<(usize, f64)> = ks
        .iter()
        .map(|&k| {
            let r = permutation_run(
                Proto::Ndp,
                TopoSpec::fattree(FatTreeCfg::new(k)),
                match scale {
                    Scale::Paper => Time::from_ms(15),
                    Scale::Quick => Time::from_ms(8),
                },
                5,
                Some(30),
            );
            (FatTreeCfg::new(k).n_hosts(), r.utilization)
        })
        .collect();

    // pHost comparison: large incast + permutation utilization.
    let n_incast = match scale {
        Scale::Paper => 400,
        Scale::Quick => 60,
    };
    let incast_size = 450_000u64;
    let ph = incast_run(
        Proto::PHost,
        TopoSpec::fattree(FatTreeCfg::new(scale.big_k())),
        n_incast,
        incast_size,
        None,
        9,
        Time::from_secs(60),
    );
    let nd = incast_run(
        Proto::Ndp,
        TopoSpec::fattree(FatTreeCfg::new(scale.big_k())),
        n_incast,
        incast_size,
        None,
        9,
        Time::from_secs(60),
    );
    let ph_perm = permutation_run(
        Proto::PHost,
        TopoSpec::fattree(FatTreeCfg::new(scale.big_k())),
        Time::from_ms(10),
        11,
        None,
    );
    let nd_perm = permutation_run(
        Proto::Ndp,
        TopoSpec::fattree(FatTreeCfg::new(scale.big_k())),
        Time::from_ms(10),
        11,
        None,
    );

    // §6.1.1 side effects: permutation + one long-lived 32:1 incast.
    let side_effect_utils = [Proto::Ndp, Proto::Dctcp, Proto::Dcqcn]
        .iter()
        .map(|&p| (p, side_effects(p, scale, 21)))
        .collect();

    Report {
        lb_source_trim_pct: src_trim,
        lb_random_trim_pct: rnd_trim,
        lb_source_util: src_util,
        lb_random_util: rnd_util,
        scaling,
        phost_incast_ms: ph.last().map_or(f64::NAN, |t| t.as_ms()),
        // NaN (JSON null) rather than a panic: one incomplete campaign
        // must not abort a whole `ndp run all` batch.
        ndp_incast_ms: nd.last().map_or(f64::NAN, |t| t.as_ms()),
        phost_perm_util: ph_perm.utilization,
        ndp_perm_util: nd_perm.utilization,
        side_effect_utils,
    }
}

/// Permutation running beside a long-lived incast; returns network
/// utilization of the permutation flows.
fn side_effects(proto: Proto, scale: Scale, seed: u64) -> f64 {
    let k = match scale {
        Scale::Paper => 8,
        Scale::Quick => 4,
    };
    let cfg = FatTreeCfg::new(k).with_fabric(proto.fabric());
    let n = cfg.n_hosts();
    let perm = permutation_flows(n, seed);
    // Long-lived incast onto host 0 from a quarter of the hosts.
    let incast = (10_000u64..).zip(0..(n / 4).max(8).min(n - 1));
    let incast = incast.map(|(fid, i)| FlowSpec::new(fid, 1 + i as HostId, 0, LONG_FLOW));
    let flows: Vec<FlowSpec> = perm.iter().copied().chain(incast).collect();
    let mut set = FlowSet::attach(seed, proto, &flows, |w| Box::new(FatTree::build(w, cfg)));
    let duration = match scale {
        Scale::Paper => Time::from_ms(20),
        Scale::Quick => Time::from_ms(10),
    };
    set.world.run_until(duration);
    utilization(&set, &perm, duration)
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["claim", "value"]);
        t.row([
            "uplink trim %, sender-chosen paths".to_string(),
            format!("{:.4}", self.lb_source_trim_pct),
        ]);
        t.row([
            "uplink trim %, switch-random ECMP".to_string(),
            format!("{:.4}", self.lb_random_trim_pct),
        ]);
        t.row([
            "perm util, sender-chosen".to_string(),
            format!("{:.3}", self.lb_source_util),
        ]);
        t.row([
            "perm util, switch-random".to_string(),
            format!("{:.3}", self.lb_random_util),
        ]);
        for (n, u) in &self.scaling {
            t.row([format!("perm util @ {n} hosts"), format!("{:.3}", u)]);
        }
        t.row([
            "pHost big incast (ms)".to_string(),
            format!("{:.1}", self.phost_incast_ms),
        ]);
        t.row([
            "NDP big incast (ms)".to_string(),
            format!("{:.1}", self.ndp_incast_ms),
        ]);
        t.row([
            "pHost perm util".to_string(),
            format!("{:.3}", self.phost_perm_util),
        ]);
        t.row([
            "NDP perm util".to_string(),
            format!("{:.3}", self.ndp_perm_util),
        ]);
        for (p, u) in &self.side_effect_utils {
            t.row([
                format!("perm util beside incast, {}", p.label()),
                format!("{:.3}", u),
            ]);
        }
        write!(f, "Inline results (§3.1.1, §6.1.1, §6.2)\n{}", t.render())
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "uplink trims: source-LB {:.3}% vs random ECMP {:.3}%; pHost 432-ish:1 incast {:.0}ms vs NDP {:.0}ms; perm util pHost {:.0}% vs NDP {:.0}%",
            self.lb_source_trim_pct,
            self.lb_random_trim_pct,
            self.phost_incast_ms,
            self.ndp_incast_ms,
            100.0 * self.phost_perm_util,
            100.0 * self.ndp_perm_util
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("lb_source_trim_pct", Json::num(self.lb_source_trim_pct)),
            ("lb_random_trim_pct", Json::num(self.lb_random_trim_pct)),
            ("lb_source_util", Json::num(self.lb_source_util)),
            ("lb_random_util", Json::num(self.lb_random_util)),
            (
                "scaling",
                Json::arr(self.scaling.iter().map(|&(hosts, util)| {
                    Json::obj([
                        ("hosts", Json::num(hosts as f64)),
                        ("utilization", Json::num(util)),
                    ])
                })),
            ),
            ("phost_incast_ms", Json::num(self.phost_incast_ms)),
            ("ndp_incast_ms", Json::num(self.ndp_incast_ms)),
            ("phost_perm_util", Json::num(self.phost_perm_util)),
            ("ndp_perm_util", Json::num(self.ndp_perm_util)),
            (
                "side_effect_utils",
                Json::arr(self.side_effect_utils.iter().map(|&(p, util)| {
                    Json::obj([
                        ("proto", Json::str(p.label())),
                        ("utilization", Json::num(util)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_claims_hold_qualitatively() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("inline", &rep);
        // Sender-chosen paths trim less on the uplinks than random ECMP.
        assert!(
            rep.lb_source_trim_pct <= rep.lb_random_trim_pct,
            "source {:.4}% vs random {:.4}%",
            rep.lb_source_trim_pct,
            rep.lb_random_trim_pct
        );
        // Utilization declines gently with size but stays high.
        for (n, u) in &rep.scaling {
            assert!(*u > 0.85, "util at {n} hosts = {u:.3}");
        }
        // pHost: never faster on the incast, clearly lower permutation
        // utilization (we reproduce the paper's ~70% vs ~95%). Our pHost
        // shares the well-paced host token pacer, so it is substantially
        // *stronger* than the paper's port and the 10x incast gap does not
        // reproduce — see EXPERIMENTS.md.
        assert!(
            rep.phost_incast_ms >= 0.98 * rep.ndp_incast_ms,
            "pHost {:.1}ms vs NDP {:.1}ms",
            rep.phost_incast_ms,
            rep.ndp_incast_ms
        );
        assert!(
            rep.phost_perm_util < rep.ndp_perm_util - 0.05,
            "pHost util {:.3} vs NDP {:.3}",
            rep.phost_perm_util,
            rep.ndp_perm_util
        );
        // Side effects: NDP keeps high utilization; DCQCN collapses below
        // DCTCP (PFC pause cascades).
        let get = |p: Proto| {
            rep.side_effect_utils
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, u)| *u)
                .unwrap()
        };
        assert!(get(Proto::Ndp) > 0.8);
        assert!(get(Proto::Dcqcn) < get(Proto::Ndp));
    }
}
