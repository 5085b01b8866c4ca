//! Figure 21: sender-limited traffic. Host A sends to B, C, D and E while
//! host F also sends to E. Fair queuing of the pull queue at E must give A
//! exactly what it can use (≈2.4 Gb/s) and fill the rest of E's link from
//! F, while A's four flows split A's NIC almost perfectly.
//!
//! Paper's numbers: A→B/C/D ≈ 2.5, A→E ≈ 2.38, F→E ≈ 7.55; both A's
//! uplink and E's downlink ≈ 9.9 Gb/s. Measured at quick scale: A→B/C/D
//! 2.49/2.48/2.47, A→E 2.39, F→E 7.53, from A 9.83, to E 9.92 Gb/s.

use ndp_metrics::Table;
use ndp_net::packet::HostId;
use ndp_sim::Time;
use ndp_topology::{LeafSpine, LeafSpineCfg};

use crate::harness::{FlowSet, FlowSpec, Proto, Scale, LONG_FLOW};

pub struct Report {
    /// (label, Gb/s)
    pub flows: Vec<(&'static str, f64)>,
    pub total_from_a: f64,
    pub total_to_e: f64,
}

pub fn run(scale: Scale) -> Report {
    // A=0 B=1 C=2 | D=3 E=4 F=5.
    let pairs: [(&str, HostId, HostId); 5] = [
        ("A->B", 0, 1),
        ("A->C", 0, 2),
        ("A->D", 0, 3),
        ("A->E", 0, 4),
        ("F->E", 5, 4),
    ];
    let flows: Vec<FlowSpec> = (pairs.iter().enumerate())
        .map(|(i, &(_, src, dst))| FlowSpec::new(i as u64 + 1, src, dst, LONG_FLOW))
        .collect();
    let mut set = FlowSet::attach(77, Proto::Ndp, &flows, |w| {
        Box::new(LeafSpine::build(w, LeafSpineCfg::sender_limited()))
    });
    let duration = match scale {
        Scale::Paper => Time::from_ms(50),
        Scale::Quick => Time::from_ms(15),
    };
    set.world.run_until(duration);
    let flows: Vec<(&str, f64)> = (pairs.iter().zip(&flows))
        .map(|(&(label, _, _), f)| (label, set.gbps(f, duration)))
        .collect();
    let total = |keep: fn(&str) -> bool| flows.iter().filter(|f| keep(f.0)).map(|f| f.1).sum();
    Report {
        total_from_a: total(|label| label.starts_with("A->")),
        total_to_e: total(|label| label.ends_with("->E")),
        flows,
    }
}

impl Report {
    pub fn gbps(&self, label: &str) -> f64 {
        self.flows
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, g)| *g)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["flow", "Gb/s"]);
        for (l, g) in &self.flows {
            t.row([l.to_string(), format!("{g:.2}")]);
        }
        t.row([
            "Total from A".to_string(),
            format!("{:.2}", self.total_from_a),
        ]);
        t.row(["Total to E".to_string(), format!("{:.2}", self.total_to_e)]);
        write!(
            f,
            "Figure 21 — sender-limited topology throughputs\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "A->B {:.2}, A->C {:.2}, A->D {:.2}, A->E {:.2}, F->E {:.2} Gb/s; from A {:.2}, to E {:.2}",
            self.gbps("A->B"),
            self.gbps("A->C"),
            self.gbps("A->D"),
            self.gbps("A->E"),
            self.gbps("F->E"),
            self.total_from_a,
            self.total_to_e
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            (
                "flows",
                Json::arr(self.flows.iter().map(|&(label, gbps)| {
                    Json::obj([("flow", Json::str(label)), ("gbps", Json::num(gbps))])
                })),
            ),
            ("total_from_a_gbps", Json::num(self.total_from_a)),
            ("total_to_e_gbps", Json::num(self.total_to_e)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_fair_queuing_fills_both_bottlenecks() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig21", &rep);
        // Both bottleneck links nearly saturated.
        assert!(rep.total_from_a > 9.0, "A's uplink {:.2}", rep.total_from_a);
        assert!(rep.total_to_e > 9.0, "E's downlink {:.2}", rep.total_to_e);
        // A's four flows share A's link almost equally.
        for l in ["A->B", "A->C", "A->D", "A->E"] {
            let g = rep.gbps(l);
            assert!((1.9..=3.1).contains(&g), "{l} got {g:.2} Gb/s");
        }
        // F fills the rest of E's link: far more than an equal split.
        assert!(rep.gbps("F->E") > 6.5, "F->E {:.2}", rep.gbps("F->E"));
    }
}
