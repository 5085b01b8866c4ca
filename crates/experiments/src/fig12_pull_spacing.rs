//! Figure 12: distribution of PULL spacing measured at the sender for
//! 1500 B and 9000 B packets: a tap on the sender reads each PULL's send
//! stamp.
//!
//! The pacer targets one pull per packet serialization time (1.2 µs /
//! 7.2 µs at 10 Gb/s). The "measured" curves sample the synthetic jitter
//! distributions calibrated to the paper's plot: the 9000 B curve is tight
//! around its target, the 1500 B curve has real variance but the same
//! median.

use ndp_metrics::{Cdf, Table};
use ndp_net::host::{HostLatency, JitterDist};
use ndp_net::packet::{PacketBody, PacketKind};
use ndp_sim::{Speed, Time};
use ndp_topology::{BackToBack, QueueSpec};

use crate::harness::{FlowSet, FlowSpec, Proto, Scale, Tap};

/// One sample per PULL the sender takes: the instant its receiver's
/// pacer emitted it.
fn pull_stamp(pkt: &PacketBody, _now: Time, _delivered: u64) -> Option<Time> {
    (pkt.kind == PacketKind::Pull).then_some(pkt.sent)
}

pub struct Report {
    pub spacing_1500: Cdf,
    pub spacing_9000: Cdf,
}

fn measure(mtu: u32, jitter: JitterDist, n_pkts: u64) -> Cdf {
    let latency = HostLatency {
        pull_jitter: Some(jitter),
        ..Default::default()
    };
    let flow = FlowSpec {
        iw: Some(10),
        ..FlowSpec::new(1, 0, 1, n_pkts * (mtu as u64 - 64))
    };
    let mut set = FlowSet::attach(21, Proto::Ndp, &[flow], |w| {
        let (speed, delay) = (Speed::gbps(10), Time::from_us(1));
        let fabric = QueueSpec::ndp_default();
        Box::new(BackToBack::build(w, speed, delay, mtu, fabric, latency))
    });
    let sender = set.topo.host(0);
    Tap::install(&mut set.world, sender, 1, pull_stamp);
    set.world.run_until(Time::from_secs(5));
    let times = Tap::samples(&set.world, sender, 1);
    let gaps: Vec<f64> = times
        .windows(2)
        .map(|w| (w[1] - w[0]).as_ps() as f64 / 1e6)
        .filter(|&g| g > 0.0)
        .collect();
    Cdf::from_samples(gaps)
}

pub fn run(scale: Scale) -> Report {
    let n = match scale {
        Scale::Paper => 20_000,
        Scale::Quick => 3_000,
    };
    Report {
        spacing_1500: measure(1500, JitterDist::measured_1500b(), n),
        spacing_9000: measure(9000, JitterDist::measured_9000b(), n),
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["percentile", "1500B gap (us)", "9000B gap (us)"]);
        for p in [0.05, 0.25, 0.50, 0.75, 0.95, 0.99] {
            t.row([
                format!("{:.0}%", p * 100.0),
                format!("{:.2}", self.spacing_1500.percentile(p)),
                format!("{:.2}", self.spacing_9000.percentile(p)),
            ]);
        }
        write!(f, "Figure 12 — PULL spacing at the sender\n{}", t.render())
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "median pull spacing: 1500B {:.2}us (target 1.2), 9000B {:.2}us (target 7.2)",
            self.spacing_1500.median(),
            self.spacing_9000.median()
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        use crate::registry::{cdf_json, CDF_POINTS};
        Json::obj([
            ("unit", Json::str("us")),
            ("spacing_1500", cdf_json(&self.spacing_1500, CDF_POINTS)),
            ("spacing_9000", cdf_json(&self.spacing_9000, CDF_POINTS)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_match_targets_and_1500b_is_noisier() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig12", &rep);
        let m15 = rep.spacing_1500.median();
        let m90 = rep.spacing_9000.median();
        assert!((m15 - 1.2).abs() < 0.4, "1500B median {m15}");
        assert!((m90 - 7.2).abs() < 1.0, "9000B median {m90}");
        // Relative spread: 1500B is much wider (Fig 12's visual).
        let spread15 = rep.spacing_1500.percentile(0.95) / m15;
        let spread90 = rep.spacing_9000.percentile(0.95) / m90;
        assert!(
            spread15 > spread90,
            "1500B spread {spread15:.2} vs 9000B {spread90:.2}"
        );
    }
}
