//! Figure 2: CP's congestion collapse and phase effects vs the NDP switch.
//!
//! 1–200 unresponsive line-rate senders converge on one 10 Gb/s link.
//! We report, per flow count: mean % of fair goodput and the mean of the
//! worst 10 % of flows, for the CP switch (FIFO trim, no priority, no
//! randomization) and the NDP switch (dual queue, 10:1 WRR, 50 % tail
//! trim). Expected shape: NDP stays ≈100 % with tight worst-10 %; CP's
//! mean decays as headers eat the link and its worst-10 % collapses from
//! phase effects.

use ndp_baselines::blast::{attach_blast, fair_share_fraction};
use ndp_metrics::{mean, worst_fraction_mean, Table};
use ndp_net::host::Host;
use ndp_net::packet::Packet;
use ndp_sim::{Speed, Time, World};
use ndp_topology::{QueueSpec, SingleBottleneck};

use crate::harness::Scale;

pub struct Row {
    pub n_flows: usize,
    pub ndp_mean: f64,
    pub ndp_worst10: f64,
    pub cp_mean: f64,
    pub cp_worst10: f64,
}

pub struct Report {
    pub rows: Vec<Row>,
}

fn one_run(fabric: QueueSpec, n: usize, span: Time, seed: u64) -> Vec<f64> {
    let mut world: World<Packet> = World::new(seed);
    let sb = SingleBottleneck::build(
        &mut world,
        n,
        Speed::gbps(10),
        Time::from_us(1),
        9000,
        fabric,
    );
    for s in 0..n {
        // Stagger starts within one packet time so arrival phases differ
        // (as OS scheduling jitter would in the real world; without this,
        // the CP phase effect is even *more* brutal).
        let start = Time::from_ns(7_200 * s as u64 / n.max(1) as u64);
        attach_blast(
            &mut world,
            s as u64 + 1,
            (sb.senders[s], s as u32),
            (sb.receiver, n as u32),
            9000,
            Speed::gbps(10),
            start,
        );
    }
    world.run_until(span);
    let host = world.get::<Host>(sb.receiver);
    (1..=n as u64)
        .map(|f| {
            let bytes = host.harvest(f).delivered_bytes;
            100.0 * fair_share_fraction(bytes, n, Speed::gbps(10), 9000, span)
        })
        .collect()
}

pub fn run(scale: Scale) -> Report {
    let span = match scale {
        Scale::Paper => Time::from_ms(20),
        Scale::Quick => Time::from_ms(5),
    };
    let counts: &[usize] = match scale {
        Scale::Paper => &[1, 2, 5, 10, 20, 40, 60, 80, 100, 120, 140, 160, 180, 200],
        Scale::Quick => &[1, 5, 20, 60, 100],
    };
    let rows = counts
        .iter()
        .map(|&n| {
            let ndp = one_run(QueueSpec::ndp_default(), n, span, 42);
            let cp = one_run(QueueSpec::Cp { thresh_pkts: 8 }, n, span, 42);
            Row {
                n_flows: n,
                ndp_mean: mean(&ndp),
                ndp_worst10: worst_fraction_mean(&ndp, 0.10),
                cp_mean: mean(&cp),
                cp_worst10: worst_fraction_mean(&cp, 0.10),
            }
        })
        .collect();
    Report { rows }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "flows",
            "NDP mean%",
            "NDP worst10%",
            "CP mean%",
            "CP worst10%",
        ]);
        for r in &self.rows {
            t.row([
                r.n_flows.to_string(),
                format!("{:.1}", r.ndp_mean),
                format!("{:.1}", r.ndp_worst10),
                format!("{:.1}", r.cp_mean),
                format!("{:.1}", r.cp_worst10),
            ]);
        }
        write!(
            f,
            "Figure 2 — percent of fair goodput achieved (unresponsive flows)\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let last = self.rows.last().expect("rows");
        format!(
            "at {} flows: NDP mean {:.0}% / worst-10% {:.0}%; CP mean {:.0}% / worst-10% {:.0}%",
            last.n_flows, last.ndp_mean, last.ndp_worst10, last.cp_mean, last.cp_worst10
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([(
            "rows",
            Json::arr(self.rows.iter().map(|r| {
                Json::obj([
                    ("flows", Json::num(r.n_flows as f64)),
                    ("ndp_mean_pct", Json::num(r.ndp_mean)),
                    ("ndp_worst10_pct", Json::num(r.ndp_worst10)),
                    ("cp_mean_pct", Json::num(r.cp_mean)),
                    ("cp_worst10_pct", Json::num(r.cp_worst10)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndp_beats_cp_under_overload() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig02", &rep);
        let heavy = rep.rows.last().unwrap();
        assert!(heavy.ndp_mean > 85.0, "NDP mean {:.1}", heavy.ndp_mean);
        assert!(heavy.ndp_mean > heavy.cp_mean, "NDP must beat CP");
        // Phase effects: CP's worst flows do relatively worse than NDP's.
        assert!(
            heavy.ndp_worst10 / heavy.ndp_mean.max(1e-9)
                >= heavy.cp_worst10 / heavy.cp_mean.max(1e-9) - 0.05,
            "NDP fairness must not be worse than CP's"
        );
    }
}
