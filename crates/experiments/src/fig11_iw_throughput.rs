//! Figure 11: throughput between two directly connected hosts as a
//! function of NDP's initial window.
//!
//! The "perfect" curve is the bare simulator; the "experimental" curve
//! adds the host-processing delays measured on the Linux/DPDK prototype
//! (the paper found the prototype needs IW ≈ 25 instead of 15 — the extra
//! ten packets cover host processing). We set the one-way link latency to
//! 50 µs so the perfect curve saturates near IW 15 like the paper's
//! simulation (their b2b baseline RTT, see DESIGN.md).

use ndp_metrics::Table;
use ndp_net::host::HostLatency;
use ndp_sim::{Speed, Time};
use ndp_topology::{BackToBack, QueueSpec};

use crate::harness::{FlowSet, FlowSpec, Proto, Scale};
use crate::sweep;

pub struct Report {
    /// (iw, perfect Gb/s, experimental Gb/s)
    pub rows: Vec<(u64, f64, f64)>,
}

fn throughput(iw: u64, host_delay: bool) -> f64 {
    let latency = if host_delay {
        // ~72 us of extra round-trip host processing: the ten extra packets
        // of buffering the paper measured.
        HostLatency {
            rx_delay: Time::from_us(18),
            tx_delay: Time::from_us(18),
            ..Default::default()
        }
    } else {
        HostLatency::default()
    };
    let size = 30_000_000u64;
    let flow = FlowSpec {
        iw: Some(iw),
        ..FlowSpec::new(1, 0, 1, size)
    };
    // The back-to-back pair gives the flow one path and 9000-byte packets.
    let mut set = FlowSet::attach(3, Proto::Ndp, &[flow], |w| {
        let (speed, delay) = (Speed::gbps(10), Time::from_us(50));
        let fabric = QueueSpec::ndp_default();
        Box::new(BackToBack::build(w, speed, delay, 9000, fabric, latency))
    });
    set.world.run_until(Time::from_secs(10));
    let fct = set.rx(&flow).completion_time.expect("transfer completes");
    size as f64 * 8.0 / fct.as_secs() / 1e9
}

pub fn run(scale: Scale) -> Report {
    let iws: &[u64] = match scale {
        Scale::Paper => &[1, 2, 4, 8, 12, 15, 16, 20, 25, 32, 64, 128, 256],
        Scale::Quick => &[1, 4, 8, 16, 32, 128],
    };
    // Sweep (iw × host-model) as one grid, then fold the host-model axis
    // back into (perfect, experimental) columns by walking the grid points
    // alongside their results.
    let points: Vec<(u64, bool)> = iws
        .iter()
        .flat_map(|&iw| [(iw, false), (iw, true)])
        .collect();
    let tputs = sweep::run(&points, |&(iw, host_delay)| throughput(iw, host_delay));
    let mut cells = points.iter().zip(tputs);
    let rows = iws
        .iter()
        .map(|&iw| {
            let (&p, perfect) = cells.next().expect("one perfect cell per IW");
            let (&e, experimental) = cells.next().expect("one experimental cell per IW");
            debug_assert_eq!((p, e), ((iw, false), (iw, true)), "grid order drifted");
            (iw, perfect, experimental)
        })
        .collect();
    Report { rows }
}

impl Report {
    pub fn at(&self, iw: u64) -> Option<&(u64, f64, f64)> {
        self.rows.iter().find(|r| r.0 == iw)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["IW (pkts)", "perfect (Gb/s)", "experimental (Gb/s)"]);
        for (iw, p, e) in &self.rows {
            t.row([iw.to_string(), format!("{p:.2}"), format!("{e:.2}")]);
        }
        write!(
            f,
            "Figure 11 — throughput vs initial window, back-to-back hosts\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let lo = self.rows.first().unwrap();
        let hi = self.rows.last().unwrap();
        format!(
            "IW {}: perfect {:.2} Gb/s, experimental {:.2} Gb/s -> IW {}: perfect {:.2}, experimental {:.2}",
            lo.0, lo.1, lo.2, hi.0, hi.1, hi.2
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([(
            "rows",
            Json::arr(self.rows.iter().map(|&(iw, perfect, experimental)| {
                Json::obj([
                    ("iw_pkts", Json::num(iw as f64)),
                    ("perfect_gbps", Json::num(perfect)),
                    ("experimental_gbps", Json::num(experimental)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_needs_more_window_with_host_delays() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig11", &rep);
        // Small IW underutilizes; big IW saturates.
        let small = rep.at(1).unwrap();
        let big = rep.at(128).unwrap();
        assert!(small.1 < 2.0, "IW=1 perfect {:.2}", small.1);
        assert!(big.1 > 9.0, "IW=128 perfect {:.2}", big.1);
        assert!(big.2 > 9.0, "IW=128 experimental {:.2}", big.2);
        // At a mid window the perfect host is already saturated while the
        // delayed host still isn't — the paper's 15-vs-25 gap.
        let mid = rep.at(16).unwrap();
        assert!(
            mid.1 > 9.0,
            "perfect should saturate by IW 16: {:.2}",
            mid.1
        );
        assert!(
            mid.2 < mid.1 - 0.5,
            "host delays must cost throughput at IW 16: {:.2}",
            mid.2
        );
    }

    #[test]
    fn throughput_is_monotone_in_iw() {
        let rep = run(Scale::Quick);
        for w in rep.rows.windows(2) {
            assert!(w[1].1 >= w[0].1 - 0.3, "perfect curve roughly monotone");
            assert!(
                w[1].2 >= w[0].2 - 0.3,
                "experimental curve roughly monotone"
            );
        }
    }
}
