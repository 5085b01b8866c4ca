//! Figure 20: is there a limit to the size of incast NDP can cope with?
//!
//! Incasts of 1 → 8000 flows of 270 KB on the 8192-host FatTree, for
//! initial windows of 23, 10 and 1. Reported: (a) last-flow completion
//! overhead over the theoretical optimum; (b) retransmissions per packet,
//! split by trigger (NACK-pull vs return-to-sender), the paper's Fig 20b.
//!
//! Expected: overhead ≤ ~2 % for IW 23 (worst for small incasts), IW 1
//! terrible below 8 flows (can't fill the pipe); NACKs dominate small
//! incasts, return-to-sender takes over above ~100 flows; mean
//! retransmissions per packet stay around or below one even at 8000.

use ndp_core::NdpSender;
use ndp_metrics::Table;
use ndp_net::host::Host;
use ndp_sim::{Speed, Time};
use ndp_topology::{FatTree, FatTreeCfg};

use crate::harness::{incast_flows, incast_ideal, FlowSet, Proto, Scale};
use crate::sweep;

pub struct Row {
    pub iw: u64,
    pub n: usize,
    pub overhead_pct: f64,
    pub rtx_nack_per_pkt: f64,
    pub rtx_rts_per_pkt: f64,
}

pub struct Report {
    pub rows: Vec<Row>,
}

fn trial(scale: Scale, n: usize, iw: u64, seed: u64) -> Row {
    let cfg = FatTreeCfg::new(scale.huge_k());
    let n_hosts = cfg.n_hosts();
    let size = 270_000u64;
    let mut flows = incast_flows(n_hosts, n.min(n_hosts - 1), size, seed);
    flows.iter_mut().for_each(|f| f.iw = Some(iw));
    let mut set = FlowSet::attach(seed, Proto::Ndp, &flows, |w| {
        Box::new(FatTree::build(w, cfg))
    });
    set.world.run_until(Time::from_secs(60));
    let mut last = Time::ZERO;
    let mut total_pkts = 0u64;
    let mut rtx_nack = 0u64;
    let mut rtx_rts = 0u64;
    for f in &flows {
        let done = set.rx(f).completion_time;
        last = last.max(done.expect("incast flow must complete"));
        let tx = set.world.get::<Host>(set.topo.host(f.src));
        let s = tx.endpoint::<NdpSender>(f.flow);
        total_pkts += s.total_pkts();
        rtx_nack += s.stats.rtx_nack;
        rtx_rts += s.stats.rtx_rts + s.tx.timeouts;
    }
    let ideal = incast_ideal(flows.len(), size, Speed::gbps(10), 9000);
    Row {
        iw,
        n: flows.len(),
        overhead_pct: 100.0 * (last.as_secs() - ideal.as_secs()) / ideal.as_secs(),
        rtx_nack_per_pkt: rtx_nack as f64 / total_pkts as f64,
        rtx_rts_per_pkt: rtx_rts as f64 / total_pkts as f64,
    }
}

pub fn run(scale: Scale) -> Report {
    let counts: &[usize] = match scale {
        Scale::Paper => &[1, 8, 30, 100, 300, 1000, 3000, 8000],
        Scale::Quick => &[1, 8, 30, 100],
    };
    let iws: &[u64] = match scale {
        Scale::Paper => &[23, 10, 1],
        Scale::Quick => &[23, 1],
    };
    let points: Vec<(u64, usize)> = iws
        .iter()
        .flat_map(|&iw| counts.iter().map(move |&n| (iw, n)))
        .collect();
    Report {
        rows: sweep::run(&points, |&(iw, n)| trial(scale, n, iw, 7)),
    }
}

impl Report {
    pub fn overhead(&self, iw: u64, n: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.iw == iw && r.n == n)
            .map(|r| r.overhead_pct)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "IW",
            "incast size",
            "overhead %",
            "rtx/pkt (NACK)",
            "rtx/pkt (RTS+RTO)",
        ]);
        for r in &self.rows {
            t.row([
                r.iw.to_string(),
                r.n.to_string(),
                format!("{:.2}", r.overhead_pct),
                format!("{:.3}", r.rtx_nack_per_pkt),
                format!("{:.3}", r.rtx_rts_per_pkt),
            ]);
        }
        write!(
            f,
            "Figure 20 — large incast overhead and retransmission mechanisms\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let worst = self
            .rows
            .iter()
            .filter(|r| r.iw == 23 && r.n >= 8)
            .map(|r| r.overhead_pct)
            .fold(0.0, f64::max);
        format!(
            "IW 23: worst completion overhead over optimal {:.1}% (n >= 8)",
            worst
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([(
            "rows",
            Json::arr(self.rows.iter().map(|r| {
                Json::obj([
                    ("iw_pkts", Json::num(r.iw as f64)),
                    ("n", Json::num(r.n as f64)),
                    ("overhead_pct", Json::num(r.overhead_pct)),
                    ("rtx_nack_per_pkt", Json::num(r.rtx_nack_per_pkt)),
                    ("rtx_rts_per_pkt", Json::num(r.rtx_rts_per_pkt)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_small_and_rts_takes_over() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig20", &rep);
        for r in &rep.rows {
            if r.iw == 23 && r.n >= 8 {
                assert!(
                    r.overhead_pct < 10.0,
                    "IW23 n={} overhead {:.2}%",
                    r.n,
                    r.overhead_pct
                );
                assert!(
                    r.rtx_nack_per_pkt + r.rtx_rts_per_pkt < 1.5,
                    "rtx per pkt stays bounded"
                );
            }
        }
        // Tiny IW can't fill the pipe for small incasts.
        assert!(rep.overhead(1, 1) > rep.overhead(23, 1));
        // NACK-triggered retransmissions appear once trimming starts.
        let big = rep.rows.iter().find(|r| r.iw == 23 && r.n == 100).unwrap();
        assert!(big.rtx_nack_per_pkt + big.rtx_rts_per_pkt > 0.05);
    }
}
