//! Figure 16: incast completion time vs number of backend servers
//! (450 KB responses) on the 432-host FatTree, for MPTCP, DCTCP, DCQCN and
//! NDP; both the fastest and the slowest flow, to expose fairness spread.
//!
//! Expected: NDP and DCQCN sit on the optimal line with a tight min/max
//! spread (NDP's slowest ≤ ~1.2× its fastest); DCTCP is ~5 % off with a
//! wide spread; MPTCP is crippled by synchronized tail losses.
//!
//! Measured at quick scale since DCTCP's RTO expiry goes back N (and its
//! `alpha` starts at 1): its slowest flow at 100:1 reads 38.2 ms against
//! an ideal of 36.3 and NDP's 36.7, the paper's ~5 % (351.8 ms before, when
//! each hole of a lost burst waited for an RTO of its own); at 32:1 and
//! 64:1 it fell 192.3 → 16.2 and 331.8 → 24.6 ms. Its fastest flow rose
//! 7.6 → 9.5 ms at 100:1.
//!
//! Since MPTCP's subflows react to the shared NewReno machine exactly as
//! TCP does (an RTO expiry goes back N; duplicate ACKs in recovery inflate
//! the window; a partial ACK resends its hole, then sends what the window
//! allows), MPTCP's slowest flow at 100:1 reads 151.5 ms at quick scale
//! (350.8 before, when each subflow resent one hole per backed-off RTO),
//! and 3193.1 ms at 400:1 at paper scale (5150.7; ideal 145.0). It stays
//! the crippled outlier the paper shows, at over 4× NDP. Go-back-N alone
//! reads 73.9 ms at 100:1; the rest is the machine's recovery overshoot
//! (unbounded inflation, no deflation on a partial ACK, ROADMAP 9(e)).

use ndp_metrics::Table;
use ndp_sim::{Speed, Time};
use ndp_topology::FatTreeCfg;

use crate::harness::{incast_ideal, incast_world_run, Proto, Scale};
use crate::sweep::{self, IncastPoint};
use crate::topo::TopoSpec;

pub struct Row {
    pub n: usize,
    pub proto: Proto,
    pub first_ms: f64,
    pub last_ms: f64,
    pub incomplete: usize,
}

pub struct Report {
    pub rows: Vec<Row>,
    pub ideal_ms: Vec<(usize, f64)>,
}

pub fn run(scale: Scale) -> Report {
    let size = 450_000u64;
    let counts: &[usize] = match scale {
        Scale::Paper => &[8, 16, 32, 64, 128, 200, 300, 400],
        Scale::Quick => &[8, 32, 64, 100],
    };
    let protos = [Proto::Ndp, Proto::Dctcp, Proto::Dcqcn, Proto::Mptcp];
    let ideal: Vec<(usize, f64)> = counts
        .iter()
        .map(|&n| (n, incast_ideal(n, size, Speed::gbps(10), 9000).as_ms()))
        .collect();
    let points: Vec<IncastPoint> = counts
        .iter()
        .flat_map(|&n| {
            protos.iter().map(move |&proto| IncastPoint {
                proto,
                topo: TopoSpec::fattree(FatTreeCfg::new(scale.big_k())),
                n_senders: n,
                size,
                iw: None,
                seed: 3,
                horizon: Time::from_secs(30),
            })
        })
        .collect();
    let rows = points
        .iter()
        .zip(sweep::run(&points, incast_world_run))
        .map(|(point, r)| Row {
            n: point.n_senders,
            proto: point.proto,
            first_ms: r.first().map_or(f64::NAN, |t| t.as_ms()),
            last_ms: r.last().map_or(f64::NAN, |t| t.as_ms()),
            incomplete: r.incomplete,
        })
        .collect();
    Report {
        rows,
        ideal_ms: ideal,
    }
}

impl Report {
    pub fn last_ms(&self, proto: Proto, n: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.proto == proto && r.n == n)
            .map(|r| r.last_ms)
            .unwrap_or(f64::NAN)
    }

    pub fn ideal(&self, n: usize) -> f64 {
        self.ideal_ms
            .iter()
            .find(|(m, _)| *m == n)
            .map(|(_, i)| *i)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "N",
            "ideal (ms)",
            "protocol",
            "first (ms)",
            "last (ms)",
            "incomplete",
        ]);
        for r in &self.rows {
            t.row([
                r.n.to_string(),
                format!("{:.2}", self.ideal(r.n)),
                r.proto.label().to_string(),
                format!("{:.2}", r.first_ms),
                format!("{:.2}", r.last_ms),
                r.incomplete.to_string(),
            ]);
        }
        write!(
            f,
            "Figure 16 — incast completion vs number of senders\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let n = self.ideal_ms.last().unwrap().0;
        format!(
            "at {}:1 (450KB): ideal {:.1}ms, NDP {:.1}ms, DCQCN {:.1}ms, DCTCP {:.1}ms, MPTCP {:.1}ms",
            n,
            self.ideal(n),
            self.last_ms(Proto::Ndp, n),
            self.last_ms(Proto::Dcqcn, n),
            self.last_ms(Proto::Dctcp, n),
            self.last_ms(Proto::Mptcp, n)
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            (
                "ideal",
                Json::arr(self.ideal_ms.iter().map(|&(n, ms)| {
                    Json::obj([("n", Json::num(n as f64)), ("ms", Json::num(ms))])
                })),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("n", Json::num(r.n as f64)),
                        ("proto", Json::str(r.proto.label())),
                        ("first_ms", Json::num(r.first_ms)),
                        ("last_ms", Json::num(r.last_ms)),
                        ("incomplete", Json::num(r.incomplete as f64)),
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
    fn ndp_near_ideal_mptcp_crippled() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig16", &rep);
        let n = 64;
        let ideal = rep.ideal(n);
        let ndp = rep.last_ms(Proto::Ndp, n);
        let mptcp = rep.last_ms(Proto::Mptcp, n);
        assert!(ndp < ideal * 1.25, "NDP {ndp:.2} vs ideal {ideal:.2}");
        assert!(
            mptcp > 2.0 * ndp,
            "MPTCP {mptcp:.2} should be far slower than NDP {ndp:.2}"
        );
        // NDP fairness: the slowest flow stays within ~60% of the fastest
        // (the paper reports ≤20% on its testbed; our fully synchronized
        // starts maximize first-RTT variance), and the spread is far
        // tighter than DCTCP's (paper: up to 7x).
        let row = rep
            .rows
            .iter()
            .find(|r| r.proto == Proto::Ndp && r.n == n)
            .unwrap();
        assert!(
            row.last_ms < row.first_ms * 1.6,
            "NDP spread {:.2}..{:.2}",
            row.first_ms,
            row.last_ms
        );
        let drow = rep
            .rows
            .iter()
            .find(|r| r.proto == Proto::Dctcp && r.n == n)
            .unwrap();
        assert!(
            row.last_ms / row.first_ms < drow.last_ms / drow.first_ms,
            "NDP spread ({:.2}x) must beat DCTCP's ({:.2}x)",
            row.last_ms / row.first_ms,
            drow.last_ms / drow.first_ms
        );
        assert_eq!(row.incomplete, 0);
    }
}
