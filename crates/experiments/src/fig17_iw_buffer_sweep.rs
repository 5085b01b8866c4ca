//! Figure 17: permutation utilization as a function of the initial window
//! for switch buffers of 6/8/10 packets (9 K MTU) and 8 packets (1.5 K
//! MTU).
//!
//! Expected: IW below ~15 underutilizes regardless of buffering; 8-packet
//! buffers reach ≥95 % by IW ~20–30; 6-packet buffers plateau slightly
//! lower; very large IW loses a little to header pressure; 1.5 K MTU needs
//! a larger IW (~30) for the same utilization.

use ndp_metrics::Table;
use ndp_sim::Time;
use ndp_topology::{FatTreeCfg, QueueSpec};

use crate::harness::{permutation_world_run, Proto, Scale};
use crate::sweep::{self, PermutationPoint};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    pub buffer_pkts: usize,
    pub mtu: u32,
}

pub struct Report {
    /// (variant, iw, utilization)
    pub rows: Vec<(Variant, u64, f64)>,
}

pub fn run(scale: Scale) -> Report {
    let variants = [
        Variant {
            buffer_pkts: 6,
            mtu: 9000,
        },
        Variant {
            buffer_pkts: 8,
            mtu: 9000,
        },
        Variant {
            buffer_pkts: 10,
            mtu: 9000,
        },
        Variant {
            buffer_pkts: 8,
            mtu: 1500,
        },
    ];
    let iws: &[u64] = match scale {
        Scale::Paper => &[5, 8, 10, 12, 15, 20, 25, 30, 35, 40],
        Scale::Quick => &[5, 15, 30],
    };
    let duration = match scale {
        Scale::Paper => Time::from_ms(20),
        Scale::Quick => Time::from_ms(8),
    };
    // The paper sweeps on the 432-host tree; k=8 preserves the shape at a
    // fraction of the cost and Scale::Paper can still use big_k.
    let k = match scale {
        Scale::Paper => 8,
        Scale::Quick => 4,
    };
    let cells: Vec<_> = variants
        .iter()
        .flat_map(|&v| iws.iter().map(move |&iw| (v, iw)))
        .collect();
    let points: Vec<_> = cells
        .iter()
        .map(|&(v, iw)| {
            let cfg = FatTreeCfg::new(k)
                .with_mtu(v.mtu)
                .with_fabric(QueueSpec::Ndp {
                    data_cap_pkts: v.buffer_pkts,
                });
            PermutationPoint {
                proto: Proto::Ndp,
                // Pinned: the buffer size IS the scenario knob, so the
                // transport's default fabric must not override it.
                topo: crate::topo::TopoSpec::fattree_pinned(cfg),
                duration,
                seed: 23,
                iw: Some(iw),
            }
        })
        .collect();
    let rows = cells
        .iter()
        .zip(sweep::run(&points, permutation_world_run))
        .map(|(&(v, iw), r)| (v, iw, r.utilization))
        .collect();
    Report { rows }
}

impl Report {
    pub fn util(&self, buffer: usize, mtu: u32, iw: u64) -> f64 {
        self.rows
            .iter()
            .find(|(v, i, _)| v.buffer_pkts == buffer && v.mtu == mtu && *i == iw)
            .map(|(_, _, u)| *u)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["buffer (pkts)", "MTU", "IW", "utilization %"]);
        for (v, iw, u) in &self.rows {
            t.row([
                v.buffer_pkts.to_string(),
                v.mtu.to_string(),
                iw.to_string(),
                format!("{:.1}", u * 100.0),
            ]);
        }
        write!(
            f,
            "Figure 17 — utilization vs IW and buffer size\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let best = self.rows.iter().map(|r| r.2).fold(0.0, f64::max);
        format!(
            "peak permutation utilization {:.1}% (8-pkt buffers)",
            best * 100.0
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([(
            "rows",
            Json::arr(self.rows.iter().map(|&(v, iw, util)| {
                Json::obj([
                    ("buffer_pkts", Json::num(v.buffer_pkts as f64)),
                    ("mtu", Json::num(v.mtu as f64)),
                    ("iw_pkts", Json::num(iw as f64)),
                    ("utilization", Json::num(util)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig17", &rep);
        // Small IW underutilizes.
        assert!(rep.util(8, 9000, 5) < rep.util(8, 9000, 30) - 0.03);
        // 8-packet buffers with a healthy IW exceed 90%.
        assert!(
            rep.util(8, 9000, 30) > 0.90,
            "util {:.3}",
            rep.util(8, 9000, 30)
        );
        // 6-packet buffers trail 8-packet ones (slightly).
        assert!(rep.util(6, 9000, 30) <= rep.util(8, 9000, 30) + 0.02);
        // 1.5K MTU at the same IW is no better than 9K.
        assert!(rep.util(8, 1500, 30) <= rep.util(8, 9000, 30) + 0.02);
    }
}
