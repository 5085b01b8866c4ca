//! The transport × topology scenario matrix: the cross-product the whole
//! evaluation API exists for.
//!
//! For every registered fabric shape in the default axis ({fattree,
//! leafspine, oversubscribed}, or just the one named by `--topo`) and
//! every contending protocol ({NDP, DCTCP, pHost}), one report runs three
//! canonical scenarios through the topology-neutral harnesses:
//!
//! * **permutation** — long-running worst-case matrix, per-host goodput
//!   as a fraction of the access line rate;
//! * **incast** — N:1 synchronized responses, last-flow completion;
//! * **open-loop websearch** — Poisson arrivals at a fixed offered load,
//!   FCT slowdown per size bin against the topology's own per-hop-speed
//!   ideal.
//!
//! Every cell is one independent seeded world, so the full matrix fans
//! out across cores through the sweep harness. Adding a topology to
//! [`crate::topo::TOPOLOGIES`] or a transport to
//! [`crate::transport::TRANSPORTS`] grows this report with zero edits
//! here beyond the axis lists.
//!
//! Measured at quick scale since every host NIC serves its flows
//! round-robin: on leaf-spine DCTCP's open-loop p99 fell 205.4 → 13.4,
//! with one flow now left incomplete; on the oversubscribed fabric pHost's
//! rose 10.7 → 34.7 (its 0–10 KB bin). Since DCTCP's `alpha` starts at
//! 1 and its RTO expiry goes back N, DCTCP's leaf-spine p99 reads 9.7
//! with no flow incomplete; on the oversubscribed fabric it rose
//! 48.1 → 62.1 with incomplete flows 12 → 9. NDP has the lowest p99 on
//! leaf-spine (2.5) and the oversubscribed fabric (9.2), not on the
//! FatTree: there DCTCP's 2.8 is below NDP's 3.2, as it was before.

use ndp_metrics::{fmt_or_dash, Table, SLOWDOWN_BIN_LABELS};
use ndp_sim::Time;

use crate::harness::{incast_world_run, permutation_world_run};
use crate::harness::{Proto, Scale};
use crate::openloop::openloop_world_run;
use crate::openloop::{DistKind, OpenLoopResult, SWEEP_PROTOS};
use crate::sweep::{self, IncastPoint, OpenLoopPoint, PermutationPoint};
use crate::topo::{registered, TopoEntry};

/// The default topology axis: the full-bisection three-tier fabric, the
/// rack-scale two-tier fabric, and the scarce-core 4:1 variant.
pub const MATRIX_TOPOS: &[&str] = &["fattree", "leafspine", "oversubscribed"];

/// One (topology, protocol) cell of the matrix.
pub struct Cell {
    pub topo: &'static str,
    pub proto: Proto,
    /// Permutation per-host goodput over the access line rate.
    pub perm_utilization: f64,
    /// Actual incast fan-in of this cell: the configured sender count,
    /// capped at the fabric's host count minus the frontend.
    pub incast_senders: usize,
    /// N:1 incast last-flow completion (NaN if nothing finished).
    pub incast_last_ms: f64,
    pub incast_incomplete: usize,
    /// Open-loop websearch point at the matrix load.
    pub openloop: OpenLoopResult,
}

pub struct Report {
    /// Offered load of the open-loop scenario (fraction of the NIC).
    pub load: f64,
    pub cells: Vec<Cell>,
}

pub fn run(scale: Scale, topo: Option<&'static TopoEntry>) -> Report {
    let entries: Vec<&'static TopoEntry> = match topo {
        Some(e) => vec![e],
        None => MATRIX_TOPOS.iter().map(|n| registered(n)).collect(),
    };
    let protos = SWEEP_PROTOS;
    let (perm_duration, incast_senders, incast_size) = match scale {
        Scale::Paper => (Time::from_ms(20), 32, 450_000u64),
        Scale::Quick => (Time::from_ms(5), 8, 90_000),
    };
    // Oversubscribed shapes saturate their uplinks near 25 % NIC load
    // with uniform destinations, so one matrix load must stay comparable
    // across shapes without collapsing the scarce-core ones.
    let load = 0.2;
    let (warmup, measure, drain) = match scale {
        Scale::Paper => (Time::from_ms(5), Time::from_ms(50), Time::from_ms(40)),
        Scale::Quick => (Time::from_ms(2), Time::from_ms(15), Time::from_ms(15)),
    };

    let cells: Vec<(usize, Proto)> = entries
        .iter()
        .enumerate()
        .flat_map(|(ti, _)| protos.iter().map(move |&p| (ti, p)))
        .collect();

    let perm: Vec<_> = cells
        .iter()
        .map(|&(ti, proto)| PermutationPoint {
            proto,
            topo: entries[ti].spec(scale),
            duration: perm_duration,
            seed: 71,
            iw: None,
        })
        .collect();
    let incast: Vec<_> = cells
        .iter()
        .map(|&(ti, proto)| IncastPoint {
            proto,
            topo: entries[ti].spec(scale),
            n_senders: incast_senders.min(entries[ti].spec(scale).n_hosts() - 1),
            size: incast_size,
            iw: None,
            seed: 72,
            horizon: Time::from_secs(10),
        })
        .collect();
    let openloop: Vec<_> = cells
        .iter()
        .map(|&(ti, proto)| OpenLoopPoint {
            proto,
            topo: entries[ti].spec(scale),
            dist: DistKind::WebSearch,
            load,
            // One seed per topology, shared across protocols: paired
            // arrival sequences within each fabric column.
            seed: 0xD400 + ti as u64,
            warmup,
            measure,
            drain,
        })
        .collect();

    let perm_results = sweep::run(&perm, permutation_world_run);
    let incast_results = sweep::run(&incast, incast_world_run);
    let openloop_results = sweep::run(&openloop, openloop_world_run);

    let rows = cells
        .iter()
        .zip(perm_results)
        .zip(incast_results)
        .zip(openloop_results)
        .map(|(((&(ti, proto), p), i), o)| Cell {
            topo: entries[ti].name,
            proto,
            perm_utilization: p.utilization,
            // Small fabrics cap the fan-in; report what actually ran.
            incast_senders: incast_senders.min(entries[ti].spec(scale).n_hosts() - 1),
            incast_last_ms: i.last().map_or(f64::NAN, |t| t.as_ms()),
            incast_incomplete: i.incomplete,
            openloop: o,
        })
        .collect();
    Report { load, cells: rows }
}

impl Report {
    /// Overall p99 slowdown of one cell, NaN when nothing completed.
    pub fn p99(&self, topo: &str, proto: Proto) -> f64 {
        self.cells
            .iter()
            .find(|c| c.topo == topo && c.proto == proto)
            .map(|c| {
                if c.openloop.slowdown.is_empty() {
                    f64::NAN
                } else {
                    c.openloop.slowdown.overall().percentile(0.99)
                }
            })
            .unwrap_or(f64::NAN)
    }

    pub fn utilization(&self, topo: &str, proto: Proto) -> f64 {
        self.cells
            .iter()
            .find(|c| c.topo == topo && c.proto == proto)
            .map(|c| c.perm_utilization)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut header = vec![
            "topology".to_string(),
            "protocol".into(),
            "perm util %".into(),
            "incast N:1 (ms)".into(),
            "flows".into(),
            "incompl".into(),
        ];
        for label in SLOWDOWN_BIN_LABELS {
            header.push(format!("{label} p50/p99"));
        }
        header.push("all p50/p99".into());
        let mut t = Table::new(header);
        for c in &self.cells {
            let mut row = vec![
                c.topo.to_string(),
                c.proto.label().to_string(),
                format!("{:.1}", 100.0 * c.perm_utilization),
                format!(
                    "{}:1 {}",
                    c.incast_senders,
                    fmt_or_dash(c.incast_last_ms, 2)
                ),
                c.openloop.measured.to_string(),
                c.openloop.incomplete.to_string(),
            ];
            for i in 0..c.openloop.slowdown.n_bins() {
                row.push(format!(
                    "{}/{}",
                    fmt_or_dash(c.openloop.slowdown.percentile(i, 0.50), 1),
                    fmt_or_dash(c.openloop.slowdown.percentile(i, 0.99), 1)
                ));
            }
            let all = c.openloop.slowdown.overall();
            row.push(if all.is_empty() {
                "-/-".into()
            } else {
                format!("{:.1}/{:.1}", all.percentile(0.50), all.percentile(0.99))
            });
            t.row(row);
        }
        write!(
            f,
            "Transport x topology matrix — permutation, incast and open-loop websearch @{:.0}% load\n{}",
            self.load * 100.0,
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let topos: Vec<&str> = {
            let mut seen = Vec::new();
            for c in &self.cells {
                if !seen.contains(&c.topo) {
                    seen.push(c.topo);
                }
            }
            seen
        };
        let per_topo: Vec<String> = topos
            .iter()
            .map(|&t| {
                format!(
                    "{t}: NDP util {:.0}%/p99 {}",
                    100.0 * self.utilization(t, Proto::Ndp),
                    fmt_or_dash(self.p99(t, Proto::Ndp), 1)
                )
            })
            .collect();
        format!(
            "{} topologies x {} protocols @{:.0}% load — {}",
            topos.len(),
            SWEEP_PROTOS.len(),
            self.load * 100.0,
            per_topo.join("; ")
        )
    }

    fn run_stats(&self) -> crate::registry::RunStats {
        crate::registry::RunStats::over_worlds(self.cells.iter().map(|c| {
            let o = &c.openloop;
            (
                o.events_processed,
                o.event_kinds,
                o.peak_live_components,
                o.peak_live_flows,
            )
        }))
    }

    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("load", Json::num(self.load)),
            (
                "bins",
                Json::arr(SLOWDOWN_BIN_LABELS.iter().map(|&l| Json::str(l))),
            ),
            (
                "cells",
                Json::arr(self.cells.iter().map(|c| {
                    let all = c.openloop.slowdown.overall();
                    let (p50, p99) = if all.is_empty() {
                        (f64::NAN, f64::NAN)
                    } else {
                        (all.percentile(0.50), all.percentile(0.99))
                    };
                    Json::obj([
                        ("topo", Json::str(c.topo)),
                        ("proto", Json::str(c.proto.label())),
                        ("perm_utilization", Json::num(c.perm_utilization)),
                        ("incast_senders", Json::num(c.incast_senders as f64)),
                        ("incast_last_ms", Json::num(c.incast_last_ms)),
                        ("incast_incomplete", Json::num(c.incast_incomplete as f64)),
                        ("measured", Json::num(c.openloop.measured as f64)),
                        ("incomplete", Json::num(c.openloop.incomplete as f64)),
                        (
                            "overall",
                            Json::obj([
                                ("n", Json::num(all.len() as f64)),
                                ("p50", Json::num(p50)),
                                ("p99", Json::num(p99)),
                            ]),
                        ),
                        (
                            "slowdown_bins",
                            Json::arr((0..c.openloop.slowdown.n_bins()).map(|i| {
                                Json::obj([
                                    ("bin", Json::str(SLOWDOWN_BIN_LABELS[i])),
                                    ("n", Json::num(c.openloop.slowdown.bin(i).len() as f64)),
                                    ("p50", Json::num(c.openloop.slowdown.percentile(i, 0.50))),
                                    ("p99", Json::num(c.openloop.slowdown.percentile(i, 0.99))),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn matrix_covers_topologies_and_protocols_with_populated_cells() {
        let rep = run(Scale::Quick, None);
        crate::registry::document::pin("topo_matrix", &rep);
        assert_eq!(rep.cells.len(), MATRIX_TOPOS.len() * SWEEP_PROTOS.len());
        let topos: std::collections::HashSet<&str> = rep.cells.iter().map(|c| c.topo).collect();
        assert_eq!(topos.len(), 3);
        for c in &rep.cells {
            assert!(
                c.openloop.measured > 0,
                "{}/{}: no measured flows",
                c.topo,
                c.proto.label()
            );
            assert!(
                !c.openloop.slowdown.is_empty(),
                "{}/{}: empty slowdown bins",
                c.topo,
                c.proto.label()
            );
            assert!(
                c.perm_utilization > 0.0,
                "{}/{}: dead permutation",
                c.topo,
                c.proto.label()
            );
        }
        // Every cell of the document carries an overall slowdown and at
        // least one populated bin.
        let doc = crate::registry::Report::to_json(&rep);
        let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64);
        for cell in doc.get("cells").and_then(Json::as_arr).expect("cells") {
            let key = (cell.get("topo"), cell.get("proto"));
            let overall = cell.get("overall").expect("an overall slowdown");
            assert!(num(overall, "n") > Some(0.0), "{key:?}");
            for p in ["p50", "p99"] {
                assert!(num(overall, p).is_some(), "{key:?}: overall {p} is null");
            }
            let bins = cell.get("slowdown_bins").and_then(Json::as_arr);
            let populated = bins
                .expect("slowdown bins")
                .iter()
                .filter(|b| num(b, "n") > Some(0.0) && num(b, "p50").is_some());
            assert!(populated.count() > 0, "{key:?}: all slowdown bins null");
        }
        // NDP keeps full-bisection fabrics busy and leads DCTCP's p99 on
        // the scarce-core shape.
        assert!(rep.utilization("fattree", Proto::Ndp) > 0.85);
        assert!(rep.utilization("leafspine", Proto::Ndp) > 0.85);
        assert!(
            rep.utilization("oversubscribed", Proto::Ndp) < rep.utilization("fattree", Proto::Ndp)
        );
    }

    #[test]
    fn single_topology_restriction_populates_one_column() {
        let rep = run(Scale::Quick, Some(crate::topo::registered("leafspine")));
        assert_eq!(rep.cells.len(), SWEEP_PROTOS.len());
        assert!(rep.cells.iter().all(|c| c.topo == "leafspine"));
        assert!(rep.cells.iter().all(|c| c.openloop.measured > 0));
    }
}
