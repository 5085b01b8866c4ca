//! The `failure_matrix` experiment family: open-loop traffic through a
//! scheduled fabric failure, per transport × topology.
//!
//! Each cell runs one seeded world through four windows: `warmup`
//! (unmeasured), `pre` (healthy baseline), `during` (one core-tier link
//! pair is down, both directions), and `post` (link restored). The
//! failure is executed inside simulated time by a
//! [`ndp_topology::ChaosController`] walking a [`FabricEvent`] schedule —
//! the same machinery `ndp run` exposes for ad-hoc campaigns — so the
//! switch port masks flip, buffered packets are lost, and multipath
//! senders must re-spray around the hole while single-path transports
//! lean on retransmission.
//!
//! Every completed flow is attributed to the phase its *arrival* fell in
//! (a flow that starts healthy and finishes mid-failure is a `pre` flow
//! whose slowdown absorbs the failure), and each phase reports
//! p50/p99/p999 slowdown. The cell also reports `stuck_flows` (measured
//! flows that never completed within the drain cap — the survivability
//! claim is that NDP has zero), `reroutes` (packets the switches steered
//! off dead ports), and the controller's per-kind link-event tally.
//!
//! Measured at quick scale since every host NIC serves its flows
//! round-robin: DCTCP's pre-failure p99 slowdown fell 65.0 → 4.6 on
//! leaf-spine and 11.4 → 2.8 on the FatTree, below NDP's 16.4 and 3.0;
//! pHost's fell 10.1 → 4.8 and 8.0 → 2.9. NDP's lead in the healthy phase
//! was the baselines' FIFO NICs.
//!
//! No cell strands a flow. DCTCP used to leave one stuck on each fabric:
//! a burst lost around the failure, repaired one hole per backed-off RTO.
//! That was the TCP family's RTO expiry, not single-path routing; since an
//! expiry goes back N (and `alpha` starts at 1), DCTCP's FatTree
//! during-failure p99 is 246.8 (was 1185.6) and its pre-failure p99 reads
//! 5.2 on leaf-spine and 3.6 on the FatTree, where NDP's 3.0 leads again.

use std::sync::{Arc, Mutex};

use ndp_metrics::{fmt_or_dash, SlowdownBins, Table};
use ndp_net::flight::{FlightHook, FlightRecorder};
use ndp_net::packet::Packet;
use ndp_net::queue::Queue;
use ndp_net::switch::Switch;
use ndp_sim::{SchedulerKind, Time, World};
use ndp_topology::{link_index, ChaosController, ChaosTally, FabricEvent, FabricOp, Topology};

use crate::driver::{run_driven, DrivenSpec, Instruments};
use crate::harness::{Proto, Scale};
use crate::openloop::{flow_source, DistKind, SWEEP_PROTOS};
use crate::sweep;
use crate::topo::{registered, TopoEntry, TopoSpec};

/// The default topology axis: one three-tier and one two-tier fabric, so
/// the failure exercises both the Agg→Core and the ToR→Spine reroute
/// arithmetic.
pub const MATRIX_TOPOS: &[&str] = &["fattree", "leafspine"];

/// The phase labels, in timeline order.
pub const PHASES: &[&str] = &["pre", "during", "post"];

/// One (transport, topology) failure-injection simulation.
#[derive(Clone, Debug)]
pub struct FailurePoint {
    pub proto: Proto,
    pub topo: TopoSpec,
    pub dist: DistKind,
    pub load: f64,
    pub seed: u64,
    pub warmup: Time,
    /// Healthy baseline window (measured).
    pub pre: Time,
    /// Failure window: the victim link pair is down throughout.
    pub during: Time,
    /// Recovery window after the link comes back.
    pub post: Time,
    /// Drain cap after arrivals stop.
    pub drain: Time,
    /// Engine scheduler override (`None` = the process default), used by
    /// the determinism tests to A/B the two scheduler implementations.
    pub sched: Option<SchedulerKind>,
}

/// One cell's results.
pub struct FailureResult {
    pub proto: Proto,
    pub topo: &'static str,
    /// Per-phase slowdown samples, indexed like [`PHASES`].
    pub phases: [SlowdownBins; 3],
    /// Flows whose start fell in the measurement window.
    pub measured: usize,
    /// Measured flows that did not complete within the drain cap.
    pub stuck_flows: usize,
    pub offered: usize,
    /// Directional links taken down at the failure instant.
    pub failed_links: usize,
    /// Packets steered off dead ports, summed over every switch.
    pub reroutes: u64,
    /// Packets lost to down links (flushed, on-the-wire, or unbounceable
    /// arrivals), summed over every queue.
    pub dropped_down: u64,
    /// The chaos controller's per-kind event tally.
    pub tally: ChaosTally,
    pub events_processed: u64,
    pub event_kinds: ndp_sim::EventKindCounts,
    pub peak_live_components: usize,
    pub peak_live_flows: usize,
}

impl FailureResult {
    /// Phase percentile, NaN when the phase has no samples (the shared
    /// nearest-rank helper in `ndp_metrics::percentile`).
    pub fn percentile(&self, phase: usize, p: f64) -> f64 {
        self.phases[phase].overall().percentile_or_nan(p)
    }
}

/// The victim: the first core-tier link pair the fabric has, by label —
/// `agg_up[0][0]`/`core_down[0][0]` on three-tier shapes,
/// `tor_up[0][0]`/`spine_down[0][0]` on two-tier ones. Both directions
/// die together, like a real transceiver failure. Fabrics with neither
/// (back-to-back) get no failure: the matrix still runs, as a control.
fn victim_links(topo: &dyn Topology) -> Vec<usize> {
    let links = topo.links();
    for pair in [
        ["agg_up[0][0]", "core_down[0][0]"],
        ["tor_up[0][0]", "spine_down[0][0]"],
    ] {
        let found: Vec<usize> = pair
            .iter()
            .filter_map(|label| link_index(&links, label))
            .collect();
        if found.len() == pair.len() {
            return found;
        }
    }
    Vec::new()
}

/// The simulation behind one [`FailurePoint`]: an open-loop driven point
/// (see [`crate::driver`]) whose set-up hook installs a
/// [`ChaosController`] that kills the victim link pair for the `during`
/// window and, under a telemetry session, instruments the victims and
/// every switch.
pub(crate) fn failure_world_run(point: &FailurePoint) -> FailureResult {
    let pre_end = point.warmup + point.pre;
    let during_end = pre_end + point.during;
    let arrivals_end = during_end + point.post;
    // Note: SlowdownBins::default() has no bins — `new()` is the
    // shape-stable constructor.
    let mut phases: [SlowdownBins; 3] = [
        SlowdownBins::new(),
        SlowdownBins::new(),
        SlowdownBins::new(),
    ];
    let mut failed_links = 0;
    let mut ctrl = None;
    let spec = DrivenSpec {
        proto: point.proto,
        topo: &point.topo,
        seed: point.seed,
        sched: point.sched,
        warmup: point.warmup,
        arrivals_end,
        drain: point.drain,
        chunk_of: arrivals_end,
        request_trees: false,
        cell: "",
    };
    let (d, world) = run_driven(
        &spec,
        |world, topo, traced| {
            let victims = victim_links(topo.as_ref());
            failed_links = victims.len();
            let mut schedule = Vec::with_capacity(victims.len() * 2);
            for &link in &victims {
                schedule.push(FabricEvent {
                    at: pre_end,
                    op: FabricOp::LinkDown { link },
                });
                schedule.push(FabricEvent {
                    at: during_end,
                    op: FabricOp::LinkUp { link },
                });
            }
            ctrl = (!schedule.is_empty())
                .then(|| ChaosController::install_into(world, topo.as_ref(), schedule));
            let inst = if traced {
                instrument(world, topo.as_ref(), &victims)
            } else {
                Instruments::default()
            };
            let source = flow_source(
                topo.as_ref(),
                point.dist,
                point.load,
                point.seed,
                arrivals_end,
            );
            (source, inst)
        },
        // Phase of a measured flow, by its arrival instant.
        |c| {
            let phase = usize::from(c.start >= pre_end) + usize::from(c.start >= during_end);
            phases[phase].add(c.bytes, c.slowdown)
        },
    );

    let ids: Vec<_> = world.ids().collect();
    let reroutes = ids
        .iter()
        .filter_map(|&id| world.try_get::<Switch>(id))
        .map(|sw| sw.rerouted)
        .sum();
    let dropped_down = ids
        .iter()
        .filter_map(|&id| world.try_get::<Queue>(id))
        .map(|q| q.stats.dropped_down)
        .sum();
    let tally = ctrl.map_or(ChaosTally::default(), |c| {
        world.get::<ChaosController>(c).tally
    });
    FailureResult {
        proto: point.proto,
        topo: point.topo.name(),
        phases,
        measured: d.measured,
        stuck_flows: d.stuck.len(),
        offered: d.offered,
        failed_links,
        reroutes,
        dropped_down,
        tally,
        events_processed: world.events_processed(),
        event_kinds: world.event_kind_counts(),
        peak_live_components: world.peak_live_components(),
        peak_live_flows: d.peak_live_flows,
    }
}

/// A traced cell's flight-recorder ring capacity.
const FLIGHT_CAPACITY: usize = 65536;

/// A cell's telemetry targets: a flight recorder on the victim queues
/// plus reroute hooks on every switch, and the same components as probe
/// targets.
fn instrument(world: &mut World<Packet>, topo: &dyn Topology, victims: &[usize]) -> Instruments {
    let links = topo.links();
    let recorder = Arc::new(Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY)));
    let mut inst = Instruments::default();
    for &li in victims {
        let l = &links[li];
        let tag = inst.tags.len() as u32;
        inst.tags.push(l.label.clone());
        inst.queues.push((l.queue, tag));
        let hook = FlightHook::new(Arc::clone(&recorder), tag);
        world.get_mut::<Queue>(l.queue).set_flight_hook(Some(hook));
    }
    let ids: Vec<_> = world.ids().collect();
    for id in ids {
        if world.try_get::<Switch>(id).is_none() {
            continue;
        }
        let tag = inst.tags.len() as u32;
        inst.tags.push(format!("switch[{}]", inst.switches.len()));
        inst.switches.push((id, tag));
        let hook = FlightHook::new(Arc::clone(&recorder), tag);
        world.get_mut::<Switch>(id).set_flight_hook(Some(hook));
    }
    inst.recorder = Some(recorder);
    inst
}

pub struct Report {
    pub load: f64,
    pub cells: Vec<FailureResult>,
}

/// (warmup, pre, during, post, drain) windows. The drain is a *cap*, not
/// a fixed horizon — the run ends the moment the live-flow gauge hits
/// zero — so it is sized generously: an elephant arriving at the very end
/// of the post window needs tens of milliseconds to finish, and counting
/// that natural tail as "stuck" would drown the survivability signal.
fn windows(scale: Scale) -> (Time, Time, Time, Time, Time) {
    match scale {
        Scale::Paper => (
            Time::from_ms(5),
            Time::from_ms(15),
            Time::from_ms(15),
            Time::from_ms(15),
            Time::from_ms(200),
        ),
        Scale::Quick => (
            Time::from_ms(2),
            Time::from_ms(6),
            Time::from_ms(6),
            Time::from_ms(6),
            Time::from_ms(120),
        ),
    }
}

pub fn run(scale: Scale, topo: Option<&'static TopoEntry>) -> Report {
    let entries: Vec<&'static TopoEntry> = match topo {
        Some(e) => vec![e],
        None => MATRIX_TOPOS.iter().map(|n| registered(n)).collect(),
    };
    let (warmup, pre, during, post, drain) = windows(scale);
    // High enough that the dead link's lost capacity visibly hurts the
    // during-failure percentiles, low enough that every transport's
    // recovery machinery still completes the post-failure tail.
    let load = 0.3;
    let points: Vec<FailurePoint> = entries
        .iter()
        .enumerate()
        .flat_map(|(ti, e)| {
            SWEEP_PROTOS.iter().map(move |&proto| FailurePoint {
                proto,
                topo: e.spec(scale),
                dist: DistKind::WebSearch,
                load,
                // One seed per topology, shared across protocols: paired
                // arrival sequences within each fabric column.
                seed: 0xFA11 + ti as u64,
                warmup,
                pre,
                during,
                post,
                drain,
                sched: None,
            })
        })
        .collect();
    let cells = sweep::run(&points, failure_world_run);
    Report { load, cells }
}

impl Report {
    /// One cell's phase p99, NaN when missing.
    pub fn p99(&self, topo: &str, proto: Proto, phase: usize) -> f64 {
        self.cells
            .iter()
            .find(|c| c.topo == topo && c.proto == proto)
            .map(|c| c.percentile(phase, 0.99))
            .unwrap_or(f64::NAN)
    }

    pub fn stuck(&self, topo: &str, proto: Proto) -> usize {
        self.cells
            .iter()
            .find(|c| c.topo == topo && c.proto == proto)
            .map(|c| c.stuck_flows)
            .unwrap_or(usize::MAX)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut header = vec![
            "topology".to_string(),
            "protocol".into(),
            "flows".into(),
            "stuck".into(),
            "reroutes".into(),
            "events".into(),
        ];
        for phase in PHASES {
            header.push(format!("{phase} p50/p99/p999"));
        }
        let mut t = Table::new(header);
        for c in &self.cells {
            let mut row = vec![
                c.topo.to_string(),
                c.proto.label().to_string(),
                c.measured.to_string(),
                c.stuck_flows.to_string(),
                c.reroutes.to_string(),
                c.tally.applied().to_string(),
            ];
            for phase in 0..PHASES.len() {
                row.push(format!(
                    "{}/{}/{}",
                    fmt_or_dash(c.percentile(phase, 0.50), 1),
                    fmt_or_dash(c.percentile(phase, 0.99), 1),
                    fmt_or_dash(c.percentile(phase, 0.999), 1)
                ));
            }
            t.row(row);
        }
        write!(
            f,
            "Failure matrix — one core-tier link pair down mid-run @{:.0}% load\n{}",
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
                    "{t}: NDP p99 {}→{}→{}, {} stuck",
                    fmt_or_dash(self.p99(t, Proto::Ndp, 0), 1),
                    fmt_or_dash(self.p99(t, Proto::Ndp, 1), 1),
                    fmt_or_dash(self.p99(t, Proto::Ndp, 2), 1),
                    self.stuck(t, Proto::Ndp),
                )
            })
            .collect();
        format!(
            "link failure mid-run @{:.0}% load, pre→during→post slowdown — {}",
            self.load * 100.0,
            per_topo.join("; ")
        )
    }

    fn run_stats(&self) -> crate::registry::RunStats {
        crate::registry::RunStats {
            link_events_applied: Some(self.cells.iter().map(|c| c.tally.applied()).sum()),
            reroutes: Some(self.cells.iter().map(|c| c.reroutes).sum()),
            stuck_flows: Some(self.cells.iter().map(|c| c.stuck_flows as u64).sum()),
            dropped_down: Some(self.cells.iter().map(|c| c.dropped_down).sum()),
            ..crate::registry::RunStats::over_worlds(self.cells.iter().map(|c| {
                (
                    c.events_processed,
                    c.event_kinds,
                    c.peak_live_components,
                    c.peak_live_flows,
                )
            }))
        }
    }

    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("load", Json::num(self.load)),
            ("phases", Json::arr(PHASES.iter().map(|&p| Json::str(p)))),
            (
                "cells",
                Json::arr(self.cells.iter().map(|c| {
                    Json::obj([
                        ("topo", Json::str(c.topo)),
                        ("proto", Json::str(c.proto.label())),
                        ("measured", Json::num(c.measured as f64)),
                        ("stuck_flows", Json::num(c.stuck_flows as f64)),
                        ("failed_links", Json::num(c.failed_links as f64)),
                        ("reroutes", Json::num(c.reroutes as f64)),
                        ("dropped_down", Json::num(c.dropped_down as f64)),
                        (
                            "link_events",
                            Json::obj([
                                ("applied", Json::num(c.tally.applied() as f64)),
                                ("link_down", Json::num(c.tally.link_down as f64)),
                                ("link_up", Json::num(c.tally.link_up as f64)),
                            ]),
                        ),
                        (
                            "phases",
                            Json::arr((0..PHASES.len()).map(|ph| {
                                Json::obj([
                                    ("phase", Json::str(PHASES[ph])),
                                    ("n", Json::num(c.phases[ph].overall().len() as f64)),
                                    ("p50", Json::num(c.percentile(ph, 0.50))),
                                    ("p99", Json::num(c.percentile(ph, 0.99))),
                                    ("p999", Json::num(c.percentile(ph, 0.999))),
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
    use std::collections::BTreeSet;

    fn quick_point(topo: &str, proto: Proto, seed: u64) -> FailurePoint {
        let (warmup, pre, during, post, drain) = windows(Scale::Quick);
        FailurePoint {
            proto,
            topo: registered(topo).spec(Scale::Quick),
            dist: DistKind::WebSearch,
            load: 0.3,
            seed,
            warmup,
            pre,
            during,
            post,
            drain,
            sched: None,
        }
    }

    fn fingerprint(r: &FailureResult) -> Vec<u64> {
        let mut v = vec![
            r.measured as u64,
            r.stuck_flows as u64,
            r.offered as u64,
            r.reroutes,
            r.tally.applied(),
            r.events_processed,
        ];
        for (ph, bins) in r.phases.iter().enumerate() {
            v.push(bins.overall().len() as u64);
            v.push(r.percentile(ph, 0.99).to_bits());
        }
        v
    }

    #[test]
    fn ndp_survives_a_core_link_failure_with_zero_stuck_flows() {
        let r = failure_world_run(&quick_point("fattree", Proto::Ndp, 0xFA11));
        assert_eq!(r.failed_links, 2, "both directions of the victim die");
        assert_eq!(r.tally.applied(), 4, "2x LinkDown + 2x LinkUp");
        for (ph, bins) in r.phases.iter().enumerate() {
            assert!(
                !bins.is_empty(),
                "phase {} measured no completions",
                PHASES[ph]
            );
        }
        // The survivability claim: every measured flow completes.
        assert_eq!(r.stuck_flows, 0, "NDP must strand no flows");
        // The during-failure window visibly hurts vs. the healthy baseline
        // (respray + retransmission around the hole cost real time).
        let (pre, during) = (r.percentile(0, 0.99), r.percentile(1, 0.99));
        assert!(
            during > pre,
            "failure should degrade p99: pre {pre:.2} vs during {during:.2}"
        );
        // The reroute path actually fired while the link was down.
        assert!(r.reroutes > 0, "no packets were steered off the dead port");
    }

    #[test]
    fn failure_run_is_bit_identical_across_threads_and_schedulers() {
        let points = vec![
            quick_point("fattree", Proto::Ndp, 7),
            quick_point("leafspine", Proto::Dctcp, 7),
        ];
        let serial: Vec<_> = sweep::run_with_threads(&points, 1, failure_world_run)
            .iter()
            .map(fingerprint)
            .collect();
        let threaded: Vec<_> = sweep::run_with_threads(&points, 7, failure_world_run)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(serial, threaded, "thread count changed results");
        for (kind, point) in [
            (SchedulerKind::TwoTier, &points[0]),
            (SchedulerKind::Classic, &points[0]),
        ] {
            let mut p = point.clone();
            p.sched = Some(kind);
            assert_eq!(
                fingerprint(&failure_world_run(&p)),
                serial[0],
                "{kind:?} scheduler diverged from the default"
            );
        }
    }

    /// The matrix covers at least two topologies and two transports; every
    /// cell measures flows, kills links and reports a non-null p50/p99/p999
    /// slowdown for every phase; no cell strands a flow; NDP reroutes
    /// around the dead link; and the envelope carries the chaos counters.
    #[test]
    fn matrix_covers_both_axes_and_reports_chaos_counters() {
        let rep = run(Scale::Quick, None);
        crate::registry::document::pin("failure_matrix", &rep);
        assert_eq!(rep.cells.len(), MATRIX_TOPOS.len() * SWEEP_PROTOS.len());
        let topos: BTreeSet<_> = rep.cells.iter().map(|c| c.topo).collect();
        let protos: BTreeSet<_> = rep.cells.iter().map(|c| c.proto.label()).collect();
        assert!(topos.len() >= 2, "need >=2 topologies, got {topos:?}");
        assert!(protos.len() >= 2, "need >=2 transports, got {protos:?}");
        for c in &rep.cells {
            let key = format!("{}/{}", c.topo, c.proto.label());
            assert!(c.measured > 0, "{key}: no measured flows");
            assert!(c.failed_links > 0, "{key}: no link failed");
            assert_eq!(c.tally.applied(), 4, "{}: wrong event tally", c.topo);
            assert_eq!(c.stuck_flows, 0, "{key}: stranded flows");
            for (ph, phase) in PHASES.iter().enumerate() {
                assert!(!c.phases[ph].is_empty(), "{key} {phase}: no samples");
                for p in [0.50, 0.99, 0.999] {
                    let v = c.percentile(ph, p);
                    assert!(v.is_finite(), "{key} {phase}: p{p} is null");
                }
            }
            if c.proto == Proto::Ndp {
                assert!(c.reroutes > 0, "{key}: NDP never rerouted");
            }
        }
        // The registry envelope carries the chaos counters.
        let stats = crate::registry::Report::run_stats(&rep);
        assert_eq!(stats.link_events_applied, Some(4 * rep.cells.len() as u64));
        assert!(stats.stuck_flows.is_some());
        assert!(stats.reroutes > Some(0), "{:?}", stats.reroutes);
        assert!(stats.dropped_down > Some(0), "{:?}", stats.dropped_down);
    }
}
