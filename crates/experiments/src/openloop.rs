//! Open-loop dynamic traffic: Poisson flow arrivals drawn from an
//! empirical size distribution, swept over offered load, reported as FCT
//! slowdown per flow-size bin — the standard "slowdown vs. load" axis the
//! low-latency-DC literature compares transports on.
//!
//! [`ndp_workloads::DynamicWorkload`] turns (hosts × [`ArrivalProcess`] ×
//! [`EmpiricalCdf`]) into a time-ordered stream of `(start, src, dst,
//! bytes)` events, and each point runs it as the request source of a
//! driven point (see [`crate::driver`]: an open-loop flow is a fan-out-1
//! request). Each measured flow's FCT is taken against its own start time
//! and normalized by [`Topology::ideal_fct`] — the topology's own
//! unloaded-network lower bound, computed from its per-hop link speeds —
//! to give its slowdown, streamed into [`SlowdownBins`] chunk by chunk.
//!
//! The whole pipeline is topology-neutral: the default fabric comes from
//! the [`crate::topo`] registry, so the same sweep runs on any registered
//! shape via `ndp run <id> --topo <name>`.
//!
//! Every host NIC serves its flows round-robin, the baselines' as well as
//! NDP's. While DCTCP's and pHost's NICs were one FIFO per host, a short
//! flow waited behind its host's TCP windows, and part of NDP's margin
//! below was theirs. Measured at quick scale, p99 slowdown before → after
//! the baselines' NICs became round robins:
//!
//! * `load_datamining` at 50% load: DCTCP 3725.9 → 3.4, pHost 30.7 → 3.3,
//!   against NDP's 3.3. NDP's lead there was the baselines' NICs; it is
//!   gone.
//! * `load_websearch` at 50%: DCTCP 29.9 → 18.4, pHost 8.4 → 7.3, NDP 4.5.
//!   At 30% DCTCP's p99 got worse, 45.0 → 59.1 (its 0–10 KB bin), and
//!   pHost leaves one flow incomplete, as it already did at 50% (ROADMAP
//!   item 1(b)).
//! * `oversub_load` at 20%: DCTCP 80.8 → 51.8, pHost 9.7 → 7.1, NDP 6.0.
//!
//! DCTCP's `alpha` then began at 1, so a short flow backs off from a
//! marking queue in its first window, and its RTO expiry began to go back
//! N. DCTCP's p99 before → after, NDP unchanged:
//!
//! * `load_websearch`: at 50% 18.4 → 11.2 (NDP 4.5), at 30% 59.1 → 42.5
//!   (NDP 4.4). At 10% it got worse, 2.3 → 3.8 (NDP 2.1), in its >1 MB
//!   bin. No DCTCP flow is left incomplete at any load.
//! * `oversub_load`: at 20% 51.8 → 19.3 (NDP 6.0), at 10% 43.7 → 35.7, at
//!   5% 171.2 → 41.0; incomplete flows 5/1/3 → 1/0/3 at 5/10/20%.

use ndp_metrics::{fmt_or_dash, SlowdownBins, Table, SLOWDOWN_BIN_LABELS};
use ndp_sim::{EventKindCounts, Time};
use ndp_topology::Topology;
use ndp_workloads::{ArrivalProcess, DynamicWorkload, EmpiricalCdf};

use crate::driver::{run_driven, DrivenSpec, Flows, Instruments, RequestSource};
use crate::harness::{Proto, Scale};
use crate::sweep::{self, OpenLoopPoint};
use crate::topo::{registered, TopoEntry, TopoSpec};

/// Which embedded flow-size distribution a load sweep draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistKind {
    WebSearch,
    DataMining,
}

impl DistKind {
    pub fn cdf(self) -> EmpiricalCdf {
        match self {
            DistKind::WebSearch => EmpiricalCdf::websearch(),
            DistKind::DataMining => EmpiricalCdf::datamining(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            DistKind::WebSearch => "websearch",
            DistKind::DataMining => "datamining",
        }
    }
}

/// One protocol × load point of an open-loop sweep.
pub struct OpenLoopResult {
    pub proto: Proto,
    pub load: f64,
    /// Slowdowns of measured flows that completed, by size bin.
    pub slowdown: SlowdownBins,
    /// Flows whose start fell in the measurement window.
    pub measured: usize,
    /// Measured flows that did not complete within the drain window.
    pub incomplete: usize,
    /// All flows offered (warmup + measured).
    pub offered: usize,
    /// Payload bytes delivered by completed flows, summed from the
    /// harvests the driver takes as it detaches them.
    pub delivered_bytes: u64,
    /// Engine events dispatched (bench fuel).
    pub events_processed: u64,
    /// Per-kind tally of posted events (zero-delay forwards, timed
    /// messages, timer wakes) — the scheduler-lane mix of the run.
    pub event_kinds: EventKindCounts,
    /// High-water mark of concurrently in-flight flows — with lazy attach
    /// and retirement this is ≪ `offered` on any long run.
    pub peak_live_flows: usize,
    /// Arena population before any traffic was attached.
    pub live_components_baseline: usize,
    /// Arena population after the drain (back to baseline when every flow
    /// retired cleanly).
    pub live_components_end: usize,
    /// Arena high-water mark over the whole run.
    pub peak_live_components: usize,
}

/// Run one open-loop point (benches, ad-hoc runs).
pub fn openloop_run(point: OpenLoopPoint) -> OpenLoopResult {
    openloop_world_run(&point)
}

/// The open-loop flow stream of one point as a request source. It is a
/// function of (seed, load, dist) only — every protocol at the same point
/// sees the identical flow sequence, so comparisons are paired, not merely
/// distributionally matched.
pub(crate) fn flow_source(
    topo: &dyn Topology,
    dist: DistKind,
    load: f64,
    seed: u64,
    arrivals_end: Time,
) -> Box<dyn RequestSource> {
    let sizes = dist.cdf();
    let process =
        ArrivalProcess::poisson_for_load(load, topo.host_link_speed().as_bps(), sizes.mean_size());
    Box::new(Flows::new(DynamicWorkload::new(
        topo.n_hosts(),
        process,
        sizes,
        seed ^ 0xD15C,
        arrivals_end.as_ps(),
    )))
}

/// The simulation behind one [`OpenLoopPoint`], on [`run_driven`]: each
/// measured flow's slowdown streams into [`SlowdownBins`].
pub(crate) fn openloop_world_run(point: &OpenLoopPoint) -> OpenLoopResult {
    let arrivals_end = point.warmup + point.measure;
    let mut slowdown = SlowdownBins::new();
    let cell = format!("load{:.2}", point.load);
    let spec = DrivenSpec {
        proto: point.proto,
        topo: &point.topo,
        seed: point.seed,
        sched: None,
        warmup: point.warmup,
        arrivals_end,
        drain: point.drain,
        chunk_of: point.measure,
        request_trees: false,
        cell: &cell,
    };
    let (d, world) = run_driven(
        &spec,
        |_, topo, _| {
            let source = flow_source(
                topo.as_ref(),
                point.dist,
                point.load,
                point.seed,
                arrivals_end,
            );
            (source, Instruments::default())
        },
        |c| slowdown.add(c.bytes, c.slowdown),
    );
    OpenLoopResult {
        proto: point.proto,
        load: point.load,
        slowdown,
        measured: d.measured,
        incomplete: d.stuck.len(),
        offered: d.offered,
        delivered_bytes: d.delivered_bytes,
        events_processed: world.events_processed(),
        event_kinds: world.event_kind_counts(),
        peak_live_flows: d.peak_live_flows,
        live_components_baseline: d.live_components_baseline,
        live_components_end: world.live_components(),
        peak_live_components: world.peak_live_components(),
    }
}

/// The protocols every load sweep contends: NDP against the best-known
/// sender-driven (DCTCP) and receiver-driven (pHost) baselines.
pub const SWEEP_PROTOS: &[Proto] = &[Proto::Ndp, Proto::Dctcp, Proto::PHost];

fn windows(dist: DistKind, scale: Scale) -> (Time, Time, Time) {
    match (dist, scale) {
        (DistKind::WebSearch, Scale::Paper) => {
            (Time::from_ms(5), Time::from_ms(50), Time::from_ms(40))
        }
        (DistKind::WebSearch, Scale::Quick) => {
            (Time::from_ms(2), Time::from_ms(20), Time::from_ms(20))
        }
        // Data-mining flows are ~8x larger on average, so arrivals are 8x
        // sparser at equal load; measure longer to see comparable counts.
        (DistKind::DataMining, Scale::Paper) => {
            (Time::from_ms(5), Time::from_ms(120), Time::from_ms(60))
        }
        (DistKind::DataMining, Scale::Quick) => {
            (Time::from_ms(2), Time::from_ms(60), Time::from_ms(30))
        }
    }
}

/// Build and run a (load × protocol) grid for one distribution/topology.
fn run_grid(
    dist: DistKind,
    topo: TopoSpec,
    loads: &[f64],
    scale: Scale,
    seed: u64,
) -> Vec<OpenLoopResult> {
    let (warmup, measure, drain) = windows(dist, scale);
    let mut points = Vec::with_capacity(loads.len() * SWEEP_PROTOS.len());
    for (li, &load) in loads.iter().enumerate() {
        for &proto in SWEEP_PROTOS {
            points.push(OpenLoopPoint {
                proto,
                topo: topo.clone(),
                dist,
                load,
                // One seed per load point, shared across protocols: every
                // transport replays the identical arrival sequence.
                seed: seed + li as u64,
                warmup,
                measure,
                drain,
            });
        }
    }
    sweep::run(&points, openloop_world_run)
}

/// A finished load sweep: one row per (protocol, load).
pub struct LoadSweepReport {
    pub dist: DistKind,
    pub oversub: bool,
    /// `Some(name)` when a `--topo`/`NDP_TOPO` override replaced the
    /// sweep's default fabric (shown in the rendered header and recorded
    /// in the CLI document envelope).
    pub topo_override: Option<&'static str>,
    pub loads: Vec<f64>,
    pub rows: Vec<OpenLoopResult>,
}

impl LoadSweepReport {
    pub(crate) fn run(
        dist: DistKind,
        oversub: bool,
        scale: Scale,
        seed: u64,
        topo: Option<&'static TopoEntry>,
    ) -> LoadSweepReport {
        // Full-bisection fabrics sweep load up to 80 % of the NIC; the
        // 4:1 oversubscribed fabric saturates its ToR uplinks near
        // ~28 % NIC load (uniform destinations), so its sweep stays
        // below that knee.
        let loads: Vec<f64> = match (oversub, scale) {
            (false, Scale::Paper) => (1..=8).map(|i| i as f64 / 10.0).collect(),
            (false, Scale::Quick) => vec![0.1, 0.3, 0.5],
            (true, Scale::Paper) => vec![0.05, 0.10, 0.15, 0.20, 0.25],
            (true, Scale::Quick) => vec![0.05, 0.10, 0.20],
        };
        // Default fabrics come from the topology registry: the canonical
        // full-bisection shape, or the Figure-23 4:1 variant.
        let default = registered(if oversub { "oversubscribed" } else { "fattree" });
        let spec = topo.unwrap_or(default).spec(scale);
        let topo_override = topo.map(|e| e.name);
        let rows = run_grid(dist, spec, &loads, scale, seed);
        LoadSweepReport {
            dist,
            oversub,
            topo_override,
            loads,
            rows,
        }
    }

    /// Overall p99 slowdown for (proto, load), NaN when nothing completed
    /// (the shared nearest-rank helper in `ndp_metrics::percentile`).
    pub fn p99(&self, proto: Proto, load: f64) -> f64 {
        self.rows
            .iter()
            .find(|r| r.proto == proto && r.load == load)
            .map(|r| r.slowdown.overall().percentile_or_nan(0.99))
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for LoadSweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut header: Vec<String> = vec![
            "protocol".into(),
            "load".into(),
            "flows".into(),
            "incompl".into(),
        ];
        for label in SLOWDOWN_BIN_LABELS {
            header.push(format!("{label} p50/p99"));
        }
        header.push("all p50/p99".into());
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut row = vec![
                r.proto.label().to_string(),
                format!("{:.0}%", r.load * 100.0),
                r.measured.to_string(),
                r.incomplete.to_string(),
            ];
            for i in 0..r.slowdown.n_bins() {
                row.push(format!(
                    "{}/{}",
                    fmt_or_dash(r.slowdown.percentile(i, 0.50), 1),
                    fmt_or_dash(r.slowdown.percentile(i, 0.99), 1)
                ));
            }
            let all = r.slowdown.overall();
            row.push(if all.is_empty() {
                "-/-".into()
            } else {
                format!("{:.1}/{:.1}", all.percentile(0.50), all.percentile(0.99))
            });
            t.row(row);
        }
        write!(
            f,
            "Open-loop {} load sweep{}{} — FCT slowdown by flow size\n{}",
            self.dist.label(),
            if self.oversub {
                " (4:1 oversubscribed fabric)"
            } else {
                ""
            },
            self.topo_override
                .map(|t| format!(" on {t}"))
                .unwrap_or_default(),
            t.render()
        )
    }
}

impl crate::registry::Report for LoadSweepReport {
    fn headline(&self) -> String {
        let &top = self.loads.last().expect("at least one load point");
        let per_proto: Vec<String> = SWEEP_PROTOS
            .iter()
            .map(|&p| format!("{} {}", p.label(), fmt_or_dash(self.p99(p, top), 1)))
            .collect();
        format!(
            "{}{}{} @{:.0}% load: p99 FCT slowdown {}",
            self.dist.label(),
            if self.oversub { " (4:1 oversub)" } else { "" },
            self.topo_override
                .map(|t| format!(" on {t}"))
                .unwrap_or_default(),
            top * 100.0,
            per_proto.join(", ")
        )
    }

    fn run_stats(&self) -> crate::registry::RunStats {
        crate::registry::RunStats::over_worlds(self.rows.iter().map(|r| {
            (
                r.events_processed,
                r.event_kinds,
                r.peak_live_components,
                r.peak_live_flows,
            )
        }))
    }

    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let bin_stats = |r: &OpenLoopResult| {
            Json::arr((0..r.slowdown.n_bins()).map(|i| {
                Json::obj([
                    ("bin", Json::str(SLOWDOWN_BIN_LABELS[i])),
                    ("n", Json::num(r.slowdown.bin(i).len() as f64)),
                    ("p50", Json::num(r.slowdown.percentile(i, 0.50))),
                    ("p99", Json::num(r.slowdown.percentile(i, 0.99))),
                ])
            }))
        };
        Json::obj([
            ("dist", Json::str(self.dist.label())),
            ("oversubscribed", Json::Bool(self.oversub)),
            ("loads", Json::arr(self.loads.iter().map(|&l| Json::num(l)))),
            (
                "bins",
                Json::arr(SLOWDOWN_BIN_LABELS.iter().map(|&l| Json::str(l))),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    let all = r.slowdown.overall();
                    let (p50, p99) = if all.is_empty() {
                        (f64::NAN, f64::NAN)
                    } else {
                        (all.percentile(0.50), all.percentile(0.99))
                    };
                    Json::obj([
                        ("proto", Json::str(r.proto.label())),
                        ("load", Json::num(r.load)),
                        ("measured", Json::num(r.measured as f64)),
                        ("incomplete", Json::num(r.incomplete as f64)),
                        ("offered", Json::num(r.offered as f64)),
                        (
                            "overall",
                            Json::obj([
                                ("n", Json::num(all.len() as f64)),
                                ("p50", Json::num(p50)),
                                ("p99", Json::num(p99)),
                            ]),
                        ),
                        ("bins", bin_stats(r)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RpcDriver;
    use ndp_net::packet::Packet;
    use ndp_net::Host;
    use ndp_sim::World;
    use ndp_workloads::FlowEvent;
    use std::sync::Arc;

    fn quick_point(proto: Proto, load: f64, seed: u64) -> OpenLoopPoint {
        OpenLoopPoint {
            proto,
            topo: registered("fattree").spec(Scale::Quick),
            dist: DistKind::WebSearch,
            load,
            seed,
            warmup: Time::from_ms(1),
            measure: Time::from_ms(8),
            drain: Time::from_ms(15),
        }
    }

    #[test]
    fn ndp_openloop_measures_flows_with_sane_slowdowns() {
        let r = openloop_world_run(&quick_point(Proto::Ndp, 0.4, 5));
        assert!(r.measured > 10, "only {} measured flows", r.measured);
        assert!(r.offered >= r.measured);
        let done = r.slowdown.len();
        assert!(done > 0, "no measured flow completed");
        assert_eq!(done + r.incomplete, r.measured);
        // ideal_fct is a lower bound, so every slowdown is >= 1 (allow
        // float rounding slack).
        assert!(
            r.slowdown.overall().min() >= 0.99,
            "slowdown below ideal: {}",
            r.slowdown.overall().min()
        );
        // NDP at 40% load on a full-bisection fabric stays close to ideal
        // at the median.
        let p50 = r.slowdown.overall().percentile(0.5);
        assert!(p50 < 4.0, "NDP median slowdown {p50:.2}");
        // The per-kind tally accounts for at least every dispatched event
        // (posts at the cap may go undispatched, never the reverse), and a
        // packet run exercises all three scheduler lanes.
        assert!(r.event_kinds.total() >= r.events_processed);
        assert!(r.event_kinds.forward > 0, "no zero-delay handoffs?");
        assert!(r.event_kinds.timed_msg > 0, "no timed messages?");
        assert!(r.event_kinds.wake > 0, "no timer wakes?");
    }

    #[test]
    fn openloop_is_deterministic_across_threads_and_runs() {
        let points = vec![
            quick_point(Proto::Ndp, 0.3, 9),
            quick_point(Proto::Dctcp, 0.3, 9),
        ];
        let fingerprint = |rs: &[OpenLoopResult]| -> Vec<(usize, usize, u64, u64)> {
            rs.iter()
                .map(|r| {
                    let all = r.slowdown.overall();
                    let (p50, p99) = if all.is_empty() {
                        (0, 0)
                    } else {
                        (
                            all.percentile(0.5).to_bits(),
                            all.percentile(0.99).to_bits(),
                        )
                    };
                    (r.measured, r.incomplete, p50, p99)
                })
                .collect()
        };
        let serial = fingerprint(&sweep::run_with_threads(&points, 1, openloop_world_run));
        let threaded = fingerprint(&sweep::run_with_threads(&points, 4, openloop_world_run));
        let again = fingerprint(&sweep::run_with_threads(&points, 4, openloop_world_run));
        assert_eq!(serial, threaded, "thread count changed results");
        assert_eq!(threaded, again, "repeated runs diverged");
    }

    #[test]
    fn same_seed_gives_identical_arrivals_across_protocols() {
        // Paired comparison contract: at one (seed, load, dist) point the
        // offered flow count is protocol-independent.
        let a = openloop_world_run(&quick_point(Proto::Ndp, 0.3, 3));
        let b = openloop_world_run(&quick_point(Proto::Dctcp, 0.3, 3));
        let c = openloop_world_run(&quick_point(Proto::PHost, 0.3, 3));
        assert_eq!(a.offered, b.offered);
        assert_eq!(b.offered, c.offered);
        assert_eq!(a.measured, b.measured);
    }

    #[test]
    fn driver_attaches_at_arrival_and_retires_on_completion() {
        let mut w: World<Packet> = World::new(1);
        let topo: Arc<dyn Topology> = Arc::from(
            registered("fattree")
                .spec(Scale::Quick)
                .build(&mut w, Proto::Ndp.fabric()),
        );
        let baseline = w.live_components();
        let start = Time::from_us(50);
        let arrival = FlowEvent {
            start_ps: start.as_ps(),
            src: 0,
            dst: 15,
            bytes: 90_000,
        };
        let sp = RpcDriver::install_into(
            &mut w,
            Proto::Ndp,
            topo.clone(),
            Box::new(Flows::new(std::iter::once(arrival))),
            Time::ZERO,
        );
        // Before the arrival instant nothing exists for the flow.
        w.run_until(Time::from_us(49));
        assert_eq!(w.get::<Host>(topo.host(0)).n_endpoints(), 0);
        assert_eq!(w.get::<RpcDriver>(sp).started, 0);
        w.run_until(Time::from_ms(20));
        let s = w.get::<RpcDriver>(sp);
        assert_eq!(s.started, 1);
        assert!(s.idle(), "completed flow must leave the live set");
        assert_eq!(s.peak_live_flows, 1);
        assert_eq!(s.completed.len(), 1);
        let fct_over_ideal = s.completed[0].slowdown;
        // Unloaded network: the flow runs at ideal speed, give ~200 us of
        // slack over the ~78 us ideal.
        let ideal = topo.ideal_fct(0, 15, 90_000);
        let bound = (ideal + Time::from_us(200)).as_ps() as f64 / ideal.as_ps() as f64;
        assert!(fct_over_ideal >= 0.99, "slowdown {fct_over_ideal}");
        assert!(fct_over_ideal < bound, "unloaded slowdown {fct_over_ideal}");
        // Both endpoints were detached the instant the flow finished.
        assert_eq!(w.get::<Host>(topo.host(0)).n_endpoints(), 0);
        assert_eq!(w.get::<Host>(topo.host(15)).n_endpoints(), 0);
        // Retiring the driver returns the arena to its pre-traffic state.
        w.retire(sp);
        assert_eq!(w.live_components(), baseline);
    }

    #[test]
    fn openloop_runs_on_every_registered_topology() {
        // The pipeline is fabric-agnostic: the same point measures flows
        // and books sane slowdowns on every registered shape.
        for entry in crate::topo::TOPOLOGIES {
            let mut point = quick_point(Proto::Ndp, 0.2, 11);
            point.topo = entry.spec(Scale::Quick);
            let r = openloop_world_run(&point);
            assert!(r.measured > 0, "{}: no measured flows", entry.name);
            assert!(
                !r.slowdown.is_empty(),
                "{}: no measured flow completed",
                entry.name
            );
            // ideal_fct is computed from the topology's own per-hop
            // speeds, so it stays a true lower bound even on the
            // oversubscribed shapes.
            assert!(
                r.slowdown.overall().min() >= 0.99,
                "{}: slowdown below ideal: {}",
                entry.name,
                r.slowdown.overall().min()
            );
            assert_eq!(
                r.live_components_end, r.live_components_baseline,
                "{}: arena must drain to baseline",
                entry.name
            );
        }
    }

    /// The `load_websearch` document, pinned, keeps its shape: every
    /// (protocol, load) row carries all four size bins, with ≥3 protocols
    /// and ≥3 loads; no NDP or DCTCP flow is left incomplete (NDP's
    /// liveness net; DCTCP's RTO expiry going back N, so a lost burst is
    /// repaired within one expiry at every load); and the run block reports
    /// engine events and the flow-lifecycle live gauges. pHost stays out:
    /// its known straggler (ROADMAP item 1(b)) shows at 30% load as well as
    /// 50%.
    #[test]
    fn load_websearch_document_keeps_its_shape() {
        use crate::json::Json;
        use crate::registry::{document, document_with_telemetry, find};
        use std::collections::BTreeSet;
        let exp = find("load_websearch").expect("load_websearch is registered");
        let report = (exp.run)(Scale::Quick, None);
        document::pin(exp.id, report.as_ref());
        let doc = document_with_telemetry(exp, Scale::Quick, None, report.as_ref(), 0.0, None);
        fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
            v.get(key).unwrap_or_else(|| panic!("no {key}: {v:?}"))
        }
        fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
            field(v, key).as_arr().expect("an array")
        }
        let run = field(&doc, "run");
        for gauge in [
            "events_processed",
            "peak_live_components",
            "peak_live_flows",
        ] {
            assert!(field(run, gauge).as_f64() > Some(0.0), "{gauge}: {run:?}");
        }
        let data = field(&doc, "data");
        let (bins, rows) = (list(data, "bins"), list(data, "rows"));
        assert_eq!(bins.len(), 4, "{bins:?}");
        let distinct = |key| {
            let values: BTreeSet<String> = rows.iter().map(|r| field(r, key).render()).collect();
            values.len()
        };
        assert!(distinct("proto") >= 3, "need >=3 protocols");
        assert!(distinct("load") >= 3, "need >=3 load points");
        for r in rows {
            let proto = field(r, "proto").as_str().expect("a label");
            let row_bins = list(r, "bins");
            let labels: Vec<&Json> = row_bins.iter().map(|b| field(b, "bin")).collect();
            assert!(labels.iter().copied().eq(bins), "{proto}: {labels:?}");
            for b in row_bins {
                for key in ["bin", "n", "p50", "p99"] {
                    assert!(b.get(key).is_some(), "{proto}: no {key} in {b:?}");
                }
            }
            let overall = field(r, "overall");
            for key in ["n", "p50", "p99"] {
                assert!(overall.get(key).is_some(), "{proto}: no overall {key}");
            }
            if matches!(proto, "NDP" | "DCTCP") {
                let load = field(r, "load").render();
                let incomplete = field(r, "incomplete").as_f64();
                assert_eq!(incomplete, Some(0.0), "{proto} load {load}: stuck flows");
            }
        }
    }

    #[test]
    fn openloop_live_state_returns_to_baseline_and_peak_is_bounded() {
        let r = openloop_world_run(&quick_point(Proto::Ndp, 0.4, 5));
        assert!(r.offered > 20, "want a non-trivial run, got {}", r.offered);
        // Everything the traffic attached was freed again; only the
        // stragglers' detach (if any) happened post-run.
        assert_eq!(
            r.live_components_end, r.live_components_baseline,
            "arena must drain back to the pre-traffic baseline"
        );
        // Lazy attach keeps the in-flight population far below the total
        // offered load, and the arena never grows with arrivals at all
        // (endpoints live inside hosts).
        assert!(
            r.peak_live_flows < r.offered,
            "peak {} vs offered {}",
            r.peak_live_flows,
            r.offered
        );
        assert_eq!(
            r.peak_live_components,
            r.live_components_baseline + 1,
            "only the driver joins the arena during traffic"
        );
        // The driver's detach harvests accounted for the completed flows'
        // payload.
        assert!(
            r.delivered_bytes > 0,
            "detach harvests must report delivered bytes"
        );
    }
}
