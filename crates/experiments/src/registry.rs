//! The experiment registry: every figure/table of the paper is one row
//! in [`EXPERIMENTS`] whose `run` returns a machine-readable [`Report`],
//! and the single `ndp` CLI drives them all.
//!
//! Adding a scenario is one module exposing its entry point and report,
//! plus one row in [`EXPERIMENTS`] — no new binary, no harness edits.
//! `ndp list` / `ndp run <id>` pick it up automatically.

use crate::harness::Scale;
use crate::json::Json;
use crate::openloop::{DistKind, LoadSweepReport};
use crate::rpc::{RpcSweepReport, RpcTenantMixReport};
use crate::topo::TopoEntry;
use crate::{
    failure_matrix, fig02_cp_collapse, fig04_latency_cdf, fig08_rpc_latency, fig09_testbed_incast,
    fig10_prioritization, fig11_iw_throughput, fig12_pull_spacing, fig13_pull_jitter_incast,
    fig14_permutation, fig15_short_flow_fct, fig16_incast_scaling, fig17_iw_buffer_sweep,
    fig19_collateral, fig20_large_incast, fig21_sender_limited, fig22_failure,
    fig23_oversubscribed, inline_results, quick, topo_matrix,
};

/// Run observability an experiment can expose alongside its data: engine
/// fuel burned and the live-state gauges of the flow-lifecycle machinery.
/// `None` fields render as JSON `null` — not every experiment tracks them.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Engine events dispatched, summed over every world the run built.
    pub events_processed: Option<u64>,
    /// Per-kind tally of posted events (forwards / timed messages / timer
    /// wakes), summed over every world the run built.
    pub event_kinds: Option<ndp_sim::EventKindCounts>,
    /// Highest arena population any world reached.
    pub peak_live_components: Option<u64>,
    /// Highest in-flight flow count any world reached.
    pub peak_live_flows: Option<u64>,
    /// Fabric-chaos events applied (link/switch down/up/degrade), summed
    /// over every world the run built. `None` when no chaos ran.
    pub link_events_applied: Option<u64>,
    /// Packets steered off dead ports onto live equivalents by the
    /// switches' reroute path.
    pub reroutes: Option<u64>,
    /// Measured flows that never completed within the drain window.
    pub stuck_flows: Option<u64>,
    /// Packets lost to down links (buffered packets flushed at the
    /// failure instant, the packet on the wire, and arrivals while down
    /// that could not be bounced), summed over every queue.
    pub dropped_down: Option<u64>,
}

impl RunStats {
    /// A multi-world run's stats from each world's `(events, event kinds,
    /// peak live components, peak live flows)`: events and kinds are
    /// summed, the peaks maxed (`None` when no world ran).
    pub fn over_worlds(
        worlds: impl Iterator<Item = (u64, ndp_sim::EventKindCounts, usize, usize)>,
    ) -> RunStats {
        let (mut events, mut kinds) = (0, ndp_sim::EventKindCounts::default());
        let (mut components, mut flows) = (None, None);
        for (e, k, c, f) in worlds {
            events += e;
            kinds = kinds + k;
            components = components.max(Some(c as u64));
            flows = flows.max(Some(f as u64));
        }
        RunStats {
            events_processed: Some(events),
            event_kinds: Some(kinds),
            peak_live_components: components,
            peak_live_flows: flows,
            ..Default::default()
        }
    }
}

/// What every experiment returns: human-readable (`Display` prints the
/// paper's rows/series, `headline` compresses the qualitative claim) and
/// machine-readable (`to_json`).
pub trait Report: std::fmt::Display {
    /// One-line summary of the quantitative claim under test.
    fn headline(&self) -> String;

    /// The figure's data as a JSON value (rendered by [`Json::render`]).
    fn to_json(&self) -> Json;

    /// Run observability for the CLI envelope (events processed, live
    /// gauges). Defaults to all-unknown.
    fn run_stats(&self) -> RunStats {
        RunStats::default()
    }
}

/// One runnable experiment (a paper figure, table or inline claim): a row
/// of [`EXPERIMENTS`], shaped like a [`crate::topo::TopoEntry`].
pub struct Experiment {
    /// Short stable identifier (`fig14`, `inline`, ...) used by
    /// `ndp run <id>`.
    pub id: &'static str,
    /// Human-readable one-liner, the banner and the JSON envelope's title.
    pub title: &'static str,
    /// What the experiment measures and its main knobs, printed by
    /// `ndp list` in place of the title when the grid is not obvious.
    pub about: Option<&'static str>,
    /// Does this experiment accept a topology override? Topology-neutral
    /// experiments (the load sweeps, the permutation matrix, the
    /// transport × topology matrix) run on any registered fabric;
    /// fixed-shape figures (the testbed replicas, back-to-back
    /// calibrations) say `false` so the CLI can reject an explicit
    /// `--topo` instead of silently no-opping.
    pub topo: bool,
    /// Run at a scale, optionally on an overridden topology from the
    /// [`crate::topo::TOPOLOGIES`] registry (`None` = the experiment's
    /// default fabric; ignored when `topo` is false).
    pub run: fn(Scale, Option<&'static TopoEntry>) -> Box<dyn Report>,
}

/// Every registered experiment, in presentation order. One row per
/// experiment; the report and its entry point live in the figure's own
/// module.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig02",
        title: "CP congestion collapse and phase effects vs the NDP switch",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig02_cp_collapse::run(scale)),
    },
    Experiment {
        id: "fig04",
        title: "Per-packet delivery latency CDFs (permutation/random/incast)",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig04_latency_cdf::run(scale)),
    },
    Experiment {
        id: "fig08",
        title: "1KB RPC latency: NDP vs TCP/TFO, with and without deep sleep",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig08_rpc_latency::run(scale)),
    },
    Experiment {
        id: "fig09",
        title: "Testbed 7:1 incast completion vs response size (NDP/TCP/optimum)",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig09_testbed_incast::run(scale)),
    },
    Experiment {
        id: "fig10",
        title: "Short-flow prioritization vs six long flows at one receiver",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig10_prioritization::run(scale)),
    },
    Experiment {
        id: "fig10_sweep",
        title: "Prioritization gap across flow sizes (10KB..1MB)",
        about: None,
        topo: false,
        run: |scale, _| {
            Box::new(fig10_prioritization::SweepReport {
                rows: fig10_prioritization::sweep(scale),
            })
        },
    },
    Experiment {
        id: "fig11",
        title: "Back-to-back throughput vs NDP initial window",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig11_iw_throughput::run(scale)),
    },
    Experiment {
        id: "fig12",
        title: "PULL spacing at the sender (1500B vs 9000B packets)",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig12_pull_spacing::run(scale)),
    },
    Experiment {
        id: "fig13",
        title: "200:1 incast FCT, perfect vs measured pull spacing",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig13_pull_jitter_incast::run(scale)),
    },
    Experiment {
        id: "fig14",
        title: "Permutation per-flow throughput (NDP vs MPTCP/DCTCP/DCQCN)",
        about: None,
        topo: true,
        run: |scale, topo| Box::new(fig14_permutation::run(scale, topo)),
    },
    Experiment {
        id: "fig15",
        title: "90KB FCTs under background load (standing-queue test)",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig15_short_flow_fct::run(scale)),
    },
    Experiment {
        id: "fig16",
        title: "Incast completion vs number of senders (450KB responses)",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig16_incast_scaling::run(scale)),
    },
    Experiment {
        id: "fig17",
        title: "Permutation utilization vs initial window and buffer size",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig17_iw_buffer_sweep::run(scale)),
    },
    Experiment {
        id: "fig19",
        title: "Collateral damage of a same-ToR incast on a long flow",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig19_collateral::run(scale)),
    },
    Experiment {
        id: "fig20",
        title: "Large-incast overhead and retransmission mechanisms",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig20_large_incast::run(scale)),
    },
    Experiment {
        id: "fig21",
        title: "Sender-limited traffic: pull fair-queuing fills both bottlenecks",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig21_sender_limited::run(scale)),
    },
    Experiment {
        id: "fig22",
        title: "Permutation with one core link degraded to 1 Gb/s",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig22_failure::run(scale)),
    },
    Experiment {
        id: "fig23",
        title: "Facebook web workload on a 4:1 oversubscribed fabric",
        about: None,
        topo: false,
        run: |scale, _| Box::new(fig23_oversubscribed::run(scale)),
    },
    Experiment {
        id: "load_websearch",
        title: "FCT slowdown vs. offered load, web-search flow sizes",
        about: Some(
            "Open-loop Poisson arrivals from the DCTCP web-search size CDF; \
             NDP vs DCTCP vs pHost, p50/p99 slowdown per size bin per load",
        ),
        topo: true,
        run: |scale, topo| {
            Box::new(LoadSweepReport::run(
                DistKind::WebSearch,
                false,
                scale,
                0xA100,
                topo,
            ))
        },
    },
    Experiment {
        id: "load_datamining",
        title: "FCT slowdown vs. offered load, data-mining flow sizes",
        about: Some(
            "Open-loop Poisson arrivals from the VL2 data-mining size CDF \
             (half single-packet, ~13 MB mean); NDP vs DCTCP vs pHost slowdown",
        ),
        topo: true,
        run: |scale, topo| {
            Box::new(LoadSweepReport::run(
                DistKind::DataMining,
                false,
                scale,
                0xB200,
                topo,
            ))
        },
    },
    Experiment {
        id: "oversub_load",
        title: "FCT slowdown vs. load on a 4:1 oversubscribed fabric",
        about: Some(
            "Web-search load sweep on the Figure-23 style 4:1 oversubscribed \
             fabric: slowdown under scarce core capacity, NDP vs DCTCP vs pHost",
        ),
        topo: true,
        run: |scale, topo| {
            Box::new(LoadSweepReport::run(
                DistKind::WebSearch,
                true,
                scale,
                0xC300,
                topo,
            ))
        },
    },
    Experiment {
        id: "topo_matrix",
        title: "Transport x topology matrix (permutation/incast/open-loop per fabric shape)",
        about: Some(
            "Permutation goodput, N:1 incast completion and open-loop websearch \
             slowdown for NDP vs DCTCP vs pHost across {fattree, leafspine, \
             oversubscribed} (or just the fabric named by --topo)",
        ),
        topo: true,
        run: |scale, topo| Box::new(topo_matrix::run(scale, topo)),
    },
    Experiment {
        id: "failure_matrix",
        title: "Transport x topology matrix through a scheduled link failure",
        about: Some(
            "Open-loop websearch traffic while a core-tier link pair dies and \
             recovers mid-run; per-phase (pre/during/post) p50/p99/p999 \
             slowdown, stuck flows and reroute counts for NDP vs DCTCP vs \
             pHost across {fattree, leafspine} (or the fabric named by --topo)",
        ),
        topo: true,
        run: |scale, topo| Box::new(failure_matrix::run(scale, topo)),
    },
    Experiment {
        id: "rpc_sweep",
        title: "End-to-end RPC request latency vs. client load and fan-out",
        about: Some(
            "Fan-out/fan-in request trees (N shard answers converging on the \
             client NIC) swept over offered client load and fan-out degree; \
             NDP vs DCTCP vs pHost request p50/p99/p999 and SLO attainment",
        ),
        topo: true,
        run: |scale, topo| Box::new(RpcSweepReport::run(scale, 0xE400, topo)),
    },
    Experiment {
        id: "rpc_tenant_mix",
        title: "Multi-tenant RPC mix: per-tenant SLO attainment shared vs. alone",
        about: Some(
            "A web-search RPC tier, a data-mining bulk tenant and a bursty \
             background tenant sharing one fabric; per-tenant request-latency \
             SLO attainment and cross-tenant interference per protocol",
        ),
        topo: true,
        run: |scale, topo| Box::new(RpcTenantMixReport::run(scale, 0xF500, topo)),
    },
    Experiment {
        id: "inline",
        title: "Inline (non-figure) claims: §3.1.1 LB, §6.1.1 side effects, §6.2 scaling/pHost",
        about: None,
        topo: false,
        run: |scale, _| Box::new(inline_results::run(scale)),
    },
    Experiment {
        id: "quickstart",
        title: "Two-host NDP transfer hello-world (sanity check)",
        about: None,
        topo: false,
        run: |scale, _| {
            Box::new(quick::two_host_transfer(match scale {
                Scale::Paper => 100_000_000,
                Scale::Quick => 10_000_000,
            }))
        },
    },
];

/// Look an experiment up by id (exact match).
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Percentile summary of a CDF as `[{"p":0.5,"v":...},...]`; an empty CDF
/// becomes an empty array (not NaNs).
pub fn cdf_json(c: &ndp_metrics::Cdf, ps: &[f64]) -> Json {
    if c.is_empty() {
        return Json::Arr(Vec::new());
    }
    Json::arr(
        ps.iter()
            .map(|&p| Json::obj([("p", Json::num(p)), ("v", Json::num(c.percentile(p)))])),
    )
}

/// The percentile grid used by default for CDF-shaped figures.
pub const CDF_POINTS: &[f64] = &[0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];

/// The full machine-readable document for one run: id/title/scale/topo
/// envelope around the report's headline and data, plus the `run` block
/// with wall-clock and the report's [`RunStats`] (nulls where untracked).
/// `topo` is the resolved `--topo`/`NDP_TOPO` override (`null` when the
/// experiment ran on its own default fabric) — without it, archived
/// documents from different fabrics would be indistinguishable.
/// `telemetry` is the `--trace` session summary; `None` renders as
/// `"telemetry": null`, so the envelope schema is stable whether or not a
/// trace was captured.
pub fn document_with_telemetry(
    exp: &Experiment,
    scale: Scale,
    topo: Option<&'static TopoEntry>,
    report: &dyn Report,
    wall_ms: f64,
    telemetry: Option<Json>,
) -> Json {
    let stats = report.run_stats();
    let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::num(x as f64));
    // Wall-clock throughput, derivable only when the run tracked its event
    // count (and actually took time).
    let events_per_sec = match stats.events_processed {
        Some(ev) if wall_ms > 0.0 => Json::num(ev as f64 / (wall_ms / 1e3)),
        _ => Json::Null,
    };
    let event_kinds = stats.event_kinds.map_or(Json::Null, |k| {
        Json::obj([
            ("forward", Json::num(k.forward as f64)),
            ("timed_msg", Json::num(k.timed_msg as f64)),
            ("wake", Json::num(k.wake as f64)),
        ])
    });
    Json::obj([
        ("id", Json::str(exp.id)),
        ("title", Json::str(exp.title)),
        ("scale", Json::str(scale.name())),
        ("topo", topo.map_or(Json::Null, |t| Json::str(t.name))),
        ("headline", Json::str(report.headline())),
        (
            "run",
            Json::obj([
                ("wall_ms", Json::num(wall_ms)),
                ("events_processed", opt(stats.events_processed)),
                ("events_per_sec", events_per_sec),
                ("event_kinds", event_kinds),
                ("peak_live_components", opt(stats.peak_live_components)),
                ("peak_live_flows", opt(stats.peak_live_flows)),
                ("link_events_applied", opt(stats.link_events_applied)),
                ("reroutes", opt(stats.reroutes)),
                ("stuck_flows", opt(stats.stuck_flows)),
                ("dropped_down", opt(stats.dropped_down)),
            ]),
        ),
        ("telemetry", telemetry.unwrap_or(Json::Null)),
        ("data", report.to_json()),
    ])
}

/// Every registered experiment's quick-scale document, pinned as
/// `tests/snapshots/doc/<id>.txt`: the envelope `ndp run <id> --scale
/// quick --json` prints minus its two wall-clock fields, one `path value`
/// line per JSON leaf, then a blank line and the text `ndp run <id>
/// --scale quick` prints. A module with a quick-scale test pins its report
/// right after rendering it, before asserting its claims, so
/// `NDP_BLESS=1` re-renders a moved document even where a claim then
/// fails; the experiments with no such test render through their registry
/// rows below.
#[cfg(test)]
pub(crate) mod document {
    use super::*;
    use ndp_snapshot::field;
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    /// The envelope fields that read the wall clock.
    const WALL_FIELDS: [&str; 2] = ["run.wall_ms", "run.events_per_sec"];

    /// Compares the quick-scale document of experiment `id`, `report`
    /// being its run, with its snapshot (or rewrites it under `NDP_BLESS=1`).
    pub(crate) fn pin(id: &str, report: &dyn Report) {
        let exp = find(id).unwrap_or_else(|| panic!("{id} is not registered"));
        let doc = document_with_telemetry(exp, Scale::Quick, None, report, 0.0, None);
        let mut out = String::new();
        leaves(&mut out, "", &doc);
        writeln!(out, "\n{report}\nheadline: {}", report.headline()).expect("a String");
        ndp_snapshot::snapshot!(format!("doc/{id}"), out);
    }

    /// One `path value` line per leaf of `value`, depth first in document
    /// order; an empty array or object is a leaf.
    fn leaves(out: &mut String, path: &str, value: &Json) {
        match value {
            Json::Obj(fields) if !fields.is_empty() => {
                for (key, v) in fields {
                    let p = match path {
                        "" => key.clone(),
                        _ => format!("{path}.{key}"),
                    };
                    if !WALL_FIELDS.contains(&p.as_str()) {
                        leaves(out, &p, v);
                    }
                }
            }
            Json::Arr(items) if !items.is_empty() => {
                for (i, v) in items.iter().enumerate() {
                    leaves(out, &format!("{path}[{i}]"), v);
                }
            }
            Json::Obj(_) => field(out, path, format_args!("{{}}")),
            Json::Arr(_) => field(out, path, format_args!("[]")),
            Json::Null => field(out, path, format_args!("null")),
            Json::Bool(b) => field(out, path, b),
            Json::Num(x) => field(out, path, x),
            Json::Str(s) => field(out, path, s),
        }
    }

    /// The experiments whose modules have no quick-scale test of their
    /// own, one test each so they render in parallel.
    macro_rules! through_the_registry_row {
        ($($id:ident),*) => {$(
            #[test]
            fn $id() {
                let id = stringify!($id);
                let exp = find(id).unwrap_or_else(|| panic!("{id} is not registered"));
                pin(id, (exp.run)(Scale::Quick, None).as_ref());
            }
        )*};
    }

    through_the_registry_row!(
        fig10_sweep,
        load_datamining,
        oversub_load,
        rpc_sweep,
        quickstart
    );

    /// A new experiment cannot ship unpinned, and a removed one leaves no
    /// stale document behind. (The bless run that first writes a new
    /// experiment's document may list it as missing here while its test
    /// is still rendering; the next run passes.)
    #[test]
    fn every_experiment_has_exactly_one_document_snapshot() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/doc");
        let files: BTreeSet<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
            .map(|entry| {
                entry
                    .expect("a directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into()
            })
            .collect();
        let want: BTreeSet<String> = EXPERIMENTS
            .iter()
            .map(|e| format!("{}.txt", e.id))
            .collect();
        let missing: Vec<_> = want.difference(&files).collect();
        let stale: Vec<_> = files.difference(&want).collect();
        assert!(
            missing.is_empty() && stale.is_empty(),
            "{}: no document for {missing:?}, no experiment for {stale:?}",
            dir.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_seven_experiments_with_unique_ids() {
        assert_eq!(EXPERIMENTS.len(), 27);
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate experiment ids: {ids:?}");
        for e in EXPERIMENTS {
            assert!(!e.title.is_empty(), "{} has no title", e.id);
            assert!(e.about != Some(""), "{} has an empty description", e.id);
            assert_eq!(find(e.id).map(|f| f.id), Some(e.id));
        }
    }

    #[test]
    fn openloop_experiments_are_registered_with_rich_descriptions() {
        for id in ["load_websearch", "load_datamining", "oversub_load"] {
            let e = find(id).unwrap_or_else(|| panic!("{id} not registered"));
            // The load sweeps describe their grid beyond the bare title.
            let about = e
                .about
                .unwrap_or_else(|| panic!("{id} needs a description"));
            assert!(
                about.contains("NDP"),
                "{id} description should name the contending protocols"
            );
        }
    }

    #[test]
    fn topology_neutral_experiments_accept_topo_overrides() {
        for id in [
            "fig14",
            "load_websearch",
            "load_datamining",
            "oversub_load",
            "topo_matrix",
            "failure_matrix",
            "rpc_sweep",
            "rpc_tenant_mix",
        ] {
            let e = find(id).unwrap_or_else(|| panic!("{id} not registered"));
            assert!(e.topo, "{id} should accept --topo");
        }
        // Fixed-shape figures reject overrides so the CLI can error.
        for id in ["fig09", "fig11", "fig21"] {
            assert!(!find(id).unwrap().topo, "{id} is fixed-shape");
        }
    }

    /// The two-tier testbed end to end: the `testbed` registry entry under
    /// a topology-neutral figure, and a fixed-shape testbed figure.
    #[test]
    fn testbed_documents_carry_every_flow() {
        let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64);
        let exp = find("fig14").expect("fig14 registered");
        let testbed = Some(crate::topo::registered("testbed"));
        let report = (exp.run)(Scale::Quick, testbed);
        let doc = document_with_telemetry(exp, Scale::Quick, testbed, report.as_ref(), 0.0, None);
        assert_eq!(doc.get("topo").and_then(Json::as_str), Some("testbed"));
        let data = doc.get("data").expect("a data payload");
        let rows = data.get("protocols").and_then(Json::as_arr).expect("rows");
        assert!(rows.len() >= 2, "{rows:?}");
        for r in rows {
            assert!(num(r, "utilization") > Some(0.0), "{r:?}");
            let rates = r.get("per_flow_gbps_sorted").and_then(Json::as_arr);
            assert_eq!(rates.map(<[Json]>::len), Some(8), "{r:?}");
        }
        let fig21 = (find("fig21").expect("fig21 registered").run)(Scale::Quick, None).to_json();
        let flows = fig21.get("flows").and_then(Json::as_arr).expect("flows");
        assert_eq!(flows.len(), 5, "{flows:?}");
        for f in flows {
            assert!(num(f, "gbps") > Some(0.0), "{f:?}");
        }
    }

    #[test]
    fn quick_report_json_round_trips_through_parser() {
        // fig21 is the cheapest multi-flow figure: one 15 ms world.
        let exp = find("fig21").expect("fig21 registered");
        let report = (exp.run)(Scale::Quick, None);
        let doc = document_with_telemetry(exp, Scale::Quick, None, report.as_ref(), 12.5, None);
        let text = doc.render();
        let back = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(back.get("id").and_then(Json::as_str), Some("fig21"));
        assert_eq!(back.get("scale").and_then(Json::as_str), Some("quick"));
        // No override ran: the envelope records the default fabric as null.
        assert_eq!(back.get("topo"), Some(&Json::Null));
        // The run envelope is always present; untracked gauges are null.
        let run = back.get("run").expect("run envelope");
        assert_eq!(run.get("wall_ms").and_then(Json::as_f64), Some(12.5));
        assert_eq!(run.get("events_processed"), Some(&Json::Null));
        // Derived throughput and the per-kind split are null exactly when
        // the report didn't track its event counts.
        assert_eq!(run.get("events_per_sec"), Some(&Json::Null));
        assert_eq!(run.get("event_kinds"), Some(&Json::Null));
        assert_eq!(
            back.get("headline").and_then(Json::as_str),
            Some(report.headline().as_str())
        );
        // The data payload survives untouched.
        assert_eq!(back.get("data"), Some(&report.to_json()));
        assert_eq!(back.render(), text);
    }
}
