//! The one CLI over the experiment registry.
//!
//! ```sh
//! ndp list                      # every experiment id + title
//! ndp topos                     # every registered topology
//! ndp run fig14                 # human-readable tables + headline
//! ndp run fig14 --scale paper   # the paper's parameters
//! ndp run fig16 --json          # machine-readable document
//! ndp run topo_matrix --topo leafspine
//!                               # topology-neutral run on one fabric
//! ndp run all --json            # every experiment, one JSON array
//! ```
//!
//! `--scale` defaults to `NDP_SCALE` (quick when unset); `--topo`
//! defaults to `NDP_TOPO` (each experiment's own fabric when unset).
//! Exit codes: 0 success, 2 usage error.

use ndp_experiments::json::Json;
use ndp_experiments::registry::{self, Experiment, EXPERIMENTS};
use ndp_experiments::topo::{self, TopoEntry};
use ndp_experiments::Scale;
use ndp_telemetry::{PointTelemetry, TelemetryConfig};

const USAGE: &str = "\
usage: ndp <command>

commands:
  list                                 list experiment ids and titles
  topos                                list registered topologies
  run <id>|all [--scale paper|quick] [--topo <name>] [--json]
      [--trace <path>]
                                       run one (or every) experiment;
                                       --topo overrides the fabric of
                                       topology-neutral experiments;
                                       --json emits a machine-readable
                                       document instead of tables;
                                       --trace records in-sim telemetry
                                       (probes, flow spans, packet flight
                                       records) as NDJSON at <path> plus
                                       a Chrome trace-event file next to
                                       it (Perfetto-loadable)

scale defaults to $NDP_SCALE (quick when unset); topology defaults to
$NDP_TOPO (each experiment's own fabric when unset).";

fn usage_error(msg: &str) -> ! {
    eprintln!("ndp: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("topos") => topos(),
        Some("run") => run(&args[1..]),
        Some("--help" | "-h" | "help") => println!("{USAGE}"),
        Some(other) => usage_error(&format!("unknown command '{other}'")),
        None => usage_error("missing command"),
    }
}

fn list() {
    let width = EXPERIMENTS.iter().map(|e| e.id.len()).max().unwrap_or(0);
    for exp in EXPERIMENTS {
        println!("{:width$}  {}", exp.id, exp.about.unwrap_or(exp.title));
    }
}

fn topos() {
    let width = topo::TOPOLOGIES
        .iter()
        .map(|e| e.name.len())
        .max()
        .unwrap_or(0);
    for entry in topo::TOPOLOGIES {
        println!("{:width$}  {}", entry.name, entry.describe);
    }
}

fn run(args: &[String]) {
    let mut target: Option<&str> = None;
    let mut scale: Option<Scale> = None;
    let mut topo_flag: Option<&'static TopoEntry> = None;
    let mut json = false;
    let mut trace: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--trace" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--trace needs a path"));
                trace = Some(v);
            }
            "--scale" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--scale needs a value"));
                scale = Some(
                    Scale::parse(v).unwrap_or_else(|| usage_error(&format!("bad scale '{v}'"))),
                );
            }
            "--topo" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--topo needs a value"));
                topo_flag = Some(topo::find_topo(v).unwrap_or_else(|| {
                    usage_error(&format!("unknown topology '{v}' (see 'ndp topos')"))
                }));
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            id => {
                if target.replace(id).is_some() {
                    usage_error("more than one experiment id");
                }
            }
        }
    }
    // Environment defaults are checked here, before anything runs: a typo
    // must not surface as a panic from inside an experiment. NDP_SCALE and
    // NDP_TOPO are consulted only when no explicit flag was given, so a
    // stale/typoed env var cannot override (or abort) an explicit flag.
    if let Err(e) = ndp_experiments::sweep::threads_from_env() {
        usage_error(&e);
    }
    let scale = scale.unwrap_or_else(|| Scale::from_env().unwrap_or_else(|e| usage_error(&e)));
    let topo_env = if topo_flag.is_none() {
        topo::topo_from_env().unwrap_or_else(|e| usage_error(&e))
    } else {
        None
    };
    let Some(target) = target else {
        usage_error("run needs an experiment id (or 'all')");
    };
    let selected: &[Experiment] = if target == "all" {
        EXPERIMENTS
    } else {
        match registry::find(target) {
            Some(e) => std::slice::from_ref(e),
            None => usage_error(&format!("unknown experiment '{target}' (see 'ndp list')")),
        }
    };
    // An explicit --topo on a fixed-shape experiment is a usage error; the
    // NDP_TOPO *default* merely doesn't apply to fixed-shape experiments
    // (so `ndp run all` under NDP_TOPO still works).
    if let (Some(entry), [single]) = (topo_flag, selected) {
        if !single.topo {
            usage_error(&format!(
                "experiment '{}' has a fixed topology and does not accept --topo {}",
                single.id, entry.name
            ));
        }
    }
    let mut documents = Vec::new();
    let mut trace_points: Vec<PointTelemetry> = Vec::new();
    for exp in selected {
        let topo = topo_flag.or(topo_env).filter(|_| exp.topo);
        if !json {
            let suffix = topo
                .map(|t| format!(" --topo {}", t.name))
                .unwrap_or_default();
            eprintln!(
                "== {} — {} [{}{}] ==",
                exp.id,
                exp.title,
                scale.name(),
                suffix
            );
        }
        // One telemetry session per experiment: its key-sorted points feed
        // that experiment's envelope block, then accumulate (in registry
        // order) into the session-wide trace files.
        if trace.is_some() {
            ndp_telemetry::session::begin(TelemetryConfig);
        }
        let started = std::time::Instant::now();
        let report = (exp.run)(scale, topo);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let points = if trace.is_some() {
            ndp_telemetry::session::end().map_or(Vec::new(), |(_, p)| p)
        } else {
            Vec::new()
        };
        if json {
            let tele = trace.map(|_| telemetry_json(&points));
            documents.push(registry::document_with_telemetry(
                exp,
                scale,
                topo,
                report.as_ref(),
                wall_ms,
                tele,
            ));
        } else {
            println!("{report}");
            println!("headline: {}", report.headline());
        }
        trace_points.extend(points);
    }
    if let Some(path) = trace {
        write_trace_files(path, &trace_points, json);
    }
    if json {
        match documents.as_mut_slice() {
            [single] => println!("{}", std::mem::replace(single, Json::Null).render()),
            _ => println!("{}", Json::Arr(documents).render()),
        }
    }
}

/// The `telemetry` envelope block: the session summary for one
/// experiment's points.
fn telemetry_json(points: &[PointTelemetry]) -> Json {
    let s = ndp_telemetry::summarize(points);
    Json::obj([
        ("points", Json::num(s.points as f64)),
        ("gauge_records", Json::num(s.gauge_records as f64)),
        ("span_records", Json::num(s.span_records as f64)),
        ("request_records", Json::num(s.request_records as f64)),
        ("hop_records", Json::num(s.hop_records as f64)),
        ("gauges_evicted", Json::num(s.gauges_evicted as f64)),
        ("hops_evicted", Json::num(s.hops_evicted as f64)),
        ("peak_queue_bytes", Json::num(s.peak_queue_bytes as f64)),
        ("max_span_gap_ps", Json::num(s.max_span_gap_ps as f64)),
        ("stuck_spans", Json::num(s.stuck_spans as f64)),
        ("stuck_requests", Json::num(s.stuck_requests as f64)),
    ])
}

/// `<path>` gets the NDJSON stream; the Chrome trace-event document goes
/// next to it (`.ndjson` → `.chrome.json`, else `<path>.chrome.json`).
fn chrome_path(path: &str) -> String {
    match path.strip_suffix(".ndjson") {
        Some(stem) => format!("{stem}.chrome.json"),
        None => format!("{path}.chrome.json"),
    }
}

fn write_trace_files(path: &str, points: &[PointTelemetry], json: bool) {
    let ndjson = ndp_telemetry::write_ndjson(points);
    if let Err(e) = std::fs::write(path, &ndjson) {
        eprintln!("ndp: cannot write trace '{path}': {e}");
        std::process::exit(1);
    }
    let chrome = chrome_path(path);
    if let Err(e) = std::fs::write(&chrome, ndp_telemetry::write_chrome_trace(points)) {
        eprintln!("ndp: cannot write trace '{chrome}': {e}");
        std::process::exit(1);
    }
    if !json {
        let s = ndp_telemetry::summarize(points);
        eprintln!(
            "trace: {} points, {} gauges, {} spans ({} stuck), {} requests ({} stuck), \
             {} hops -> {path} + {chrome}",
            s.points,
            s.gauge_records,
            s.span_records,
            s.stuck_spans,
            s.request_records,
            s.stuck_requests,
            s.hop_records
        );
    }
}
