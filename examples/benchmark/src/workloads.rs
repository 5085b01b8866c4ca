//! The six workloads. Each is what a user of the simulator runs — a
//! public entry point of `ndp::experiments` on a seeded point — wrapped in
//! spans, followed by the output checks that make a wrong answer a
//! failure rather than a fast run. `README.md` records why each was
//! chosen and which layers it stresses.

use std::path::Path;

use ndp::experiments::harness::{incast_ideal, incast_run, permutation_run, Proto, Scale};
use ndp::experiments::json::{self, Json};
use ndp::experiments::openloop::{openloop_run, DistKind};
use ndp::experiments::rpc::{
    rpc_leg_sizes, rpc_world_run, ArrivalSpec, RpcPoint, RpcPointResult, TenantSpec,
};
use ndp::experiments::sweep::OpenLoopPoint;
use ndp::experiments::topo::{find_topo, TopoSpec};
use ndp::experiments::{failure_matrix, registry};
use ndp::metrics::percentile::percentile;
use ndp::net::Packet;
use ndp::sim::{EventKindCounts, Time, World};
use ndp::telemetry::{self, session, TelemetryConfig, TelemetrySummary};
use ndp::topology::{FatTreeCfg, LeafSpineCfg};
use ndp::workloads::{EmpiricalCdf, TreeShape};

use crate::host::{sub_seed, Fingerprint};
use crate::trace::Tracer;

/// Horizon divisor of the warm-up pass every child runs before its timed
/// body (allocator and page-cache warm).
pub const WARMUP_DIV: u32 = 8;

/// One run of a workload: the seed its inputs derive from, the horizon
/// divisor (1 = the benchmark's size), and where exports may be written.
pub struct Job<'a> {
    pub seed: u64,
    pub div: u32,
    pub scratch: &'a Path,
}

/// What a run reports. Every field is a *simulated* quantity: it must
/// repeat exactly for a seed, on any host, and a change meant only to
/// speed the simulator must leave it bit-identical.
pub struct Outcome {
    /// Operations attempted (flows or requests; per-workload definition
    /// in the README) and how many did not complete inside the horizon.
    pub attempted: u64,
    pub failed: u64,
    /// Tail completion time over its reference, and the sample count
    /// behind the percentile.
    pub tail_ratio: f64,
    pub tail_n: u64,
    pub events: u64,
    /// `None` where the result struct does not expose the figure.
    pub kinds: Option<EventKindCounts>,
    pub peak_live_components: Option<u64>,
    pub peak_live_flows: u64,
    pub peak_live_requests: u64,
    pub exported_bytes: u64,
    /// Point/gauge/span/request/hop records in the last telemetry export
    /// (zeros without a session): what the exported NDJSON must hold.
    pub export_records: [u64; 5],
    /// Flows of the baseline transports left stuck (`failure_traced`
    /// only; NDP's are `failed`).
    pub baseline_stuck: u64,
    /// Digest of every simulated statistic the run produced.
    pub fingerprint: u64,
}

type PostCheck = fn(&Job, &Outcome) -> Result<(), String>;

pub struct Workload {
    pub name: &'static str,
    /// Whether `Job::seed` reaches the simulation; `failure_traced` runs a
    /// registered experiment that pins its own seeds, so all its reps
    /// simulate the same thing.
    pub seeded: bool,
    /// Build the workload's world once and drop it (part of set-up);
    /// returns the fabric's component count.
    pub probe_build: fn(u64) -> usize,
    pub run: fn(&Job, &mut Tracer) -> Result<Outcome, String>,
    /// Checks that need the exported files, run after the timed body so
    /// their memory does not count towards the rep's peak.
    pub post_check: Option<PostCheck>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "permutation_k8",
        seeded: true,
        probe_build: |seed| build_components(&perm_topo(), Proto::Ndp, seed),
        run: run_permutation,
        post_check: None,
    },
    Workload {
        name: "incast_k12",
        seeded: true,
        probe_build: |seed| build_components(&incast_topo(), Proto::Ndp, seed),
        run: run_incast,
        post_check: None,
    },
    Workload {
        name: "openloop_ndp",
        seeded: true,
        probe_build: |seed| build_components(&leafspine(), Proto::Ndp, seed),
        run: |job, tr| run_openloop(Proto::Ndp, job, tr),
        post_check: None,
    },
    Workload {
        name: "openloop_dctcp",
        seeded: true,
        probe_build: |seed| build_components(&leafspine(), Proto::Dctcp, seed),
        run: |job, tr| run_openloop(Proto::Dctcp, job, tr),
        post_check: None,
    },
    Workload {
        name: "rpc_mix",
        seeded: true,
        probe_build: |seed| build_components(&leafspine(), Proto::Ndp, seed),
        run: run_rpc,
        post_check: None,
    },
    Workload {
        name: "failure_traced",
        seeded: false,
        probe_build: |seed| {
            ["fattree", "leafspine"]
                .iter()
                .map(|name| {
                    let spec = find_topo(name)
                        .expect("registered topology")
                        .spec(Scale::Quick);
                    build_components(&spec, Proto::Ndp, seed)
                })
                .sum()
        },
        run: run_failure,
        post_check: Some(check_failure_exports),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn build_components(spec: &TopoSpec, proto: Proto, seed: u64) -> usize {
    let mut world: World<Packet> = World::new(seed);
    let _topo = spec.build(&mut world, proto.fabric());
    world.live_components()
}

fn leafspine() -> TopoSpec {
    TopoSpec::leafspine(LeafSpineCfg::new(8, 4, 4))
}

/// `base ÷ div`, never zero.
fn scaled(base: u64, div: u32) -> u64 {
    (base / div as u64).max(1)
}

/// The tail percentile a sample supports: p99 needs ten samples beyond it.
fn tail_p(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        0.90
    }
}

fn fail<T>(workload: &str, what: String) -> Result<T, String> {
    Err(format!("{workload}: {what}"))
}

// ---------------------------------------------------------------------------
// permutation_k8
// ---------------------------------------------------------------------------

/// Simulated length of the permutation run, microseconds. Like every
/// workload's size it is set so that one rep takes about 1 s of host time
/// on the 2-core reference box: twelve reps, each with its set-up and its
/// calibration passes, fit the benchmark's 15 s window.
const PERM_US: u64 = 15_000;

const PERM_K: usize = 8;

pub fn perm_topo() -> TopoSpec {
    TopoSpec::fattree(FatTreeCfg::new(PERM_K))
}

fn run_permutation(job: &Job, tr: &mut Tracer) -> Result<Outcome, String> {
    const NAME: &str = "permutation_k8";
    let duration = Time::from_us(scaled(PERM_US, job.div));
    let r = tr.span("experiments.run", || {
        permutation_run(Proto::Ndp, perm_topo(), duration, job.seed, None)
    });
    let open = tr.enter("experiments.summarize");
    let line_gbps = FatTreeCfg::new(PERM_K).link_speed.as_gbps();
    // `per_flow_gbps` arrives sorted ascending: its p10 is Figure 14's
    // worst-flows corner.
    let p10 = percentile(&r.per_flow_gbps, 0.10);
    let starved = r.per_flow_gbps.iter().filter(|&&g| g <= 0.0).count();
    let mut fp = Fingerprint::new();
    fp.word(r.events_processed);
    r.per_flow_gbps.iter().for_each(|&g| fp.float(g));
    tr.exit(open);

    // Short horizons (warm-up, smoke) are mostly first-window ramp: the
    // 0.90 bar applies to the benchmark's size, a loose one from 1 ms up,
    // none below.
    let floor = match job.div {
        1 => 0.90,
        _ if duration >= Time::from_ms(1) => 0.50,
        _ => 0.0,
    };
    if r.utilization < floor {
        return fail(
            NAME,
            format!("utilisation {:.3} below {floor:.2}", r.utilization),
        );
    }
    if starved > 0 {
        return fail(NAME, format!("{starved} flows delivered nothing"));
    }
    Ok(Outcome {
        attempted: r.per_flow_gbps.len() as u64,
        failed: starved as u64,
        tail_ratio: line_gbps / p10,
        tail_n: r.per_flow_gbps.len() as u64,
        events: r.events_processed,
        kinds: None,
        peak_live_components: None,
        peak_live_flows: r.per_flow_gbps.len() as u64,
        peak_live_requests: 0,
        exported_bytes: 0,
        export_records: [0; 5],
        baseline_stuck: 0,
        fingerprint: fp.value(),
    })
}

// ---------------------------------------------------------------------------
// incast_k12
// ---------------------------------------------------------------------------

const INCAST_ROUNDS: u64 = 7;
pub const INCAST_SENDERS: usize = 431;
pub const INCAST_BYTES: u64 = 450_000;
pub const INCAST_HORIZON_MS: u64 = 500;

const INCAST_K: usize = 12;

pub fn incast_topo() -> TopoSpec {
    TopoSpec::fattree(FatTreeCfg::new(INCAST_K))
}

fn run_incast(job: &Job, tr: &mut Tracer) -> Result<Outcome, String> {
    const NAME: &str = "incast_k12";
    let rounds = scaled(INCAST_ROUNDS, job.div);
    let cfg = FatTreeCfg::new(INCAST_K);
    let ideal = incast_ideal(INCAST_SENDERS, INCAST_BYTES, cfg.link_speed, cfg.mtu);
    let mut fcts: Vec<f64> = Vec::with_capacity(rounds as usize * INCAST_SENDERS);
    let mut events = 0;
    let mut incomplete = 0;
    let mut fp = Fingerprint::new();
    for round in 0..rounds {
        let r = tr.span("experiments.run", || {
            incast_run(
                Proto::Ndp,
                incast_topo(),
                INCAST_SENDERS,
                INCAST_BYTES,
                None,
                sub_seed(job.seed, round),
                Time::from_ms(INCAST_HORIZON_MS),
            )
        });
        let open = tr.enter("experiments.summarize");
        events += r.events_processed;
        incomplete += r.incomplete;
        fp.word(r.events_processed);
        for t in &r.fcts {
            fp.word(t.as_ps());
            fcts.push(t.as_ps() as f64);
        }
        let last = r.last();
        tr.exit(open);
        if r.incomplete > 0 {
            return fail(
                NAME,
                format!("round {round}: {} flows incomplete", r.incomplete),
            );
        }
        let last = last.expect("a complete incast has a last flow");
        if last.as_ps() as f64 > 1.1 * ideal.as_ps() as f64 {
            return fail(
                NAME,
                format!(
                    "round {round}: last flow at {:.0} us, ideal {:.0} us",
                    last.as_us(),
                    ideal.as_us()
                ),
            );
        }
    }
    let open = tr.enter("experiments.summarize");
    fcts.sort_by(f64::total_cmp);
    let tail = percentile(&fcts, tail_p(fcts.len()));
    tr.exit(open);
    Ok(Outcome {
        attempted: rounds * INCAST_SENDERS as u64,
        failed: incomplete as u64,
        tail_ratio: tail / ideal.as_ps() as f64,
        tail_n: fcts.len() as u64,
        events,
        kinds: None,
        peak_live_components: None,
        peak_live_flows: INCAST_SENDERS as u64,
        peak_live_requests: 0,
        exported_bytes: 0,
        export_records: [0; 5],
        baseline_stuck: 0,
        fingerprint: fp.value(),
    })
}

// ---------------------------------------------------------------------------
// openloop_ndp / openloop_dctcp
// ---------------------------------------------------------------------------

const OPENLOOP_MEASURE_US: u64 = 125_000;

fn run_openloop(proto: Proto, job: &Job, tr: &mut Tracer) -> Result<Outcome, String> {
    let name = match proto {
        Proto::Ndp => "openloop_ndp",
        _ => "openloop_dctcp",
    };
    let point = OpenLoopPoint {
        proto,
        topo: leafspine(),
        dist: DistKind::WebSearch,
        load: 0.6,
        seed: job.seed,
        warmup: Time::from_ms(5),
        measure: Time::from_us(scaled(OPENLOOP_MEASURE_US, job.div)),
        // A cap, not a horizon: the run ends when the last flow lands. It
        // is sized so that DCTCP's backed-off retransmission timers fire
        // (one seed in twelve needs more than 1 s); a flow still live
        // after it is wedged, not slow.
        drain: Time::from_secs(5),
    };
    let r = tr.span("experiments.run", || openloop_run(point));
    let open = tr.enter("experiments.summarize");
    let all = r.slowdown.overall();
    let tail = all.percentile_or_nan(tail_p(all.len()));
    let mut fp = Fingerprint::new();
    for w in [
        r.events_processed,
        r.offered as u64,
        r.measured as u64,
        r.incomplete as u64,
        r.delivered_bytes,
        r.peak_live_flows as u64,
        r.peak_live_components as u64,
    ] {
        fp.word(w);
    }
    for p in [0.5, 0.9, 0.99, 1.0] {
        fp.float(all.percentile_or_nan(p));
    }
    tr.exit(open);

    if r.live_components_end != r.live_components_baseline {
        return fail(
            name,
            format!(
                "arena not drained: {} components at the end, {} before traffic",
                r.live_components_end, r.live_components_baseline
            ),
        );
    }
    if r.measured != all.len() + r.incomplete {
        return fail(
            name,
            format!(
                "measured {} != completed {} + incomplete {}",
                r.measured,
                all.len(),
                r.incomplete
            ),
        );
    }
    Ok(Outcome {
        attempted: r.measured as u64,
        failed: r.incomplete as u64,
        tail_ratio: tail,
        tail_n: all.len() as u64,
        events: r.events_processed,
        kinds: Some(r.event_kinds),
        peak_live_components: Some(r.peak_live_components as u64),
        peak_live_flows: r.peak_live_flows as u64,
        peak_live_requests: 0,
        exported_bytes: 0,
        export_records: [0; 5],
        baseline_stuck: 0,
        fingerprint: fp.value(),
    })
}

// ---------------------------------------------------------------------------
// rpc_mix
// ---------------------------------------------------------------------------

const RPC_MEASURE_US: u64 = 60_000;
const RPC_SLO_US: u64 = 500;

/// The two-tenant serving mix (the `datamining_bulk` tenant of
/// `rpc_tenant_mix` is left out on purpose; see the README).
pub fn rpc_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "websearch_rpc",
            shape: TreeShape::FanIn,
            fanout: 8,
            leg_sizes: rpc_leg_sizes(),
            response_sizes: Some(EmpiricalCdf::fixed("rpc-response", 1_460)),
            arrivals: ArrivalSpec::Load(0.35),
            slo: Time::from_us(RPC_SLO_US),
        },
        TenantSpec {
            name: "background_blast",
            shape: TreeShape::FanIn,
            fanout: 4,
            leg_sizes: EmpiricalCdf::fixed("blast-chunk", 8_192),
            response_sizes: None,
            arrivals: ArrivalSpec::DiurnalLoad {
                base: 0.10,
                peak: 0.50,
                period: Time::from_ms(2),
                burst_frac: 0.3,
            },
            slo: Time::from_us(300),
        },
    ]
}

fn run_rpc(job: &Job, tr: &mut Tracer) -> Result<Outcome, String> {
    const NAME: &str = "rpc_mix";
    let point = RpcPoint {
        proto: Proto::Ndp,
        topo: leafspine(),
        tenants: rpc_tenants(),
        seed: job.seed,
        warmup: Time::from_ms(2),
        measure: Time::from_us(scaled(RPC_MEASURE_US, job.div)),
        drain: Time::from_ms(500),
        sched: None,
        key: "benchmark".into(),
    };
    let r: RpcPointResult = tr.span("experiments.run", || rpc_world_run(&point));
    let open = tr.enter("experiments.summarize");
    let web = &r.tenants[0];
    // The digest gates its percentiles on sample size; a scaled-down run
    // falls back to what the sample supports.
    let tail_us = web
        .p99_us
        .or(web.p50_us)
        .or(web.mean_us)
        .unwrap_or(f64::NAN);
    let mut fp = Fingerprint::new();
    fp.word(r.events_processed);
    fp.word(r.offered as u64);
    fp.word(r.measured as u64);
    for t in &r.tenants {
        for w in [t.offered, t.completed, t.incomplete, t.fingerprint] {
            fp.word(w);
        }
    }
    tr.exit(open);

    if r.live_components_end != r.live_components_baseline {
        return fail(
            NAME,
            format!(
                "arena not drained: {} components at the end, {} before traffic",
                r.live_components_end, r.live_components_baseline
            ),
        );
    }
    for t in &r.tenants {
        if t.offered != t.completed + t.incomplete {
            return fail(
                NAME,
                format!(
                    "tenant {}: offered {} != completed {} + incomplete {}",
                    t.name, t.offered, t.completed, t.incomplete
                ),
            );
        }
    }
    Ok(Outcome {
        attempted: r.measured as u64,
        failed: r.tenants.iter().map(|t| t.incomplete).sum(),
        tail_ratio: tail_us / RPC_SLO_US as f64,
        tail_n: web.completed,
        events: r.events_processed,
        kinds: Some(r.event_kinds),
        peak_live_components: Some(r.peak_live_components as u64),
        peak_live_flows: r.peak_live_flows as u64,
        peak_live_requests: r.peak_live_requests as u64,
        exported_bytes: 0,
        export_records: [0; 5],
        baseline_stuck: 0,
        fingerprint: fp.value(),
    })
}

// ---------------------------------------------------------------------------
// failure_traced
// ---------------------------------------------------------------------------

const FAILURE_ROUNDS: u64 = 2;

/// The `telemetry` block `ndp run --trace --json` puts in its envelope.
pub fn telemetry_json(s: &TelemetrySummary) -> Json {
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

/// Where the failure rounds' exports go: the same two files for every
/// round of every rep.
fn export_paths(job: &Job) -> [std::path::PathBuf; 2] {
    [
        job.scratch.join("failure_traced.ndjson"),
        job.scratch.join("failure_traced.chrome.json"),
    ]
}

/// Write `bytes` over `path` in place. `std::fs::write` would truncate
/// first, and freeing 19 MB of blocks per round on the sandbox's
/// `discard`-mounted disk stalls the next write by up to a second (the
/// same bytes took 0.1–1.2 s); the export, not the disk's TRIM queue, is
/// what the workload times.
fn overwrite(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)
}

/// What one round of `ndp run failure_matrix --scale quick --trace … --json`
/// does, in-process: telemetry session around the registered experiment,
/// envelope render, both exports written out.
fn run_failure(job: &Job, tr: &mut Tracer) -> Result<Outcome, String> {
    const NAME: &str = "failure_traced";
    let rounds = scaled(FAILURE_ROUNDS, job.div);
    let exp = registry::find("failure_matrix").expect("failure_matrix is registered");
    let [ndjson_path, chrome_path] = export_paths(job);
    let mut first: Option<Outcome> = None;
    for round in 0..rounds {
        let started = std::time::Instant::now();
        let open = tr.enter("experiments.run");
        session::begin(TelemetryConfig::default());
        let report = failure_matrix::run(Scale::Quick, None);
        let points = session::end().map_or(Vec::new(), |(_, p)| p);
        tr.exit(open);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let open = tr.enter("experiments.summarize");
        let summary = telemetry::summarize(&points);
        let doc = registry::document_with_telemetry(
            exp,
            Scale::Quick,
            None,
            &report,
            wall_ms,
            Some(telemetry_json(&summary)),
        )
        .render();
        tr.exit(open);

        let open = tr.enter("telemetry.export");
        let ndjson = telemetry::write_ndjson(&points);
        let chrome = telemetry::write_chrome_trace(&points);
        let written = overwrite(&ndjson_path, ndjson.as_bytes())
            .and_then(|()| overwrite(&chrome_path, chrome.as_bytes()));
        tr.exit(open);
        if let Err(e) = written {
            return fail(
                NAME,
                format!("cannot write exports under {:?}: {e}", job.scratch),
            );
        }

        let open = tr.enter("experiments.summarize");
        let ndp_fattree = report
            .cells
            .iter()
            .find(|c| c.topo == "fattree" && c.proto == Proto::Ndp)
            .expect("the matrix has an NDP/fattree cell");
        let during = ndp_fattree.phases[1].overall();
        // The operation is a measured NDP flow: the baselines' stuck flows
        // across a dead link are the experiment's finding, not a failure
        // of the run.
        let ndp_cells = || report.cells.iter().filter(|c| c.proto == Proto::Ndp);
        let stats = registry::Report::run_stats(&report);
        let mut fp = Fingerprint::new();
        for c in &report.cells {
            for w in [
                c.events_processed,
                c.measured as u64,
                c.stuck_flows as u64,
                c.offered as u64,
                c.reroutes,
                c.dropped_down,
            ] {
                fp.word(w);
            }
            for phase in 0..3 {
                fp.float(c.percentile(phase, 0.5));
                fp.float(c.percentile(phase, 0.99));
            }
        }
        fp.word(ndjson.len() as u64);
        fp.word(chrome.len() as u64);
        let outcome = Outcome {
            attempted: ndp_cells().map(|c| c.measured as u64).sum(),
            failed: ndp_cells().map(|c| c.stuck_flows as u64).sum(),
            tail_ratio: during.percentile_or_nan(tail_p(during.len())),
            tail_n: during.len() as u64,
            events: stats.events_processed.unwrap_or(0),
            kinds: stats.event_kinds,
            peak_live_components: stats.peak_live_components,
            peak_live_flows: stats.peak_live_flows.unwrap_or(0),
            peak_live_requests: 0,
            exported_bytes: (ndjson.len() + chrome.len()) as u64,
            export_records: [
                summary.points as u64,
                summary.gauge_records,
                summary.span_records,
                summary.request_records,
                summary.hop_records,
            ],
            baseline_stuck: report
                .cells
                .iter()
                .filter(|c| c.proto != Proto::Ndp)
                .map(|c| c.stuck_flows as u64)
                .sum(),
            fingerprint: fp.value(),
        };
        let ndp_stuck = outcome.failed;
        tr.exit(open);

        if ndp_stuck > 0 {
            return fail(NAME, format!("round {round}: {ndp_stuck} NDP flows stuck"));
        }
        if doc.is_empty() || summary.points != report.cells.len() {
            return fail(
                NAME,
                format!(
                    "round {round}: {} telemetry points for {} cells",
                    summary.points,
                    report.cells.len()
                ),
            );
        }
        // The experiment pins its own seeds: every round must repeat the
        // first exactly.
        let one = first.get_or_insert(outcome);
        if one.fingerprint != fp.value() {
            return fail(NAME, format!("round {round} differs from round 0"));
        }
    }
    let (n, one) = (rounds, first.expect("at least one round"));
    Ok(Outcome {
        attempted: one.attempted * n,
        failed: one.failed * n,
        events: one.events * n,
        kinds: one.kinds.map(|k| EventKindCounts {
            forward: k.forward * n,
            timed_msg: k.timed_msg * n,
            wake: k.wake * n,
        }),
        exported_bytes: one.exported_bytes * n,
        baseline_stuck: one.baseline_stuck * n,
        ..one
    })
}

/// Read the last round's exports back: NDJSON record counts must equal
/// the `summarize` block, and the Chrome trace must be valid JSON.
fn check_failure_exports(job: &Job, outcome: &Outcome) -> Result<(), String> {
    const NAME: &str = "failure_traced";
    let paths = export_paths(job);
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{NAME}: cannot read back {p:?}: {e}"))
    };
    let (ndjson, chrome) = (read(&paths[0])?, read(&paths[1])?);
    let expected = outcome.export_records;
    let mut got = [0u64; 5];
    for line in ndjson.lines() {
        let kind = ["point", "gauge", "span", "request", "hop"]
            .iter()
            .position(|k| {
                line.strip_prefix("{\"type\":\"")
                    .is_some_and(|rest| rest.starts_with(k))
            })
            .ok_or_else(|| format!("{NAME}: NDJSON line of unknown type: {:.60}", line))?;
        got[kind] += 1;
    }
    if got != expected {
        return fail(
            NAME,
            format!("NDJSON holds {got:?} point/gauge/span/request/hop lines, summary says {expected:?}"),
        );
    }
    match json::parse(&chrome) {
        Ok(_) => Ok(()),
        Err(e) => fail(NAME, format!("Chrome trace is not valid JSON: {e}")),
    }
}
