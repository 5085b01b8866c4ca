//! Telemetry subsystem integration tests.
//!
//! The contract under test, from both directions:
//!
//! * **Off ⇒ zero-cost**: flight hooks post no events and draw no RNG,
//!   so attaching them cannot move the golden trace hash, and a run with
//!   no active session produces bit-identical experiment results.
//! * **On ⇒ deterministic**: with a session active, the exported NDJSON
//!   bytes are identical across `NDP_THREADS` settings and across the
//!   two-tier and classic schedulers.
//!
//! The telemetry session and the default-scheduler knob are process
//! globals, so every test here serializes on one mutex.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use ndp::core::{attach_flow, NdpFlowCfg};
use ndp::experiments::json::{self, Json};
use ndp::experiments::openloop::{openloop_run, DistKind, SWEEP_PROTOS};
use ndp::experiments::sweep::OpenLoopPoint;
use ndp::experiments::{failure_matrix, find_topo, registry, Proto, Report as _, Scale};
use ndp::net::flight::{FlightHook, FlightRecorder, HopKind};
use ndp::net::queue::Queue;
use ndp::net::switch::Switch;
use ndp::net::Packet;
use ndp::sim::world::{set_default_scheduler, SchedulerKind};
use ndp::sim::{Time, World};
use ndp::telemetry::{self, session, PointTelemetry, TelemetryConfig, TelemetrySummary};
use ndp::topology::{FatTree, FatTreeCfg, Topology};
use ndp_snapshot::{field, snapshot};

static GUARD: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    match GUARD.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// A small NDP run with the event trace enabled; optionally every queue
/// and switch carries a flight hook. Returns the trace hash and the
/// number of hop records captured.
fn hooked_world(kind: SchedulerKind, hooked: bool) -> ((u64, u64), usize) {
    let mut w: World<Packet> = World::with_scheduler(11, kind);
    w.enable_trace();
    let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
    let rec = Arc::new(Mutex::new(FlightRecorder::new(1 << 16)));
    if hooked {
        for (i, l) in ft.links().iter().enumerate() {
            let hook = FlightHook::new(Arc::clone(&rec), i as u32);
            w.get_mut::<Queue>(l.queue).set_flight_hook(Some(hook));
        }
        let ids: Vec<_> = w.ids().collect();
        for id in ids {
            if w.try_get::<Switch>(id).is_some() {
                let hook = FlightHook::new(Arc::clone(&rec), u32::MAX);
                w.get_mut::<Switch>(id).set_flight_hook(Some(hook));
            }
        }
    }
    for (i, &(src, dst)) in [(0u32, 9u32), (3, 12)].iter().enumerate() {
        let cfg = NdpFlowCfg {
            n_paths: ft.n_paths(src, dst),
            ..NdpFlowCfg::new(300_000)
        };
        attach_flow(
            &mut w,
            i as u64 + 1,
            (ft.hosts[src as usize], src),
            (ft.hosts[dst as usize], dst),
            cfg,
            Time::from_us(i as u64),
        );
    }
    w.run_until(Time::from_ms(10));
    let n = match rec.lock() {
        Ok(g) => g.len(),
        Err(p) => p.into_inner().len(),
    };
    (w.trace_hash(), n)
}

#[test]
fn flight_hooks_do_not_perturb_the_event_stream() {
    let _g = serialize();
    for kind in [SchedulerKind::TwoTier, SchedulerKind::Classic] {
        let (bare, none) = hooked_world(kind, false);
        let (instrumented, captured) = hooked_world(kind, true);
        assert_eq!(none, 0, "unhooked world must record nothing");
        assert!(captured > 0, "hooked world must capture hop records");
        assert_eq!(
            bare, instrumented,
            "{kind:?}: attaching flight hooks moved the trace hash"
        );
    }
}

#[test]
fn flight_recorder_sees_every_forwarded_packet() {
    let _g = serialize();
    let mut w: World<Packet> = World::new(3);
    let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
    let rec = Arc::new(Mutex::new(FlightRecorder::new(1 << 16)));
    for (i, l) in ft.links().iter().enumerate() {
        let hook = FlightHook::new(Arc::clone(&rec), i as u32);
        w.get_mut::<Queue>(l.queue).set_flight_hook(Some(hook));
    }
    attach_flow(
        &mut w,
        1,
        (ft.hosts[0], 0),
        (ft.hosts[9], 9),
        NdpFlowCfg {
            n_paths: ft.n_paths(0, 9),
            ..NdpFlowCfg::new(90_000)
        },
        Time::ZERO,
    );
    w.run_until(Time::from_ms(5));
    let rec = rec.lock().unwrap();
    let enq = rec.records().filter(|r| r.kind == HopKind::Enqueue).count();
    let deq = rec.records().filter(|r| r.kind == HopKind::Dequeue).count();
    assert!(enq > 0, "no enqueue hops captured");
    assert!(deq > 0, "no dequeue hops captured");
    // Every record belongs to the only flow in the world.
    assert!(rec.records().all(|r| r.flow == 1));
    // An unloaded fabric forwards everything it accepts.
    assert_eq!(enq, deq, "enqueue/dequeue mismatch on an idle fabric");
}

/// Run the quick failure matrix under an active session: the collected
/// points and the headline.
fn capture_points(threads: &str, kind: SchedulerKind) -> (Vec<PointTelemetry>, String) {
    std::env::set_var("NDP_THREADS", threads);
    set_default_scheduler(kind);
    session::begin(TelemetryConfig);
    let report = failure_matrix::run(Scale::Quick, None);
    let (_, points) = session::end().expect("session was active");
    std::env::remove_var("NDP_THREADS");
    set_default_scheduler(SchedulerKind::TwoTier);
    assert!(!points.is_empty(), "failure matrix submitted no telemetry");
    (points, report.headline())
}

/// 64-bit FNV-1a of an export's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[test]
fn telemetry_on_trace_is_byte_identical_across_threads_and_schedulers() {
    let _g = serialize();
    let (points, headline_serial) = capture_points("1", SchedulerKind::TwoTier);
    let (serial, chrome) = (
        telemetry::write_ndjson(&points),
        telemetry::write_chrome_trace(&points),
    );
    let summary = telemetry::summarize(&points);
    drop(points);
    let (threaded, headline_threaded) = capture_points("7", SchedulerKind::TwoTier);
    assert_eq!(
        serial,
        telemetry::write_ndjson(&threaded),
        "NDJSON bytes changed with the worker thread count"
    );
    assert_eq!(headline_serial, headline_threaded);
    drop(threaded);
    let (classic, _) = capture_points("3", SchedulerKind::Classic);
    assert_eq!(
        serial,
        telemetry::write_ndjson(&classic),
        "NDJSON bytes changed with the engine scheduler"
    );
    drop(classic);
    // The capture is substantive: gauges, spans, and down-link hop
    // records all present, so a tail flow is attributable to the failure.
    assert!(serial.contains("\"gauge\":\"queue\""));
    assert!(serial.contains("\"type\":\"span\""));
    assert!(serial.contains("\"kind\":\"drop_down\""));
    // Every NDJSON line is a JSON record naming its type and point, and
    // the Chrome trace loads with events in it.
    let mut kinds = BTreeMap::new();
    for line in serial.lines() {
        let rec = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(rec.get("point").is_some(), "{line}");
        let kind = rec.get("type").and_then(Json::as_str).expect(line);
        *kinds.entry(kind.to_string()).or_insert(0) += 1;
    }
    for kind in ["point", "gauge", "span", "hop"] {
        assert!(kinds.contains_key(kind), "no {kind} records: {kinds:?}");
    }
    let chrome_doc = json::parse(&chrome).expect("a Chrome trace");
    let events = chrome_doc.get("traceEvents").and_then(Json::as_arr);
    assert!(events.is_some_and(|e| !e.is_empty()), "empty Chrome trace");
    // The two exports `ndp run failure_matrix --scale quick --trace`
    // writes: their sizes and 64-bit FNV-1a digests, beside the
    // envelope's block.
    let mut pin = String::new();
    field(&mut pin, "ndjson_lines", serial.lines().count());
    field(&mut pin, "ndjson_bytes", serial.len());
    field(
        &mut pin,
        "ndjson_fnv1a",
        format_args!("0x{:016X}", fnv1a(&serial)),
    );
    field(&mut pin, "chrome_bytes", chrome.len());
    field(
        &mut pin,
        "chrome_fnv1a",
        format_args!("0x{:016X}", fnv1a(&chrome)),
    );
    let TelemetrySummary {
        points,
        gauge_records,
        span_records,
        request_records,
        hop_records,
        gauges_evicted,
        hops_evicted,
        peak_queue_bytes,
        max_span_gap_ps,
        stuck_spans,
        stuck_requests,
    } = summary;
    field(&mut pin, "points", points);
    field(&mut pin, "gauge_records", gauge_records);
    field(&mut pin, "span_records", span_records);
    field(&mut pin, "request_records", request_records);
    field(&mut pin, "hop_records", hop_records);
    field(&mut pin, "gauges_evicted", gauges_evicted);
    field(&mut pin, "hops_evicted", hops_evicted);
    field(&mut pin, "peak_queue_bytes", peak_queue_bytes);
    field(&mut pin, "max_span_gap_ps", max_span_gap_ps);
    field(&mut pin, "stuck_spans", stuck_spans);
    field(&mut pin, "stuck_requests", stuck_requests);
    snapshot!("failure_matrix_trace", pin);
    // The envelope's telemetry block counts every record kind and evicted
    // no gauge.
    for (kind, n) in [
        ("points", points as u64),
        ("gauge_records", gauge_records),
        ("span_records", span_records),
        ("hop_records", hop_records),
    ] {
        assert!(n > 0, "no {kind}");
    }
    assert_eq!(gauges_evicted, 0);
}

#[test]
fn tracing_does_not_change_experiment_results() {
    let _g = serialize();
    std::env::set_var("NDP_THREADS", "2");
    let plain = failure_matrix::run(Scale::Quick, None).headline();
    session::begin(TelemetryConfig);
    let traced = failure_matrix::run(Scale::Quick, None).headline();
    let (_, points) = session::end().expect("session was active");
    std::env::remove_var("NDP_THREADS");
    assert_eq!(
        plain, traced,
        "an active telemetry session changed experiment results"
    );
    assert!(points.iter().any(|p| !p.spans.is_empty()));
    assert!(points.iter().any(|p| !p.hops.is_empty()));
    assert!(points.iter().any(|p| !p.gauges.is_empty()));
    // No session active afterwards: the next runner sees telemetry off.
    assert!(session::active().is_none());
}

#[test]
fn traced_load_sweep_submits_every_point_and_keeps_its_headline() {
    let _g = serialize();
    let exp = registry::find("load_websearch").expect("registered");
    let plain = (exp.run)(Scale::Quick, None).headline();
    session::begin(TelemetryConfig);
    let traced = (exp.run)(Scale::Quick, None).headline();
    let (_, points) = session::end().expect("session was active");
    assert_eq!(
        plain, traced,
        "an active telemetry session changed the sweep's results"
    );
    for proto in SWEEP_PROTOS {
        let tag = format!("/{}/", proto.label());
        let mine: Vec<_> = points.iter().filter(|p| p.key.contains(&tag)).collect();
        assert!(!mine.is_empty(), "no telemetry point for {}", proto.label());
        assert!(
            mine.iter()
                .all(|p| !p.spans.is_empty() && !p.gauges.is_empty()),
            "{}: a point without flow spans or live-flow gauges",
            proto.label()
        );
    }
    // The session sorts by key, so equal keys would leave point order to
    // the worker threads.
    assert!(
        points.windows(2).all(|w| w[0].key < w[1].key),
        "telemetry keys must be unique per point"
    );
}

#[test]
fn stragglers_export_in_ascending_flow_order_run_after_run() {
    let _g = serialize();
    // This DCTCP point ends its 20 ms drain cap with measured flows still
    // running; their `stuck` spans used to come out in `HashMap` order,
    // which differs from map to map even inside one process. (At a 200 ms
    // drain none is left: DCTCP repairs a lost burst within one RTO
    // expiry.)
    let stuck_flows = || {
        session::begin(TelemetryConfig);
        let r = openloop_run(OpenLoopPoint {
            proto: Proto::Dctcp,
            topo: find_topo("leafspine")
                .expect("registered")
                .spec(Scale::Quick),
            dist: DistKind::WebSearch,
            load: 0.6,
            seed: 7,
            warmup: Time::from_ms(5),
            measure: Time::from_ms(30),
            drain: Time::from_ms(20),
        });
        let (_, points) = session::end().expect("session was active");
        assert_eq!(points.len(), 1);
        let stuck: Vec<u64> = (points[0].spans.iter())
            .filter(|s| s.stuck)
            .map(|s| s.flow)
            .collect();
        assert!(stuck.len() >= 2, "want >= 2 stragglers, got {stuck:?}");
        assert!(stuck.windows(2).all(|w| w[0] < w[1]), "order {stuck:?}");
        let mut render = String::new();
        field(&mut render, "incomplete", r.incomplete);
        field(&mut render, "stuck_flows", stuck);
        render
    };
    let first = stuck_flows();
    assert_eq!(first, stuck_flows(), "straggler order changed between runs");
    snapshot!("dctcp_stragglers", first);
}
