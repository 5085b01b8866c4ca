//! Layer probes: bench-owned mini-worlds (or pure calls) that price one
//! layer each, so a change to that layer has a number of its own to move.
//! Per-packet figures are net of `sim.probe.floor_ns_per_pkt`, the cost
//! of the same source → sink world with no component under test in
//! between. Which end-to-end metric each probe should move, on which
//! workload, is written down in the README before anything is measured.

use std::any::Any;
use std::time::Instant;

use ndp::experiments::harness::{attach_on, completion_time, FlowSpec, Proto, Scale};
use ndp::experiments::json;
use ndp::experiments::rpc::resolve_mix;
use ndp::experiments::topo::TopoSpec;
use ndp::experiments::{failure_matrix, registry};
use ndp::metrics::rpc::TenantDigest;
use ndp::metrics::SlowdownBins;
use ndp::net::{LinkClass, Packet, Queue, Switch};
use ndp::sim::{Component, ComponentId, Ctx, Event, SchedulerKind, Speed, Time, World};
use ndp::telemetry::{self, session, TelemetryConfig};
use ndp::topology::{LeafSpineCfg, QueueSpec};
use ndp::workloads::{ArrivalProcess, DynamicWorkload, EmpiricalCdf, RpcWorkload};

use crate::host::{median, sub_seed};
use crate::trace::Tracer;
use crate::workloads::{rpc_tenants, telemetry_json};

const MTU: u32 = 9000;

/// `n ÷ div`, at least `floor`.
fn scaled(n: u64, div: u32, floor: u64) -> u64 {
    (n / div as u64).max(floor)
}

// ---------------------------------------------------------------------------
// Packet mini-worlds: source → [component under test] → sink(s)
// ---------------------------------------------------------------------------

struct Sink {
    got: u64,
}

impl Component<Packet> for Sink {
    fn handle(&mut self, ev: Event<Packet>, _ctx: &mut Ctx<'_, Packet>) {
        if let Event::Msg(_) = ev {
            self.got += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Emits `left` full-size data packets, one per `gap`, by self-wake.
struct Source {
    next: ComponentId,
    gap: Time,
    left: u64,
    seq: u64,
}

impl Component<Packet> for Source {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        if let Event::Wake(_) = ev {
            // Destinations cycle so a switch under test spreads over its
            // ports; queues ignore the field.
            let pkt = Packet::data(0, (self.seq % 8) as u32, 1, self.seq, MTU);
            self.seq += 1;
            ctx.forward(self.next, pkt);
            self.left -= 1;
            if self.left > 0 {
                ctx.wake_in(self.gap, 0);
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Host nanoseconds per emitted packet of a source → `mid` → sink world.
/// `mid` receives the world and the sink ids and returns the component
/// the source feeds.
fn ns_per_pkt(
    seed: u64,
    pkts: u64,
    gap: Time,
    mid: impl FnOnce(&mut World<Packet>, &[ComponentId]) -> ComponentId,
) -> (f64, World<Packet>) {
    let mut world: World<Packet> = World::new(seed);
    let sinks: Vec<ComponentId> = (0..8).map(|_| world.add(Sink { got: 0 })).collect();
    let next = mid(&mut world, &sinks);
    let src = world.add(Source {
        next,
        gap,
        left: pkts,
        seq: 0,
    });
    world.post_wake(Time::ZERO, src, 0);
    let started = Instant::now();
    world.run_until_idle();
    let ns = started.elapsed().as_secs_f64() * 1e9 / pkts as f64;
    (ns, world)
}

fn queue_probe(seed: u64, pkts: u64, spec: QueueSpec, overload: bool) -> (f64, f64) {
    let rate = Speed::gbps(10);
    let tx = rate.tx_time(MTU as u64);
    // Idle: half load, the queue never holds more than the packet in
    // service. Overload: arrivals at twice the line rate, so about half
    // are trimmed (NDP) or dropped (drop-tail) once the buffer fills.
    let gap = if overload {
        Time::from_ps(tx.as_ps() / 2)
    } else {
        Time::from_ps(tx.as_ps() * 2)
    };
    let mut qid = None;
    let (ns, world) = ns_per_pkt(seed, pkts, gap, |w, sinks| {
        let q = w.add(Queue::fused(
            rate,
            sinks[0],
            Time::from_us(1),
            LinkClass::Other,
            spec.build(MTU),
        ));
        qid = Some(q);
        q
    });
    let stats = &world.get::<Queue>(qid.expect("queue added")).stats;
    let lost = stats.trimmed + stats.dropped_data;
    (ns, lost as f64 / pkts as f64)
}

// ---------------------------------------------------------------------------
// Scheduler kernel
// ---------------------------------------------------------------------------

struct Noop;

impl Component<u64> for Noop {
    fn handle(&mut self, _ev: Event<u64>, _ctx: &mut Ctx<'_, u64>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The `sched_post_pop` mix of `BENCH_engine.json`: 64-post bursts over
/// lane-hot, granule, overflow and zero delays against a no-op component.
fn post_pop_per_s(seed: u64, kind: SchedulerKind, rounds: u64) -> f64 {
    let mut w: World<u64> = World::with_scheduler(seed, kind);
    let sink = w.add(Noop);
    let started = Instant::now();
    for round in 0..rounds {
        let base = Time::from_ns(round * 1000);
        for i in 0..8 {
            w.post(w.now(), sink, i);
        }
        for i in 0..64u64 {
            let d = match i % 16 {
                0..=7 => Time::from_ns(100),
                8..=11 => Time::from_ns(250),
                12 | 13 => Time::from_ns(777),
                14 => Time::from_ps(65_536),
                _ => Time::from_ms(3),
            };
            w.post(base + d, sink, i);
        }
        w.run_until(base + Time::from_ns(1000));
    }
    w.run_until_idle();
    w.events_processed() as f64 / started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Transport probes on the back-to-back fabric
// ---------------------------------------------------------------------------

/// One long flow between two directly wired hosts: host, pacer and
/// endpoint cost per delivered data packet, no switch on the path.
fn b2b_ns_per_pkt(seed: u64, proto: Proto, bytes: u64) -> Result<f64, String> {
    let mut world: World<Packet> = World::new(seed);
    let topo = TopoSpec::backtoback().build(&mut world, proto.fabric());
    attach_on(
        &mut world,
        topo.as_ref(),
        proto,
        &FlowSpec::new(1, 0, 1, bytes),
    );
    let started = Instant::now();
    world.run_until(Time::from_secs(10));
    let secs = started.elapsed().as_secs_f64();
    if completion_time(&world, topo.host(1), 1, proto).is_none() {
        return Err(format!(
            "b2b probe: the {} flow did not complete",
            proto.label()
        ));
    }
    let payload = (topo.mtu() - ndp::net::HEADER_BYTES) as u64;
    Ok(secs * 1e9 / bytes.div_ceil(payload) as f64)
}

/// Attach 1 KB flows in batches, run each batch to completion, detach:
/// the per-flow cost of the lifecycle `rpc_mix` pays ≈0.8M times a run.
fn lifecycle_ns_per_flow(seed: u64, proto: Proto, flows: u64) -> Result<f64, String> {
    const BATCH: u64 = 64;
    let mut world: World<Packet> = World::new(seed);
    let topo = TopoSpec::backtoback().build(&mut world, proto.fabric());
    let transport = proto.transport();
    let (h0, h1) = (topo.host(0), topo.host(1));
    let started = Instant::now();
    let mut next_flow = 1u64;
    while next_flow <= flows {
        let batch = next_flow..(next_flow + BATCH).min(flows + 1);
        for flow in batch.clone() {
            let mut spec = FlowSpec::new(flow, 0, 1, 1_000);
            spec.start = world.now();
            attach_on(&mut world, topo.as_ref(), proto, &spec);
        }
        let deadline = world.now() + Time::from_ms(50);
        world.run_until(deadline);
        for flow in batch.clone() {
            if transport
                .detach(&mut world, h0, h1, flow)
                .completion_time
                .is_none()
            {
                return Err(format!(
                    "lifecycle probe: {} flow {flow} did not complete",
                    proto.label()
                ));
            }
        }
        next_flow = batch.end;
    }
    Ok(started.elapsed().as_secs_f64() * 1e9 / flows as f64)
}

// ---------------------------------------------------------------------------
// Telemetry: the price of a session, and of exporting it
// ---------------------------------------------------------------------------

fn telemetry_probe(tr: &mut Tracer, pairs: usize) {
    let exp = registry::find("failure_matrix").expect("failure_matrix is registered");
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut last = None;
    for pair in 0..pairs {
        // Interleaved and order-alternating, so drift on the box and
        // whatever the first run of a pair warms hit both sides alike.
        for with_session in [pair % 2 == 1, pair % 2 == 0] {
            let started = Instant::now();
            if with_session {
                let open = tr.enter("experiments.failure_matrix.session");
                session::begin(TelemetryConfig::default());
                let report = failure_matrix::run(Scale::Quick, None);
                let points = session::end().map_or(Vec::new(), |(_, p)| p);
                tr.exit(open);
                on.push(started.elapsed().as_secs_f64());
                last = Some((report, points));
            } else {
                let report = tr.span("experiments.failure_matrix.plain", || {
                    failure_matrix::run(Scale::Quick, None)
                });
                off.push(started.elapsed().as_secs_f64());
                drop(report);
            }
        }
    }
    let (report, points) = last.expect("at least one pair");
    let run_on_s = median(&on);
    tr.count("telemetry.overhead_x", run_on_s / median(&off));

    let started = Instant::now();
    let open = tr.enter("telemetry.probe.export");
    let ndjson = telemetry::write_ndjson(&points);
    let chrome = telemetry::write_chrome_trace(&points);
    tr.exit(open);
    let export_s = started.elapsed().as_secs_f64();
    let bytes = (ndjson.len() + chrome.len()) as f64;
    let events = registry::Report::run_stats(&report)
        .events_processed
        .unwrap_or(0);
    tr.count("telemetry.export_s", export_s);
    tr.count("telemetry.export_mb_per_s", bytes / 1e6 / export_s);
    tr.count("telemetry.export_share", export_s / (run_on_s + export_s));
    tr.count("telemetry.bytes_per_event", bytes / events.max(1) as f64);
    drop(ndjson);

    // The JSON layer both ways: the run's envelope rendered, and the
    // Chrome document (the largest JSON the repo writes) parsed and
    // rendered back.
    let started = Instant::now();
    let open = tr.enter("experiments.json_round_trip");
    let summary = telemetry::summarize(&points);
    let doc = registry::document_with_telemetry(
        exp,
        Scale::Quick,
        None,
        &report,
        run_on_s * 1e3,
        Some(telemetry_json(&summary)),
    )
    .render();
    let back = json::parse(&chrome)
        .expect("the Chrome trace is valid JSON")
        .render();
    tr.exit(open);
    let moved = (doc.len() + chrome.len() + back.len()) as f64;
    tr.count(
        "experiments.probe.json_mb_per_s",
        moved / 1e6 / started.elapsed().as_secs_f64(),
    );
}

// ---------------------------------------------------------------------------
// The probe pass
// ---------------------------------------------------------------------------

/// Run every probe, recording one count each. `div` shrinks the work for
/// `--smoke`.
pub fn run_all(tr: &mut Tracer, seed: u64, div: u32) -> Result<(), String> {
    let pkts = scaled(1_000_000, div, 10_000);
    let all = tr.enter("probes");

    // sim: the floor every packet figure is net of, and the scheduler.
    let floor = tr.span("sim.probe.floor", || {
        ns_per_pkt(seed, pkts, Time::from_us(1), |_, sinks| sinks[0]).0
    });
    tr.count("sim.probe.floor_ns_per_pkt", floor);
    let rounds = scaled(40_000, div, 1_000);
    for (name, kind) in [
        ("sim.probe.post_pop_per_s", SchedulerKind::TwoTier),
        ("sim.probe.classic_post_pop_per_s", SchedulerKind::Classic),
    ] {
        let rate = tr.span("sim.probe.post_pop", || post_pop_per_s(seed, kind, rounds));
        tr.count(name, rate);
    }

    // net: the queue disciplines and the switch.
    for (name, spec, overload) in [
        ("ndp_idle", QueueSpec::ndp_default(), false),
        ("ndp_trim", QueueSpec::ndp_default(), true),
        ("droptail_idle", QueueSpec::dctcp_default(), false),
        ("droptail_drop", QueueSpec::dctcp_default(), true),
    ] {
        let (ns, lost) = tr.span("net.probe.queue", || {
            queue_probe(seed, pkts, spec, overload)
        });
        // A discipline that stopped shedding load under 2x overload (or
        // started shedding it when idle) is not the one being priced.
        if overload != (lost > 0.3) {
            return Err(format!(
                "queue probe {name}: {:.1}% of packets trimmed or dropped",
                lost * 100.0
            ));
        }
        tr.count(format!("net.probe.queue_ns_per_pkt.{name}"), ns - floor);
    }
    let ns = tr.span("net.probe.switch", || {
        ns_per_pkt(seed, pkts, Time::from_us(1), |w, sinks| {
            let router = |pkt: &Packet, _rng: &mut rand::rngs::SmallRng| pkt.dst as usize % 8;
            w.add(Switch::new(sinks.to_vec(), Box::new(router)))
        })
        .0
    });
    tr.count("net.probe.switch_ns_per_pkt", ns - floor);

    // core / baselines / transport: endpoints with no fabric in the way.
    let bytes = scaled(1 << 30, div, 1 << 24);
    for (name, proto) in [
        ("core.probe.b2b_ns_per_pkt", Proto::Ndp),
        ("baselines.probe.b2b_ns_per_pkt.dctcp", Proto::Dctcp),
    ] {
        let open = tr.enter("transport.probe.b2b");
        let ns = b2b_ns_per_pkt(seed, proto, bytes);
        tr.exit(open);
        tr.count(name, ns?);
    }
    let flows = scaled(100_000, div, 1_000);
    for (name, proto) in [
        ("transport.probe.lifecycle_ns_per_flow.ndp", Proto::Ndp),
        ("transport.probe.lifecycle_ns_per_flow.dctcp", Proto::Dctcp),
    ] {
        let open = tr.enter("transport.probe.lifecycle");
        let ns = lifecycle_ns_per_flow(seed, proto, flows);
        tr.exit(open);
        tr.count(name, ns?);
    }

    // workloads: the generators drained with no simulation behind them.
    let n = scaled(2_000_000, div, 10_000) as usize;
    let sizes = EmpiricalCdf::websearch();
    let process =
        ArrivalProcess::poisson_for_load(0.6, Speed::gbps(10).as_bps(), sizes.mean_size());
    let started = Instant::now();
    let drained = tr.span("workloads.probe.flows", || {
        DynamicWorkload::new(32, process, sizes, sub_seed(seed, 1), u64::MAX)
            .take(n)
            .map(|f| f.bytes)
            .fold(0u64, u64::wrapping_add)
    });
    std::hint::black_box(drained);
    tr.count(
        "workloads.probe.flows_per_s",
        n as f64 / started.elapsed().as_secs_f64(),
    );
    let mix = {
        let mut w: World<Packet> = World::new(seed);
        let topo =
            TopoSpec::leafspine(LeafSpineCfg::new(8, 4, 4)).build(&mut w, Proto::Ndp.fabric());
        resolve_mix(&rpc_tenants(), topo.as_ref())
    };
    let n = n / 8;
    let started = Instant::now();
    let drained = tr.span("workloads.probe.requests", || {
        RpcWorkload::new(32, mix, sub_seed(seed, 2), u64::MAX)
            .take(n)
            .map(|r| r.legs.len() as u64)
            .sum::<u64>()
    });
    std::hint::black_box(drained);
    tr.count(
        "workloads.probe.requests_per_s",
        n as f64 / started.elapsed().as_secs_f64(),
    );

    // metrics: record + the three percentiles every summary asks for.
    let n = scaled(1_000_000, div, 10_000);
    let started = Instant::now();
    let open = tr.enter("metrics.probe.digest");
    let mut digest = TenantDigest::new("probe", 500.0);
    let mut x = sub_seed(seed, 3);
    for i in 0..n {
        x = sub_seed(x, i);
        digest.record((x >> 40) as f64 / 1e3, (x & 7) as usize, x & 8 != 0);
    }
    let tails = [0.5, 0.99, 0.999].map(|p| digest.latency_us(p));
    tr.exit(open);
    std::hint::black_box(tails);
    tr.count(
        "metrics.probe.digest_ns_per_sample",
        started.elapsed().as_secs_f64() * 1e9 / n as f64,
    );
    // `SlowdownBins` keeps its CDFs sorted on insert, so its per-sample
    // cost grows with the sample; it is priced at the size the open-loop
    // workloads reach (≈4k measured flows), repeated.
    const BINS_SAMPLES: u64 = 4_096;
    let rounds = scaled(128, div, 4);
    let started = Instant::now();
    let open = tr.enter("metrics.probe.slowdown");
    for round in 0..rounds {
        let mut bins = SlowdownBins::new();
        let mut x = sub_seed(seed, 4 + round);
        for i in 0..BINS_SAMPLES {
            x = sub_seed(x, i);
            bins.add(x >> 44, 1.0 + (x & 0xFFFF) as f64 / 1e3);
        }
        std::hint::black_box([0.5, 0.99, 0.999].map(|p| bins.overall().percentile(p)));
    }
    tr.exit(open);
    tr.count(
        "metrics.probe.slowdown_ns_per_sample",
        started.elapsed().as_secs_f64() * 1e9 / (rounds * BINS_SAMPLES) as f64,
    );

    // telemetry + experiments: session overhead, export, JSON.
    telemetry_probe(tr, if div == 1 { 4 } else { 1 });
    tr.exit(all);
    Ok(())
}
