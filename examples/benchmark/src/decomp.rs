//! Own-world decomposition: rebuild the permutation and incast runs from
//! the public parts their entry points are made of — `World::new`,
//! `TopoSpec::build`, the traffic-matrix generators, `attach_on`,
//! `run_until`, the harvest accessors — with a span around each, and walk
//! the world's queues afterwards. The entry point hides all of that
//! behind one call, so this is the only outside view of build vs attach
//! vs simulate vs harvest, and of per-hop figures. Each rebuild must
//! reproduce its entry point bit for bit, or the numbers describe a
//! different run.

use ndp::experiments::harness::{
    attach_on, completion_time, delivered_bytes, incast_run, permutation_run, FlowSpec, Proto,
    LONG_FLOW,
};
use ndp::experiments::topo::TopoSpec;
use ndp::net::{Packet, Queue};
use ndp::sim::{Time, World};
use ndp::topology::Topology;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::workloads::{incast_topo, perm_topo, INCAST_BYTES, INCAST_HORIZON_MS, INCAST_SENDERS};

/// Simulated length of the permutation rebuild, microseconds. Per-hop and
/// per-flow figures do not depend on the horizon, so the rebuild runs a
/// tenth of the workload's.
const PERM_US: u64 = 6_000;

struct Parts {
    world: World<Packet>,
    topo: Box<dyn Topology>,
    build_s: f64,
    attach_s: f64,
    flows: usize,
}

/// Spans and counts shared by both shapes once the world has run.
fn record(tr: &mut Tracer, shape: &str, parts: &Parts, run_s: f64, harvest_s: f64) {
    let world = &parts.world;
    let open = tr.enter("net.walk_queues");
    let (mut hops, mut trimmed, mut dropped, mut max_occ) = (0u64, 0u64, 0u64, 0u64);
    for id in world.ids() {
        if let Some(q) = world.try_get::<Queue>(id) {
            hops += q.stats.forwarded_pkts;
            trimmed += q.stats.trimmed;
            dropped += q.stats.dropped_data + q.stats.dropped_ctrl;
            max_occ = max_occ.max(q.stats.max_occupancy_bytes);
        }
    }
    tr.exit(open);
    let events = world.events_processed();
    let arrivals = (hops + dropped).max(1) as f64;
    let mut count = |name: &str, v: f64| tr.count(format!("{name}.{shape}"), v);
    count("topology.build_s", parts.build_s);
    count("topology.components", world.live_components() as f64);
    count(
        "transport.attach_ns_per_flow",
        parts.attach_s * 1e9 / parts.flows as f64,
    );
    count("sim.run_until_s", run_s);
    count("experiments.harvest_s", harvest_s);
    count("net.pkt_hops", hops as f64);
    count("net.trim_share", trimmed as f64 / arrivals);
    count("net.drop_share", dropped as f64 / arrivals);
    count("net.max_queue_kb", max_occ as f64 / 1e3);
    count("net.ns_per_pkt_hop", run_s * 1e9 / hops.max(1) as f64);
    count("sim.events_per_pkt_hop", events as f64 / hops.max(1) as f64);
    // `PermutationResult`/`IncastResult` expose neither the posted-event
    // mix nor the arena peak; the rebuilt world does.
    let kinds = world.event_kind_counts();
    let posted = kinds.total().max(1) as f64;
    count("sim.forward_share", kinds.forward as f64 / posted);
    count("sim.timed_share", kinds.timed_msg as f64 / posted);
    count("sim.wake_share", kinds.wake as f64 / posted);
    count(
        "sim.peak_live_components",
        world.peak_live_components() as f64,
    );
}

fn build_and_attach(
    tr: &mut Tracer,
    spec: &TopoSpec,
    seed: u64,
    flows: impl FnOnce(usize) -> Vec<FlowSpec>,
) -> Parts {
    let proto = Proto::Ndp;
    let started = std::time::Instant::now();
    let open = tr.enter("topology.build");
    let mut world: World<Packet> = World::new(seed);
    let topo = spec.build(&mut world, proto.fabric());
    tr.exit(open);
    let build_s = started.elapsed().as_secs_f64();
    let specs = flows(topo.n_hosts());
    let started = std::time::Instant::now();
    let open = tr.enter("transport.attach");
    for spec in &specs {
        attach_on(&mut world, topo.as_ref(), proto, spec);
    }
    tr.exit(open);
    Parts {
        world,
        topo,
        build_s,
        attach_s: started.elapsed().as_secs_f64(),
        flows: specs.len(),
    }
}

/// Time `f` under a span and hand back its duration too.
fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let started = std::time::Instant::now();
    let r = tr.span(name, f);
    (r, started.elapsed().as_secs_f64())
}

/// `permutation_run(Ndp, fattree k=8, PERM_US ÷ div, seed)` from parts.
pub fn permutation(tr: &mut Tracer, seed: u64, div: u32) -> Result<(), String> {
    let duration = Time::from_us((PERM_US / div as u64).max(500));
    let spec = perm_topo();
    let mut dsts = Vec::new();
    let mut parts = build_and_attach(tr, &spec, seed, |n| {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD);
        dsts = ndp::workloads::permutation(n, &mut rng);
        dsts.iter()
            .enumerate()
            .map(|(src, &dst)| FlowSpec::new(src as u64 + 1, src as u32, dst as u32, LONG_FLOW))
            .collect()
    });
    let ((), run_s) = timed(tr, "sim.run_until", || {
        parts.world.run_until(duration);
    });
    let (per_flow, harvest_s) = timed(tr, "experiments.harvest", || {
        let mut per_flow: Vec<f64> = dsts
            .iter()
            .enumerate()
            .map(|(src, &dst)| {
                let bytes = delivered_bytes(
                    &parts.world,
                    parts.topo.host(dst as u32),
                    src as u64 + 1,
                    Proto::Ndp,
                );
                bytes as f64 * 8.0 / duration.as_secs() / 1e9
            })
            .collect();
        per_flow.sort_by(f64::total_cmp);
        per_flow
    });
    let reference = tr.span("experiments.entry_reference", || {
        permutation_run(Proto::Ndp, spec.clone(), duration, seed, None)
    });
    if reference.events_processed != parts.world.events_processed()
        || reference.per_flow_gbps != per_flow
    {
        return Err(format!(
            "decomposition of permutation_k8 diverged from permutation_run: {} events vs {}",
            parts.world.events_processed(),
            reference.events_processed
        ));
    }
    record(tr, "perm", &parts, run_s, harvest_s);
    Ok(())
}

/// One `incast_run(Ndp, fattree k=12, 431 × 450 KB, seed, 500 ms)` from
/// parts.
pub fn incast(tr: &mut Tracer, seed: u64) -> Result<(), String> {
    let horizon = Time::from_ms(INCAST_HORIZON_MS);
    let spec = incast_topo();
    let mut parts = build_and_attach(tr, &spec, seed, |n| {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        ndp::workloads::incast(0, INCAST_SENDERS, n, &mut rng)
            .iter()
            .enumerate()
            .map(|(i, &w)| FlowSpec::new(i as u64 + 1, w as u32, 0, INCAST_BYTES))
            .collect()
    });
    let ((), run_s) = timed(tr, "sim.run_until", || {
        parts.world.run_until(horizon);
    });
    let (fcts, harvest_s) = timed(tr, "experiments.harvest", || {
        let frontend = parts.topo.host(0);
        (0..INCAST_SENDERS)
            .filter_map(|i| completion_time(&parts.world, frontend, i as u64 + 1, Proto::Ndp))
            .collect::<Vec<Time>>()
    });
    let reference = tr.span("experiments.entry_reference", || {
        incast_run(
            Proto::Ndp,
            spec.clone(),
            INCAST_SENDERS,
            INCAST_BYTES,
            None,
            seed,
            horizon,
        )
    });
    if reference.events_processed != parts.world.events_processed() || reference.fcts != fcts {
        return Err(format!(
            "decomposition of incast_k12 diverged from incast_run: {} events vs {}",
            parts.world.events_processed(),
            reference.events_processed
        ));
    }
    record(tr, "incast", &parts, run_s, harvest_s);
    Ok(())
}
