//! Shared experiment machinery: scale knobs, [`FlowSet`] (the one runner
//! for a fixed set of flows) and the traffic-matrix runners built on it.
//!
//! Protocol dispatch lives in the [`crate::transport`] registry and
//! fabric shapes in the [`crate::topo`] registry — this module drives
//! `&dyn Transport` objects over `&dyn Topology` fabrics and contains no
//! per-protocol or per-topology code at all.

use ndp_net::host::{Endpoint, EndpointCtx, FlowHarvest};
use ndp_net::packet::{FlowId, HostId, Packet, PacketBody};
use ndp_net::Host;
use ndp_sim::{ComponentId, Speed, Time, World};
use ndp_topology::Topology;

use crate::topo::TopoSpec;

pub use crate::transport::{flow_hash_path, FlowSpec, Proto};

/// Scale knob: `Paper` reproduces the paper's parameters, `Quick`
/// shrinks everything for CI and Criterion benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Quick,
}

impl Scale {
    /// Parse a scale name, case-insensitively.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "paper" => Some(Scale::Paper),
            "quick" => Some(Scale::Quick),
            _ => None,
        }
    }

    /// Read `NDP_SCALE`. Unset (or empty) means `Quick`; anything that is
    /// not `paper`/`quick` (case-insensitive) is an error — a typoed
    /// `NDP_SCALE=Papre` must not silently run a quick-scale campaign.
    pub fn from_env() -> Result<Scale, String> {
        match std::env::var("NDP_SCALE") {
            Err(_) => Ok(Scale::Quick),
            Ok(v) if v.is_empty() => Ok(Scale::Quick),
            Ok(v) => Scale::parse(&v).ok_or_else(|| {
                format!("NDP_SCALE must be 'paper' or 'quick' (case-insensitive), got '{v}'")
            }),
        }
    }

    /// The scale's canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }

    /// Fabric scale parameter k for "the 432-host network" experiments.
    pub fn big_k(self) -> usize {
        match self {
            Scale::Paper => 12, // 432 hosts
            Scale::Quick => 8,  // 128 hosts
        }
    }

    /// Fabric scale parameter k for "the 8192-host network" experiments.
    pub fn huge_k(self) -> usize {
        match self {
            Scale::Paper => 32, // 8192 hosts
            Scale::Quick => 8,
        }
    }

    pub fn duration(self) -> Time {
        match self {
            Scale::Paper => Time::from_ms(50),
            Scale::Quick => Time::from_ms(15),
        }
    }
}

/// "Effectively infinite" flow size for long-running measurements: far
/// more than any horizon can drain, small enough that per-packet state
/// stays cheap.
pub const LONG_FLOW: u64 = 1 << 30;

/// Attach `spec` using protocol `proto` on any topology: the path count,
/// host components and MTU all come from the [`Topology`] surface.
pub fn attach_on(world: &mut World<Packet>, topo: &dyn Topology, proto: Proto, spec: &FlowSpec) {
    proto.transport().attach(world, topo, spec);
}

/// Receiver-side delivered payload bytes for any protocol. `proto` is no
/// longer read — every endpoint reports through [`Host::harvest`] — and
/// stays in the signature because the frozen benchmark package calls this.
pub fn delivered_bytes(
    world: &World<Packet>,
    host: ComponentId,
    flow: FlowId,
    _proto: Proto,
) -> u64 {
    world.get::<Host>(host).harvest(flow).delivered_bytes
}

/// Receiver-side completion time (absolute) for any protocol; `proto` is
/// unused, as for [`delivered_bytes`].
pub fn completion_time(
    world: &World<Packet>,
    host: ComponentId,
    flow: FlowId,
    _proto: Proto,
) -> Option<Time> {
    world.get::<Host>(host).harvest(flow).completion_time
}

/// A fixed set of flows on one freshly seeded world: the bare
/// build-attach-run shape behind every figure that runs its flows to a
/// horizon. The caller runs [`FlowSet::world`] itself (to a horizon, in
/// steps, or after installing a [`Tap`]) and reads each flow back at its
/// receiver.
pub struct FlowSet {
    pub world: World<Packet>,
    pub topo: Box<dyn Topology>,
}

impl FlowSet {
    /// Seed a world, wire it with `build` (the fabric, plus anything that
    /// must act before the first flow), then attach every flow on `proto`
    /// in order.
    pub fn attach(
        seed: u64,
        proto: Proto,
        flows: &[FlowSpec],
        build: impl FnOnce(&mut World<Packet>) -> Box<dyn Topology>,
    ) -> FlowSet {
        let mut world = World::new(seed);
        let topo = build(&mut world);
        for spec in flows {
            attach_on(&mut world, topo.as_ref(), proto, spec);
        }
        FlowSet { world, topo }
    }

    /// What `spec`'s receiver has harvested so far.
    pub fn rx(&self, spec: &FlowSpec) -> FlowHarvest {
        let host = self.world.get::<Host>(self.topo.host(spec.dst));
        host.harvest(spec.flow)
    }

    /// `spec`'s delivered goodput over `span`, in Gb/s.
    pub fn gbps(&self, spec: &FlowSpec, span: Time) -> f64 {
        self.rx(spec).delivered_bytes as f64 * 8.0 / span.as_secs() / 1e9
    }
}

/// One long flow from every one of `n_hosts` hosts to a permutation of
/// them drawn from `seed`; flow ids count from 1 in source order.
pub fn permutation_flows(n_hosts: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    (ndp_workloads::permutation(n_hosts, &mut rng).into_iter())
        .enumerate()
        .map(|(src, dst)| FlowSpec::new(src as u64 + 1, src as HostId, dst as HostId, LONG_FLOW))
        .collect()
}

/// A `size`-byte flow to host 0 from each of `n_senders` workers drawn
/// from `seed`; flow ids count from 1 in draw order.
pub fn incast_flows(n_hosts: usize, n_senders: usize, size: u64, seed: u64) -> Vec<FlowSpec> {
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    (ndp_workloads::incast(0, n_senders, n_hosts, &mut rng).into_iter())
        .enumerate()
        .map(|(i, w)| FlowSpec::new(i as u64 + 1, w as HostId, 0, size))
        .collect()
}

/// Result of a permutation-traffic-matrix run.
pub struct PermutationResult {
    pub per_flow_gbps: Vec<f64>,
    pub utilization: f64,
    /// Events the engine dispatched for this run (engine-bench fuel).
    pub events_processed: u64,
}

/// Run a permutation matrix of long-running flows for `duration` and
/// measure per-flow goodput.
pub fn permutation_run(
    proto: Proto,
    topo: TopoSpec,
    duration: Time,
    seed: u64,
    iw: Option<u64>,
) -> PermutationResult {
    permutation_world_run(&crate::sweep::PermutationPoint {
        proto,
        topo,
        duration,
        seed,
        iw,
    })
}

/// The simulation behind one [`crate::sweep::PermutationPoint`]: builds its
/// own seeded world, so concurrent executions are independent and
/// bit-reproducible.
pub(crate) fn permutation_world_run(point: &crate::sweep::PermutationPoint) -> PermutationResult {
    let (proto, duration, n) = (point.proto, point.duration, point.topo.n_hosts());
    let mut flows = permutation_flows(n, point.seed ^ 0xDEAD);
    flows.iter_mut().for_each(|f| f.iw = point.iw);
    let mut set = FlowSet::attach(point.seed, proto, &flows, |w| {
        point.topo.build(w, proto.fabric())
    });
    set.world.run_until(duration);
    let mut per_flow: Vec<f64> = flows.iter().map(|f| set.gbps(f, duration)).collect();
    per_flow.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let line = set.topo.host_link_speed().as_gbps();
    let utilization = per_flow.iter().sum::<f64>() / (n as f64 * line);
    PermutationResult {
        per_flow_gbps: per_flow,
        utilization,
        events_processed: set.world.events_processed(),
    }
}

/// Result of an N:1 incast run.
pub struct IncastResult {
    /// Per-flow completion times relative to the common start.
    pub fcts: Vec<Time>,
    pub incomplete: usize,
    /// Events the engine dispatched for this run (engine-bench fuel).
    pub events_processed: u64,
}

impl IncastResult {
    /// Completion time of the slowest *finished* flow; `None` when no flow
    /// completed within the horizon. Note that with `incomplete > 0` the
    /// true last-flow time is unknown (beyond the horizon), so callers
    /// reporting overall completion should also check [`Self::complete`].
    pub fn last(&self) -> Option<Time> {
        self.fcts.iter().copied().max()
    }

    /// Completion time of the fastest finished flow, if any.
    pub fn first(&self) -> Option<Time> {
        self.fcts.iter().copied().min()
    }

    /// Did every flow finish within the horizon?
    pub fn complete(&self) -> bool {
        self.incomplete == 0
    }
}

/// Run an N:1 incast of `size`-byte responses on the point's topology.
pub fn incast_run(
    proto: Proto,
    topo: TopoSpec,
    n_senders: usize,
    size: u64,
    iw: Option<u64>,
    seed: u64,
    horizon: Time,
) -> IncastResult {
    incast_world_run(&crate::sweep::IncastPoint {
        proto,
        topo,
        n_senders,
        size,
        iw,
        seed,
        horizon,
    })
}

/// The simulation behind one [`crate::sweep::IncastPoint`].
pub(crate) fn incast_world_run(point: &crate::sweep::IncastPoint) -> IncastResult {
    let (n, seed) = (point.topo.n_hosts(), point.seed ^ 0xBEEF);
    let mut flows = incast_flows(n, point.n_senders, point.size, seed);
    flows.iter_mut().for_each(|f| f.iw = point.iw);
    let mut set = FlowSet::attach(point.seed, point.proto, &flows, |w| {
        point.topo.build(w, point.proto.fabric())
    });
    set.world.run_until(point.horizon);
    let done: Vec<Option<Time>> = flows.iter().map(|f| set.rx(f).completion_time).collect();
    IncastResult {
        fcts: done.iter().flatten().copied().collect(),
        incomplete: done.iter().filter(|t| t.is_none()).count(),
        events_processed: set.world.events_processed(),
    }
}

/// Ideal (store-and-forward, fully pipelined) last-flow completion for an
/// N:1 incast: all bytes serialized on the receiver link.
pub fn incast_ideal(n: usize, size: u64, link: Speed, mtu: u32) -> Time {
    let per = (mtu - ndp_net::packet::HEADER_BYTES) as u64;
    let pkts = size.div_ceil(per);
    let wire_bytes = n as u64 * (size + pkts * ndp_net::packet::HEADER_BYTES as u64);
    link.tx_time(wire_bytes)
}

/// What a [`Tap`] keeps of one packet its endpoint took: given the
/// packet, the instant, and the payload bytes the endpoint delivered for
/// it, a sample or `None`.
pub type TapProbe = fn(&PacketBody, Time, u64) -> Option<Time>;

/// An endpoint that forwards every call to the one it wraps and records a
/// sample per packet its probe keeps: a figure measures a flow from
/// outside the transport instead of through a recorder built into it.
pub struct Tap {
    inner: Box<dyn Endpoint>,
    probe: TapProbe,
    samples: Vec<Time>,
}

impl Tap {
    /// Wrap `flow`'s attached endpoint on host component `host` in a tap.
    pub fn install(world: &mut World<Packet>, host: ComponentId, flow: FlowId, probe: TapProbe) {
        let h = world.get_mut::<Host>(host);
        let inner = h
            .remove_endpoint(flow)
            .expect("tap needs an attached endpoint");
        let tap = Tap {
            inner,
            probe,
            samples: Vec::new(),
        };
        h.add_endpoint(flow, Box::new(tap));
    }

    /// The samples the tap on `flow` at `host` recorded, in arrival order.
    pub fn samples(world: &World<Packet>, host: ComponentId, flow: FlowId) -> &[Time] {
        &world.get::<Host>(host).endpoint::<Tap>(flow).samples
    }
}

impl Endpoint for Tap {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        let before = self.inner.harvest().delivered_bytes;
        let head = (*pkt).clone();
        self.inner.on_packet(pkt, ctx);
        let delivered = self.inner.harvest().delivered_bytes - before;
        self.samples
            .extend((self.probe)(&head, ctx.now(), delivered));
    }

    fn on_timer(&mut self, token: u8, ctx: &mut EndpointCtx<'_, '_>) {
        self.inner.on_timer(token, ctx);
    }

    fn harvest(&self) -> FlowHarvest {
        self.inner.harvest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry's quick-scale full-bisection fabric (16 hosts).
    fn quick_fattree() -> TopoSpec {
        crate::topo::registered("fattree").spec(Scale::Quick)
    }

    #[test]
    fn small_ndp_permutation_has_high_utilization() {
        let r = permutation_run(Proto::Ndp, quick_fattree(), Time::from_ms(5), 1, Some(30));
        assert!(
            r.utilization > 0.85,
            "NDP permutation utilization {}",
            r.utilization
        );
    }

    #[test]
    fn small_incast_all_protocols_complete() {
        for proto in [Proto::Ndp, Proto::Dctcp, Proto::Dcqcn] {
            let r = incast_run(
                proto,
                quick_fattree(),
                8,
                90_000,
                None,
                2,
                Time::from_secs(2),
            );
            assert!(r.complete(), "{:?} left flows incomplete", proto);
            assert_eq!(r.fcts.len(), 8);
            assert!(r.first() <= r.last());
        }
    }

    #[test]
    fn permutation_runs_on_every_registered_multi_host_topology() {
        // The harness is topology-neutral: the same permutation runner
        // drives every fabric shape in the registry and NDP keeps the
        // full-bisection ones busy.
        for entry in crate::topo::TOPOLOGIES {
            let spec = entry.spec(Scale::Quick);
            if spec.n_hosts() < 4 {
                continue; // a 2-host permutation is just one flow pair
            }
            let r = permutation_run(Proto::Ndp, spec, Time::from_ms(2), 3, Some(30));
            assert_eq!(r.per_flow_gbps.len(), entry.spec(Scale::Quick).n_hosts());
            assert!(
                r.utilization > 0.1,
                "{}: utilization {}",
                entry.name,
                r.utilization
            );
        }
    }

    /// The frozen benchmark times `permutation_run` and `incast_run` from
    /// parts: it seeds a bare world, builds the fabric, draws the flows,
    /// attaches them in order and runs, then refuses the whole run unless
    /// its event count and per-flow results equal the runner's. A runner
    /// that posts one event more (a driver's spawn or watcher wake, say)
    /// or attaches in another order fails here rather than in the
    /// benchmark's smoke run.
    #[test]
    fn the_runners_match_a_bare_build_attach_run_world() {
        use rand::SeedableRng;
        let spec = quick_fattree();
        let bare = |seed: u64, draw: &dyn Fn(usize) -> Vec<FlowSpec>, horizon: Time| {
            let mut w: World<Packet> = World::new(seed);
            let topo = spec.build(&mut w, Proto::Ndp.fabric());
            let flows = draw(topo.n_hosts());
            for f in &flows {
                attach_on(&mut w, topo.as_ref(), Proto::Ndp, f);
            }
            w.run_until(horizon);
            let rx: Vec<FlowHarvest> = (flows.iter())
                .map(|f| w.get::<Host>(topo.host(f.dst)).harvest(f.flow))
                .collect();
            (w.events_processed(), rx)
        };

        let (seed, span) = (5, Time::from_ms(2));
        let (events, rx) = bare(
            seed,
            &|n| {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xDEAD);
                (ndp_workloads::permutation(n, &mut rng).into_iter())
                    .enumerate()
                    .map(|(src, dst)| {
                        FlowSpec::new(src as u64 + 1, src as u32, dst as u32, LONG_FLOW)
                    })
                    .collect()
            },
            span,
        );
        let mut gbps: Vec<f64> = (rx.iter())
            .map(|h| h.delivered_bytes as f64 * 8.0 / span.as_secs() / 1e9)
            .collect();
        gbps.sort_by(f64::total_cmp);
        let r = permutation_run(Proto::Ndp, spec.clone(), span, seed, None);
        assert_eq!(r.events_processed, events, "permutation events");
        assert_eq!(r.per_flow_gbps, gbps, "permutation goodputs");

        let (seed, horizon) = (6, Time::from_ms(20));
        let (events, rx) = bare(
            seed,
            &|n| {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xBEEF);
                (ndp_workloads::incast(0, 8, n, &mut rng).into_iter())
                    .enumerate()
                    .map(|(i, w)| FlowSpec::new(i as u64 + 1, w as u32, 0, 90_000))
                    .collect()
            },
            horizon,
        );
        let fcts: Vec<Time> = rx.iter().filter_map(|h| h.completion_time).collect();
        let r = incast_run(Proto::Ndp, spec.clone(), 8, 90_000, None, seed, horizon);
        assert_eq!(r.events_processed, events, "incast events");
        assert_eq!(r.fcts, fcts, "incast completion times");
        assert!(r.complete(), "the small incast completes");
    }

    /// §2.1's straggler: one worker of a 32:1 incast of 450 KB responses
    /// on the k=8 FatTree is pulled with priority, so it finishes in under
    /// a tenth of the last flow's time while the rest still fill the
    /// frontend's link: the last flow lands within 5% of the 11.52 ms the
    /// 32 responses take to serialise at 10 Gb/s. Measured: 0.72 ms and
    /// 11.84 ms.
    #[test]
    fn a_prioritised_straggler_overtakes_its_incast() {
        use ndp_topology::{FatTree, FatTreeCfg};
        let mut flows = incast_flows(128, 32, 450_000, 99);
        flows[0].prio = true;
        let mut set = FlowSet::attach(7, Proto::Ndp, &flows, |w| {
            Box::new(FatTree::build(w, FatTreeCfg::new(8)))
        });
        set.world.run_until(Time::from_ms(50));
        let fcts: Vec<Time> = (flows.iter())
            .map(|f| set.rx(f).completion_time.expect("every response completes"))
            .collect();
        let last = fcts.iter().copied().max().unwrap();
        let ideal = Speed::gbps(10).tx_time(32 * 450_000);
        assert!(
            fcts[0] * 10 < last,
            "prioritised {} vs last {last}",
            fcts[0]
        );
        assert!(
            ideal <= last && last.as_secs() <= 1.05 * ideal.as_secs(),
            "last {last} vs ideal {ideal}"
        );
    }

    #[test]
    fn empty_incast_result_has_no_fcts() {
        let r = IncastResult {
            fcts: Vec::new(),
            incomplete: 3,
            events_processed: 0,
        };
        assert_eq!(r.last(), None);
        assert_eq!(r.first(), None);
        assert!(!r.complete());
    }

    #[test]
    fn scale_parse_is_case_insensitive_and_strict() {
        assert_eq!(Scale::parse("Paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("papre"), None);
        assert_eq!(Scale::Paper.name(), "paper");
    }
}
