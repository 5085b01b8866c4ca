//! Shared experiment machinery: scale knobs and traffic-matrix runners.
//!
//! Protocol dispatch lives in the [`crate::transport`] registry and
//! fabric shapes in the [`crate::topo`] registry — this module drives
//! `&dyn Transport` objects over `&dyn Topology` fabrics and contains no
//! per-protocol or per-topology code at all.

use ndp_net::host::{Endpoint, EndpointCtx, FlowHarvest};
use ndp_net::packet::{FlowId, Packet, PacketBody};
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
    let (proto, duration, seed, iw) = (point.proto, point.duration, point.seed, point.iw);
    let mut world: World<Packet> = World::new(seed);
    let topo = point.topo.build(&mut world, proto.fabric());
    let n = topo.n_hosts();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xDEAD);
    let dsts = ndp_workloads::permutation(n, &mut rng);
    for (src, &dst) in dsts.iter().enumerate() {
        let mut spec = FlowSpec::new(src as u64 + 1, src as u32, dst as u32, LONG_FLOW);
        spec.iw = iw;
        attach_on(&mut world, topo.as_ref(), proto, &spec);
    }
    world.run_until(duration);
    let mut per_flow = Vec::with_capacity(n);
    for (src, &dst) in dsts.iter().enumerate() {
        let bytes = world
            .get::<Host>(topo.host(dst as u32))
            .harvest(src as u64 + 1)
            .delivered_bytes;
        per_flow.push(bytes as f64 * 8.0 / duration.as_secs() / 1e9);
    }
    per_flow.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let line = topo.host_link_speed().as_gbps();
    let utilization = per_flow.iter().sum::<f64>() / (n as f64 * line);
    PermutationResult {
        per_flow_gbps: per_flow,
        utilization,
        events_processed: world.events_processed(),
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
    let (proto, n_senders, size, iw, seed, horizon) = (
        point.proto,
        point.n_senders,
        point.size,
        point.iw,
        point.seed,
        point.horizon,
    );
    let mut world: World<Packet> = World::new(seed);
    let topo = point.topo.build(&mut world, proto.fabric());
    let n = topo.n_hosts();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xBEEF);
    let frontend = 0usize;
    let workers = ndp_workloads::incast(frontend, n_senders, n, &mut rng);
    for (i, &w) in workers.iter().enumerate() {
        let mut spec = FlowSpec::new(i as u64 + 1, w as u32, frontend as u32, size);
        spec.iw = iw;
        attach_on(&mut world, topo.as_ref(), proto, &spec);
    }
    world.run_until(horizon);
    let mut fcts = Vec::new();
    let mut incomplete = 0;
    let host = world.get::<Host>(topo.host(frontend as u32));
    for i in 0..workers.len() {
        match host.harvest(i as u64 + 1).completion_time {
            Some(t) => fcts.push(t),
            None => incomplete += 1,
        }
    }
    IncastResult {
        fcts,
        incomplete,
        events_processed: world.events_processed(),
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
