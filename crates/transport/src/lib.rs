//! The pluggable transport surface.
//!
//! The paper's evaluation is a matrix of transports × scenarios. Every
//! transport under test — NDP itself and each baseline — implements one
//! object-safe [`Transport`] trait: its label, which fabric it runs over,
//! and how to attach a flow described by a [`FlowSpec`] on a
//! [`Topology`], which answers the fabric's questions (host components,
//! MTU, path count) so no caller passes them by hand. Results need no
//! per-protocol code: an endpoint calls `EndpointCtx::complete` when its
//! flow is done, which wakes its host's watcher with the flow id; each
//! endpoint reports its half of a [`FlowHarvest`] through
//! `Endpoint::harvest`, and [`detach_endpoints`] retires a flow and merges
//! the halves. Experiment harnesses hold `&dyn Transport` and
//! never know which protocol they are driving, so adding a protocol is a
//! single impl next to its sender/receiver plus one registry line in
//! `ndp-experiments` — no cross-cutting `match` edits.
//!
//! The trait lives in its own leaf crate (above `ndp-net`/`ndp-sim`/
//! `ndp-topology`, below every protocol crate) so `ndp-core` and
//! `ndp-baselines` can both implement it without a dependency cycle. For
//! the same reason it also holds [`SeqWindow`], the per-sequence store
//! both crates' endpoints keep their ack/receive state in, and re-exports
//! [`Topology`] and [`flow_hash_path`], the path tag single-path senders
//! carry.

use ndp_net::host::{start_token, Endpoint, Host};
use ndp_net::packet::{FlowId, HostId, Packet};
use ndp_sim::{ComponentId, Time, World};

mod seq_window;

pub use ndp_net::host::FlowHarvest;
pub use ndp_topology::{flow_hash_path, QueueSpec, Topology};
pub use seq_window::SeqWindow;

/// One flow to set up, in protocol-neutral terms.
///
/// Fields a given transport has no use for (e.g. `iw` for TCP, `prio` for
/// DCQCN) are ignored by its [`Transport::attach`].
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    pub flow: FlowId,
    pub src: HostId,
    pub dst: HostId,
    pub size: u64,
    pub start: Time,
    /// Receiver-side pull prioritization (NDP §3.2.2).
    pub prio: bool,
    /// Override the transport's initial window in packets (None = its
    /// default; NDP's paper default is 30).
    pub iw: Option<u64>,
}

impl FlowSpec {
    pub fn new(flow: FlowId, src: HostId, dst: HostId, size: u64) -> FlowSpec {
        FlowSpec {
            flow,
            src,
            dst,
            size,
            start: Time::ZERO,
            prio: false,
            iw: None,
        }
    }

    /// The flow's `(host component, host id)` ends on `topo`.
    pub fn ends(&self, topo: &dyn Topology) -> [(ComponentId, HostId); 2] {
        [self.src, self.dst].map(|h| (topo.host(h), h))
    }
}

/// Register `sender` on host component `src` and `receiver` on `dst` for
/// `flow`, and post the flow's start on the sender host at `start` — the
/// attach half every [`Transport::attach`] shares once it has built its
/// two endpoints. [`detach_endpoints`] is the inverse.
pub fn attach_endpoints(
    world: &mut World<Packet>,
    flow: FlowId,
    (src, sender): (ComponentId, impl Endpoint + 'static),
    (dst, receiver): (ComponentId, impl Endpoint + 'static),
    start: Time,
) {
    world
        .get_mut::<Host>(src)
        .add_endpoint(flow, Box::new(sender));
    world
        .get_mut::<Host>(dst)
        .add_endpoint(flow, Box::new(receiver));
    world.post_wake(start, src, start_token(flow));
}

/// Retire a flow: free the sender's endpoint on `src_host`, then the
/// receiver's on `dst_host`, and return both sides' [`FlowHarvest`]s
/// merged. This is what keeps a long open-loop run's live state bounded by
/// the flows in flight rather than the flows ever offered. Idempotent: a
/// flow whose receiver is already gone yields the default harvest.
pub fn detach_endpoints(
    world: &mut World<Packet>,
    src_host: ComponentId,
    dst_host: ComponentId,
    flow: FlowId,
) -> FlowHarvest {
    let tx = world.get_mut::<Host>(src_host).remove_endpoint(flow);
    match world.get_mut::<Host>(dst_host).remove_endpoint(flow) {
        None => FlowHarvest::default(),
        Some(rx) => rx
            .harvest()
            .merge(tx.map_or_else(FlowHarvest::default, |tx| tx.harvest())),
    }
}

/// A transport under evaluation: the fabric it runs over and how to attach
/// a flow. Object-safe — harnesses drive `&dyn Transport`. Reading and
/// retiring a flow need no protocol knowledge ([`Host::harvest`],
/// [`detach_endpoints`]), so they are not part of the trait.
///
/// Implementations live next to their sender/receiver (`ndp_core` for NDP,
/// one file per baseline in `ndp_baselines`) and are exposed as `static`
/// instances so a registry can hold `&'static dyn Transport`. Protocol
/// variants (DCTCP vs TCP, the Figure 22 no-path-penalty ablation) are
/// *configured instances* of the same impl, not separate types.
pub trait Transport: Sync {
    /// Human-readable name used in tables and headlines.
    fn label(&self) -> &'static str;

    /// The switch service model this transport runs over (§6.1: NDP gets
    /// 8-packet trimming queues, DCTCP/MPTCP 200-packet drop-tail,
    /// DCQCN lossless+ECN).
    fn fabric(&self) -> QueueSpec;

    /// Register sender/receiver endpoints for `spec` on the hosts of
    /// `topo`, sized by its MTU and path count, and schedule the flow
    /// start. May run mid-run (typically from a deferred world op at the
    /// flow's arrival instant).
    fn attach(&self, world: &mut World<Packet>, topo: &dyn Topology, spec: &FlowSpec);
}

impl dyn Transport {
    /// [`detach_endpoints`]; `self` plays no part. Kept as a method only
    /// because the frozen benchmark package calls `transport.detach(..)`.
    pub fn detach(
        &self,
        world: &mut World<Packet>,
        src_host: ComponentId,
        dst_host: ComponentId,
        flow: FlowId,
    ) -> FlowHarvest {
        detach_endpoints(world, src_host, dst_host, flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_hash_is_deterministic_and_spread() {
        let a = flow_hash_path(1);
        assert_eq!(a, flow_hash_path(1));
        let distinct: std::collections::HashSet<u32> =
            (0..100).map(|f| flow_hash_path(f) % 16).collect();
        assert!(distinct.len() > 8, "hash should spread across paths");
    }

    #[test]
    fn flow_spec_defaults() {
        let s = FlowSpec::new(1, 2, 3, 100);
        assert_eq!(s.start, Time::ZERO);
        assert!(!s.prio && s.iw.is_none());
    }
}
