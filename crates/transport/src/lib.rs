//! The pluggable transport surface.
//!
//! The paper's evaluation is a matrix of transports × scenarios. Every
//! transport under test — NDP itself and each baseline — implements one
//! object-safe [`Transport`] trait: which fabric it runs over, how to
//! attach a flow described by a [`FlowSpec`], and how to harvest
//! receiver-side results. Experiment harnesses hold `&dyn Transport` and
//! never know which protocol they are driving, so adding a protocol is a
//! single impl next to its sender/receiver plus one registry line in
//! `ndp-experiments` — no cross-cutting `match` edits.
//!
//! The trait lives in its own leaf crate (above `ndp-net`/`ndp-sim`/
//! `ndp-topology`, below every protocol crate) so `ndp-core` and
//! `ndp-baselines` can both implement it without a dependency cycle. For
//! the same reason it also holds [`SeqWindow`], the per-sequence store
//! both crates' endpoints keep their ack/receive state in.

use ndp_net::packet::{FlowId, HostId, Packet};
use ndp_sim::{ComponentId, Time, World};

mod seq_window;

pub use ndp_topology::QueueSpec;
pub use seq_window::SeqWindow;

/// One flow to set up, in protocol-neutral terms.
///
/// Fields a given transport has no use for (e.g. `iw` for TCP, `prio` for
/// DCQCN) are ignored by its [`Transport::attach`].
#[derive(Clone, Debug)]
pub struct FlowSpec {
    pub flow: FlowId,
    pub src: HostId,
    pub dst: HostId,
    pub size: u64,
    pub start: Time,
    /// Receiver-side pull prioritization (NDP §3.2.2).
    pub prio: bool,
    /// Wake `(component, token)` when the flow completes.
    pub notify: Option<(ComponentId, u64)>,
    /// Override the transport's initial window in packets (None = its
    /// default; NDP's paper default is 30).
    pub iw: Option<u64>,
    /// Arm the transport's stall-recovery net, if it has one. Request
    /// serving cares about *every* leg completing, so drivers that book
    /// end-to-end request latency set this; open-loop FCT sweeps leave it
    /// off so the paper experiments' event streams are unchanged. For NDP
    /// this covers the lost-PULL hole (see `NdpFlowCfg::pull_liveness`);
    /// transports whose reliability already covers all state (TCP-family
    /// RTO) ignore it.
    pub liveness: bool,
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
            notify: None,
            iw: None,
            liveness: false,
        }
    }
}

/// Deterministic per-flow "ECMP hash" for single-path transports.
pub fn flow_hash_path(flow: FlowId) -> u32 {
    (flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// Final per-flow accounting, returned by [`Transport::detach`] as the
/// endpoints are freed. The first two fields are receiver-side goodput;
/// the rest are the span tallies the telemetry layer attributes tail
/// flows with. A transport without a given notion leaves the field at
/// its default (`None`/0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowHarvest {
    pub delivered_bytes: u64,
    /// Absolute completion instant, `None` if the flow never finished
    /// (or the transport has no completion notion, e.g. blast).
    pub completion_time: Option<Time>,
    /// Absolute instant the receiver first saw the flow (data or header).
    pub first_data: Option<Time>,
    /// Sender retransmissions, however the protocol triggers them
    /// (NACK/RTS/RTO for NDP, dupACK fast retransmit for TCP-family,
    /// re-issued credits for pHost).
    pub retransmissions: u64,
    /// The subset of recovery events driven by a timer expiry — the
    /// slowest, tail-defining recovery path.
    pub timeouts: u64,
    /// Trimmed headers the receiver saw (NDP fabrics; 0 elsewhere).
    pub trimmed_headers: u64,
    /// Return-to-sender headers the sender saw (NDP §3.2.4; 0 elsewhere).
    pub rts_events: u64,
}

/// Read-only access to the sender endpoint being detached, handed to the
/// harvest closure so transports can fold sender-side tallies
/// (retransmissions, RTS arrivals) into the [`FlowHarvest`]. Wraps an
/// `Option` because detach is idempotent and either side may already be
/// gone.
pub struct SenderSide<'a>(Option<&'a dyn ndp_net::Endpoint>);

impl SenderSide<'_> {
    /// Downcast to the transport's concrete sender type; `None` when the
    /// sender endpoint no longer exists *or* is some other type (a
    /// mis-wired transport shows up as missing tallies, not a panic —
    /// detach must stay usable on half-torn-down flows).
    pub fn get<S: 'static>(&self) -> Option<&S> {
        self.0.and_then(|ep| ep.as_any().downcast_ref::<S>())
    }
}

/// The shared body of every [`Transport::detach`]: remove the sender's
/// endpoint, remove the receiver's, and harvest both — the receiver as
/// `R`, the sender through the [`SenderSide`] accessor.
///
/// A missing flow (already detached) yields the default (empty) harvest —
/// detach is idempotent. A receiver that exists but is not an `R` panics
/// loudly, matching `Host::endpoint`'s behaviour: that is a mis-wired
/// transport, not a recoverable condition.
pub fn detach_endpoints<R: 'static>(
    world: &mut World<Packet>,
    src_host: ComponentId,
    dst_host: ComponentId,
    flow: FlowId,
    harvest: impl FnOnce(SenderSide<'_>, &R) -> FlowHarvest,
) -> FlowHarvest {
    use ndp_net::Host;
    let sender = world.get_mut::<Host>(src_host).remove_endpoint(flow);
    match world.get_mut::<Host>(dst_host).remove_endpoint(flow) {
        None => FlowHarvest::default(),
        Some(ep) => {
            let r = ep
                .as_any()
                .downcast_ref::<R>()
                .unwrap_or_else(|| panic!("receiver for flow {flow} has unexpected type"));
            harvest(SenderSide(sender.as_deref()), r)
        }
    }
}

/// A transport under evaluation: attach flows, pick the fabric it runs
/// over, harvest results. Object-safe — harnesses drive `&dyn Transport`.
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

    /// Register sender/receiver endpoints for `spec` between explicit
    /// host components and schedule the flow start.
    fn attach(
        &self,
        world: &mut World<Packet>,
        spec: &FlowSpec,
        src: (ComponentId, HostId),
        dst: (ComponentId, HostId),
        n_paths: u32,
        mtu: u32,
    );

    /// Receiver-side delivered payload bytes.
    fn delivered_bytes(&self, world: &World<Packet>, host: ComponentId, flow: FlowId) -> u64;

    /// Receiver-side completion time (absolute), if the flow finished.
    fn completion_time(
        &self,
        world: &World<Packet>,
        host: ComponentId,
        flow: FlowId,
    ) -> Option<Time>;

    /// Harvest the flow's final results and free both endpoints' state
    /// (sender on `src_host`, receiver on `dst_host`).
    ///
    /// This is the retirement half of the lifecycle: [`Transport::attach`]
    /// can be called mid-run (typically from a deferred world op at the
    /// flow's arrival instant) and `detach` frees everything the attach
    /// registered — so a long open-loop run's live state is bounded by the
    /// flows in flight, not the flows ever offered. Idempotent: detaching
    /// an unknown flow returns a default (empty) harvest.
    fn detach(
        &self,
        world: &mut World<Packet>,
        src_host: ComponentId,
        dst_host: ComponentId,
        flow: FlowId,
    ) -> FlowHarvest;
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
        assert!(!s.prio && s.notify.is_none() && s.iw.is_none() && !s.liveness);
    }
}
