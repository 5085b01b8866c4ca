//! NDP's [`Transport`] adapter — the bridge between the protocol-neutral
//! experiment harnesses and [`crate::attach_flow`].
//!
//! The Figure 22 ablation (path penalty disabled, §3.2.3) is a configured
//! instance of the same adapter, not a separate protocol.

use ndp_net::packet::Packet;
use ndp_sim::World;
use ndp_transport::{FlowSpec, QueueSpec, Topology, Transport};

use crate::{attach_flow, NdpFlowCfg};

/// NDP over the trimming fabric, with the §3.2.3 path scoreboard on or off.
pub struct NdpTransport {
    pub label: &'static str,
    pub path_penalty: bool,
}

/// The paper's NDP: per-packet multipath with the path penalty enabled.
pub static NDP: NdpTransport = NdpTransport {
    label: "NDP",
    path_penalty: true,
};

/// Figure 22's ablation: keep spraying onto sick paths.
pub static NDP_NO_PENALTY: NdpTransport = NdpTransport {
    label: "NDP (no path penalty)",
    path_penalty: false,
};

impl Transport for NdpTransport {
    fn label(&self) -> &'static str {
        self.label
    }

    fn fabric(&self) -> QueueSpec {
        QueueSpec::ndp_default()
    }

    fn attach(&self, world: &mut World<Packet>, topo: &dyn Topology, spec: &FlowSpec) {
        let [src, dst] = spec.ends(topo);
        let mut cfg = NdpFlowCfg::new(spec.size);
        cfg.mtu = topo.mtu();
        cfg.n_paths = topo.n_paths(spec.src, spec.dst);
        cfg.path_penalty = self.path_penalty;
        cfg.high_priority = spec.prio;
        if let Some(iw) = spec.iw {
            cfg.iw_pkts = iw;
        }
        attach_flow(world, spec.flow, src, dst, cfg, spec.start);
    }
}
