//! Topology builders: k-ary FatTrees, leaf-spine fabrics with an
//! oversubscription knob (the paper's two-tier testbed among them),
//! back-to-back host pairs and single-bottleneck setups — all behind one
//! object-safe [`Topology`] trait (host/path arithmetic, ideal-FCT lower
//! bounds, link enumeration, runtime failure injection) so experiment
//! harnesses never name a concrete fabric.
//!
//! The central trick (DESIGN.md §5): in a folded Clos the complete path
//! between two hosts is determined by the uplink choices made on the way
//! up, so a single integer *path tag* chosen by the sender fully encodes a
//! source route. Every switch maps `(dst, tag)` to an output port through
//! one router type, the private `routes::TreeRouter`, whose small tables
//! are computed from the shape at build time — no per-packet route
//! vectors.
//!
//! Every builder wires real [`ndp_net`] components into a
//! [`ndp_sim::World`]: one egress [`ndp_net::Queue`] per directional link
//! (made by [`QueueSpec::link`], the only place a link is constructed) and
//! the switch components, and returns a handle with the component ids
//! needed by experiments (hosts for endpoint registration, queues for
//! statistics harvesting and failure injection). What a port must know
//! about its switch (RTS bounce target, PFC feeders, chaos blast radius)
//! is read back from the built graph by the private `wiring` module.

pub mod chaos;
pub mod fattree;
pub mod leafspine;
mod routes;
pub mod small;
pub mod spec;
pub mod topology;
mod wiring;

pub use chaos::{
    link_index, poisson_campaign, CampaignCfg, ChaosController, ChaosTally, FabricEvent, FabricOp,
};
pub use fattree::{FatTree, FatTreeCfg};
pub use leafspine::{LeafSpine, LeafSpineCfg};
pub use routes::{flow_hash_path, RouteMode};
pub use small::{BackToBack, SingleBottleneck};
pub use spec::QueueSpec;
pub use topology::{ideal_fct_over, mask_link, Hop, HopList, LinkRef, Topology, MAX_HOPS};
