//! Network element models: packets, links, switches and hosts.
//!
//! Everything here is a [`ndp_sim::Component`] over the message type
//! [`Packet`]. A fabric is [`Switch`]es joined by [`Queue`]s — one `Queue`
//! per directional link, carrying the serializer, the wire and the
//! counters — and what distinguishes the architectures the paper compares
//! is only the [`Discipline`] each link is built with:
//!
//! * [`Discipline::droptail`] — classic FIFO, optional ECN marking
//!   (DCTCP / MPTCP / pHost fabrics);
//! * [`Discipline::ndp`] — the paper's contribution at the switch: two
//!   queues per port (small data queue + priority header queue), packet
//!   trimming on data-queue overflow with a 50 % coin flip between the
//!   arriving packet and the tail of the queue, 10:1 weighted round robin
//!   between header and data queues, and return-to-sender when the header
//!   queue itself overflows (§3.1, §3.2.4);
//! * [`Discipline::cp`] — Cut Payload as originally proposed: a single
//!   FIFO that trims into itself (used for Figure 2's collapse comparison);
//! * [`Discipline::lossless`] — PFC-style pausing with Xoff/Xon
//!   thresholds and pause cascades (the DCQCN fabric).
//!
//! Hosts own transport endpoints (state machines implementing
//! [`host::Endpoint`]) plus the NDP receiver machinery that is shared by all
//! connections terminating at a host: the single pull queue and its pacer.
//! An endpoint says its flow is done with [`EndpointCtx::complete`], which
//! wakes the host's watcher component, if one is set, with the flow id.

pub mod discipline;
pub mod flight;
pub mod host;
pub mod p4;
pub mod packet;
pub mod queue;
pub mod switch;

pub use discipline::Discipline;
pub use flight::{FlightHook, FlightRecorder, HopKind, HopRecord};
pub use host::{
    Delivery, Endpoint, EndpointCtx, FlowHarvest, Host, HostLatency, Launch, PullPriority,
};
pub use packet::{Flags, FlowId, HostId, Packet, PacketBody, PacketKind, PathTag, HEADER_BYTES};
pub use queue::{LinkClass, Queue, QueueStats};
pub use switch::{Router, Switch};
