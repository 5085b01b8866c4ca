//! Baseline transports the paper compares NDP against (§5/§6):
//!
//! * [`tcp`] — the TCP family, one sender and receiver pair in three
//!   flavours: TCP NewReno with per-flow ECMP and a Linux-like 200 ms
//!   MinRTO; DCTCP (ECN fraction estimator with g = 1/16, proportional
//!   window reduction, 10 ms MinRTO); and MPTCP, 8 subflows on distinct
//!   paths, the high-throughput baseline of Fig 14. Every flavour takes an
//!   optional three-way handshake and recovers each byte stream with one
//!   NewReno machine.
//! * [`mptcp`] — MPTCP's coupled increase, LIA (RFC 6356).
//! * [`dcqcn`] — DCQCN rate-based congestion control for RoCE over the
//!   lossless (PFC) fabric: per-CNP multiplicative decrease with the α
//!   estimator, timer-driven fast-recovery/additive-increase, at the
//!   DCQCN paper's defaults.
//! * [`phost`] — pHost, the receiver-driven transport *without* packet
//!   trimming (§6.2 "Who needs packet trimming?").
//! * [`blast`] — unresponsive constant-bit-rate senders and counting sinks
//!   for the Figure 2 switch-service comparison.
//!
//! Each baseline runs at the one setting the paper evaluates. Those
//! settings are named constants beside the code that reads them. A flow's
//! inputs are its size and MTU, plus a path tag for TCP and DCQCN and the
//! handshake and flavour for the TCP family.
//!
//! Every sender/receiver is an [`ndp_net::host::Endpoint`]; attach helpers
//! mirror `ndp_core::attach_flow`. Each protocol file also exposes its
//! [`ndp_transport::Transport`] adapter as a `static` (TCP, DCTCP and
//! MPTCP are configured instances of one adapter), so the experiment
//! harnesses can drive every baseline through the same object-safe
//! surface.

pub mod blast;
pub mod dcqcn;
pub mod mptcp;
pub mod phost;
pub mod tcp;

pub use blast::{attach_blast, BlastSender, CountSink, BLAST};
pub use dcqcn::{attach_dcqcn_flow, DcqcnCfg, DcqcnReceiver, DcqcnSender, DCQCN};
pub use phost::{attach_phost_flow, PHostReceiver, PHostSender, PHOST};
pub use tcp::{
    attach_tcp_flow, Flavour, Handshake, TcpCfg, TcpReceiver, TcpSender, DCTCP, MPTCP, TCP,
};
