//! # NDP — a Rust reproduction of "Re-architecting datacenter networks and
//! # stacks for low latency and high performance" (SIGCOMM 2017)
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users can depend on a single crate:
//!
//! * [`sim`] — deterministic discrete-event simulation engine
//! * [`net`] — packets, links and their service disciplines (including the
//!   NDP trimming switch), switches, hosts
//! * [`topology`] — FatTree/Clos builders, path math, failure injection
//! * [`transport`] — the pluggable `Transport` trait every protocol implements
//! * [`core`] — the NDP receiver-driven transport protocol itself
//! * [`baselines`] — TCP NewReno, DCTCP, MPTCP, DCQCN(+PFC), CP, pHost
//! * [`workloads`] — permutation/random/incast/web traffic generators
//! * [`metrics`] — FCT/CDF/utilization collectors and figure rendering
//! * [`telemetry`] — sampling probes, flow spans, flight recording, trace export
//! * [`experiments`] — one runnable harness per paper figure/table
//!
//! ## Quickstart
//!
//! ```
//! use ndp::experiments::quick::two_host_transfer;
//! let report = two_host_transfer(1_000_000); // 1 MB over 10 Gb/s
//! assert!(report.goodput_gbps > 9.0);
//! ```
pub use ndp_baselines as baselines;
pub use ndp_core as core;
pub use ndp_experiments as experiments;
pub use ndp_metrics as metrics;
pub use ndp_net as net;
pub use ndp_sim as sim;
pub use ndp_telemetry as telemetry;
pub use ndp_topology as topology;
pub use ndp_transport as transport;
pub use ndp_workloads as workloads;
