//! One runnable experiment per table/figure of the paper.
//!
//! Every module exposes `run(scale) -> Report` and has one row in
//! [`registry::EXPERIMENTS`]; reports implement [`registry::Report`]
//! (`Display` prints the same rows/series the paper's figure shows,
//! `headline()` summarizes the qualitative claim, `to_json()` is the
//! machine-readable payload). The single `ndp` binary
//! drives the registry:
//!
//! ```sh
//! cargo run --release -p ndp-experiments --bin ndp -- list
//! cargo run --release -p ndp-experiments --bin ndp -- run fig14 --scale paper --json
//! ```
//!
//! `Scale::Quick` shrinks topologies and durations for CI and Criterion;
//! `Scale::Paper` uses the paper's parameters. Protocol dispatch is the
//! [`transport`] registry (`Proto` keys resolving to
//! [`ndp_transport::Transport`] objects); fabric dispatch is the [`topo`]
//! registry (names resolving to buildable [`topo::TopoSpec`]s behind
//! `ndp run <id> --topo <name>` / `NDP_TOPO`).

pub mod driver;
pub mod failure_matrix;
pub mod harness;
pub mod json;
pub mod openloop;
pub mod quick;
pub mod registry;
pub mod rpc;
pub mod sweep;
pub mod topo;
pub mod topo_matrix;
pub mod transport;

pub mod fig02_cp_collapse;
pub mod fig04_latency_cdf;
pub mod fig08_rpc_latency;
pub mod fig09_testbed_incast;
pub mod fig10_prioritization;
pub mod fig11_iw_throughput;
pub mod fig12_pull_spacing;
pub mod fig13_pull_jitter_incast;
pub mod fig14_permutation;
pub mod fig15_short_flow_fct;
pub mod fig16_incast_scaling;
pub mod fig17_iw_buffer_sweep;
pub mod fig19_collateral;
pub mod fig20_large_incast;
pub mod fig21_sender_limited;
pub mod fig22_failure;
pub mod fig23_oversubscribed;
pub mod inline_results;

pub use harness::{Proto, Scale};
pub use registry::{Experiment, Report};
pub use topo::{find_topo, topo_from_env, TopoEntry, TopoSpec, TOPOLOGIES};
pub use transport::{Transport, TRANSPORTS};
