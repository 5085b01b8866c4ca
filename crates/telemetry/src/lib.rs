//! In-simulation telemetry for the NDP reproduction.
//!
//! Three observability primitives, all opt-in and all deterministic:
//!
//! * **Sampling probe** ([`probe::Probe`]) — a component that walks
//!   simulated time on a fixed tick and snapshots per-queue, per-switch
//!   and whole-world gauges into a bounded ring.
//! * **Per-flow spans** ([`span::FlowSpan`]) — arrival → first-data →
//!   completion timestamps plus retransmit/trim/timeout tallies,
//!   harvested when a flow detaches.
//! * **Packet flight recorder** ([`ndp_net::flight`]) — structured hop
//!   records (enqueue/dequeue/trim/bounce/reroute/drop) captured by
//!   hooks inside queues and switches.
//!
//! A process-wide [`session`] collects one [`session::PointTelemetry`]
//! per experiment point (possibly produced on worker threads) and sorts
//! them by key, so the [`export`] byte streams are identical regardless
//! of `NDP_THREADS` or scheduler choice. A session has no settings: it is
//! on or off, and a traced point records all three primitives at its
//! runner's fixed probe tick and ring sizes.
//!
//! **Zero-cost when off**: nothing here posts events or draws RNG, and
//! every hook is an `Option` that defaults to `None`, so golden-trace
//! hashes and the BENCH perf gate are unaffected unless a session is
//! explicitly begun.

pub mod export;
pub mod probe;
pub mod session;
pub mod span;

pub use export::{summarize, write_chrome_trace, write_ndjson, TelemetrySummary};
pub use probe::{Gauge, Probe, ProbeSpec, SampleRing};
pub use session::{PointTelemetry, TelemetryConfig};
pub use span::{FlowSpan, RequestLog, RequestSpan, SpanLog};
