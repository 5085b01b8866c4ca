//! Process-wide telemetry session.
//!
//! The CLI begins a session before running experiments; experiment
//! runners check [`active`] and, when a session is on, instrument
//! their worlds and [`submit`] one [`PointTelemetry`] per sweep point.
//! Worker threads may submit in any order — [`end`] sorts points by key
//! so exported bytes are identical across `NDP_THREADS` settings.

use std::sync::Mutex;

use ndp_net::flight::HopRecord;

use crate::probe::Gauge;
use crate::span::{FlowSpan, RequestSpan};

/// An active session's settings. There are none: a session is on or off,
/// and every traced point records spans, gauges and flight hops at its
/// runner's fixed tick and ring sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig;

/// Everything one experiment point recorded.
#[derive(Debug, Default)]
pub struct PointTelemetry {
    /// Stable sort key and display name, e.g. `"fattree/ndp"`.
    pub key: String,
    /// Tag table: gauge/hop `tag` indices resolve to these labels.
    pub tags: Vec<String>,
    pub gauges: Vec<Gauge>,
    pub gauges_evicted: u64,
    pub spans: Vec<FlowSpan>,
    /// RPC request spans — empty for experiments without a request layer.
    pub requests: Vec<RequestSpan>,
    pub hops: Vec<HopRecord>,
    pub hops_evicted: u64,
}

struct Session {
    cfg: TelemetryConfig,
    points: Vec<PointTelemetry>,
}

static SESSION: Mutex<Option<Session>> = Mutex::new(None);

fn with_session<R>(f: impl FnOnce(&mut Option<Session>) -> R) -> R {
    let mut g = match SESSION.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    f(&mut g)
}

/// Start collecting. Replaces any prior un-ended session.
pub fn begin(cfg: TelemetryConfig) {
    with_session(|s| {
        *s = Some(Session {
            cfg,
            points: Vec::new(),
        })
    });
}

/// The active config, or `None` when telemetry is off. Runners use this
/// as the single gate: `None` must mean zero instrumentation.
pub fn active() -> Option<TelemetryConfig> {
    with_session(|s| s.as_ref().map(|s| s.cfg))
}

/// Record one point's telemetry. No-op when no session is active, so
/// runners may call it unconditionally after gathering.
pub fn submit(point: PointTelemetry) {
    with_session(|s| {
        if let Some(s) = s.as_mut() {
            s.points.push(point);
        }
    });
}

/// Stop collecting and hand back all points, sorted by key for
/// thread-count-independent export. `None` if no session was active.
pub fn end() -> Option<(TelemetryConfig, Vec<PointTelemetry>)> {
    with_session(|s| {
        s.take().map(|mut s| {
            s.points.sort_by(|a, b| a.key.cmp(&b.key));
            (s.cfg, s.points)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Session state is process-global; keep the tests in one body so
    // they cannot interleave.
    #[test]
    fn session_lifecycle_gates_collects_and_sorts() {
        assert!(end().is_none());
        assert!(active().is_none());

        // Submitting with no session is a silent no-op.
        submit(PointTelemetry {
            key: "orphan".into(),
            ..Default::default()
        });
        assert!(end().is_none());

        begin(TelemetryConfig);
        assert!(active().is_some());
        for key in ["b/late", "a/early", "b/early"] {
            submit(PointTelemetry {
                key: key.into(),
                ..Default::default()
            });
        }
        let (cfg, points) = end().unwrap();
        assert_eq!(cfg, TelemetryConfig);
        let keys: Vec<&str> = points.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["a/early", "b/early", "b/late"]);
        assert!(active().is_none());
    }
}
