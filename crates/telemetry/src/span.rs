//! Per-flow spans: the life of one flow as three timestamps and a
//! handful of pathology tallies.
//!
//! A span opens when the request driver starts a flow and closes when
//! the flow's endpoints are detached (normally at completion; at
//! shutdown for stragglers, which are marked `stuck`). The tallies come
//! from the detach-time [`FlowHarvest`] — the merge of the two endpoints'
//! `Endpoint::harvest` halves — so every transport that reports
//! retransmissions or trimmed headers there feeds them for free.

use std::sync::{Arc, Mutex};

use ndp_net::host::FlowHarvest;
use ndp_net::packet::{FlowId, HostId};
use ndp_sim::Time;

/// One flow's recorded lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpan {
    pub flow: FlowId,
    pub src: HostId,
    pub dst: HostId,
    /// The RPC request this flow is a leg of, if any — links fan-out
    /// trees in trace viewers back to their [`RequestSpan`].
    pub request: Option<u64>,
    /// Requested transfer size in bytes.
    pub bytes: u64,
    /// When the driver started the flow.
    pub arrival: Time,
    /// First data byte accepted by the receiver, if any arrived.
    pub first_data: Option<Time>,
    /// Completion timestamp; `None` for stuck or unfinished flows.
    pub completion: Option<Time>,
    /// FCT over ideal FCT; `NaN` when the flow never completed.
    pub slowdown: f64,
    /// Started after warmup, so it counts toward experiment statistics.
    pub measured: bool,
    /// Still alive when the run ended (harvested forcibly).
    pub stuck: bool,
    pub retransmissions: u64,
    pub timeouts: u64,
    pub trimmed_headers: u64,
    pub rts_events: u64,
}

impl FlowSpan {
    /// Open a span with only the driver-side facts filled in.
    pub fn open(flow: FlowId, src: HostId, dst: HostId, bytes: u64, arrival: Time) -> FlowSpan {
        FlowSpan {
            flow,
            src,
            dst,
            request: None,
            bytes,
            arrival,
            first_data: None,
            completion: None,
            slowdown: f64::NAN,
            measured: false,
            stuck: false,
            retransmissions: 0,
            timeouts: 0,
            trimmed_headers: 0,
            rts_events: 0,
        }
    }

    /// Fold a detach-time harvest into the span.
    pub fn absorb(&mut self, h: &FlowHarvest) {
        self.first_data = h.first_data;
        self.completion = h.completion_time;
        self.retransmissions = h.retransmissions;
        self.timeouts = h.timeouts;
        self.trimmed_headers = h.trimmed_headers;
        self.rts_events = h.rts_events;
    }

    /// Startup gap: time from arrival to the first delivered data byte.
    /// `None` when no data ever arrived (fully stuck flow).
    pub fn gap(&self) -> Option<Time> {
        let fd = self.first_data?;
        Some(Time(fd.as_ps().saturating_sub(self.arrival.as_ps())))
    }
}

/// One RPC request's recorded lifetime: the fan-out tree as a unit.
///
/// Where a [`FlowSpan`] books one flow, a request span books the whole
/// tree — N shard legs plus an optional response — from the instant the
/// client issued it to the instant the last constituent flow finished.
/// Leg spans point back here via [`FlowSpan::request`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpan {
    /// Run-unique request id (shared namespace with `FlowSpan::request`).
    pub request: u64,
    /// Tenant index within the run's mix.
    pub tenant: u32,
    /// Per-tenant request sequence number.
    pub seq: u64,
    /// Host that issued the request (the fan-in point).
    pub client: HostId,
    /// Number of shard legs in the tree.
    pub fanout: u32,
    /// When the client issued the request.
    pub arrival: Time,
    /// When the last constituent flow finished; `None` if still live at
    /// harvest time (a stuck request).
    pub completion: Option<Time>,
    /// Index of the leg that finished last (the straggler).
    pub straggler_leg: u32,
    /// Issued after warmup, so it counts toward experiment statistics.
    pub measured: bool,
    /// Completed within the tenant's SLO deadline.
    pub slo_met: bool,
}

impl RequestSpan {
    /// End-to-end request latency; `None` for stuck requests.
    pub fn latency(&self) -> Option<Time> {
        let c = self.completion?;
        Some(Time(c.as_ps().saturating_sub(self.arrival.as_ps())))
    }
}

/// Shared, thread-safe span sink handed to a world's driver.
pub type SpanLog = Arc<Mutex<Vec<FlowSpan>>>;

/// Fresh empty span log.
pub fn span_log() -> SpanLog {
    Arc::new(Mutex::new(Vec::new()))
}

/// Append to a span log, surviving a poisoned lock (a panicking worker
/// must not cascade into every other point's telemetry).
pub fn push_span(log: &SpanLog, span: FlowSpan) {
    let mut g = match log.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    g.push(span);
}

/// Drain a span log into a plain vector.
pub fn take_spans(log: &SpanLog) -> Vec<FlowSpan> {
    let mut g = match log.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    std::mem::take(&mut *g)
}

/// Shared, thread-safe request-span sink handed to an RPC driver.
pub type RequestLog = Arc<Mutex<Vec<RequestSpan>>>;

/// Fresh empty request log.
pub fn request_log() -> RequestLog {
    Arc::new(Mutex::new(Vec::new()))
}

/// Append to a request log, surviving a poisoned lock.
pub fn push_request(log: &RequestLog, span: RequestSpan) {
    let mut g = match log.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    g.push(span);
}

/// Drain a request log into a plain vector.
pub fn take_requests(log: &RequestLog) -> Vec<RequestSpan> {
    let mut g = match log.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    std::mem::take(&mut *g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_first_data_minus_arrival() {
        let mut s = FlowSpan::open(1, 0, 1, 9000, Time::from_us(10));
        assert_eq!(s.gap(), None);
        s.absorb(&FlowHarvest {
            first_data: Some(Time::from_us(25)),
            ..Default::default()
        });
        assert_eq!(s.gap(), Some(Time::from_us(15)));
    }

    #[test]
    fn absorb_copies_tallies() {
        let mut s = FlowSpan::open(7, 2, 3, 1_000_000, Time::ZERO);
        s.absorb(&FlowHarvest {
            delivered_bytes: 1_000_000,
            completion_time: Some(Time::from_ms(1)),
            first_data: Some(Time::from_us(5)),
            retransmissions: 4,
            timeouts: 1,
            trimmed_headers: 9,
            rts_events: 2,
        });
        assert_eq!(s.completion, Some(Time::from_ms(1)));
        assert_eq!(s.retransmissions, 4);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.trimmed_headers, 9);
        assert_eq!(s.rts_events, 2);
    }

    #[test]
    fn request_latency_and_log_round_trip() {
        let mut r = RequestSpan {
            request: 3,
            tenant: 0,
            seq: 3,
            client: 5,
            fanout: 8,
            arrival: Time::from_us(100),
            completion: None,
            straggler_leg: 0,
            measured: true,
            slo_met: false,
        };
        assert_eq!(r.latency(), None, "stuck request has no latency");
        r.completion = Some(Time::from_us(340));
        assert_eq!(r.latency(), Some(Time::from_us(240)));

        let log = request_log();
        push_request(&log, r);
        assert_eq!(take_requests(&log), vec![r]);
        assert!(take_requests(&log).is_empty());
    }

    #[test]
    fn span_log_round_trips() {
        let log = span_log();
        push_span(&log, FlowSpan::open(1, 0, 1, 100, Time::ZERO));
        push_span(&log, FlowSpan::open(2, 1, 0, 200, Time::from_us(1)));
        let spans = take_spans(&log);
        assert_eq!(spans.len(), 2);
        assert!(take_spans(&log).is_empty());
    }
}
