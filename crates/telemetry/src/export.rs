//! Deterministic serialisation of collected telemetry.
//!
//! Two formats, both hand-formatted so the bytes are a pure function of
//! the collected data (no map iteration order, no float locale):
//!
//! * **NDJSON** — one object per line. Every line carries `"type"`
//!   (`point` | `gauge` | `span` | `request` | `hop`) and `"point"` (the
//!   sweep-point key). Timestamps are integer picoseconds (`*_ps`), which
//!   keeps the bytes identical across platforms and thread counts.
//! * **Chrome trace-event JSON** — loadable in Perfetto / `chrome://
//!   tracing`. Each sweep point becomes a process; queues and switches
//!   become counter tracks, completed flow spans become `X` slices on a
//!   per-flow track, hops and stuck spans become instants. RPC requests
//!   become `X` slices on their own track band, and their leg flows carry
//!   a `request` arg, so a fan-out tree reads as one request slice with N
//!   leg slices nested under the same id.

use crate::probe::Gauge;
use crate::session::PointTelemetry;
use crate::span::{FlowSpan, RequestSpan};
use ndp_net::flight::HopRecord;
use std::fmt::{self, Write as _};

/// Chrome-trace track offset for request slices, so request lanes never
/// collide with per-flow lanes (flow ids count up from 1).
const REQUEST_TID_BASE: u64 = 1 << 32;

/// `write!` into the one output `String`; that cannot fail.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {{
        let _ = write!($out, $($arg)*);
    }};
}

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => put!(out, "\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out
}

/// A point's key and tag labels, escaped once and borrowed by every
/// record of the point.
struct Labels {
    key: String,
    tags: Vec<String>,
}

impl Labels {
    fn of(p: &PointTelemetry) -> Labels {
        Labels {
            key: esc(&p.key),
            tags: p.tags.iter().map(|t| esc(t)).collect(),
        }
    }

    fn tag(&self, tag: u32) -> TagLabel<'_> {
        TagLabel(self.tags.get(tag as usize).map(String::as_str), tag)
    }
}

/// A tag's escaped label, or `tag<N>` for one outside the table.
struct TagLabel<'a>(Option<&'a str>, u32);

impl fmt::Display for TagLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(label) => f.write_str(label),
            None => write!(f, "tag{}", self.1),
        }
    }
}

/// `null` for `None`; `T`'s own rendering otherwise.
struct OrNull<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("null"),
        }
    }
}

fn opt_ps(t: Option<ndp_sim::Time>) -> OrNull<u64> {
    OrNull(t.map(ndp_sim::Time::as_ps))
}

fn opt_f64(v: f64) -> OrNull<f64> {
    OrNull(Some(v).filter(|v| v.is_finite()))
}

fn push_gauge_line(out: &mut String, l: &Labels, g: &Gauge) {
    let key = &l.key;
    match *g {
        Gauge::Queue {
            at,
            tag,
            occ_bytes,
            occ_pkts,
            forwarded,
            trimmed,
            bounced,
            dropped,
            dropped_down,
            ecn_marked,
        } => put!(
            out,
            "{{\"type\":\"gauge\",\"point\":\"{key}\",\"gauge\":\"queue\",\"at_ps\":{},\
             \"target\":\"{}\",\"occ_bytes\":{occ_bytes},\"occ_pkts\":{occ_pkts},\
             \"forwarded\":{forwarded},\"trimmed\":{trimmed},\"bounced\":{bounced},\
             \"dropped\":{dropped},\"dropped_down\":{dropped_down},\"ecn_marked\":{ecn_marked}}}\n",
            at.as_ps(),
            l.tag(tag),
        ),
        Gauge::Switch {
            at,
            tag,
            rx_pkts,
            rerouted,
        } => put!(
            out,
            "{{\"type\":\"gauge\",\"point\":\"{key}\",\"gauge\":\"switch\",\"at_ps\":{},\
             \"target\":\"{}\",\"rx_pkts\":{rx_pkts},\"rerouted\":{rerouted}}}\n",
            at.as_ps(),
            l.tag(tag),
        ),
        Gauge::World {
            at,
            live_components,
            live_flows,
            events,
        } => put!(
            out,
            "{{\"type\":\"gauge\",\"point\":\"{key}\",\"gauge\":\"world\",\"at_ps\":{},\
             \"live_components\":{live_components},\"live_flows\":{live_flows},\
             \"events\":{events}}}\n",
            at.as_ps(),
        ),
    }
}

fn push_span_line(out: &mut String, key: &str, s: &FlowSpan) {
    put!(
        out,
        "{{\"type\":\"span\",\"point\":\"{key}\",\"flow\":{},\"src\":{},\"dst\":{},\
         \"request\":{},\"bytes\":{},\"arrival_ps\":{},\"first_data_ps\":{},\
         \"completion_ps\":{},\
         \"slowdown\":{},\"measured\":{},\"stuck\":{},\"retransmissions\":{},\
         \"timeouts\":{},\"trimmed_headers\":{},\"rts_events\":{}}}\n",
        s.flow,
        s.src,
        s.dst,
        OrNull(s.request),
        s.bytes,
        s.arrival.as_ps(),
        opt_ps(s.first_data),
        opt_ps(s.completion),
        opt_f64(s.slowdown),
        s.measured,
        s.stuck,
        s.retransmissions,
        s.timeouts,
        s.trimmed_headers,
        s.rts_events,
    );
}

fn push_request_line(out: &mut String, key: &str, r: &RequestSpan) {
    put!(
        out,
        "{{\"type\":\"request\",\"point\":\"{key}\",\"request\":{},\"tenant\":{},\
         \"seq\":{},\"client\":{},\"fanout\":{},\"arrival_ps\":{},\"completion_ps\":{},\
         \"latency_ps\":{},\"straggler_leg\":{},\"measured\":{},\"slo_met\":{}}}\n",
        r.request,
        r.tenant,
        r.seq,
        r.client,
        r.fanout,
        r.arrival.as_ps(),
        opt_ps(r.completion),
        opt_ps(r.latency()),
        r.straggler_leg,
        r.measured,
        r.slo_met,
    );
}

fn push_hop_line(out: &mut String, l: &Labels, h: &HopRecord) {
    put!(
        out,
        "{{\"type\":\"hop\",\"point\":\"{}\",\"at_ps\":{},\"target\":\"{}\",\
         \"kind\":\"{}\",\"flow\":{},\"src\":{},\"dst\":{},\"seq\":{},\"size\":{}}}\n",
        l.key,
        h.at.as_ps(),
        l.tag(h.tag),
        h.kind.name(),
        h.flow,
        h.src,
        h.dst,
        h.seq,
        h.size,
    );
}

/// Serialise all points as NDJSON. Line order: per point (already
/// key-sorted by [`crate::session::end`]) a `point` header line, then
/// gauges, spans, requests, hops in recorded order.
pub fn write_ndjson(points: &[PointTelemetry]) -> String {
    let mut out = String::new();
    for p in points {
        let l = Labels::of(p);
        let key = &l.key;
        put!(out, "{{\"type\":\"point\",\"point\":\"{key}\",\"tags\":[");
        for (i, t) in l.tags.iter().enumerate() {
            put!(out, "{}\"{t}\"", if i == 0 { "" } else { "," });
        }
        put!(
            out,
            "],\"gauges\":{},\"spans\":{},\"requests\":{},\"hops\":{},\"gauges_evicted\":{},\
             \"hops_evicted\":{}}}\n",
            p.gauges.len(),
            p.spans.len(),
            p.requests.len(),
            p.hops.len(),
            p.gauges_evicted,
            p.hops_evicted,
        );
        for g in &p.gauges {
            push_gauge_line(&mut out, &l, g);
        }
        for s in &p.spans {
            push_span_line(&mut out, key, s);
        }
        for r in &p.requests {
            push_request_line(&mut out, key, r);
        }
        for h in &p.hops {
            push_hop_line(&mut out, &l, h);
        }
    }
    out
}

/// Picoseconds → microseconds with six fractional digits. Integer math
/// throughout so the bytes are platform-independent.
struct Us(u64);

impl fmt::Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

fn us(t: ndp_sim::Time) -> Us {
    Us(t.as_ps())
}

/// The `,"request":N` member a leg flow's slice carries; nothing for a
/// flow outside any request.
struct RequestArg(Option<u64>);

impl fmt::Display for RequestArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(r) => write!(f, ",\"request\":{r}"),
            None => Ok(()),
        }
    }
}

/// Append one Chrome trace event, `{body}`, comma-separated from the one
/// before it (the array's opening bracket is the only `[` an event can
/// follow: every event ends in `}`).
macro_rules! chrome_event {
    ($out:expr, $($body:tt)*) => {{
        $out.push_str(if $out.ends_with('[') { "{" } else { ",{" });
        put!($out, $($body)*);
        $out.push('}');
    }};
}

/// Serialise all points as a Chrome trace-event JSON document.
pub fn write_chrome_trace(points: &[PointTelemetry]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (pid, p) in points.iter().enumerate() {
        let l = Labels::of(p);
        chrome_event!(
            out,
            "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}",
            l.key
        );
        for g in &p.gauges {
            match *g {
                Gauge::Queue {
                    at, tag, occ_bytes, ..
                } => chrome_event!(
                    out,
                    "\"ph\":\"C\",\"name\":\"queue {}\",\"pid\":{pid},\"ts\":{},\
                     \"args\":{{\"occ_bytes\":{occ_bytes}}}",
                    l.tag(tag),
                    us(at),
                ),
                Gauge::Switch {
                    at, tag, rerouted, ..
                } => chrome_event!(
                    out,
                    "\"ph\":\"C\",\"name\":\"reroutes {}\",\"pid\":{pid},\"ts\":{},\
                     \"args\":{{\"rerouted\":{rerouted}}}",
                    l.tag(tag),
                    us(at),
                ),
                Gauge::World { at, live_flows, .. } => chrome_event!(
                    out,
                    "\"ph\":\"C\",\"name\":\"live_flows\",\"pid\":{pid},\"ts\":{},\
                     \"args\":{{\"live_flows\":{live_flows}}}",
                    us(at),
                ),
            }
        }
        for s in &p.spans {
            match s.completion {
                Some(done) => chrome_event!(
                    out,
                    "\"ph\":\"X\",\"cat\":\"flow\",\"name\":\"flow {}\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"bytes\":{},\
                     \"slowdown\":{},\"retransmissions\":{},\"trimmed_headers\":{}{}}}",
                    s.flow,
                    s.flow,
                    us(s.arrival),
                    us(done.saturating_sub(s.arrival)),
                    s.bytes,
                    opt_f64(s.slowdown),
                    s.retransmissions,
                    s.trimmed_headers,
                    RequestArg(s.request),
                ),
                None => chrome_event!(
                    out,
                    "\"ph\":\"i\",\"s\":\"p\",\"cat\":\"flow\",\"name\":\"stuck flow {}\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{{\"bytes\":{}}}",
                    s.flow,
                    s.flow,
                    us(s.arrival),
                    s.bytes,
                ),
            }
        }
        for r in &p.requests {
            match r.completion {
                Some(done) => chrome_event!(
                    out,
                    "\"ph\":\"X\",\"cat\":\"request\",\"name\":\"t{} req {}\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"request\":{},\
                     \"fanout\":{},\"client\":{},\"straggler_leg\":{},\"slo_met\":{}}}",
                    r.tenant,
                    r.seq,
                    REQUEST_TID_BASE + r.request,
                    us(r.arrival),
                    us(done.saturating_sub(r.arrival)),
                    r.request,
                    r.fanout,
                    r.client,
                    r.straggler_leg,
                    r.slo_met,
                ),
                None => chrome_event!(
                    out,
                    "\"ph\":\"i\",\"s\":\"p\",\"cat\":\"request\",\
                     \"name\":\"stuck t{} req {}\",\"pid\":{pid},\"tid\":{},\"ts\":{},\
                     \"args\":{{\"request\":{},\"fanout\":{}}}",
                    r.tenant,
                    r.seq,
                    REQUEST_TID_BASE + r.request,
                    us(r.arrival),
                    r.request,
                    r.fanout,
                ),
            }
        }
        for h in &p.hops {
            chrome_event!(
                out,
                "\"ph\":\"i\",\"s\":\"t\",\"cat\":\"hop\",\"name\":\"{}\",\"pid\":{pid},\
                 \"tid\":{},\"ts\":{},\"args\":{{\"target\":\"{}\",\"seq\":{},\
                 \"size\":{}}}",
                h.kind.name(),
                h.flow,
                us(h.at),
                l.tag(h.tag),
                h.seq,
                h.size,
            );
        }
    }
    out.push_str("]}\n");
    out
}

/// Headline numbers for the `run --json` envelope.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySummary {
    pub points: usize,
    pub gauge_records: u64,
    pub span_records: u64,
    pub request_records: u64,
    pub hop_records: u64,
    pub gauges_evicted: u64,
    pub hops_evicted: u64,
    /// Max sampled queue occupancy across all points.
    pub peak_queue_bytes: u64,
    /// Largest arrival → first-data gap across all spans.
    pub max_span_gap_ps: u64,
    pub stuck_spans: u64,
    pub stuck_requests: u64,
}

pub fn summarize(points: &[PointTelemetry]) -> TelemetrySummary {
    let mut s = TelemetrySummary {
        points: points.len(),
        ..Default::default()
    };
    for p in points {
        s.gauge_records += p.gauges.len() as u64;
        s.span_records += p.spans.len() as u64;
        s.request_records += p.requests.len() as u64;
        s.hop_records += p.hops.len() as u64;
        s.gauges_evicted += p.gauges_evicted;
        s.hops_evicted += p.hops_evicted;
        for g in &p.gauges {
            if let Gauge::Queue { occ_bytes, .. } = *g {
                s.peak_queue_bytes = s.peak_queue_bytes.max(occ_bytes);
            }
        }
        for sp in &p.spans {
            if let Some(gap) = sp.gap() {
                s.max_span_gap_ps = s.max_span_gap_ps.max(gap.as_ps());
            }
            if sp.stuck {
                s.stuck_spans += 1;
            }
        }
        for r in &p.requests {
            if r.completion.is_none() {
                s.stuck_requests += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::flight::{HopKind, HopRecord};
    use ndp_sim::Time;

    fn sample_point() -> PointTelemetry {
        let mut span = FlowSpan::open(3, 0, 5, 9000, Time::from_us(2));
        span.first_data = Some(Time::from_us(9));
        span.completion = Some(Time::from_us(12));
        span.slowdown = 1.5;
        span.measured = true;
        span.request = Some(11);
        let mut stuck = FlowSpan::open(4, 1, 6, 9000, Time::from_us(3));
        stuck.stuck = true;
        let request = crate::span::RequestSpan {
            request: 11,
            tenant: 0,
            seq: 7,
            client: 5,
            fanout: 2,
            arrival: Time::from_us(2),
            completion: Some(Time::from_us(12)),
            straggler_leg: 1,
            measured: true,
            slo_met: true,
        };
        PointTelemetry {
            key: "fattree/ndp".into(),
            tags: vec!["core_down[0][0]".into()],
            gauges: vec![Gauge::Queue {
                at: Time::from_us(1),
                tag: 0,
                occ_bytes: 18000,
                occ_pkts: 2,
                forwarded: 7,
                trimmed: 1,
                bounced: 0,
                dropped: 0,
                dropped_down: 2,
                ecn_marked: 0,
            }],
            gauges_evicted: 0,
            spans: vec![span, stuck],
            requests: vec![request],
            hops: vec![HopRecord {
                at: Time::from_us(4),
                tag: 0,
                kind: HopKind::Trim,
                flow: 3,
                src: 0,
                dst: 5,
                seq: 1,
                size: 64,
            }],
            hops_evicted: 0,
        }
    }

    #[test]
    fn ndjson_lines_have_type_and_point() {
        let nd = write_ndjson(&[sample_point()]);
        let lines: Vec<&str> = nd.lines().collect();
        // 1 point + 1 gauge + 2 spans + 1 request + 1 hop.
        assert_eq!(lines.len(), 6);
        for l in &lines {
            assert!(l.starts_with("{\"type\":\""), "line {l}");
            assert!(l.contains("\"point\":\"fattree/ndp\""), "line {l}");
            assert!(l.ends_with('}'), "line {l}");
        }
        assert!(lines[1].contains("\"dropped_down\":2"));
        assert!(lines[2].contains("\"slowdown\":1.5"));
        assert!(lines[2].contains("\"request\":11"), "leg links its tree");
        assert!(lines[3].contains("\"request\":null"));
        assert!(lines[3].contains("\"slowdown\":null"));
        assert!(lines[4].contains("\"type\":\"request\""));
        assert!(lines[4].contains("\"latency_ps\":10000000"), "10 us tree");
        assert!(lines[4].contains("\"slo_met\":true"));
        assert!(lines[5].contains("\"kind\":\"trim\""));
    }

    #[test]
    fn chrome_trace_wraps_trace_events() {
        let tr = write_chrome_trace(&[sample_point()]);
        assert!(tr.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(tr.contains("\"ph\":\"C\""));
        assert!(tr.contains("\"ph\":\"X\""));
        assert!(tr.contains("\"stuck flow 4\""));
        assert!(tr.contains("\"ts\":2.000000"));
        assert!(tr.contains("\"cat\":\"request\""));
        assert!(tr.contains("\"t0 req 7\""));
        assert!(
            tr.contains(&format!("\"tid\":{}", REQUEST_TID_BASE + 11)),
            "request slices live on their own track band"
        );
    }

    #[test]
    fn summary_finds_peaks_and_stuck() {
        let s = summarize(&[sample_point()]);
        assert_eq!(s.points, 1);
        assert_eq!(s.gauge_records, 1);
        assert_eq!(s.span_records, 2);
        assert_eq!(s.request_records, 1);
        assert_eq!(s.hop_records, 1);
        assert_eq!(s.peak_queue_bytes, 18000);
        assert_eq!(s.max_span_gap_ps, Time::from_us(7).as_ps());
        assert_eq!(s.stuck_spans, 1);
        assert_eq!(s.stuck_requests, 0);
    }

    #[test]
    fn exported_bytes_are_reproducible() {
        let a = write_ndjson(&[sample_point()]);
        let b = write_ndjson(&[sample_point()]);
        assert_eq!(a, b);
        assert_eq!(
            write_chrome_trace(&[sample_point()]),
            write_chrome_trace(&[sample_point()])
        );
    }

    /// `sample_point()` plus every arm it leaves out: a tag label that
    /// needs all three escape classes (quote, backslash, control
    /// character), the switch and world gauges, a hop on that label and
    /// one on a tag outside the table, a stuck request.
    fn golden_point() -> PointTelemetry {
        let mut p = sample_point();
        p.key = "leaf\"spine\\dctcp\u{1f}".into();
        p.tags.push("agg\"1\\up\u{1}\n".into());
        p.gauges.push(Gauge::Switch {
            at: Time::from_ps(1_000_001),
            tag: 1,
            rx_pkts: 40,
            rerouted: 3,
        });
        p.gauges.push(Gauge::World {
            at: Time::from_us(5),
            live_components: 12,
            live_flows: 2,
            events: 999,
        });
        for (tag, kind) in [(1, HopKind::Reroute), (9, HopKind::DropDown)] {
            p.hops.push(HopRecord {
                tag,
                kind,
                seq: u64::from(tag),
                ..p.hops[0]
            });
        }
        p.requests.push(crate::span::RequestSpan {
            request: 12,
            completion: None,
            slo_met: false,
            ..p.requests[0]
        });
        p.gauges_evicted = 4;
        p.hops_evicted = 5;
        p
    }

    /// The writers are held to bytes rendered by the parent of the commit
    /// that rewrote them, not to themselves.
    #[test]
    fn exported_bytes_match_the_committed_golden_files() {
        let points = [golden_point(), sample_point()];
        ndp_snapshot::snapshot!("export.ndjson", write_ndjson(&points));
        ndp_snapshot::snapshot!("export.chrome.json", write_chrome_trace(&points));
    }

    #[test]
    fn escapes_hostile_labels() {
        let mut p = sample_point();
        p.key = "bad\"key\\\n".into();
        let nd = write_ndjson(&[p]);
        assert!(nd.contains("bad\\\"key\\\\\\n"));
    }
}
