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
//!
//! Both writers append every record to one byte buffer, piece by piece,
//! through [`Emit`] (the `emit!` macro): a literal is copied, an integer
//! is rendered two digits at a time by [`Decimal`], a timestamp in
//! microseconds writes its six fractional digits the same way, and a
//! label is the escaped copy made once per point. No format string is
//! parsed and no formatter is built per field; only an `f64` (a span's
//! `slowdown`) goes through `core::fmt`, for its shortest round-trip
//! `Display`. The bytes are exactly what `format!` renders for the same
//! fields: `tests/snapshots/export*.txt` and the failure-matrix trace pin
//! (`tests/snapshots/failure_matrix_trace.txt` at the workspace root) hold
//! both formats to the bytes of the `core::fmt` writers this one replaced.

use crate::probe::Gauge;
use crate::session::PointTelemetry;
use crate::span::{FlowSpan, RequestSpan};
use ndp_net::flight::HopRecord;

/// Chrome-trace track offset for request slices, so request lanes never
/// collide with per-flow lanes (flow ids count up from 1).
const REQUEST_TID_BASE: u64 = 1 << 32;

/// `00`, `01`, …, `99`: two ASCII digits per entry.
const PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// The two ASCII digits of `n < 100`.
fn pair(n: usize) -> [u8; 2] {
    [PAIRS[2 * n], PAIRS[2 * n + 1]]
}

/// A `u64`'s decimal digits, exactly what `{}` prints, rendered two at a
/// time from a lookup table into the head of a stack buffer.
pub struct Decimal {
    buf: [u8; 20],
    len: usize,
}

impl Decimal {
    pub fn new(mut v: u64) -> Decimal {
        let len = v.checked_ilog10().unwrap_or(0) as usize + 1;
        let mut buf = [0; 20];
        let mut end = len;
        while end > 1 {
            end -= 2;
            buf[end..end + 2].copy_from_slice(&pair((v % 100) as usize));
            v /= 100;
        }
        if end == 1 {
            buf[0] = b'0' + v as u8;
        }
        Decimal { buf, len }
    }

    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("decimal digits are ASCII")
    }
}

/// One piece of a record, appended to the output as UTF-8 bytes.
trait Emit {
    fn emit(&self, out: &mut Vec<u8>);
}

/// Append each piece in turn: `emit!(out, "\"seq\":", h.seq, ",")` is one
/// [`Emit::emit`] call per piece.
macro_rules! emit {
    ($out:expr, $($piece:expr),+ $(,)?) => {{
        let out: &mut Vec<u8> = $out;
        $($piece.emit(out);)+
    }};
}

impl Emit for str {
    fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl Emit for u64 {
    fn emit(&self, out: &mut Vec<u8>) {
        // A fixed-size copy and a truncation: cheaper than copying a
        // slice whose length is known only at run time.
        let d = Decimal::new(*self);
        let end = out.len() + d.len;
        out.extend_from_slice(&d.buf);
        out.truncate(end);
    }
}

impl Emit for u32 {
    fn emit(&self, out: &mut Vec<u8>) {
        u64::from(*self).emit(out);
    }
}

impl Emit for usize {
    fn emit(&self, out: &mut Vec<u8>) {
        (*self as u64).emit(out);
    }
}

impl Emit for bool {
    fn emit(&self, out: &mut Vec<u8>) {
        (if *self { "true" } else { "false" }).emit(out);
    }
}

/// Rust's shortest round-trip `Display`, the one field `core::fmt` keeps.
impl Emit for f64 {
    fn emit(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        write!(out, "{self}").expect("writing to a Vec cannot fail");
    }
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
            c if (c as u32) < 0x20 => {
                let hex = |d: u32| char::from_digit(d, 16).expect("a nibble is a hex digit");
                out.push_str("\\u00");
                out.push(hex(c as u32 >> 4));
                out.push(hex(c as u32 & 0xf));
            }
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

impl Emit for TagLabel<'_> {
    fn emit(&self, out: &mut Vec<u8>) {
        match self.0 {
            Some(label) => label.emit(out),
            None => emit!(out, "tag", self.1),
        }
    }
}

/// `null` for `None`; `T`'s own rendering otherwise.
struct OrNull<T>(Option<T>);

impl<T: Emit> Emit for OrNull<T> {
    fn emit(&self, out: &mut Vec<u8>) {
        match &self.0 {
            Some(v) => v.emit(out),
            None => "null".emit(out),
        }
    }
}

fn opt_ps(t: Option<ndp_sim::Time>) -> OrNull<u64> {
    OrNull(t.map(ndp_sim::Time::as_ps))
}

fn opt_f64(v: f64) -> OrNull<f64> {
    OrNull(Some(v).filter(|v| v.is_finite()))
}

/// Picoseconds → microseconds with six fractional digits. Integer math
/// throughout so the bytes are platform-independent.
struct Us(u64);

impl Emit for Us {
    fn emit(&self, out: &mut Vec<u8>) {
        (self.0 / 1_000_000).emit(out);
        let frac = (self.0 % 1_000_000) as usize;
        let [a, b] = pair(frac / 10_000);
        let [c, d] = pair(frac / 100 % 100);
        let [e, f] = pair(frac % 100);
        out.extend_from_slice(&[b'.', a, b, c, d, e, f]);
    }
}

fn us(t: ndp_sim::Time) -> Us {
    Us(t.as_ps())
}

/// The `,"request":N` member a leg flow's slice carries; nothing for a
/// flow outside any request.
struct RequestArg(Option<u64>);

impl Emit for RequestArg {
    fn emit(&self, out: &mut Vec<u8>) {
        if let Some(r) = self.0 {
            emit!(out, ",\"request\":", r);
        }
    }
}

/// The finished buffer as text: every piece appended was a `str` or
/// ASCII digits, so it is UTF-8.
fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("every emitted piece is UTF-8")
}

fn push_gauge_line(out: &mut Vec<u8>, l: &Labels, g: &Gauge) {
    let key = l.key.as_str();
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
        } => emit!(
            out,
            "{\"type\":\"gauge\",\"point\":\"",
            key,
            "\",\"gauge\":\"queue\",\"at_ps\":",
            at.as_ps(),
            ",\"target\":\"",
            l.tag(tag),
            "\",\"occ_bytes\":",
            occ_bytes,
            ",\"occ_pkts\":",
            occ_pkts,
            ",\"forwarded\":",
            forwarded,
            ",\"trimmed\":",
            trimmed,
            ",\"bounced\":",
            bounced,
            ",\"dropped\":",
            dropped,
            ",\"dropped_down\":",
            dropped_down,
            ",\"ecn_marked\":",
            ecn_marked,
            "}\n",
        ),
        Gauge::Switch {
            at,
            tag,
            rx_pkts,
            rerouted,
        } => emit!(
            out,
            "{\"type\":\"gauge\",\"point\":\"",
            key,
            "\",\"gauge\":\"switch\",\"at_ps\":",
            at.as_ps(),
            ",\"target\":\"",
            l.tag(tag),
            "\",\"rx_pkts\":",
            rx_pkts,
            ",\"rerouted\":",
            rerouted,
            "}\n",
        ),
        Gauge::World {
            at,
            live_components,
            live_flows,
            events,
        } => emit!(
            out,
            "{\"type\":\"gauge\",\"point\":\"",
            key,
            "\",\"gauge\":\"world\",\"at_ps\":",
            at.as_ps(),
            ",\"live_components\":",
            live_components,
            ",\"live_flows\":",
            live_flows,
            ",\"events\":",
            events,
            "}\n",
        ),
    }
}

fn push_span_line(out: &mut Vec<u8>, key: &str, s: &FlowSpan) {
    emit!(
        out,
        "{\"type\":\"span\",\"point\":\"",
        key,
        "\",\"flow\":",
        s.flow,
        ",\"src\":",
        s.src,
        ",\"dst\":",
        s.dst,
        ",\"request\":",
        OrNull(s.request),
        ",\"bytes\":",
        s.bytes,
        ",\"arrival_ps\":",
        s.arrival.as_ps(),
        ",\"first_data_ps\":",
        opt_ps(s.first_data),
        ",\"completion_ps\":",
        opt_ps(s.completion),
        ",\"slowdown\":",
        opt_f64(s.slowdown),
        ",\"measured\":",
        s.measured,
        ",\"stuck\":",
        s.stuck,
        ",\"retransmissions\":",
        s.retransmissions,
        ",\"timeouts\":",
        s.timeouts,
        ",\"trimmed_headers\":",
        s.trimmed_headers,
        ",\"rts_events\":",
        s.rts_events,
        "}\n",
    );
}

fn push_request_line(out: &mut Vec<u8>, key: &str, r: &RequestSpan) {
    emit!(
        out,
        "{\"type\":\"request\",\"point\":\"",
        key,
        "\",\"request\":",
        r.request,
        ",\"tenant\":",
        r.tenant,
        ",\"seq\":",
        r.seq,
        ",\"client\":",
        r.client,
        ",\"fanout\":",
        r.fanout,
        ",\"arrival_ps\":",
        r.arrival.as_ps(),
        ",\"completion_ps\":",
        opt_ps(r.completion),
        ",\"latency_ps\":",
        opt_ps(r.latency()),
        ",\"straggler_leg\":",
        r.straggler_leg,
        ",\"measured\":",
        r.measured,
        ",\"slo_met\":",
        r.slo_met,
        "}\n",
    );
}

fn push_hop_line(out: &mut Vec<u8>, l: &Labels, h: &HopRecord) {
    emit!(
        out,
        "{\"type\":\"hop\",\"point\":\"",
        l.key.as_str(),
        "\",\"at_ps\":",
        h.at.as_ps(),
        ",\"target\":\"",
        l.tag(h.tag),
        "\",\"kind\":\"",
        h.kind.name(),
        "\",\"flow\":",
        h.flow,
        ",\"src\":",
        h.src,
        ",\"dst\":",
        h.dst,
        ",\"seq\":",
        h.seq,
        ",\"size\":",
        h.size,
        "}\n",
    );
}

/// Serialise all points as NDJSON. Line order: per point (already
/// key-sorted by [`crate::session::end`]) a `point` header line, then
/// gauges, spans, requests, hops in recorded order.
pub fn write_ndjson(points: &[PointTelemetry]) -> String {
    let mut buf = Vec::new();
    let out = &mut buf;
    for p in points {
        let l = Labels::of(p);
        let key = l.key.as_str();
        emit!(
            out,
            "{\"type\":\"point\",\"point\":\"",
            key,
            "\",\"tags\":["
        );
        for (i, t) in l.tags.iter().enumerate() {
            emit!(out, if i == 0 { "\"" } else { ",\"" }, t.as_str(), "\"");
        }
        emit!(
            out,
            "],\"gauges\":",
            p.gauges.len(),
            ",\"spans\":",
            p.spans.len(),
            ",\"requests\":",
            p.requests.len(),
            ",\"hops\":",
            p.hops.len(),
            ",\"gauges_evicted\":",
            p.gauges_evicted,
            ",\"hops_evicted\":",
            p.hops_evicted,
            "}\n",
        );
        for g in &p.gauges {
            push_gauge_line(out, &l, g);
        }
        for s in &p.spans {
            push_span_line(out, key, s);
        }
        for r in &p.requests {
            push_request_line(out, key, r);
        }
        for h in &p.hops {
            push_hop_line(out, &l, h);
        }
    }
    into_string(buf)
}

/// Serialise all points as a Chrome trace-event JSON document. Events are
/// comma-separated: each starts with `,{` but the first point's process
/// name, the first event of the array.
pub fn write_chrome_trace(points: &[PointTelemetry]) -> String {
    let mut buf = Vec::new();
    let out = &mut buf;
    emit!(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (pid, p) in points.iter().enumerate() {
        let l = Labels::of(p);
        emit!(
            out,
            if pid == 0 { "{" } else { ",{" },
            "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":",
            pid,
            ",\"tid\":0,\"args\":{\"name\":\"",
            l.key.as_str(),
            "\"}}",
        );
        for g in &p.gauges {
            match *g {
                Gauge::Queue {
                    at, tag, occ_bytes, ..
                } => emit!(
                    out,
                    ",{\"ph\":\"C\",\"name\":\"queue ",
                    l.tag(tag),
                    "\",\"pid\":",
                    pid,
                    ",\"ts\":",
                    us(at),
                    ",\"args\":{\"occ_bytes\":",
                    occ_bytes,
                    "}}",
                ),
                Gauge::Switch {
                    at, tag, rerouted, ..
                } => emit!(
                    out,
                    ",{\"ph\":\"C\",\"name\":\"reroutes ",
                    l.tag(tag),
                    "\",\"pid\":",
                    pid,
                    ",\"ts\":",
                    us(at),
                    ",\"args\":{\"rerouted\":",
                    rerouted,
                    "}}",
                ),
                Gauge::World { at, live_flows, .. } => emit!(
                    out,
                    ",{\"ph\":\"C\",\"name\":\"live_flows\",\"pid\":",
                    pid,
                    ",\"ts\":",
                    us(at),
                    ",\"args\":{\"live_flows\":",
                    live_flows,
                    "}}",
                ),
            }
        }
        for s in &p.spans {
            match s.completion {
                Some(done) => emit!(
                    out,
                    ",{\"ph\":\"X\",\"cat\":\"flow\",\"name\":\"flow ",
                    s.flow,
                    "\",\"pid\":",
                    pid,
                    ",\"tid\":",
                    s.flow,
                    ",\"ts\":",
                    us(s.arrival),
                    ",\"dur\":",
                    us(done.saturating_sub(s.arrival)),
                    ",\"args\":{\"bytes\":",
                    s.bytes,
                    ",\"slowdown\":",
                    opt_f64(s.slowdown),
                    ",\"retransmissions\":",
                    s.retransmissions,
                    ",\"trimmed_headers\":",
                    s.trimmed_headers,
                    RequestArg(s.request),
                    "}}",
                ),
                None => emit!(
                    out,
                    ",{\"ph\":\"i\",\"s\":\"p\",\"cat\":\"flow\",\"name\":\"stuck flow ",
                    s.flow,
                    "\",\"pid\":",
                    pid,
                    ",\"tid\":",
                    s.flow,
                    ",\"ts\":",
                    us(s.arrival),
                    ",\"args\":{\"bytes\":",
                    s.bytes,
                    "}}",
                ),
            }
        }
        for r in &p.requests {
            match r.completion {
                Some(done) => emit!(
                    out,
                    ",{\"ph\":\"X\",\"cat\":\"request\",\"name\":\"t",
                    r.tenant,
                    " req ",
                    r.seq,
                    "\",\"pid\":",
                    pid,
                    ",\"tid\":",
                    REQUEST_TID_BASE + r.request,
                    ",\"ts\":",
                    us(r.arrival),
                    ",\"dur\":",
                    us(done.saturating_sub(r.arrival)),
                    ",\"args\":{\"request\":",
                    r.request,
                    ",\"fanout\":",
                    r.fanout,
                    ",\"client\":",
                    r.client,
                    ",\"straggler_leg\":",
                    r.straggler_leg,
                    ",\"slo_met\":",
                    r.slo_met,
                    "}}",
                ),
                None => emit!(
                    out,
                    ",{\"ph\":\"i\",\"s\":\"p\",\"cat\":\"request\",\"name\":\"stuck t",
                    r.tenant,
                    " req ",
                    r.seq,
                    "\",\"pid\":",
                    pid,
                    ",\"tid\":",
                    REQUEST_TID_BASE + r.request,
                    ",\"ts\":",
                    us(r.arrival),
                    ",\"args\":{\"request\":",
                    r.request,
                    ",\"fanout\":",
                    r.fanout,
                    "}}",
                ),
            }
        }
        for h in &p.hops {
            emit!(
                out,
                ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"hop\",\"name\":\"",
                h.kind.name(),
                "\",\"pid\":",
                pid,
                ",\"tid\":",
                h.flow,
                ",\"ts\":",
                us(h.at),
                ",\"args\":{\"target\":\"",
                l.tag(h.tag),
                "\",\"seq\":",
                h.seq,
                ",\"size\":",
                h.size,
                "}}",
            );
        }
    }
    emit!(out, "]}\n");
    into_string(buf)
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

    /// Every record variant at its field edges: `0` and `u64::MAX` (and
    /// `u32`/`usize` maxima), timestamps whose microsecond fraction is zero
    /// or starts with zeros, the latest representable time, a key and a
    /// label that need escaping, tags inside and outside the table, a leg
    /// of a request and a flow outside any, a span with no first data,
    /// non-finite and long-decimal slowdowns, stuck spans and requests, and
    /// a hop of every kind.
    fn edge_point() -> PointTelemetry {
        let mut done = FlowSpan::open(u64::MAX, 0, u32::MAX, u64::MAX, Time::ZERO);
        done.completion = Some(Time::MAX);
        done.slowdown = f64::NAN;
        done.request = Some(0);
        done.retransmissions = u64::MAX;
        let mut long = FlowSpan::open(0, u32::MAX, 0, 0, Time::from_ps(7_000_500));
        long.first_data = Some(Time::from_ps(7_000_501));
        long.completion = Some(Time::from_ps(8_000_000));
        long.slowdown = 0.1 + 0.2;
        long.measured = true;
        long.timeouts = u64::MAX;
        long.trimmed_headers = u64::MAX;
        long.rts_events = u64::MAX;
        let mut huge = FlowSpan::open(9, 1, 2, 1, Time::from_ps(999_999));
        huge.completion = Some(Time::from_ps(999_999));
        huge.slowdown = 1e300;
        huge.request = Some(u64::MAX);
        let mut stuck = FlowSpan::open(10, 2, 1, 1500, Time::from_ps(1_000_042));
        stuck.first_data = Some(Time::from_ps(u64::MAX));
        stuck.slowdown = f64::INFINITY;
        stuck.stuck = true;
        stuck.request = Some(7);
        let request = crate::span::RequestSpan {
            request: u64::MAX - REQUEST_TID_BASE,
            tenant: u32::MAX,
            seq: u64::MAX,
            client: u32::MAX,
            fanout: 0,
            arrival: Time::ZERO,
            completion: Some(Time::MAX),
            straggler_leg: u32::MAX,
            measured: false,
            slo_met: false,
        };
        let hop = HopRecord {
            at: Time::from_ps(42),
            tag: 0,
            kind: HopKind::Enqueue,
            flow: 0,
            src: 0,
            dst: 0,
            seq: 0,
            size: 0,
        };
        let kinds = [
            HopKind::Enqueue,
            HopKind::Dequeue,
            HopKind::Trim,
            HopKind::Bounce,
            HopKind::Drop,
            HopKind::DropDown,
            HopKind::EcnMark,
            HopKind::Reroute,
        ];
        let mut hops: Vec<HopRecord> = (0u32..)
            .zip(kinds)
            .map(|(i, kind)| HopRecord {
                kind,
                tag: i % 3,
                at: Time::from_ps(u64::from(i) * 1_000_001),
                ..hop
            })
            .collect();
        hops.push(HopRecord {
            at: Time::MAX,
            tag: u32::MAX,
            flow: u64::MAX,
            src: u32::MAX,
            dst: u32::MAX,
            seq: u64::MAX,
            size: u32::MAX,
            ..hop
        });
        PointTelemetry {
            key: "edge/\"ndp\"\\\t\u{1b}\u{7f}é".into(),
            tags: vec!["tor0\r".into(), String::new()],
            gauges: vec![
                Gauge::Queue {
                    at: Time::MAX,
                    tag: u32::MAX,
                    occ_bytes: u64::MAX,
                    occ_pkts: usize::MAX,
                    forwarded: u64::MAX,
                    trimmed: u64::MAX,
                    bounced: u64::MAX,
                    dropped: u64::MAX,
                    dropped_down: u64::MAX,
                    ecn_marked: u64::MAX,
                },
                Gauge::Queue {
                    at: Time::ZERO,
                    tag: 0,
                    occ_bytes: 0,
                    occ_pkts: 0,
                    forwarded: 0,
                    trimmed: 0,
                    bounced: 0,
                    dropped: 0,
                    dropped_down: 0,
                    ecn_marked: 0,
                },
                Gauge::Switch {
                    at: Time::from_ps(5_000_000),
                    tag: 2,
                    rx_pkts: u64::MAX,
                    rerouted: 0,
                },
                Gauge::World {
                    at: Time::from_ps(1_000_042),
                    live_components: usize::MAX,
                    live_flows: 0,
                    events: u64::MAX,
                },
            ],
            gauges_evicted: u64::MAX,
            spans: vec![done, long, huge, stuck],
            requests: vec![
                request,
                crate::span::RequestSpan {
                    request: 0,
                    tenant: 0,
                    seq: 0,
                    client: 0,
                    fanout: u32::MAX,
                    arrival: Time::from_ps(12_000_009),
                    completion: None,
                    straggler_leg: 0,
                    measured: true,
                    slo_met: false,
                },
            ],
            hops,
            hops_evicted: 0,
        }
    }

    /// `edge_point()` through both writers, pinned to the bytes the
    /// `core::fmt` writers rendered.
    #[test]
    fn every_record_variant_at_its_field_edges_is_pinned() {
        let points = [edge_point(), PointTelemetry::default()];
        ndp_snapshot::snapshot!("export_edges.ndjson", write_ndjson(&points));
        ndp_snapshot::snapshot!("export_edges.chrome.json", write_chrome_trace(&points));
    }

    /// On both sides of every digit-count boundary, and at the extremes.
    #[test]
    fn decimal_prints_what_display_prints() {
        let mut edges = vec![0, 1, u64::MAX - 1, u64::MAX];
        for k in 1..20 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1]);
        }
        for v in edges {
            assert_eq!(Decimal::new(v).as_str(), v.to_string());
            let mut out = b"x".to_vec();
            v.emit(&mut out);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
    }

    #[test]
    fn escapes_hostile_labels() {
        let mut p = sample_point();
        p.key = "bad\"key\\\n".into();
        let nd = write_ndjson(&[p]);
        assert!(nd.contains("bad\\\"key\\\\\\n"));
    }
}
