//! The benchmark-side tracer: spans around the calls into each crate's
//! public functions, plus counts taken at the same boundaries. Spans stay
//! in memory and are written once, when the traced child ends. With the
//! tracer off (every timed rep) `enter`/`exit` are one branch each.

use std::time::Instant;

use ndp::experiments::json::Json;

pub struct Span {
    /// `<crate>.<call>`: the layer the time belongs to.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(String, f64)>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Record a count (or any per-layer figure) beside the spans.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        if self.on {
            self.counts.push((name.into(), value));
        }
    }

    pub fn counts(&self) -> &[(String, f64)] {
        &self.counts
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The span file: every span with its self time (duration minus the
    /// part its children cover) and every count.
    pub fn to_json(&self, workload: &str) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans = self.spans.iter().zip(&child_ns).map(|(s, &children)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("end_ns", Json::num(s.end_ns as f64)),
                (
                    "self_ns",
                    Json::num((s.end_ns - s.start_ns).saturating_sub(children) as f64),
                ),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("workload", Json::str(workload)),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::arr(spans)),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}
