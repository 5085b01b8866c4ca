//! The lifecycle driver and the driven-point runner every open-loop,
//! failure-matrix and RPC point, and fig15's and fig23's flow chains, run
//! on.
//!
//! ```text
//! ArrivalProcess ──► source ──► driver ──► batch sink
//! ```
//!
//! A [`RequestSource`] yields time-sorted request trees: an
//! [`RpcWorkload`]'s fan-out/fan-in trees, or — through [`Flows`] — an
//! open-loop flow stream, or — through [`Chains`] — closed-loop flow
//! chains, each flow a fan-out-1 request with no response.
//! [`RpcDriver`] walks the source *inside* simulated time on one self-wake
//! chain: at a request's arrival instant it attaches every shard leg (a
//! flow costs nothing before it arrives). It watches every host, so a
//! leg's `complete()` wakes it, and a finished leg is detached on the
//! spot, so live state is O(requests in flight), never O(requests ever
//! offered). Attaching and detaching need the whole world, which a
//! dispatch does not have: the driver queues each as a lifecycle op on its
//! own ordered list, and one deferred world op per dispatch runs the list
//! as soon as that dispatch returns, in the order the ops were queued. A
//! request is done when its *last* flow is — optionally after a sequential
//! response flow — and closed-loop tenants are self-clocked: each
//! completion asks the source for the chain's next request.
//!
//! `run_driven` is the one point runner: seeded world, fabric, the
//! caller's set-up hook, the driver, opt-in telemetry, then the world
//! stepped in chunks with each chunk's measured completions streamed to
//! the caller's batch sink.
//! A run has three phases — `warmup` (arrivals happen unmeasured while
//! queues reach steady state), measurement up to `arrivals_end`, and a
//! `drain` that is a cap, not a horizon: from `arrivals_end` on, the run
//! ends as soon as the driver is idle, with no flow live and nothing left
//! to spawn.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ndp_net::flight::FlightRecorder;
use ndp_net::packet::{FlowId, HostId, Packet};
use ndp_net::Host;
use ndp_sim::{Component, ComponentId, Ctx, Event, FxHashMap, SchedulerKind, Time, World};
use ndp_telemetry::span::{push_request, push_span};
use ndp_telemetry::{FlowSpan, RequestSpan};
use ndp_topology::Topology;
use ndp_transport::detach_endpoints;
use ndp_workloads::{FlowEvent, FlowLeg, RpcRequest, RpcWorkload};

use crate::harness::{FlowSpec, Proto};
use crate::topo::TopoSpec;

/// The driver's self-wake token. Completion wakes carry the flow id, and
/// flow ids start at 1 and count up, so `u64::MAX` can never collide.
const SPAWN_TICK: u64 = u64::MAX;

/// A traced point's gauge sampling period.
const PROBE_TICK: Time = Time::from_us(100);

/// A traced point's gauge ring capacity.
const GAUGE_CAPACITY: usize = 16384;

/// Where the driver's requests come from: one time-sorted open-loop
/// stream plus, for self-clocked tenants, chains fed by completions.
pub trait RequestSource: Send {
    /// The next open-loop arrival.
    fn next_open(&mut self) -> Option<RpcRequest>;
    /// The first request of every closed-loop chain.
    fn initial_closed_loop(&mut self) -> Vec<RpcRequest> {
        Vec::new()
    }
    /// A request of `tenant` completed at `done_ps`: its chain's next
    /// request, if the tenant is closed-loop.
    fn on_complete(&mut self, _tenant: u32, _done_ps: u64) -> Option<RpcRequest> {
        None
    }
    /// The deadline `tenant`'s request spans are graded against.
    fn slo_ps(&self, _tenant: u32) -> u64 {
        u64::MAX
    }
}

impl RequestSource for RpcWorkload {
    fn next_open(&mut self) -> Option<RpcRequest> {
        self.next()
    }
    fn initial_closed_loop(&mut self) -> Vec<RpcRequest> {
        RpcWorkload::initial_closed_loop(self)
    }
    fn on_complete(&mut self, tenant: u32, done_ps: u64) -> Option<RpcRequest> {
        RpcWorkload::on_complete(self, tenant, done_ps)
    }
    fn slo_ps(&self, tenant: u32) -> u64 {
        RpcWorkload::slo_ps(self, tenant)
    }
}

/// A time-sorted [`FlowEvent`] stream as a request source: every flow is
/// a single-leg request of tenant 0 with no response.
pub struct Flows<I>(std::iter::Enumerate<I>);

impl<I: Iterator<Item = FlowEvent>> Flows<I> {
    pub fn new(events: I) -> Flows<I> {
        Flows(events.enumerate())
    }
}

impl<I: Iterator<Item = FlowEvent> + Send> RequestSource for Flows<I> {
    fn next_open(&mut self) -> Option<RpcRequest> {
        let (seq, ev) = self.0.next()?;
        let leg = FlowLeg {
            src: ev.src,
            dst: ev.dst,
            bytes: ev.bytes,
        };
        Some(one_flow(ev.start_ps, 0, seq, leg))
    }
}

/// A single-leg request with no response.
fn one_flow(start_ps: u64, tenant: u32, seq: usize, leg: FlowLeg) -> RpcRequest {
    RpcRequest {
        start_ps,
        tenant,
        seq: seq as u64,
        client: leg.src,
        legs: vec![leg],
        response: None,
    }
}

/// Closed-loop flow chains as a request source: every flow is a
/// single-leg request whose tenant is its chain's index. A chain's first
/// leg starts at the chain's first start, and every later leg its gap
/// after the previous leg completes (the first leg's gap is unused).
pub struct Chains(Vec<(Time, Legs)>);

/// A chain's legs not yet started, numbered, each with its gap.
type Legs = std::iter::Enumerate<std::vec::IntoIter<(FlowLeg, Time)>>;

impl Chains {
    /// Chains as `(first start, [(leg, gap)])`.
    pub fn new(chains: Vec<(Time, Vec<(FlowLeg, Time)>)>) -> Chains {
        let chains = chains.into_iter();
        Chains(
            chains
                .map(|(first, legs)| (first, legs.into_iter().enumerate()))
                .collect(),
        )
    }

    /// Chain `tenant`'s next leg, started `gap` after `from_ps` (the first
    /// leg at the chain's first start).
    fn next_leg(&mut self, tenant: u32, from_ps: Option<u64>) -> Option<RpcRequest> {
        let (first, legs) = &mut self.0[tenant as usize];
        let (seq, (leg, gap)) = legs.next()?;
        let start_ps = from_ps.map_or(first.as_ps(), |t| t + gap.as_ps());
        Some(one_flow(start_ps, tenant, seq, leg))
    }
}

impl RequestSource for Chains {
    fn next_open(&mut self) -> Option<RpcRequest> {
        None
    }
    fn initial_closed_loop(&mut self) -> Vec<RpcRequest> {
        (0..self.0.len() as u32)
            .filter_map(|c| self.next_leg(c, None))
            .collect()
    }
    fn on_complete(&mut self, tenant: u32, done_ps: u64) -> Option<RpcRequest> {
        self.next_leg(tenant, Some(done_ps))
    }
}

/// Pluggable flow-attach hook: how the driver turns a due [`FlowSpec`]
/// into live endpoints. The default is the protocol's
/// [`ndp_transport::Transport::attach`]; the Figure 8 port substitutes
/// its handshake-variant TCP attach here.
pub type AttachFn = Arc<dyn Fn(&mut World<Packet>, &FlowSpec) + Send + Sync>;

/// A lifecycle step that needs the whole world, queued on the driver's
/// ordered list and run right after the dispatch that queued it.
enum LifecycleOp {
    /// Attach a due flow's endpoints through the driver's [`AttachFn`],
    /// starting it at `start`.
    Attach {
        flow: FlowId,
        leg: FlowLeg,
        start: Time,
    },
    /// Detach a finished flow from its two host components, fold its
    /// harvest into the driver's tally and, where spans are recorded,
    /// close its span.
    Detach {
        flow: FlowId,
        fr: FlowRef,
        hosts: (ComponentId, ComponentId),
        /// The flow's slowdown, computed only where spans are recorded.
        slowdown: Option<f64>,
    },
}

/// Which flow of a request tree a live flow is.
#[derive(Clone, Copy, Debug)]
enum LegRef {
    /// Parallel shard leg `i`.
    Leg(u32),
    /// The sequential follow-up flow.
    Response,
}

/// One in-flight flow's bookkeeping, keyed by flow id.
#[derive(Clone, Copy, Debug)]
struct FlowRef {
    req: u64,
    leg: LegRef,
    src: HostId,
    dst: HostId,
    bytes: u64,
    start: Time,
    /// Did the flow's request arrive inside the measurement window?
    measured: bool,
}

impl FlowRef {
    /// The flow's FCT, finishing at `now`, over its ideal FCT on `topo`.
    fn slowdown(&self, topo: &dyn Topology, now: Time) -> f64 {
        let ideal = topo.ideal_fct(self.src, self.dst, self.bytes);
        (now - self.start).as_ps() as f64 / ideal.as_ps() as f64
    }

    /// The flow's span, opened with the driver-side facts; `tagged` links
    /// it to its request (only where request spans are recorded).
    fn span(&self, flow: FlowId, tagged: bool) -> FlowSpan {
        let mut span = FlowSpan::open(flow, self.src, self.dst, self.bytes, self.start);
        span.request = tagged.then_some(self.req);
        span.measured = self.measured;
        span
    }
}

/// One in-flight request tree, dropped the instant its last flow is done.
#[derive(Clone, Debug)]
struct LiveRequest {
    tenant: u32,
    seq: u64,
    client: HostId,
    start: Time,
    measured: bool,
    /// Shard legs still in flight; the fan-in completes at zero.
    legs_left: usize,
    fanout: u32,
    max_leg_bytes: u64,
    /// Index and size of the last shard leg to finish (the straggler).
    last_leg: u32,
    last_leg_bytes: u64,
    /// Deferred sequential stage, taken when the fan-in completes.
    response: Option<FlowLeg>,
}

impl LiveRequest {
    /// The request's span: completed at `done` within `slo_ps` or not,
    /// or (`done` = `None`) still live when the run ended.
    fn span(&self, request: u64, done: Option<Time>, slo_ps: u64) -> RequestSpan {
        RequestSpan {
            request,
            tenant: self.tenant,
            seq: self.seq,
            client: self.client,
            fanout: self.fanout,
            arrival: self.start,
            completion: done,
            straggler_leg: done.map_or(0, |_| self.last_leg),
            measured: self.measured,
            slo_met: done.is_some_and(|t| (t - self.start).as_ps() <= slo_ps),
        }
    }
}

/// A finished request's sample, buffered until the runner's next
/// streaming drain.
#[derive(Clone, Copy, Debug)]
pub struct CompletedRequest {
    pub tenant: u32,
    pub seq: u64,
    /// Arrival instant — phase-windowed reports (the failure matrix)
    /// attribute each sample to the phase its request *started* in.
    pub start: Time,
    /// End-to-end: request arrival to last-flow completion.
    pub latency: Time,
    pub straggler_leg: u32,
    pub straggler_was_largest: bool,
    /// Size of the last flow to finish and its FCT over the topology's
    /// ideal FCT — for a single-flow request, *the* flow's slowdown.
    pub bytes: u64,
    pub slowdown: f64,
    pub measured: bool,
}

/// Drives request trees through their whole lifecycle inside simulated
/// time (see the module docs).
pub struct RpcDriver {
    topo: Arc<dyn Topology>,
    source: Box<dyn RequestSource>,
    /// Next open-loop arrival, pulled from the stream but not yet due.
    pending_open: Option<RpcRequest>,
    /// Closed-loop follow-ups not yet due, in the source's merge order.
    pending_closed: BinaryHeap<Reverse<RpcRequest>>,
    /// The earliest outstanding spawn wake (`Time::MAX` for none): a
    /// wake is posted only for an instant before it, so one closed-loop
    /// completion adds at most one wake.
    armed: Time,
    next_flow: FlowId,
    next_req: u64,
    warmup: Time,
    live: FxHashMap<u64, LiveRequest>,
    flows: FxHashMap<FlowId, FlowRef>,
    /// Completed-request samples since the runner's last drain.
    pub completed: Vec<CompletedRequest>,
    /// Requests spawned so far.
    pub started: u64,
    /// Requests that arrived inside the measurement window.
    pub measured_arrivals: usize,
    /// Per-tenant measured arrivals — each tenant digest's `offered`.
    pub measured_per_tenant: Vec<u64>,
    pub peak_live_requests: usize,
    pub peak_live_flows: usize,
    /// Flows finished so far, and the payload bytes their detach harvests
    /// reported.
    finished: u64,
    delivered_bytes: u64,
    attach: AttachFn,
    /// Lifecycle ops queued by the current dispatch, in order.
    ops: Vec<LifecycleOp>,
    spans: Option<ndp_telemetry::SpanLog>,
    requests_log: Option<ndp_telemetry::RequestLog>,
    live_gauge: Option<Arc<AtomicU64>>,
}

impl RpcDriver {
    /// Install a driver over a request source, make it the watcher of
    /// every host of `topo`, and arm its first wake. Seeds every
    /// closed-loop tenant's initial chains, then pulls the open-loop
    /// stream lazily.
    pub fn install_into(
        world: &mut World<Packet>,
        proto: Proto,
        topo: Arc<dyn Topology>,
        mut source: Box<dyn RequestSource>,
        warmup: Time,
    ) -> ComponentId {
        let pending_closed: BinaryHeap<_> = source
            .initial_closed_loop()
            .into_iter()
            .map(Reverse)
            .collect();
        let pending_open = source.next_open();
        let first = (pending_open.iter())
            .chain(pending_closed.peek().map(|Reverse(r)| r))
            .map(|r| r.start_ps)
            .min();
        let armed = first.map_or(Time::MAX, Time::from_ps);
        let hosts: Vec<_> = (0..topo.n_hosts())
            .map(|h| topo.host(h as HostId))
            .collect();
        let fabric = Arc::clone(&topo);
        let attach: AttachFn = Arc::new(move |w, spec| proto.transport().attach(w, &*fabric, spec));
        let id = world.add(RpcDriver {
            topo,
            source,
            pending_open,
            pending_closed,
            armed,
            next_flow: 1,
            next_req: 0,
            warmup,
            live: FxHashMap::default(),
            flows: FxHashMap::default(),
            completed: Vec::new(),
            started: 0,
            measured_arrivals: 0,
            measured_per_tenant: Vec::new(),
            peak_live_requests: 0,
            peak_live_flows: 0,
            finished: 0,
            delivered_bytes: 0,
            attach,
            ops: Vec::new(),
            spans: None,
            requests_log: None,
            live_gauge: None,
        });
        for host in hosts {
            world.get_mut::<Host>(host).set_watcher(id);
        }
        if armed != Time::MAX {
            world.post_wake(armed, id, SPAWN_TICK);
        }
        id
    }

    /// No flow is in flight and nothing is left to spawn.
    pub fn idle(&self) -> bool {
        self.flows.is_empty() && self.pending_open.is_none() && self.pending_closed.is_empty()
    }

    /// Replace the protocol's attach (the Figure 8 handshake variants).
    pub fn set_attach(&mut self, attach: AttachFn) {
        self.attach = attach;
    }

    /// Record a [`FlowSpan`] for every flow this driver detaches — tagged
    /// with its request id where a request log is installed too.
    /// Telemetry-only: the event stream is identical with or without.
    pub fn set_span_log(&mut self, log: ndp_telemetry::SpanLog) {
        self.spans = Some(log);
    }

    /// Record a [`RequestSpan`] for every completed request.
    pub fn set_request_log(&mut self, log: ndp_telemetry::RequestLog) {
        self.requests_log = Some(log);
    }

    /// Publish the live-flow count into `gauge` after every change, for
    /// the telemetry probe's world samples.
    pub fn set_live_gauge(&mut self, gauge: Arc<AtomicU64>) {
        gauge.store(self.flows.len() as u64, Ordering::Relaxed);
        self.live_gauge = Some(gauge);
    }

    fn publish_live(&self) {
        if let Some(g) = &self.live_gauge {
            g.store(self.flows.len() as u64, Ordering::Relaxed);
        }
    }

    /// Post a spawn wake at `at` unless one is already outstanding at or
    /// before it.
    fn arm(&mut self, at: Time, ctx: &mut Ctx<'_, Packet>) {
        if at < self.armed {
            self.armed = at;
            ctx.wake_at(at, SPAWN_TICK);
        }
    }

    /// Queue a lifecycle op; the first op of a dispatch defers the one
    /// world op that runs them all once the dispatch returns (it captures
    /// nothing, so deferring it allocates nothing).
    fn queue(&mut self, op: LifecycleOp, ctx: &mut Ctx<'_, Packet>) {
        if self.ops.is_empty() {
            ctx.defer(RpcDriver::run_ops);
        }
        self.ops.push(op);
    }

    /// Run driver `me`'s queued lifecycle ops in order. The list keeps its
    /// capacity, so a steady driver queues without allocating.
    fn run_ops(w: &mut World<Packet>, me: ComponentId) {
        let d = w.get_mut::<RpcDriver>(me);
        let mut ops = std::mem::take(&mut d.ops);
        let (spans, tagged) = (d.spans.clone(), d.requests_log.is_some());
        // Cloned on the first attach: most runs are a single detach.
        let mut attach: Option<AttachFn> = None;
        let mut delivered = 0;
        for op in ops.drain(..) {
            match op {
                LifecycleOp::Attach { flow, leg, start } => {
                    let attach =
                        attach.get_or_insert_with(|| Arc::clone(&w.get::<RpcDriver>(me).attach));
                    let mut spec = FlowSpec::new(flow, leg.src, leg.dst, leg.bytes);
                    spec.start = start;
                    attach(w, &spec)
                }
                LifecycleOp::Detach {
                    flow,
                    fr,
                    hosts: (src, dst),
                    slowdown,
                } => {
                    let harvest = detach_endpoints(w, src, dst, flow);
                    delivered += harvest.delivered_bytes;
                    if let (Some(log), Some(slowdown)) = (&spans, slowdown) {
                        let mut span = fr.span(flow, tagged);
                        span.slowdown = slowdown;
                        span.absorb(&harvest);
                        push_span(log, span);
                    }
                }
            }
        }
        let d = w.get_mut::<RpcDriver>(me);
        d.delivered_bytes += delivered;
        d.ops = ops;
    }

    /// The next due request across both streams, or the instant to sleep
    /// until. Ties are broken `(time, tenant, seq)` exactly like the
    /// workload's own merge.
    fn pop_due(&mut self, now: Time) -> Result<Option<RpcRequest>, Time> {
        let closed = self.pending_closed.peek().map(|Reverse(r)| r);
        let (take_open, at) = match (&self.pending_open, closed) {
            (None, None) => return Ok(None),
            (Some(o), Some(c)) if c <= o => (false, c.start_ps),
            (Some(o), _) => (true, o.start_ps),
            (None, Some(c)) => (false, c.start_ps),
        };
        if Time::from_ps(at) > now {
            return Err(Time::from_ps(at));
        }
        Ok(if take_open {
            std::mem::replace(&mut self.pending_open, self.source.next_open())
        } else {
            self.pending_closed.pop().map(|Reverse(r)| r)
        })
    }

    /// Start one request: book the tree, attach every shard leg.
    fn spawn(&mut self, req: RpcRequest, ctx: &mut Ctx<'_, Packet>) {
        let rid = self.next_req;
        self.next_req += 1;
        let start = ctx.now();
        debug_assert_eq!(start.as_ps(), req.start_ps, "spawn wake drifted");
        let measured = start >= self.warmup;
        self.started += 1;
        if measured {
            self.measured_arrivals += 1;
            let t = req.tenant as usize;
            if self.measured_per_tenant.len() <= t {
                self.measured_per_tenant.resize(t + 1, 0);
            }
            self.measured_per_tenant[t] += 1;
        }
        self.live.insert(
            rid,
            LiveRequest {
                tenant: req.tenant,
                seq: req.seq,
                client: req.client,
                start,
                measured,
                legs_left: req.legs.len(),
                fanout: req.legs.len() as u32,
                max_leg_bytes: req.legs.iter().map(|l| l.bytes).max().unwrap_or(0),
                last_leg: 0,
                last_leg_bytes: 0,
                response: req.response,
            },
        );
        self.peak_live_requests = self.peak_live_requests.max(self.live.len());
        for (i, leg) in req.legs.iter().enumerate() {
            self.start_flow(rid, LegRef::Leg(i as u32), *leg, measured, ctx);
        }
    }

    /// Book one flow of a request and queue its attach.
    fn start_flow(
        &mut self,
        req: u64,
        leg: LegRef,
        fl: FlowLeg,
        measured: bool,
        ctx: &mut Ctx<'_, Packet>,
    ) {
        let flow = self.next_flow;
        self.next_flow += 1;
        let start = ctx.now();
        self.flows.insert(
            flow,
            FlowRef {
                req,
                leg,
                src: fl.src,
                dst: fl.dst,
                bytes: fl.bytes,
                start,
                measured,
            },
        );
        self.peak_live_flows = self.peak_live_flows.max(self.flows.len());
        self.publish_live();
        let attach = LifecycleOp::Attach {
            flow,
            leg: fl,
            start,
        };
        self.queue(attach, ctx);
    }

    /// One of a request's flows completed: detach it, advance the fan-in.
    fn finish(&mut self, flow: FlowId, ctx: &mut Ctx<'_, Packet>) {
        let Some(fr) = self.flows.remove(&flow) else {
            return; // the flow's other end finished it already
        };
        self.finished += 1;
        self.publish_live();
        let hosts = (self.topo.host(fr.src), self.topo.host(fr.dst));
        // The slowdown is a span field and a request's sample: a fan-in
        // leg that is neither pays no ideal-FCT bound.
        let now = ctx.now();
        let span_slowdown = self.spans.is_some().then(|| fr.slowdown(&*self.topo, now));
        let detach = LifecycleOp::Detach {
            flow,
            fr,
            hosts,
            slowdown: span_slowdown,
        };
        self.queue(detach, ctx);
        let Some(lr) = self.live.get_mut(&fr.req) else {
            return;
        };
        if let LegRef::Leg(i) = fr.leg {
            lr.legs_left -= 1;
            lr.last_leg = i;
            lr.last_leg_bytes = fr.bytes;
            if lr.legs_left > 0 {
                return;
            }
            // Fan-in complete: the sequential stage, if any.
            if let Some(rsp) = lr.response.take() {
                return self.start_flow(fr.req, LegRef::Response, rsp, fr.measured, ctx);
            }
        }
        let slowdown = span_slowdown.unwrap_or_else(|| fr.slowdown(&*self.topo, now));
        self.complete(fr.req, fr.bytes, slowdown, ctx);
    }

    /// A request's last flow (`bytes`, `slowdown`) is done: book its
    /// end-to-end latency and, for closed-loop tenants, queue the chain's
    /// next request.
    fn complete(&mut self, rid: u64, bytes: u64, slowdown: f64, ctx: &mut Ctx<'_, Packet>) {
        let Some(lr) = self.live.remove(&rid) else {
            return;
        };
        let now = ctx.now();
        self.completed.push(CompletedRequest {
            tenant: lr.tenant,
            seq: lr.seq,
            start: lr.start,
            latency: now - lr.start,
            straggler_leg: lr.last_leg,
            straggler_was_largest: lr.last_leg_bytes == lr.max_leg_bytes,
            bytes,
            slowdown,
            measured: lr.measured,
        });
        if let Some(log) = &self.requests_log {
            push_request(log, lr.span(rid, Some(now), self.source.slo_ps(lr.tenant)));
        }
        if let Some(next) = self.source.on_complete(lr.tenant, now.as_ps()) {
            let at = Time::from_ps(next.start_ps);
            self.pending_closed.push(Reverse(next));
            self.arm(at, ctx);
        }
    }
}

impl Component<Packet> for RpcDriver {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        match ev {
            Event::Wake(SPAWN_TICK) => {
                // The armed wake disarms; a stale one (an earlier wake
                // took over) spawns what is due and posts nothing.
                if ctx.now() >= self.armed {
                    self.armed = Time::MAX;
                }
                loop {
                    match self.pop_due(ctx.now()) {
                        Ok(Some(req)) => self.spawn(req, ctx),
                        Ok(None) => break,
                        Err(at) => {
                            self.arm(at, ctx);
                            break;
                        }
                    }
                }
            }
            Event::Wake(flow) => self.finish(flow, ctx),
            Event::Msg(_) => {}
        }
    }
}

/// What a driven point declares; its source, batch sink and result struct
/// are the caller's.
pub(crate) struct DrivenSpec<'a> {
    pub proto: Proto,
    pub topo: &'a TopoSpec,
    pub seed: u64,
    /// Engine scheduler override (`None` = the process default), used by
    /// the determinism tests to A/B the two scheduler implementations.
    pub sched: Option<SchedulerKind>,
    pub warmup: Time,
    /// Arrivals stop here; measurement runs `warmup..arrivals_end`. The
    /// run ends at the first chunk boundary from here on where the driver
    /// is idle (a chain source sets `Time::ZERO`: it has no open-loop end).
    pub arrivals_end: Time,
    /// Cap on the tail after `arrivals_end`.
    pub drain: Time,
    /// The window the world is stepped in eighths of (1 ms at least). The
    /// run ends at a chunk boundary, so this decides `events_processed`.
    pub chunk_of: Time,
    /// The source yields request trees, not bare flows: request spans are
    /// recorded.
    pub request_trees: bool,
    /// What tells the point from the others of its sweep on the same
    /// fabric and protocol ("" if nothing): the session orders points by
    /// their `{topo}/{proto}[/{cell}]` key, so it must be unique.
    pub cell: &'a str,
}

/// Point-specific telemetry targets a set-up hook hands the runner: the
/// probe samples these beside the live-flow gauge, and the recorder's
/// hops ride the point's submission.
#[derive(Default)]
pub(crate) struct Instruments {
    /// Label table the `u32` tags below index.
    pub tags: Vec<String>,
    pub queues: Vec<(ComponentId, u32)>,
    pub switches: Vec<(ComponentId, u32)>,
    pub recorder: Option<Arc<Mutex<FlightRecorder>>>,
}

/// The counters every driven point reports.
pub(crate) struct Driven {
    /// All requests spawned (warmup + measured).
    pub offered: usize,
    /// Requests that arrived inside the measurement window, in total and
    /// per tenant.
    pub measured: usize,
    pub measured_per_tenant: Vec<u64>,
    /// Tenant of each measured request still live at the drain cap.
    pub stuck: Vec<u32>,
    /// Payload bytes of completed flows, summed from their detach harvests.
    pub delivered_bytes: u64,
    pub peak_live_flows: usize,
    pub peak_live_requests: usize,
    /// Arena population before any traffic was attached.
    pub live_components_baseline: usize,
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run one driven point in its own seeded world, so concurrent sweep
/// executions are independent and bit-reproducible regardless of
/// `NDP_THREADS`. `setup` runs on the built fabric *before* the driver is
/// installed (a `ChaosController` keeps its arena slot and first-wake
/// seq), is told whether a telemetry session is active, and returns the
/// point's request source; `on_measured` sees every measured completion,
/// chunk by chunk. Returns the counters and the finished world (driver
/// and probe retired) for point-specific harvesting.
pub(crate) fn run_driven(
    spec: &DrivenSpec<'_>,
    setup: impl FnOnce(
        &mut World<Packet>,
        &Arc<dyn Topology>,
        bool,
    ) -> (Box<dyn RequestSource>, Instruments),
    mut on_measured: impl FnMut(&CompletedRequest),
) -> (Driven, World<Packet>) {
    let mut world: World<Packet> = match spec.sched {
        Some(kind) => World::with_scheduler(spec.seed, kind),
        None => World::new(spec.seed),
    };
    let topo: Arc<dyn Topology> = Arc::from(spec.topo.build(&mut world, spec.proto.fabric()));
    let live_components_baseline = world.live_components();
    let traced = ndp_telemetry::session::active().is_some();
    let (source, inst) = setup(&mut world, &topo, traced);
    let drv = RpcDriver::install_into(&mut world, spec.proto, topo.clone(), source, spec.warmup);

    // Telemetry wiring (opt-in, gated on an active session): flow and
    // request spans from the driver plus a sampling probe over the live
    // flow gauge and the caller's targets. With no session none of this
    // exists — the event stream and golden hashes are untouched.
    let mut probe = None;
    if traced {
        let live_gauge = Arc::new(AtomicU64::new(0));
        let d = world.get_mut::<RpcDriver>(drv);
        d.spans = Some(ndp_telemetry::span::span_log());
        d.requests_log = spec.request_trees.then(ndp_telemetry::span::request_log);
        d.set_live_gauge(Arc::clone(&live_gauge));
        // Sample through the measured windows only: the drain tail is
        // near-constant, and letting it tick would evict the measured
        // window from the bounded ring on stuck-flow points that run to
        // the full drain cap.
        probe = Some(ndp_telemetry::Probe::install_into(
            &mut world,
            ndp_telemetry::ProbeSpec {
                tick: PROBE_TICK,
                until: spec.arrivals_end,
                capacity: GAUGE_CAPACITY,
                queues: inst.queues,
                switches: inst.switches,
                live_flows: Some(live_gauge),
            },
        ));
    }

    // Step the world in chunks, streaming each chunk's completions to
    // the caller, so no O(total arrivals) structure survives the run.
    let cap = spec.arrivals_end + spec.drain;
    let chunk = Time::from_ps((spec.chunk_of.as_ps() / 8).max(Time::from_ms(1).as_ps()));
    let mut done = false;
    let mut target = Time::ZERO;
    while !done {
        // `run_until` leaves `now()` at the last processed event, which
        // can sit *before* the chunk boundary when a chunk is eventless
        // (sparse arrivals on a 2-host fabric) — so the boundary grid
        // must advance monotonically on its own, not off `now()`.
        target = (target.max(world.now()) + chunk).min(cap);
        done = target == cap;
        world.run_until(target);
        let batch = std::mem::take(&mut world.get_mut::<RpcDriver>(drv).completed);
        batch
            .iter()
            .filter(|c| c.measured)
            .for_each(&mut on_measured);
        if world.now() >= spec.arrivals_end && world.get::<RpcDriver>(drv).idle() {
            done = true;
        }
        // Scheduler buckets never shrink mid-run (capacity reuse keeps
        // refills allocation-free); releasing burst capacity at chunk
        // boundaries keeps a long sweep point from holding its peak-burst
        // memory through the whole measure + drain tail.
        world.shrink_idle();
    }
    // Whatever is still live at the cap is incomplete: detach the flows
    // (as `stuck` spans) so the world drains back to its pre-traffic
    // component population, and log the requests as never completed —
    // each in ascending id order, so what the point exports of them does
    // not depend on the maps' iteration order.
    let d = world.get_mut::<RpcDriver>(drv);
    let mut flows: Vec<_> = d.flows.drain().collect();
    let mut reqs: Vec<_> = d.live.drain().collect();
    flows.sort_unstable_by_key(|&(id, _)| id);
    reqs.sort_unstable_by_key(|&(id, _)| id);
    d.publish_live();
    let (spans, requests) = (d.spans.take(), d.requests_log.take());
    let mut out = Driven {
        offered: d.started as usize,
        measured: d.measured_arrivals,
        measured_per_tenant: std::mem::take(&mut d.measured_per_tenant),
        stuck: Vec::new(),
        delivered_bytes: d.delivered_bytes,
        peak_live_flows: d.peak_live_flows,
        peak_live_requests: d.peak_live_requests,
        live_components_baseline,
    };
    debug_assert_eq!(
        d.finished + flows.len() as u64,
        d.next_flow - 1,
        "every started flow must have finished or be a straggler"
    );
    for (flow, fr) in flows {
        let harvest = detach_endpoints(&mut world, topo.host(fr.src), topo.host(fr.dst), flow);
        if let Some(log) = &spans {
            let mut span = fr.span(flow, requests.is_some());
            span.stuck = true;
            span.absorb(&harvest);
            push_span(log, span);
        }
    }
    for (rid, lr) in &reqs {
        if lr.measured {
            out.stuck.push(lr.tenant);
        }
        if let Some(log) = &requests {
            push_request(log, lr.span(*rid, None, 0));
        }
    }
    world.retire(drv);
    if let Some((pid, ring)) = probe {
        world.retire(pid);
        let (gauges, gauges_evicted) = {
            let mut g = locked(&ring);
            (g.take(), g.evicted)
        };
        let (hops, hops_evicted) = inst.recorder.map_or((Vec::new(), 0), |r| {
            let mut g = locked(&r);
            (g.take(), g.evicted)
        });
        let mut key = format!("{}/{}", spec.topo.name(), spec.proto.label());
        if !spec.cell.is_empty() {
            key = format!("{key}/{}", spec.cell);
        }
        ndp_telemetry::session::submit(ndp_telemetry::PointTelemetry {
            key,
            tags: inst.tags,
            gauges,
            gauges_evicted,
            spans: spans.map_or(Vec::new(), |s| ndp_telemetry::span::take_spans(&s)),
            requests: requests.map_or(Vec::new(), |r| ndp_telemetry::span::take_requests(&r)),
            hops,
            hops_evicted,
        });
    }
    (out, world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    /// Two chains on a 16-host fabric: every leg starts its gap after its
    /// predecessor completes, a gap longer than the 1 ms chunk does not
    /// end the run between legs, and the run ends once the driver is idle,
    /// long before the drain cap.
    #[test]
    fn chains_start_each_leg_its_gap_after_the_last_and_stop_when_idle() {
        let leg = |src, dst| FlowLeg {
            src,
            dst,
            bytes: 20_000,
        };
        let gaps = [Time::ZERO, Time::from_us(100), Time::from_ms(3)];
        let chain = |first, src, dst| (first, gaps.iter().map(|&g| (leg(src, dst), g)).collect());
        let chains = vec![
            chain(Time::from_us(10), 0, 15),
            chain(Time::from_us(20), 5, 9),
        ];
        let firsts: Vec<Time> = chains.iter().map(|c| c.0).collect();
        let topo = crate::topo::registered("fattree").spec(Scale::Quick);
        let spec = DrivenSpec {
            proto: Proto::Ndp,
            topo: &topo,
            seed: 1,
            sched: None,
            warmup: Time::ZERO,
            arrivals_end: Time::ZERO,
            drain: Time::from_secs(1),
            chunk_of: Time::ZERO,
            request_trees: false,
            cell: "",
        };
        let mut done = Vec::new();
        let (d, world) = run_driven(
            &spec,
            |_, _, _| (Box::new(Chains::new(chains)), Instruments::default()),
            |c| done.push(*c),
        );
        assert_eq!(done.len(), 6, "every leg completes");
        assert!(d.stuck.is_empty());
        assert!(d.peak_live_flows <= 2, "peak {}", d.peak_live_flows);
        assert!(world.now() < Time::from_ms(10), "ran to {:?}", world.now());
        done.sort_by_key(|c| (c.tenant, c.seq));
        for (legs, &first) in done.chunks(gaps.len()).zip(&firsts) {
            assert_eq!(legs[0].start, first, "chain {}", legs[0].tenant);
            for (w, &gap) in legs.windows(2).zip(&gaps[1..]) {
                let msg = format!("chain {} leg {}", w[1].tenant, w[1].seq);
                assert_eq!(w[1].start, w[0].start + w[0].latency + gap, "{msg}");
            }
        }
    }
}
