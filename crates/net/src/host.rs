//! End hosts: transport endpoints, the shared NDP pull queue and pacer,
//! and the host latency model used to reproduce the testbed figures.
//!
//! A [`Host`] owns one [`Endpoint`] state machine per flow terminating or
//! originating here. Crucially for NDP, a receiver has **one pull queue
//! shared by all connections** (§3.2): the host, not the connection, paces
//! PULL packets so that the data they elicit arrives at the receiver's link
//! rate, with fair queuing between connections and strict priority for
//! flows the application marked important.
//!
//! The host latency model reproduces the real-world artefacts the paper
//! measures in §5/§6: fixed per-packet processing cost, deep-sleep wake-up
//! latency (the ≈160 µs C-state penalty that dominates Figure 8), and
//! imperfect pull spacing (Figures 12/13).

use std::any::Any;
use std::collections::VecDeque;

use ndp_sim::{Component, ComponentId, Ctx, Event, FxHashMap, Speed, Time};
use rand::Rng;

use crate::packet::{Flags, FlowId, HostId, Packet, PacketKind};

/// Timer token endpoints may use (0 is reserved for flow start).
pub const TOKEN_START: u8 = 0;

/// A host wake token is `flow << TOKEN_BITS | endpoint timer token`.
const TOKEN_BITS: u32 = 8;

/// The host wake token that fires endpoint timer `token` of `flow`.
pub fn flow_token(flow: FlowId, token: u8) -> u64 {
    (flow << TOKEN_BITS) | u64::from(token)
}

/// The host wake token that starts `flow` on its sender host — what a
/// harness posts, or a trigger fires, to begin a transfer.
pub fn start_token(flow: FlowId) -> u64 {
    flow_token(flow, TOKEN_START)
}

const WAKE_PACER: u64 = u64::MAX;
const WAKE_PROC: u64 = u64::MAX - 1;
const WAKE_REPULL: u64 = u64::MAX - 2;

/// Maximum segment lifetime for the time-wait table (§3.2.2: "under 1 ms").
pub const MSL: Time = Time::from_ms(1);

/// NDP's retransmission timeout (1 ms is safe given the 400 µs worst-case
/// RTT, §3.2.4), shared by the sender's RTO and the tail-pull sweep.
pub const NDP_RTO: Time = Time::from_ms(1);

/// Priority class for the receiver's pull queue (§3.2: fair by default,
/// strict prioritization on request).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PullPriority {
    High = 0,
    Normal = 1,
}

/// A transport state machine bound to one flow on one host. It is [`Any`],
/// so [`Host::endpoint`] downcasts it to read protocol-specific state.
pub trait Endpoint: Any + Send {
    /// The flow's start trigger fired (scheduled by the harness).
    fn on_start(&mut self, _ctx: &mut EndpointCtx<'_, '_>) {}
    /// A packet for this flow arrived (after host processing delays).
    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>);
    /// A timer set through [`EndpointCtx::timer_in`] fired.
    fn on_timer(&mut self, _token: u8, _ctx: &mut EndpointCtx<'_, '_>) {}
    /// This side's half of the flow's accounting: a receiver fills what
    /// it saw arrive, a sender its recovery tallies. Protocol-neutral, so
    /// a harness reads any flow without knowing the endpoint's type.
    fn harvest(&self) -> FlowHarvest {
        FlowHarvest::default()
    }
}

/// Per-flow accounting every transport reports the same way, read through
/// [`Endpoint::harvest`] / [`Host::harvest`] and merged over both sides at
/// detach. A transport without a given notion leaves the field at its
/// default (`None`/0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowHarvest {
    /// Payload bytes delivered in order to the receiving application.
    pub delivered_bytes: u64,
    /// Absolute completion instant, `None` if the flow never finished
    /// (or the transport has no completion notion, e.g. blast).
    pub completion_time: Option<Time>,
    /// Absolute instant the receiver first saw the flow (data or header).
    pub first_data: Option<Time>,
    /// Sender retransmissions, however the protocol triggers them
    /// ([`Launch::retransmissions`] says what each sender counts).
    pub retransmissions: u64,
    /// Recovery events driven by a timer expiry — the slowest,
    /// tail-defining recovery path ([`Launch::timeouts`]; pHost's timer is
    /// its receiver's).
    pub timeouts: u64,
    /// Trimmed headers the receiver saw (NDP fabrics; 0 elsewhere).
    pub trimmed_headers: u64,
    /// Return-to-sender headers the sender saw (NDP §3.2.4; 0 elsewhere).
    pub rts_events: u64,
}

impl FlowHarvest {
    /// Combine two sides' halves field-wise. Every field has one owning
    /// side, so debug builds reject a field set on both.
    pub fn merge(self, other: FlowHarvest) -> FlowHarvest {
        fn one<T: Default + PartialEq>(field: &str, a: T, b: T) -> T {
            let unset = T::default();
            debug_assert!(a == unset || b == unset, "`{field}` set on both sides");
            if a == unset {
                b
            } else {
                a
            }
        }
        let (a, b) = (self, other);
        FlowHarvest {
            delivered_bytes: one("delivered_bytes", a.delivered_bytes, b.delivered_bytes),
            completion_time: one("completion_time", a.completion_time, b.completion_time),
            first_data: one("first_data", a.first_data, b.first_data),
            retransmissions: one("retransmissions", a.retransmissions, b.retransmissions),
            timeouts: one("timeouts", a.timeouts, b.timeouts),
            trimmed_headers: one("trimmed_headers", a.trimmed_headers, b.trimmed_headers),
            rts_events: one("rts_events", a.rts_events, b.rts_events),
        }
    }
}

/// The receiver half of a flow's [`FlowHarvest`], kept the same way by
/// every receiver: it stamps the first arrival, counts delivered payload
/// (for the flow and for its host) and completes the flow once. The
/// receiver decides *when* the flow is complete; its `harvest` is
/// `FlowHarvest { <its own fields>, ..self.rx.harvest() }`.
#[derive(Clone, Debug, Default)]
pub struct Delivery {
    first_data: Option<Time>,
    bytes: u64,
    completion_time: Option<Time>,
}

impl Delivery {
    /// Something of the flow arrived (data or header); the first call
    /// stamps `first_data`.
    pub fn arrived(&mut self, ctx: &EndpointCtx<'_, '_>) {
        self.first_data.get_or_insert(ctx.now());
    }

    /// Hand `bytes` of payload to the application: the flow's count and
    /// the host's `delivered_payload_bytes`.
    pub fn deliver(&mut self, bytes: u64, ctx: &mut EndpointCtx<'_, '_>) {
        self.bytes += bytes;
        ctx.core.stats.delivered_payload_bytes += bytes;
    }

    /// Payload bytes delivered so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn is_complete(&self) -> bool {
        self.completion_time.is_some()
    }

    /// The flow is done: stamp its completion time and wake the host's
    /// watcher ([`EndpointCtx::complete`]). Only the first call counts.
    pub fn complete(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        complete_once(&mut self.completion_time, ctx);
    }

    pub fn harvest(&self) -> FlowHarvest {
        FlowHarvest {
            delivered_bytes: self.bytes,
            completion_time: self.completion_time,
            first_data: self.first_data,
            ..FlowHarvest::default()
        }
    }
}

/// The sender half of a flow's [`FlowHarvest`], kept the same way by every
/// sender: it starts the flow once, completes it once (all data ACKed) and
/// holds the recovery tallies, which the sender bumps where its protocol
/// recovers. The sender decides *when* the flow is complete; its `harvest`
/// is `self.tx.harvest()` (NDP adds `rts_events`).
#[derive(Clone, Debug, Default)]
pub struct Launch {
    start: Option<Time>,
    completion_time: Option<Time>,
    /// Data packets resent: NDP's NACK-, RTS- and RTO-driven resends; TCP,
    /// DCTCP and MPTCP's fast retransmits plus one per RTO expiry (a SYN
    /// resend included); pHost's token-paid resends of unACKed packets.
    /// DCQCN never resends.
    pub retransmissions: u64,
    /// Timer-driven recoveries: NDP's RTO resends and self-clocked sends;
    /// TCP, DCTCP and MPTCP's RTO expiries. pHost and DCQCN keep none.
    pub timeouts: u64,
}

impl Launch {
    /// The flow's start trigger fired: stamp the start. A flow starts once.
    pub fn start(&mut self, ctx: &EndpointCtx<'_, '_>) {
        debug_assert!(self.start.is_none(), "flow {} started twice", ctx.flow);
        self.start = Some(ctx.now());
    }

    /// Every byte is ACKed: stamp the completion time and wake the host's
    /// watcher ([`EndpointCtx::complete`]). Only the first call counts.
    pub fn complete(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        complete_once(&mut self.completion_time, ctx);
    }

    pub fn is_complete(&self) -> bool {
        self.completion_time.is_some()
    }

    /// Flow completion time as the sender sees it (start → all ACKed).
    pub fn fct(&self) -> Option<Time> {
        Some(self.completion_time? - self.start?)
    }

    pub fn harvest(&self) -> FlowHarvest {
        FlowHarvest {
            retransmissions: self.retransmissions,
            timeouts: self.timeouts,
            ..FlowHarvest::default()
        }
    }
}

/// Stamp `completion_time` and wake the host's watcher, the first time only.
fn complete_once(completion_time: &mut Option<Time>, ctx: &mut EndpointCtx<'_, '_>) {
    if completion_time.is_none() {
        *completion_time = Some(ctx.now());
        ctx.complete();
    }
}

/// Piecewise-linear inverse-CDF for sampling pull-spacing multipliers
/// (Figure 12's measured distribution, reproduced synthetically).
#[derive(Clone, Debug)]
pub struct JitterDist {
    /// (cumulative probability, interval multiplier), sorted by probability.
    points: Vec<(f64, f64)>,
}

impl JitterDist {
    pub fn new(points: Vec<(f64, f64)>) -> JitterDist {
        assert!(points.len() >= 2);
        assert!((points[0].0 - 0.0).abs() < 1e-9 && (points.last().unwrap().0 - 1.0).abs() < 1e-9);
        JitterDist { points }
    }

    /// Synthetic stand-in for the measured 1500 B pull spacing of Fig. 12:
    /// the median matches the 1.2 µs target but there is real variance —
    /// a fifth of gaps are nearly back-to-back, and a small tail stretches
    /// to several times the target.
    pub fn measured_1500b() -> JitterDist {
        JitterDist::new(vec![
            (0.0, 0.25),
            (0.2, 0.55),
            (0.5, 1.0),
            (0.8, 1.35),
            (0.95, 2.2),
            (0.99, 4.0),
            (1.0, 8.0),
        ])
    }

    /// 9000 B packets give the pacer 7.2 µs of slack, so measured spacing is
    /// tight around the target (Fig. 12's right curve).
    pub fn measured_9000b() -> JitterDist {
        JitterDist::new(vec![
            (0.0, 0.9),
            (0.4, 0.98),
            (0.6, 1.02),
            (0.95, 1.1),
            (1.0, 1.4),
        ])
    }

    pub fn sample(&self, rng: &mut rand::rngs::SmallRng) -> f64 {
        let u: f64 = rng.gen();
        let mut prev = self.points[0];
        for &pt in &self.points[1..] {
            if u <= pt.0 {
                let span = pt.0 - prev.0;
                let f = if span <= 0.0 {
                    0.0
                } else {
                    (u - prev.0) / span
                };
                return prev.1 + f * (pt.1 - prev.1);
            }
            prev = pt;
        }
        self.points.last().unwrap().1
    }
}

/// Host-level latency artefacts (all zero for the "perfect" simulator).
#[derive(Clone, Debug)]
pub struct HostLatency {
    /// Per-packet receive processing (stack traversal, copies).
    pub rx_delay: Time,
    /// Per-packet transmit processing.
    pub tx_delay: Time,
    /// Extra wake-up latency paid when the host has been idle longer than
    /// `sleep_after` (models deep C-states; ≈160 µs in the paper).
    pub wake_latency: Time,
    pub sleep_after: Time,
    /// Imperfect pull pacing (multiplies the nominal pull interval).
    pub pull_jitter: Option<JitterDist>,
}

impl Default for HostLatency {
    fn default() -> HostLatency {
        HostLatency {
            rx_delay: Time::ZERO,
            tx_delay: Time::ZERO,
            wake_latency: Time::ZERO,
            sleep_after: Time::MAX,
            pull_jitter: None,
        }
    }
}

struct FlowPull {
    pending: u32,
    ctr: u64,
    peer: HostId,
    prio: PullPriority,
    in_rr: bool,
    cancelled: bool,
    /// Last request or emission for this flow.
    quiet_since: Time,
}

/// The single per-host pull queue shared by every connection (§3.2).
#[derive(Default)]
struct PullQueue {
    flows: FxHashMap<FlowId, FlowPull>,
    rr: [VecDeque<FlowId>; 2],
    /// Sum of `pending` over all flows. `has_pending` runs on every data
    /// packet (the pacer re-arm check), so it must not scan the flow map —
    /// with hundreds of live flows that scan dominates the RX path.
    pending_total: u64,
}

impl PullQueue {
    fn request(&mut self, flow: FlowId, peer: HostId, prio: PullPriority, now: Time) {
        let e = self.flows.entry(flow).or_insert(FlowPull {
            pending: 0,
            ctr: 0,
            peer,
            prio,
            in_rr: false,
            cancelled: false,
            quiet_since: now,
        });
        e.cancelled = false;
        e.prio = prio;
        e.quiet_since = now;
        e.pending += 1;
        self.pending_total += 1;
        if !e.in_rr {
            e.in_rr = true;
            self.rr[prio as usize].push_back(flow);
        }
    }

    /// §3.2: when the last packet of a transfer arrives, the receiver
    /// removes any pull packets for that sender from its pull queue.
    fn cancel(&mut self, flow: FlowId) {
        if let Some(e) = self.flows.get_mut(&flow) {
            self.pending_total -= u64::from(e.pending);
            e.pending = 0;
            e.cancelled = true;
        }
    }

    fn has_pending(&self) -> bool {
        self.pending_total > 0
    }

    /// Drop all state for a flow (endpoint retirement), including any
    /// queued round-robin slot — a later flow reusing the id must start
    /// with a clean single slot in its own priority class.
    fn remove(&mut self, flow: FlowId) {
        if let Some(e) = self.flows.remove(&flow) {
            self.pending_total -= u64::from(e.pending);
            if e.in_rr {
                for q in &mut self.rr {
                    q.retain(|&f| f != flow);
                }
            }
        }
    }

    /// Next pull to emit: (flow, peer, counter-value). Round robin within
    /// the highest non-empty priority class.
    fn pop(&mut self, now: Time) -> Option<(FlowId, HostId, u64)> {
        for class in 0..2 {
            while let Some(flow) = self.rr[class].pop_front() {
                let e = self.flows.get_mut(&flow).expect("rr entry without flow");
                if e.pending == 0 {
                    e.in_rr = false;
                    continue;
                }
                e.pending -= 1;
                self.pending_total -= 1;
                e.ctr += 1;
                e.quiet_since = now;
                let out = (flow, e.peer, e.ctr);
                if e.pending > 0 {
                    self.rr[class].push_back(flow);
                } else {
                    e.in_rr = false;
                }
                return Some(out);
            }
        }
        None
    }
}

/// Book-keeping counters for a host.
#[derive(Clone, Debug, Default)]
pub struct HostStats {
    pub delivered_pkts: u64,
    pub delivered_payload_bytes: u64,
    pub pulls_sent: u64,
    /// Last pulls repeated by the tail-pull sweep (not in `pulls_sent`).
    pub repulls: u64,
    pub unknown_flow_drops: u64,
    pub timewait_rejects: u64,
}

/// Everything about a host except its endpoints (split for borrow hygiene).
struct HostCore {
    id: HostId,
    nic: ComponentId,
    link_rate: Speed,
    mtu: u32,
    /// Memoized `link_rate.tx_time(mtu)` — the pull pacer tick. Computed
    /// once at construction (both inputs are fixed for a host's lifetime)
    /// so the per-pull hot path pays no division.
    pull_tick: Time,
    latency: HostLatency,
    pull: PullQueue,
    pacer_armed: bool,
    repull_armed: bool,
    next_pull_at: Time,
    last_rx: Time,
    /// Time-wait entries in expiry order (expiries are monotone: always
    /// `now + MSL`), so the table purges itself from the front in O(1)
    /// amortized instead of growing with every connection ever closed.
    /// It holds the connections closed in the last MSL, and only a SYN for
    /// a flow with no endpoint searches it, so it needs no index: closing a
    /// connection costs a push and the purge, no hashing.
    time_wait: VecDeque<(FlowId, Time)>,
    /// The component [`EndpointCtx::complete`] wakes, if any.
    watcher: Option<ComponentId>,
    /// Same-tick transmit burst being assembled during one endpoint
    /// dispatch. All packets share the NIC target and `tx_delay`, so the
    /// whole window goes out as one scheduler train instead of one post
    /// per packet — flushed before any other post so the train occupies
    /// exactly the consecutive sequence numbers the individual posts
    /// would have held.
    tx_train: Vec<Packet>,
    pub stats: HostStats,
}

impl HostCore {
    fn pull_interval(&self) -> Time {
        self.pull_tick
    }

    fn send_pull(&mut self, (flow, peer, ctr): (FlowId, HostId, u64), sim: &mut Ctx<'_, Packet>) {
        let mut p = Packet::control(self.id, peer, flow, PacketKind::Pull);
        p.ack = Packet::ack32(ctr);
        p.sent = sim.now();
        // Spray pulls across paths; routers reduce the tag modulo fan-out.
        p.path = sim.rng().gen();
        sim.send(self.nic, p, self.latency.tx_delay);
    }

    fn emit_pull(&mut self, sim: &mut Ctx<'_, Packet>) {
        let Some(pull) = self.pull.pop(sim.now()) else {
            return;
        };
        self.send_pull(pull, sim);
        self.stats.pulls_sent += 1;
        let base = self.pull_interval();
        let gap = match &self.latency.pull_jitter {
            Some(d) => {
                let m = d.sample(sim.rng());
                Time::from_ps((base.as_ps() as f64 * m) as u64)
            }
            None => base,
        };
        self.next_pull_at = sim.now() + gap;
    }

    fn flush_tx(&mut self, sim: &mut Ctx<'_, Packet>) {
        match self.tx_train.len() {
            0 => {}
            // The dominant case — one data packet per pull — posts plainly
            // and keeps the buffer's capacity, so the steady-state TX path
            // stays allocation-free.
            1 => {
                let pkt = self.tx_train.pop().expect("len checked");
                sim.send(self.nic, pkt, self.latency.tx_delay);
            }
            // A real burst (initial window, retransmission sweep): hand the
            // buffer over as one scheduler train.
            _ => {
                let train = std::mem::take(&mut self.tx_train);
                sim.send_train(self.nic, train, self.latency.tx_delay);
            }
        }
    }

    fn arm_pacer(&mut self, sim: &mut Ctx<'_, Packet>) {
        if self.pacer_armed || !self.pull.has_pending() {
            return;
        }
        self.pacer_armed = true;
        let at = self.next_pull_at.max(sim.now());
        sim.wake_at(at, WAKE_PACER);
    }

    fn arm_repull(&mut self, sim: &mut Ctx<'_, Packet>) {
        if !std::mem::replace(&mut self.repull_armed, true) {
            sim.wake_in(NDP_RTO, WAKE_REPULL);
        }
    }

    /// The receiver's half of the liveness net, once per [`NDP_RTO`] while
    /// any flow is live here: a flow quiet for an RTO with no pull pending
    /// may have lost its last pull, and only this side can know. Resend
    /// that cumulative pull unchanged, in flow-id order; if the original
    /// did arrive, the repeat grants nothing.
    fn sweep_tail_pulls(&mut self, sim: &mut Ctx<'_, Packet>) {
        self.repull_armed = false;
        let now = sim.now();
        let mut due: Vec<_> = (self.pull.flows.iter())
            .filter(|(_, e)| !e.cancelled && e.pending == 0 && e.ctr > 0)
            .filter(|(_, e)| now - e.quiet_since >= NDP_RTO)
            .map(|(&flow, e)| (flow, e.peer, e.ctr))
            .collect();
        due.sort_unstable();
        for pull in due {
            self.send_pull(pull, sim);
            self.stats.repulls += 1;
        }
        if self.pull.flows.values().any(|e| !e.cancelled) {
            self.arm_repull(sim);
        }
    }
}

/// Context handed to endpoints during dispatch.
pub struct EndpointCtx<'a, 'b> {
    sim: &'a mut Ctx<'b, Packet>,
    core: &'a mut HostCore,
    flow: FlowId,
}

impl<'a, 'b> EndpointCtx<'a, 'b> {
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    pub fn rng(&mut self) -> &mut rand::rngs::SmallRng {
        self.sim.rng()
    }

    /// This host's id.
    pub fn host(&self) -> HostId {
        self.core.id
    }

    /// This host's link rate (transports may derive windows from it).
    pub fn link_rate(&self) -> Speed {
        self.core.link_rate
    }

    pub fn mtu(&self) -> u32 {
        self.core.mtu
    }

    /// Transmit a packet through the host NIC. Consecutive sends within
    /// one endpoint callback are coalesced into a single scheduler train
    /// (burst batching); delivery times and order are unchanged.
    pub fn send(&mut self, mut pkt: Packet) {
        if pkt.sent == Time::ZERO {
            pkt.sent = self.sim.now();
        }
        self.core.tx_train.push(pkt);
    }

    /// Arm a flow-local timer; it arrives back via [`Endpoint::on_timer`].
    pub fn timer_in(&mut self, delay: Time, token: u8) {
        debug_assert!(token != TOKEN_START, "token 0 is reserved for start");
        self.core.flush_tx(self.sim);
        self.sim.wake_in(delay, flow_token(self.flow, token));
    }

    /// Queue a PULL towards `peer` for this flow (the host pacer sends it).
    pub fn pull_request(&mut self, peer: HostId, prio: PullPriority) {
        self.core.flush_tx(self.sim);
        let now = self.sim.now();
        self.core.pull.request(self.flow, peer, prio, now);
        self.core.arm_pacer(self.sim);
        self.core.arm_repull(self.sim);
    }

    /// Cancel all queued pulls for this flow (§3.2 last-packet behaviour).
    pub fn pull_cancel(&mut self) {
        self.core.pull.cancel(self.flow);
    }

    /// This endpoint's flow is done: wake the host's watcher, if it has
    /// one, now, with the flow id as the token.
    pub fn complete(&mut self) {
        self.core.flush_tx(self.sim);
        if let Some(watcher) = self.core.watcher {
            self.sim.wake_other(watcher, Time::ZERO, self.flow);
        }
    }

    /// Enter time-wait: reject duplicate connection attempts for one MSL
    /// (§3.2.2 at-most-once semantics).
    pub fn enter_time_wait(&mut self) {
        let now = self.sim.now();
        let time_wait = &mut self.core.time_wait;
        time_wait.push_back((self.flow, now + MSL));
        // Opportunistically purge expired entries so the table tracks
        // connections inside the MSL window, not every flow ever closed.
        while time_wait.front().is_some_and(|&(_, exp)| exp <= now) {
            time_wait.pop_front();
        }
    }
}

/// The host component.
pub struct Host {
    core: HostCore,
    endpoints: FxHashMap<FlowId, Box<dyn Endpoint>>,
    /// Packets waiting out host processing delay (FIFO, fixed delay).
    proc_q: VecDeque<(Time, Packet)>,
}

impl Host {
    pub fn new(id: HostId, nic: ComponentId, link_rate: Speed, mtu: u32) -> Host {
        Host {
            core: HostCore {
                id,
                nic,
                link_rate,
                mtu,
                pull_tick: link_rate.tx_time(mtu as u64),
                latency: HostLatency::default(),
                pull: PullQueue::default(),
                pacer_armed: false,
                repull_armed: false,
                next_pull_at: Time::ZERO,
                last_rx: Time::ZERO,
                time_wait: VecDeque::new(),
                watcher: None,
                tx_train: Vec::new(),
                stats: HostStats::default(),
            },
            endpoints: FxHashMap::default(),
            proc_q: VecDeque::new(),
        }
    }

    pub fn with_latency(mut self, latency: HostLatency) -> Host {
        self.core.latency = latency;
        self
    }

    pub fn id(&self) -> HostId {
        self.core.id
    }

    /// This host's NIC link rate.
    pub fn link_rate(&self) -> Speed {
        self.core.link_rate
    }

    pub fn stats(&self) -> &HostStats {
        &self.core.stats
    }

    /// Have [`EndpointCtx::complete`] wake `watcher` with the flow id.
    pub fn set_watcher(&mut self, watcher: ComponentId) {
        self.core.watcher = Some(watcher);
    }

    pub fn add_endpoint(&mut self, flow: FlowId, ep: Box<dyn Endpoint>) {
        let prev = self.endpoints.insert(flow, ep);
        assert!(prev.is_none(), "flow {flow} already registered on host");
    }

    /// Retire a flow's endpoint: free its state machine and purge its pull
    /// queue entry. Events still in flight for the flow are dropped by the
    /// dispatch miss path (and duplicate SYNs by time-wait), so removal is
    /// safe mid-run. Returns the endpoint for final harvesting.
    pub fn remove_endpoint(&mut self, flow: FlowId) -> Option<Box<dyn Endpoint>> {
        self.core.pull.remove(flow);
        self.endpoints.remove(&flow)
    }

    /// Number of endpoints currently attached (the per-host live-flow
    /// gauge).
    pub fn n_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    fn live_endpoint(&self, flow: FlowId) -> &dyn Endpoint {
        self.endpoints
            .get(&flow)
            .unwrap_or_else(|| panic!("no endpoint for flow {flow}"))
            .as_ref()
    }

    /// This host's endpoint's half of `flow`'s [`FlowHarvest`].
    pub fn harvest(&self, flow: FlowId) -> FlowHarvest {
        self.live_endpoint(flow).harvest()
    }

    /// Downcast an endpoint to read protocol-specific state.
    pub fn endpoint<T: 'static>(&self, flow: FlowId) -> &T {
        let ep: &dyn Any = self.live_endpoint(flow);
        ep.downcast_ref::<T>()
            .unwrap_or_else(|| panic!("endpoint for flow {flow} has unexpected type"))
    }

    pub fn flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.endpoints.keys().copied()
    }

    fn dispatch<F>(&mut self, flow: FlowId, sim: &mut Ctx<'_, Packet>, f: F)
    where
        F: FnOnce(&mut dyn Endpoint, &mut EndpointCtx<'_, '_>),
    {
        // Split borrow: the endpoint entry and the host core are disjoint
        // fields, so the endpoint stays in the map while it borrows the
        // core (the seed removed and re-inserted it around every dispatch).
        let Host {
            core, endpoints, ..
        } = self;
        let Some(ep) = endpoints.get_mut(&flow) else {
            core.stats.unknown_flow_drops += 1;
            return;
        };
        {
            let mut ctx = EndpointCtx { sim, core, flow };
            f(ep.as_mut(), &mut ctx);
        }
        core.flush_tx(sim);
        core.arm_pacer(sim);
    }

    /// Stage a packet behind the host's modelled processing/wake delay.
    /// Out of line: only latency-modelled hosts (Fig. 8/12 runs) take it.
    #[inline(never)]
    fn rx_delayed(&mut self, pkt: Packet, delay: Time, sim: &mut Ctx<'_, Packet>) {
        let at = sim.now() + delay;
        self.proc_q.push_back((at, pkt));
        sim.wake_at(at, WAKE_PROC);
    }

    fn deliver(&mut self, pkt: Packet, sim: &mut Ctx<'_, Packet>) {
        self.core.stats.delivered_pkts += 1;
        let flow = pkt.flow;
        let Host {
            core, endpoints, ..
        } = self;
        // One map lookup per packet: the hot path goes straight to the
        // endpoint; the miss path handles §3.2.2 time-wait rejection.
        let Some(ep) = endpoints.get_mut(&flow) else {
            if pkt.kind == PacketKind::Data && pkt.flags.has(Flags::SYN) {
                // The newest entry for the flow: a connection id closed
                // twice is held to its later expiry.
                let entry = core.time_wait.iter().rev().find(|&&(f, _)| f == flow);
                if let Some(&(_, until)) = entry {
                    if sim.now() < until {
                        core.stats.timewait_rejects += 1;
                        return;
                    }
                }
            }
            core.stats.unknown_flow_drops += 1;
            return;
        };
        {
            let mut ctx = EndpointCtx { sim, core, flow };
            ep.on_packet(pkt, &mut ctx);
        }
        core.flush_tx(sim);
        core.arm_pacer(sim);
    }
}

impl Component<Packet> for Host {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        match ev {
            // The hot arm: packet arrival. The perfect-host model (all
            // latency artefacts zero) delivers straight to the endpoint;
            // modelled rx/wake delays take the out-of-line staging path.
            Event::Msg(pkt) => {
                let lat = &self.core.latency;
                let mut delay = lat.rx_delay;
                if lat.wake_latency > Time::ZERO
                    && ctx.now().saturating_sub(self.core.last_rx) > lat.sleep_after
                {
                    delay += lat.wake_latency;
                }
                self.core.last_rx = ctx.now() + delay;
                if delay.is_zero() {
                    self.deliver(pkt, ctx);
                } else {
                    self.rx_delayed(pkt, delay, ctx);
                }
            }
            Event::Wake(WAKE_PROC) => {
                while let Some(&(at, _)) = self.proc_q.front() {
                    if at > ctx.now() {
                        break;
                    }
                    let (_, pkt) = self.proc_q.pop_front().expect("peeked");
                    self.deliver(pkt, ctx);
                }
            }
            Event::Wake(WAKE_PACER) => {
                self.core.pacer_armed = false;
                if self.core.next_pull_at > ctx.now() {
                    // Rescheduled earlier than allowed; re-arm.
                    self.core.arm_pacer(ctx);
                    return;
                }
                self.core.emit_pull(ctx);
                self.core.arm_pacer(ctx);
            }
            Event::Wake(WAKE_REPULL) => self.core.sweep_tail_pulls(ctx),
            Event::Wake(tok) => {
                let (flow, token) = (tok >> TOKEN_BITS, tok as u8);
                if token == TOKEN_START {
                    self.dispatch(flow, ctx, |ep, c| ep.on_start(c));
                } else {
                    self.dispatch(flow, ctx, |ep, c| ep.on_timer(token, c));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_sim::World;

    struct Probe {
        started: bool,
        pkts: Vec<Packet>,
        timers: Vec<u8>,
        pulls_on_start: u32,
    }
    impl Probe {
        fn new() -> Probe {
            Probe {
                started: false,
                pkts: vec![],
                timers: vec![],
                pulls_on_start: 0,
            }
        }
    }
    impl Endpoint for Probe {
        fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
            self.started = true;
            for _ in 0..self.pulls_on_start {
                ctx.pull_request(9, PullPriority::Normal);
            }
            ctx.timer_in(Time::from_us(5), 42);
        }
        fn on_packet(&mut self, pkt: Packet, _ctx: &mut EndpointCtx<'_, '_>) {
            self.pkts.push(pkt);
        }
        fn on_timer(&mut self, token: u8, _ctx: &mut EndpointCtx<'_, '_>) {
            self.timers.push(token);
        }
    }

    struct NicSink {
        got: Vec<(Time, Packet)>,
    }
    impl Component<Packet> for NicSink {
        fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
            if let Event::Msg(p) = ev {
                self.got.push((ctx.now(), p));
            }
        }
    }

    fn setup(pulls: u32) -> (World<Packet>, ComponentId, ComponentId) {
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000);
        let mut p = Probe::new();
        p.pulls_on_start = pulls;
        h.add_endpoint(7, Box::new(p));
        let host = w.add(h);
        (w, host, nic)
    }

    #[test]
    fn start_and_timers_reach_endpoint() {
        let (mut w, host, _) = setup(0);
        w.post_wake(Time::from_us(1), host, 7 << 8);
        w.run_until_idle();
        let h = w.get::<Host>(host);
        let p: &Probe = h.endpoint(7);
        assert!(p.started);
        assert_eq!(p.timers, vec![42]);
    }

    #[test]
    #[should_panic(expected = "endpoint for flow 7 has unexpected type")]
    fn endpoint_downcast_to_a_wrong_type_panics() {
        let (w, host, _) = setup(0);
        w.get::<Host>(host).endpoint::<NicSink>(7);
    }

    #[test]
    fn packets_dispatch_by_flow() {
        let (mut w, host, _) = setup(0);
        w.post(Time::ZERO, host, Packet::data(1, 0, 7, 3, 9000));
        w.post(Time::ZERO, host, Packet::data(1, 0, 999, 0, 9000)); // unknown
        w.run_until_idle();
        let h = w.get::<Host>(host);
        let p: &Probe = h.endpoint(7);
        assert_eq!(p.pkts.len(), 1);
        assert_eq!(h.stats().unknown_flow_drops, 1);
    }

    #[test]
    fn pacer_spaces_pulls_at_link_rate() {
        let (mut w, host, nic) = setup(5);
        w.post_wake(Time::ZERO, host, 7 << 8);
        w.run_until(Time::from_us(100));
        let sink = w.get::<NicSink>(nic);
        let pulls: Vec<Time> = sink
            .got
            .iter()
            .filter(|(_, p)| p.kind == PacketKind::Pull)
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(pulls.len(), 5);
        // 9 KB at 10 Gb/s = 7.2 us between pulls; the first goes immediately.
        assert_eq!(pulls[0], Time::ZERO);
        for i in 1..5 {
            assert_eq!(pulls[i] - pulls[i - 1], Time::from_ns(7_200));
        }
        // Pull counters increment per flow.
        let ctrs: Vec<u32> = sink
            .got
            .iter()
            .filter(|(_, p)| p.kind == PacketKind::Pull)
            .map(|(_, p)| p.ack)
            .collect();
        assert_eq!(ctrs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pull_cancel_discards_pending() {
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        struct CancelProbe;
        impl Endpoint for CancelProbe {
            fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
                for _ in 0..10 {
                    ctx.pull_request(9, PullPriority::Normal);
                }
                ctx.pull_cancel();
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut EndpointCtx<'_, '_>) {}
        }
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000);
        h.add_endpoint(7, Box::new(CancelProbe));
        let host = w.add(h);
        w.post_wake(Time::ZERO, host, 7 << 8);
        w.run_until_idle();
        assert_eq!(
            w.get::<NicSink>(nic).got.len(),
            0,
            "cancelled pulls must not be sent"
        );
    }

    #[test]
    fn pull_fair_queuing_round_robins_flows() {
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000);
        let mut a = Probe::new();
        a.pulls_on_start = 3;
        let mut b = Probe::new();
        b.pulls_on_start = 3;
        h.add_endpoint(1, Box::new(a));
        h.add_endpoint(2, Box::new(b));
        let host = w.add(h);
        w.post_wake(Time::ZERO, host, 1 << 8);
        w.post_wake(Time::ZERO, host, 2 << 8);
        w.run_until(Time::from_us(100));
        let flows: Vec<FlowId> = w
            .get::<NicSink>(nic)
            .got
            .iter()
            .filter(|(_, p)| p.kind == PacketKind::Pull)
            .map(|(_, p)| p.flow)
            .collect();
        assert_eq!(
            flows,
            vec![1, 2, 1, 2, 1, 2],
            "pulls must interleave fairly"
        );
    }

    #[test]
    fn high_priority_pulls_preempt_normal_ones() {
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        struct Prio {
            class: PullPriority,
            n: u32,
        }
        impl Endpoint for Prio {
            fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
                for _ in 0..self.n {
                    ctx.pull_request(9, self.class);
                }
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut EndpointCtx<'_, '_>) {}
        }
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000);
        h.add_endpoint(
            1,
            Box::new(Prio {
                class: PullPriority::Normal,
                n: 3,
            }),
        );
        h.add_endpoint(
            2,
            Box::new(Prio {
                class: PullPriority::High,
                n: 3,
            }),
        );
        let host = w.add(h);
        // Normal flow queues its pulls first...
        w.post_wake(Time::ZERO, host, 1 << 8);
        w.post_wake(Time::from_ns(1), host, 2 << 8);
        w.run_until(Time::from_us(100));
        let flows: Vec<FlowId> = w
            .get::<NicSink>(nic)
            .got
            .iter()
            .filter(|(_, p)| p.kind == PacketKind::Pull)
            .map(|(_, p)| p.flow)
            .collect();
        // The very first pull fires at t=0 before flow 2 exists; after that
        // the high-priority flow drains completely before normal resumes.
        assert_eq!(flows, vec![1, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn deep_sleep_penalty_applies_after_idle() {
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000).with_latency(HostLatency {
            rx_delay: Time::from_us(1),
            wake_latency: Time::from_us(160),
            sleep_after: Time::from_us(50),
            ..Default::default()
        });
        h.add_endpoint(7, Box::new(Probe::new()));
        let host = w.add(h);
        // First packet after a long idle: pays 1 + 160 us.
        w.post(Time::from_ms(1), host, Packet::data(1, 0, 7, 0, 9000));
        // Second packet 10 us later: host is awake, pays only 1 us.
        w.post(
            Time::from_ms(1) + Time::from_us(10),
            host,
            Packet::data(1, 0, 7, 1, 9000),
        );
        w.run_until_idle();
        // Delivery means the endpoint saw the packet. We can't observe the
        // delivery time directly, but the pacer/timer machinery is driven by
        // it; instead assert the deep-sleep path doesn't drop or reorder.
        let h = w.get::<Host>(host);
        let p: &Probe = h.endpoint(7);
        assert_eq!(p.pkts.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(h.stats().delivered_pkts, 2);
    }

    #[test]
    fn remove_endpoint_frees_state_and_skips_stale_pulls() {
        let (mut w, host, nic) = setup(5);
        // Queue five pulls, then retire the flow before the pacer drains
        // them: no pull may be emitted for a removed endpoint.
        w.post_wake(Time::ZERO, host, 7 << 8);
        w.run_until(Time::ZERO); // first pull fires at t=0
        let h = w.get_mut::<Host>(host);
        assert_eq!(h.n_endpoints(), 1);
        let ep = h.remove_endpoint(7);
        assert!(ep.is_some(), "removed endpoint is handed back for harvest");
        let ep: Box<dyn Any> = ep.unwrap();
        assert!(ep.is::<Probe>());
        assert_eq!(h.n_endpoints(), 0);
        assert!(h.remove_endpoint(7).is_none(), "second removal is a no-op");
        w.run_until_idle();
        let pulls = w
            .get::<NicSink>(nic)
            .got
            .iter()
            .filter(|(_, p)| p.kind == PacketKind::Pull)
            .count();
        assert_eq!(pulls, 1, "only the pre-removal pull may go out");
        // The flow's pending timer is dropped by the miss path, not
        // delivered to a ghost.
        assert_eq!(w.get::<Host>(host).stats().unknown_flow_drops, 1);
    }

    #[test]
    fn quiet_flow_repeats_its_last_pull_until_retired() {
        let (mut w, host, nic) = setup(2);
        w.post_wake(Time::ZERO, host, 7 << 8);
        w.run_until(Time::from_us(3500));
        let ctrs = |w: &World<Packet>| -> Vec<u32> {
            let got = &w.get::<NicSink>(nic).got;
            got.iter().map(|(_, p)| p.ack).collect()
        };
        // Pulls 1 and 2 leave at 0 and 7.2 us. The 1 ms sweep is 7.2 us
        // short of an RTO of quiet; the 2 and 3 ms sweeps repeat pull 2.
        assert_eq!(ctrs(&w), vec![1, 2, 2, 2]);
        assert_eq!(w.get::<Host>(host).stats().repulls, 2);
        assert_eq!(w.get::<Host>(host).stats().pulls_sent, 2);
        // With no flow left to watch the sweep disarms, so the world idles.
        w.get_mut::<Host>(host).remove_endpoint(7);
        w.run_until_idle();
        assert_eq!(ctrs(&w).len(), 4);
    }

    #[test]
    fn reattached_flow_id_gets_a_single_clean_rr_slot() {
        // Retire a flow while its round-robin slot is still queued, then
        // reuse the id: the new flow must hold exactly one rr slot (no
        // double pull share from a stale slot).
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000);
        let mut a = Probe::new();
        a.pulls_on_start = 4;
        h.add_endpoint(7, Box::new(a));
        let host = w.add(h);
        w.post_wake(Time::ZERO, host, 7 << 8);
        w.run_until(Time::ZERO); // one pull emitted; rr slot still queued
        let h = w.get_mut::<Host>(host);
        h.remove_endpoint(7);
        let mut a2 = Probe::new();
        a2.pulls_on_start = 3;
        let mut b = Probe::new();
        b.pulls_on_start = 3;
        h.add_endpoint(7, Box::new(a2));
        h.add_endpoint(8, Box::new(b));
        w.post_wake(Time::from_us(1), host, 7 << 8);
        w.post_wake(Time::from_us(1), host, 8 << 8);
        w.run_until(Time::from_us(100));
        let flows: Vec<FlowId> = w
            .get::<NicSink>(nic)
            .got
            .iter()
            .filter(|(_, p)| p.kind == PacketKind::Pull)
            .map(|(_, p)| p.flow)
            .collect();
        // First pull from the retired incarnation, then strict alternation:
        // a stale extra slot for flow 7 would serve it twice per cycle.
        assert_eq!(flows, vec![7, 7, 8, 7, 8, 7, 8]);
    }

    /// Logs what reaches it in delivery order: `None` for a packet,
    /// `Some(token)` for a wake. Serves as both NIC and watcher.
    #[derive(Default)]
    struct Log(Vec<(Time, Option<u64>)>);
    impl Component<Packet> for Log {
        fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
            let tok = match ev {
                Event::Msg(_) => None,
                Event::Wake(tok) => Some(tok),
            };
            self.0.push((ctx.now(), tok));
        }
    }

    /// A receiver that delivers every packet and completes on a FIN.
    struct FinSink(Delivery);
    impl Endpoint for FinSink {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
            self.0.arrived(ctx);
            self.0.deliver(pkt.payload as u64, ctx);
            if pkt.flags.has(Flags::FIN) {
                self.0.complete(ctx);
            }
        }
        fn harvest(&self) -> FlowHarvest {
            self.0.harvest()
        }
    }

    /// The ledger stamps the first arrival, counts every delivered byte
    /// for the flow and its host, and completes the flow once: a
    /// completion condition that holds again (a duplicate FIN) wakes the
    /// watcher no second time and keeps the first completion instant.
    #[test]
    fn the_delivery_ledger_completes_a_flow_once() {
        let mut w: World<Packet> = World::new(9);
        let log = w.add(Log::default());
        let mut h = Host::new(4, log, Speed::gbps(10), 9000);
        h.set_watcher(log);
        h.add_endpoint(7, Box::new(FinSink(Delivery::default())));
        let host = w.add(h);
        let fin = Packet::data(1, 4, 7, 1, 9000).with_flags(Flags::FIN);
        w.post(Time::from_us(1), host, Packet::data(1, 4, 7, 0, 9000));
        w.post(Time::from_us(2), host, fin.clone());
        w.post(Time::from_us(3), host, fin);
        w.run_until_idle();
        assert_eq!(w.get::<Log>(log).0, vec![(Time::from_us(2), Some(7))]);
        let h = w.get::<Host>(host);
        let payload = Packet::data(1, 4, 7, 0, 9000).payload as u64;
        let want = FlowHarvest {
            delivered_bytes: 3 * payload,
            first_data: Some(Time::from_us(1)),
            completion_time: Some(Time::from_us(2)),
            ..FlowHarvest::default()
        };
        assert_eq!(h.harvest(7), want);
        assert_eq!(h.stats().delivered_payload_bytes, want.delivered_bytes);
    }

    /// The sender ledger starts a flow once and completes it once: an ACK
    /// after completion keeps the first instant and wakes the watcher no
    /// second time, `fct` is completion minus start, and the harvest holds
    /// only the recovery tallies, so it merges with a receiver's half.
    #[test]
    fn the_launch_ledger_starts_and_completes_once() {
        /// Times out once, resends on a NACK, completes on an ACK.
        struct AckedSource(Launch);
        impl Endpoint for AckedSource {
            fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
                self.0.start(ctx);
                ctx.timer_in(Time::from_us(1), 1);
            }
            fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
                match pkt.kind {
                    PacketKind::Nack => self.0.retransmissions += 1,
                    PacketKind::Ack => self.0.complete(ctx),
                    _ => {}
                }
            }
            fn on_timer(&mut self, _token: u8, _ctx: &mut EndpointCtx<'_, '_>) {
                self.0.timeouts += 1;
            }
            fn harvest(&self) -> FlowHarvest {
                self.0.harvest()
            }
        }
        let mut w: World<Packet> = World::new(9);
        let log = w.add(Log::default());
        let mut h = Host::new(4, log, Speed::gbps(10), 9000);
        h.set_watcher(log);
        h.add_endpoint(7, Box::new(AckedSource(Launch::default())));
        h.add_endpoint(8, Box::new(FinSink(Delivery::default())));
        let host = w.add(h);
        let fin = Packet::data(1, 4, 8, 0, 9000).with_flags(Flags::FIN);
        let ack = Packet::control(1, 4, 7, PacketKind::Ack);
        w.post_wake(Time::from_us(1), host, start_token(7));
        w.post(Time::from_us(2), host, fin);
        w.post(
            Time::from_us(3),
            host,
            Packet::control(1, 4, 7, PacketKind::Nack),
        );
        w.post(Time::from_us(4), host, ack.clone());
        w.post(Time::from_us(5), host, ack);
        w.run_until_idle();
        let (t2, t4) = (Time::from_us(2), Time::from_us(4));
        assert_eq!(w.get::<Log>(log).0, vec![(t2, Some(8)), (t4, Some(7))]);
        let h = w.get::<Host>(host);
        let tx: &AckedSource = h.endpoint(7);
        assert!(tx.0.is_complete());
        assert_eq!(tx.0.fct(), Some(Time::from_us(3)), "completion minus start");
        let want = FlowHarvest {
            retransmissions: 1,
            timeouts: 1,
            ..FlowHarvest::default()
        };
        assert_eq!(h.harvest(7), want, "only the recovery tallies");
        let rx = h.harvest(8);
        let both = rx.merge(h.harvest(7));
        assert_eq!(
            both,
            FlowHarvest {
                retransmissions: 1,
                timeouts: 1,
                ..rx
            }
        );
        if cfg!(debug_assertions) {
            w.post_wake(Time::from_us(6), host, start_token(7));
            let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                w.run_until_idle();
            }));
            let err = again.expect_err("a second start must panic");
            let msg = err.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("flow 7 started twice"));
        }
    }

    #[test]
    fn complete_flushes_sends_then_wakes_the_watcher() {
        struct Finisher;
        impl Endpoint for Finisher {
            fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
                ctx.send(Packet::control(4, pkt.src, pkt.flow, PacketKind::Ack));
                ctx.complete();
            }
        }
        let run = |watched: bool| {
            let mut w: World<Packet> = World::new(9);
            let log = w.add(Log::default());
            let mut h = Host::new(4, log, Speed::gbps(10), 9000);
            if watched {
                h.set_watcher(log);
            }
            h.add_endpoint(7, Box::new(Finisher));
            let host = w.add(h);
            w.post(Time::from_us(1), host, Packet::data(1, 4, 7, 0, 9000));
            w.run_until_idle();
            w.get::<Log>(log).0.clone()
        };
        let t = Time::from_us(1);
        // The ACK sent just before `complete()` reaches the NIC first.
        assert_eq!(run(true), vec![(t, None), (t, Some(7))]);
        assert_eq!(run(false), vec![(t, None)], "unwatched: no wake");
    }

    /// Closes its connection into time-wait on its first packet.
    struct Waiter;
    impl Endpoint for Waiter {
        fn on_packet(&mut self, _p: Packet, ctx: &mut EndpointCtx<'_, '_>) {
            ctx.enter_time_wait();
        }
    }

    #[test]
    fn timewait_table_purges_expired_entries() {
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000);
        for f in 1..=20u64 {
            h.add_endpoint(f, Box::new(Waiter));
        }
        let host = w.add(h);
        // Each flow closes 1 ms after the previous: by the time flow k
        // closes, flows < k have been out of time-wait for (k-1) MSLs.
        for f in 1..=20u64 {
            w.post(Time::from_ms(f), host, Packet::data(1, 0, f, 0, 9000));
        }
        w.run_until_idle();
        let core = &w.get::<Host>(host).core;
        assert!(
            core.time_wait.len() <= 2,
            "time-wait table must purge itself, kept {}",
            core.time_wait.len()
        );
    }

    #[test]
    fn timewait_rejects_duplicate_connection() {
        let mut w: World<Packet> = World::new(9);
        let nic = w.add(NicSink { got: vec![] });
        let mut h = Host::new(0, nic, Speed::gbps(10), 9000);
        h.add_endpoint(7, Box::new(Waiter));
        let host = w.add(h);
        let syn = Packet::data(1, 0, 7, 0, 9000).with_flags(Flags::SYN);
        w.post(Time::ZERO, host, syn.clone());
        w.run_until_idle();
        // Remove the endpoint's flow by simulating a fresh duplicate SYN for
        // the same (now closed) connection id.
        w.get_mut::<Host>(host).endpoints.remove(&7);
        w.post(Time::from_us(10), host, syn.clone());
        w.run_until_idle();
        assert_eq!(w.get::<Host>(host).stats().timewait_rejects, 1);
        // After one MSL the id may be reused.
        w.post(Time::from_ms(3), host, syn);
        w.run_until_idle();
        assert_eq!(w.get::<Host>(host).stats().timewait_rejects, 1);
        assert_eq!(w.get::<Host>(host).stats().unknown_flow_drops, 1);
    }

    #[test]
    fn merge_takes_each_field_from_its_owning_side() {
        let rx = FlowHarvest {
            delivered_bytes: 9,
            completion_time: Some(Time::from_us(3)),
            trimmed_headers: 2,
            ..FlowHarvest::default()
        };
        let tx = FlowHarvest {
            retransmissions: 4,
            rts_events: 1,
            ..FlowHarvest::default()
        };
        let both = rx.merge(tx);
        assert_eq!(both, tx.merge(rx), "merge is symmetric");
        assert_eq!((both.delivered_bytes, both.retransmissions), (9, 4));
        assert_eq!((both.trimmed_headers, both.rts_events), (2, 1));
        assert_eq!(both.completion_time, Some(Time::from_us(3)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "`retransmissions` set on both sides")]
    fn merge_rejects_a_field_set_on_both_sides() {
        let side = FlowHarvest {
            retransmissions: 1,
            ..FlowHarvest::default()
        };
        side.merge(side);
    }
}
