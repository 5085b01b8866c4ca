//! The component arena and event scheduler.
//!
//! A [`World`] owns every network element (queue, switch, host) as a
//! boxed [`Component`]. Components never hold references to each other; they
//! interact only by posting timestamped events through the [`Ctx`] handed to
//! them during dispatch. Events at equal timestamps are delivered in posting
//! order (a monotone sequence number breaks ties), which makes every run
//! bit-reproducible for a given seed.
//!
//! # Scheduling
//!
//! Two scheduler implementations share that ordering contract:
//!
//! * [`SchedulerKind::TwoTier`] (default) — the hot path. Zero-delay
//!   handoffs (`Ctx::forward`, the switch→queue and queue→host chains that
//!   dominate event counts) go to a plain FIFO "fast lane" and never touch
//!   an ordered structure; timers at a workload's hot delays
//!   (serialization, propagation, pacing) ride per-exact-delay FIFO lanes
//!   that are sorted by construction; everything else (first sightings,
//!   one-shot delays, millisecond retransmission timeouts) goes to one
//!   binary heap.
//! * [`SchedulerKind::Classic`] — the seed's single binary heap, kept as
//!   the reference implementation. The golden-trace tests assert both
//!   schedulers produce bit-identical event orderings, and the engine bench
//!   measures the speedup of one over the other.
//!
//! Why the fast lane preserves ordering: sequence numbers are assigned in
//! posting order, the clock only reaches an instant `t` after every event
//! scheduled *for* `t` from earlier instants is already in a lane or the
//! heap, and every event posted *at* `t` for `t` lands behind them in the
//! FIFO. So serving "the instant's timed events by ascending seq, then the
//! fast lane" is exactly ascending `(time, seq)` order — what the classic
//! heap produces.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::time::Time;

/// Handle to a component in its world's arena: a slot index plus the
/// slot's generation at allocation time.
///
/// Slots are reclaimed when components are [retired](World::retire) and
/// handed out again by a free list; the generation disambiguates the slot's
/// successive occupants, so an event (or a saved id) addressed to a retired
/// component can never reach the slot's new tenant — dispatch drops stale
/// events, `try_get` returns `None`, and `get`/`get_mut` panic loudly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId {
    idx: u32,
    gen: u32,
}

impl ComponentId {
    /// Placeholder for "not wired yet" tables (never dispatchable: no slot
    /// ever carries this generation at `u32::MAX`).
    pub const DANGLING: ComponentId = ComponentId {
        idx: u32::MAX,
        gen: u32::MAX,
    };

    /// The slot index (stable for the component's lifetime; reused after
    /// retirement, which is what the generation guards against).
    pub fn index(self) -> u32 {
        self.idx
    }

    /// The allocation generation of this handle's slot.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.gen == 0 {
            write!(f, "{}", self.idx)
        } else {
            write!(f, "{}v{}", self.idx, self.gen)
        }
    }
}

/// What a component receives when dispatched.
#[derive(Debug)]
pub enum Event<M> {
    /// A message (for the network crates: a packet) from another component.
    Msg(M),
    /// A timer the component set for itself; the token disambiguates
    /// multiple concurrent timers.
    Wake(u64),
}

/// A simulation actor: a queue, switch, or host.
///
/// A component is [`Any`], so [`World::get`] downcasts it for post-run
/// harvesting of statistics — the experiment harness reads results out of
/// components after `run_until` returns, so components never need shared
/// ownership of metric sinks.
pub trait Component<M>: Any + Send {
    fn handle(&mut self, ev: Event<M>, ctx: &mut Ctx<'_, M>);
    /// `as_any`/`as_any_mut` are superseded by upcasting `&dyn Component`
    /// to `&dyn Any`; they stay so older implementations still compile.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}

/// One scheduler entry, five plain words for a one-word message: a wake
/// (`msg` is `None`, `arg` its token), a message (`arg` 0), or a
/// same-instant train coalesced into one entry ([`Ctx::send_train`]: `msg`
/// is its first message, `arg` is 1 + the [`EventQueue::trains`] slot
/// holding the rest). Components never see the train form — dispatch
/// expands it into consecutive [`Event::Msg`] deliveries, each counted and
/// traced exactly as if it had been posted individually, so a train is
/// indistinguishable from the back-to-back posts it replaces (same trace
/// hash, same event count).
struct Scheduled<M> {
    at: Time,
    seq: u64,
    to: ComponentId,
    msg: Option<M>,
    arg: u64,
}

// What every post writes and every pop reads. An `Event`-in-an-enum payload
// (48 bytes) was written as 8-byte fields and copied into its lane as
// 16-byte loads: the store could not be forwarded, and that one `movups`
// held 12.4% of `permutation_k8` and 9.6% of `openloop_ndp` samples (a
// 50 µs sampling profile on a 2-vCPU x86-64 box). Plain scalars —
// `Option<Packet>` is one word, by the null niche — are written straight
// into the slot. `Box<u8>` stands for the 8-byte packet handle.
const _: () = assert!(std::mem::size_of::<Scheduled<Box<u8>>>() == 40);

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Which event-queue implementation a [`World`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Zero-delay fast lane + per-delay FIFO lanes + one heap (default).
    TwoTier,
    /// The seed's single binary heap — reference implementation.
    Classic,
}

/// Process-wide default for new worlds: two-tier unless
/// [`set_default_scheduler`] chose classic (used by benches and tests to
/// A/B the engines without threading a parameter through every harness
/// entry point).
static DEFAULT_CLASSIC: AtomicBool = AtomicBool::new(false);

/// Set the scheduler used by subsequently created worlds.
pub fn set_default_scheduler(kind: SchedulerKind) {
    DEFAULT_CLASSIC.store(kind == SchedulerKind::Classic, Ordering::Relaxed);
}

fn default_scheduler() -> SchedulerKind {
    if DEFAULT_CLASSIC.load(Ordering::Relaxed) {
        SchedulerKind::Classic
    } else {
        SchedulerKind::TwoTier
    }
}

/// A harness-level post (`World::post`, `post_wake`, `post_train`) names an
/// absolute time, so it is the one place an event can be aimed at the past
/// — which would file it in the fast lane and drag the clock backwards at
/// dispatch. Refused here, in release builds too; `Ctx` posts are
/// `now + delay` (`Ctx::wake_at` is debug-checked) and stay unchecked on
/// the hot path.
#[inline]
fn assert_not_past(at: Time, now: Time) {
    assert!(
        at >= now,
        "cannot schedule in the past: at = {at} is before now = {now}"
    );
}

/// Out-of-line panic for events addressed to a vacated (reserved or
/// never-installed) slot, keeping the dispatch loop's hot body small.
#[cold]
#[inline(never)]
fn missing_component(id: ComponentId) -> ! {
    panic!("event for missing component {id}")
}

/// Per-exact-delay FIFO lanes. A workload posts the overwhelming majority
/// of its timed events at a handful of distinct delays (wire latency,
/// tx_time quanta, pacer spacing, the RTO); since the clock is monotone,
/// posts of `now + D` for a fixed `D` arrive in ascending `(at, seq)`
/// order, so each such delay can ride a plain FIFO that is pre-sorted by
/// construction — no sift, no comparison against unrelated timers.
const MAX_LANES: usize = 16;
/// Delays above this (10 ms, in ps) never get a lane: they are RTO-scale
/// one-offs or `Time::MAX`-style sentinels, not hot-path quanta.
const LANE_MAX_DELAY_PS: u64 = 10_000_000_000;
/// Recently-missed delays remembered for promotion: a delay becomes a lane
/// on its *second* sighting, so one-shot delays (jittered pacer re-arms,
/// odd-sized last packets) never pin one of the [`MAX_LANES`] lane slots.
const LANE_CANDIDATES: usize = 8;

struct TwoTier<M> {
    /// Zero-delay posts made *at* the current instant (FIFO == seq order;
    /// all seqs here are larger than any timed event at this instant).
    fast: VecDeque<Scheduled<M>>,
    /// Every timed event that missed a lane, ordered by `(at, seq)`.
    heap: BinaryHeap<Reverse<Scheduled<M>>>,
    /// Per-exact-delay FIFO lanes (registered on a delay's second sighting,
    /// at most [`MAX_LANES`]). Each lane is sorted by `(at, seq)` by
    /// construction — see [`TwoTier::push_timed`]. The lane *keys* live in
    /// the packed side arrays below so the per-post scan and the
    /// per-instant min scan touch a couple of cache lines instead of
    /// pointer-chasing into every queue's heap buffer.
    lanes: Vec<VecDeque<Scheduled<M>>>,
    /// `lane_delays[i]` is lane i's exact delay (ps); slots past
    /// `lanes.len()` are unregistered.
    lane_delays: [u64; MAX_LANES],
    /// `lane_fronts[i]` caches lane i's front timestamp (meaningless while
    /// the lane is empty), maintained on every lane push and pop.
    /// [`TwoTier::advance`]'s earliest-instant scan reads only this array.
    lane_fronts: [u64; MAX_LANES],
    /// `lane_seqs[i]` caches lane i's front seq (meaningless while the lane
    /// is empty): what [`TwoTier::pop_current`] compares when lanes tie.
    lane_seqs: [u64; MAX_LANES],
    /// Bit i is set while lane i holds an event. Most registered lanes
    /// belong to one-off delays and sit empty, so [`TwoTier::advance`]
    /// walks these bits instead of every lane front.
    occupied: u32,
    /// The instant being served: bit i is set while lane i's front is at
    /// it, `cur_heap` while the heap's top is. Both are clear between
    /// instants (and so between `run_until` calls).
    cur_lanes: u32,
    cur_heap: bool,
    /// Ring of recently-missed lane-eligible delays (promotion candidates).
    lane_cand: [u64; LANE_CANDIDATES],
    lane_cand_idx: usize,
}

const _: () = assert!(MAX_LANES <= u32::BITS as usize);

impl<M> TwoTier<M> {
    fn new() -> TwoTier<M> {
        TwoTier {
            // Seeded at the shrink_idle floor: the first burst grows from a
            // warm base instead of doubling up from an empty buffer.
            fast: VecDeque::with_capacity(32),
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            lane_delays: [u64::MAX; MAX_LANES],
            lane_fronts: [u64::MAX; MAX_LANES],
            lane_seqs: [0; MAX_LANES],
            occupied: 0,
            cur_lanes: 0,
            cur_heap: false,
            lane_cand: [u64::MAX; LANE_CANDIDATES],
            lane_cand_idx: 0,
        }
    }

    #[inline]
    fn push_timed(&mut self, now: Time, s: Scheduled<M>) {
        // The heap push stays inline: out of line (`inline(never)`) it cost
        // the post/pop kernel a quarter of its rate and bought nothing end
        // to end.
        let Some(i) = self.lane_for(s.at.as_ps() - now.as_ps()) else {
            return self.heap.push(Reverse(s));
        };
        let q = &mut self.lanes[i];
        // Monotone clock + fixed delay + monotone seq: the lane stays
        // sorted by `(at, seq)` with plain appends.
        debug_assert!(q.back().is_none_or(|b| (b.at, b.seq) < (s.at, s.seq)));
        if q.is_empty() {
            self.lane_fronts[i] = s.at.as_ps();
            self.lane_seqs[i] = s.seq;
            self.occupied |= 1 << i;
        }
        q.push_back(s);
    }

    /// The lane of `delay`, registering one on the delay's second sighting;
    /// `None` sends the post to the heap. Packed key scan: all registered
    /// delays fit in two cache lines, so the common hit never touches a
    /// queue it won't use.
    #[inline]
    fn lane_for(&mut self, delay: u64) -> Option<usize> {
        let n = self.lanes.len();
        if let Some(i) = self.lane_delays[..n].iter().position(|&d| d == delay) {
            return Some(i);
        }
        if delay > LANE_MAX_DELAY_PS || n == MAX_LANES {
            return None;
        }
        if self.lane_cand.contains(&delay) {
            self.lane_delays[n] = delay;
            self.lanes.push(VecDeque::with_capacity(32));
            return Some(n);
        }
        self.lane_cand[self.lane_cand_idx] = delay;
        self.lane_cand_idx = (self.lane_cand_idx + 1) % LANE_CANDIDATES;
        None
    }

    /// Find the earliest timed instant and, if it is due by `horizon`,
    /// make it current: record which lanes front it (`cur_lanes`) and
    /// whether the heap's top is at it (`cur_heap`). Nothing is moved — the
    /// events are served out of their lanes in place by
    /// [`TwoTier::pop_current`] — and nothing is committed when the instant
    /// lies beyond the horizon, so an interrupted run resumes consistently
    /// whatever the harness posts in between.
    #[inline]
    fn advance(&mut self, horizon: Time) -> bool {
        debug_assert!(self.cur_lanes == 0 && !self.cur_heap);
        // Reads only the packed front cache of the occupied lanes.
        let mut t_lane = u64::MAX;
        let mut mask = 0u32;
        let mut m = self.occupied;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let f = self.lane_fronts[i];
            if f < t_lane {
                t_lane = f;
                mask = 1 << i;
            } else if f == t_lane {
                mask |= 1 << i;
            }
        }
        let t_heap = match self.heap.peek() {
            Some(Reverse(top)) => top.at.as_ps(),
            None if mask == 0 => return false,
            // An empty heap compares as `Time::MAX`, which no lane reaches.
            None => u64::MAX,
        };
        if t_lane.min(t_heap) > horizon.as_ps() {
            return false;
        }
        self.cur_lanes = if t_lane <= t_heap { mask } else { 0 };
        self.cur_heap = t_heap <= t_lane;
        true
    }

    /// Hand out the lowest-seq event of the current instant, straight from
    /// its lane (or the heap). Each source yields its same-instant run in
    /// ascending seq, so picking the smallest front seq each time is the
    /// exact global posting order. Nothing posted while the instant is
    /// served can join it — a timed post lands strictly later, a zero-delay
    /// one in `fast` — so the mask only ever loses bits.
    #[inline]
    fn pop_current(&mut self) -> Scheduled<M> {
        let mask = self.cur_lanes;
        let lane = if !self.cur_heap && mask & (mask - 1) == 0 {
            // The hot path: one lane owns the instant outright.
            mask.trailing_zeros() as usize
        } else {
            let mut best = usize::MAX;
            let mut best_seq = match self.heap.peek() {
                Some(Reverse(top)) if self.cur_heap => top.seq,
                _ => u64::MAX,
            };
            let mut m = mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.lane_seqs[i] < best_seq {
                    best_seq = self.lane_seqs[i];
                    best = i;
                }
            }
            if best == usize::MAX {
                let Reverse(s) = self.heap.pop().expect("cur_heap says the top is due");
                self.cur_heap = self.heap.peek().is_some_and(|Reverse(top)| top.at == s.at);
                return s;
            }
            best
        };
        let q = &mut self.lanes[lane];
        let s = q.pop_front().expect("cur_lanes says the lane is due");
        match q.front() {
            Some(f) => {
                self.lane_fronts[lane] = f.at.as_ps();
                self.lane_seqs[lane] = f.seq;
                if f.at != s.at {
                    self.cur_lanes &= !(1 << lane);
                }
            }
            None => {
                self.occupied &= !(1 << lane);
                self.cur_lanes &= !(1 << lane);
            }
        }
        s
    }

    #[inline]
    fn pop_due(&mut self, horizon: Time) -> Option<Scheduled<M>> {
        loop {
            if self.cur_lanes != 0 || self.cur_heap {
                return Some(self.pop_current());
            }
            if let Some(front) = self.fast.front() {
                if front.at <= horizon {
                    return self.fast.pop_front();
                }
                return None;
            }
            if !self.advance(horizon) {
                return None;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.fast.is_empty() && self.heap.is_empty() && self.occupied == 0
    }

    /// Release burst-sized capacity held since the last traffic peak.
    ///
    /// During a run the lanes and the `fast` queue deliberately never
    /// shrink — reusing their allocations is what keeps the steady state
    /// allocation-free. The flip side is that one incast burst pins
    /// its high-water allocation for the rest of the process, which matters
    /// for long sweep campaigns running many worlds. Called between sweep
    /// points (see `World::shrink_idle`), this trims everything back to a
    /// small per-structure floor while keeping pending events intact.
    fn shrink_idle(&mut self) {
        // Floor keeps the common steady-state capacity so the next burst
        // doesn't start from zero.
        const KEEP: usize = 32;
        self.fast.shrink_to(KEEP);
        self.heap.shrink_to(KEEP);
        // Delay lanes keep their registration (the hot delays of the next
        // sweep point are usually the same) but release burst capacity.
        for q in &mut self.lanes {
            q.shrink_to(KEEP);
        }
    }
}

/// Per-kind tally of posted events (see [`World::event_kind_counts`]).
///
/// The forward/timed split mirrors the two-tier scheduler's tiers: zero
/// delay (`forward`) is the dominant packet-handoff class that rides the
/// FIFO fast lane; positive-delay messages (`timed_msg`, wire arrivals and
/// serialization completions) and timer wakes (`wake`) go through the delay
/// lanes or the heap.
/// Train posts count one per carried message, matching `events_processed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventKindCounts {
    /// Zero-delay message handoffs (`Ctx::forward` / same-instant sends).
    pub forward: u64,
    /// Messages posted with a positive delay (wire arrivals, TX completions).
    pub timed_msg: u64,
    /// Timer wakes (pacers, retransmission timeouts, TX-done wakes).
    pub wake: u64,
}

impl EventKindCounts {
    pub fn total(self) -> u64 {
        self.forward + self.timed_msg + self.wake
    }
}

impl std::ops::Add for EventKindCounts {
    type Output = EventKindCounts;
    fn add(self, rhs: EventKindCounts) -> EventKindCounts {
        EventKindCounts {
            forward: self.forward + rhs.forward,
            timed_msg: self.timed_msg + rhs.timed_msg,
            wake: self.wake + rhs.wake,
        }
    }
}

impl std::iter::Sum for EventKindCounts {
    fn sum<I: Iterator<Item = EventKindCounts>>(iter: I) -> EventKindCounts {
        iter.fold(EventKindCounts::default(), |a, b| a + b)
    }
}

/// The event queue: sequence numbering + one of the two scheduler
/// implementations.
struct EventQueue<M> {
    /// Monotone posting counter; doubles as the equal-timestamp
    /// tie-breaker.
    seq: u64,
    /// Messages carried by trains beyond the first, so
    /// `events_posted = seq + train_extra` keeps counting individual events.
    train_extra: u64,
    kinds: EventKindCounts,
    /// Messages 2..n of each pending train, by slot; a slot is emptied
    /// (its Vec handed to dispatch) and listed in `train_free` when the
    /// train's entry is popped.
    trains: Vec<Vec<M>>,
    train_free: Vec<usize>,
    imp: QueueImpl<M>,
}

// One queue per world, so the variant size gap (the lanes' inline key
// arrays) costs nothing — boxing it would put a pointer chase on every
// scheduler touch instead.
#[allow(clippy::large_enum_variant)]
enum QueueImpl<M> {
    TwoTier(TwoTier<M>),
    Classic(BinaryHeap<Reverse<Scheduled<M>>>),
}

impl<M> EventQueue<M> {
    fn new(kind: SchedulerKind) -> EventQueue<M> {
        let imp = match kind {
            SchedulerKind::TwoTier => QueueImpl::TwoTier(TwoTier::new()),
            SchedulerKind::Classic => QueueImpl::Classic(BinaryHeap::new()),
        };
        EventQueue {
            seq: 0,
            train_extra: 0,
            kinds: EventKindCounts::default(),
            trains: Vec::new(),
            train_free: Vec::new(),
            imp,
        }
    }

    /// Post a message (`msg` is `Some`, `arg` 0) or a wake (`None`, `arg`
    /// its token).
    #[inline]
    fn post(&mut self, now: Time, at: Time, to: ComponentId, msg: Option<M>, arg: u64) {
        match msg {
            None => self.kinds.wake += 1,
            Some(_) if at <= now => self.kinds.forward += 1,
            Some(_) => self.kinds.timed_msg += 1,
        }
        self.push(now, at, to, msg, arg);
    }

    /// Post a same-instant message train as one scheduler entry. The train
    /// occupies a single `(at, seq)` position, so it dispatches exactly
    /// where the first of the equivalent back-to-back posts would have —
    /// and since those posts would have held consecutive seqs (they come
    /// from a single handler invocation with nothing posted in between),
    /// expanding the train in order reproduces the reference delivery
    /// sequence bit-for-bit.
    fn post_train(&mut self, now: Time, at: Time, to: ComponentId, mut msgs: Vec<M>) {
        if msgs.len() <= 1 {
            // A one-element train is posted as a plain message so the
            // degenerate case stays byte-identical to an unbatched post.
            if let Some(m) = msgs.pop() {
                self.post(now, at, to, Some(m), 0);
            }
            return;
        }
        let n = msgs.len() as u64;
        if at <= now {
            self.kinds.forward += n;
        } else {
            self.kinds.timed_msg += n;
        }
        self.train_extra += n - 1;
        let first = msgs.remove(0);
        let slot = self.train_free.pop().unwrap_or_else(|| {
            self.trains.push(Vec::new());
            self.trains.len() - 1
        });
        self.trains[slot] = msgs;
        self.push(now, at, to, Some(first), slot as u64 + 1);
    }

    /// The rest of the train whose entry carried `arg` (its slot + 1),
    /// freeing the slot for the next train.
    fn take_train(&mut self, arg: u64) -> Vec<M> {
        let slot = (arg - 1) as usize;
        self.train_free.push(slot);
        std::mem::take(&mut self.trains[slot])
    }

    #[inline(always)]
    fn push(&mut self, now: Time, at: Time, to: ComponentId, msg: Option<M>, arg: u64) {
        debug_assert!(at >= now, "cannot schedule in the past");
        self.seq += 1;
        let s = Scheduled {
            at,
            seq: self.seq,
            to,
            msg,
            arg,
        };
        match &mut self.imp {
            QueueImpl::TwoTier(t) => {
                if s.at <= now {
                    // Zero-delay fast lane: the dominant event class
                    // (queue→switch→host handoffs) skips the lanes and
                    // heap entirely.
                    t.fast.push_back(s);
                } else {
                    t.push_timed(now, s);
                }
            }
            QueueImpl::Classic(h) => h.push(Reverse(s)),
        }
    }

    #[inline]
    fn pop_due(&mut self, horizon: Time) -> Option<Scheduled<M>> {
        match &mut self.imp {
            QueueImpl::TwoTier(t) => t.pop_due(horizon),
            QueueImpl::Classic(h) => {
                if h.peek().is_some_and(|Reverse(top)| top.at <= horizon) {
                    h.pop().map(|Reverse(s)| s)
                } else {
                    None
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        match &self.imp {
            QueueImpl::TwoTier(t) => t.is_empty(),
            QueueImpl::Classic(h) => h.is_empty(),
        }
    }

    fn shrink_idle(&mut self) {
        match &mut self.imp {
            QueueImpl::TwoTier(t) => t.shrink_idle(),
            QueueImpl::Classic(h) => {
                if h.capacity() > 32 {
                    h.shrink_to(32);
                }
            }
        }
    }
}

/// A deferred structural mutation of the world, requested from inside a
/// dispatch (where only a [`Ctx`] is available) and executed with full
/// `&mut World` access immediately after the current component's handler
/// returns — see [`Ctx::defer`]. It is handed the id of the component
/// that deferred it, so an op that acts on that component alone captures
/// nothing, and boxing it allocates nothing.
pub type WorldOp<M> = Box<dyn FnOnce(&mut World<M>, ComponentId) + Send>;

/// Dispatch context: the only way a component can affect the world.
pub struct Ctx<'a, M> {
    now: Time,
    self_id: ComponentId,
    queue: &'a mut EventQueue<M>,
    rng: &'a mut SmallRng,
    deferred: &'a mut Vec<(ComponentId, WorldOp<M>)>,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently being dispatched.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Deterministic world RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Deliver `msg` to component `to` after `delay` (zero-delay handoff is
    /// the normal way to "call" a neighbouring component).
    pub fn send(&mut self, to: ComponentId, msg: M, delay: Time) {
        self.queue
            .post(self.now, self.now + delay, to, Some(msg), 0);
    }

    /// Deliver `msg` to `to` immediately. Under the two-tier scheduler this
    /// is a FIFO append — no ordered structure is touched — while still
    /// preserving deterministic `(time, seq)` ordering.
    pub fn forward(&mut self, to: ComponentId, msg: M) {
        self.send(to, msg, Time::ZERO);
    }

    /// Deliver a burst of messages to `to` after `delay` as **one**
    /// scheduler entry (burst transmission batching). Every message is
    /// still dispatched, counted and traced individually, in order, at the
    /// same instant — the train is exactly equivalent to calling
    /// [`Ctx::send`] once per message back-to-back, but costs a single
    /// lane/heap insertion instead of one per message.
    ///
    /// Exactness caveat: the equivalence holds only when the replaced
    /// individual posts would have been consecutive — i.e. the caller emits
    /// the whole train within one handler invocation without posting
    /// anything else in between. Callers that interleave other posts must
    /// flush the train first (see the host's TX train buffering).
    pub fn send_train(&mut self, to: ComponentId, msgs: Vec<M>, delay: Time) {
        self.queue.post_train(self.now, self.now + delay, to, msgs);
    }

    /// Set a timer on the current component.
    pub fn wake_in(&mut self, delay: Time, token: u64) {
        self.wake_other(self.self_id, delay, token);
    }

    /// Set a timer on the current component at an absolute time.
    pub fn wake_at(&mut self, at: Time, token: u64) {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        self.queue.post(self.now, at, self.self_id, None, token);
    }

    /// Wake a *different* component (a host waking its watcher when one of
    /// its flows completes).
    pub fn wake_other(&mut self, to: ComponentId, delay: Time, token: u64) {
        self.queue.post(self.now, self.now + delay, to, None, token);
    }

    /// Request a structural world mutation (attach or retire component
    /// subgraphs, install endpoints, ...) that cannot be expressed through
    /// the event queue. The op runs with `&mut World` as soon as the
    /// current handler returns, before the next event is dispatched, so
    /// ordering stays deterministic. Ops queued by an op run in the same
    /// drain, at the same instant. The op is called with the world and
    /// this component's id.
    pub fn defer(&mut self, op: impl FnOnce(&mut World<M>, ComponentId) + Send + 'static) {
        self.deferred.push((self.self_id, Box::new(op)));
    }
}

/// Running FNV-1a hash over the dispatched event trace; pinned by the
/// golden-trace determinism tests.
#[derive(Clone, Copy, Debug)]
struct TraceHash {
    hash: u64,
    len: u64,
}

impl TraceHash {
    fn new() -> TraceHash {
        TraceHash {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        let mut h = self.hash;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
    }

    fn record<M>(&mut self, at: Time, to: ComponentId, ev: &Event<M>) {
        self.mix(at.as_ps());
        let kind = match ev {
            Event::Msg(_) => 0u64,
            Event::Wake(tok) => 1 | (tok << 1),
        };
        // The slot index alone keeps the hash identical to the pre-
        // retirement format for worlds that never recycle a slot (all the
        // pinned golden traces).
        self.mix((to.idx as u64) << 32 | (kind & 0xFFFF_FFFF));
        self.len += 1;
    }
}

/// One arena slot: its current generation plus occupancy state.
enum Slot<M> {
    /// Reclaimed; queued on the free list for reuse.
    Free,
    /// Id handed out by [`World::reserve`], component not yet installed.
    Reserved,
    Occupied(Box<dyn Component<M>>),
}

struct SlotEntry<M> {
    gen: u32,
    state: Slot<M>,
}

/// The simulation world: component arena + event queue + clock + RNG.
///
/// The arena is a free-list slab: [`World::retire`] reclaims a slot and
/// bumps its generation, so live state tracks *current* components, not
/// everything ever attached. [`World::live_components`] /
/// [`World::peak_live_components`] gauge that population.
pub struct World<M> {
    slots: Vec<SlotEntry<M>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    stale_dropped: u64,
    deferred: Vec<(ComponentId, WorldOp<M>)>,
    deferred_spare: Vec<(ComponentId, WorldOp<M>)>,
    queue: EventQueue<M>,
    now: Time,
    rng: SmallRng,
    events_processed: u64,
    trace: Option<TraceHash>,
}

impl<M: 'static> World<M> {
    /// A world on the process-default scheduler (two-tier unless
    /// overridden by [`set_default_scheduler`]).
    pub fn new(seed: u64) -> World<M> {
        World::with_scheduler(seed, default_scheduler())
    }

    /// A world on an explicit scheduler implementation.
    pub fn with_scheduler(seed: u64, kind: SchedulerKind) -> World<M> {
        World {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
            stale_dropped: 0,
            deferred: Vec::new(),
            deferred_spare: Vec::new(),
            queue: EventQueue::new(kind),
            now: Time::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            events_processed: 0,
            trace: None,
        }
    }

    /// Start hashing the `(time, component, kind)` trace of every
    /// dispatched event (used by the golden-trace determinism tests).
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceHash::new());
    }

    /// The `(hash, length)` of the dispatched-event trace so far.
    /// Panics if tracing was never enabled.
    pub fn trace_hash(&self) -> (u64, u64) {
        let t = self.trace.as_ref().expect("enable_trace() was not called");
        (t.hash, t.len)
    }

    /// Allocate a slot (reusing a retired one when available) and return
    /// its id at the slot's current generation.
    fn alloc(&mut self, state: Slot<M>) -> ComponentId {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(idx) = self.free.pop() {
            let entry = &mut self.slots[idx as usize];
            debug_assert!(matches!(entry.state, Slot::Free));
            entry.state = state;
            ComponentId {
                idx,
                gen: entry.gen,
            }
        } else {
            self.slots.push(SlotEntry { gen: 0, state });
            ComponentId {
                idx: (self.slots.len() - 1) as u32,
                gen: 0,
            }
        }
    }

    /// Register a component, returning its id.
    pub fn add<C: Component<M> + 'static>(&mut self, c: C) -> ComponentId {
        self.alloc(Slot::Occupied(Box::new(c)))
    }

    /// Reserve a slot to break wiring cycles: get the id now, install later.
    pub fn reserve(&mut self) -> ComponentId {
        self.alloc(Slot::Reserved)
    }

    /// Install a component into a reserved slot.
    pub fn install<C: Component<M> + 'static>(&mut self, id: ComponentId, c: C) {
        let entry = &mut self.slots[id.idx as usize];
        assert!(entry.gen == id.gen, "slot {id} was retired");
        assert!(
            matches!(entry.state, Slot::Reserved),
            "slot {id} already installed"
        );
        entry.state = Slot::Occupied(Box::new(c));
    }

    /// Retire a component: drop its state, reclaim the slot for reuse and
    /// bump the slot generation so any event still in flight to `id` (or
    /// any stale copy of the handle) can never reach the slot's next
    /// occupant. Idempotent: retiring an already-retired id is a no-op
    /// returning `false`.
    pub fn retire(&mut self, id: ComponentId) -> bool {
        let Some(entry) = self.slots.get_mut(id.idx as usize) else {
            return false;
        };
        if entry.gen != id.gen || matches!(entry.state, Slot::Free) {
            return false;
        }
        entry.state = Slot::Free;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        true
    }

    /// Components currently attached (occupied + reserved slots) — the
    /// live-state gauge the retirement machinery keeps O(concurrent).
    pub fn live_components(&self) -> usize {
        self.live
    }

    /// High-water mark of [`World::live_components`].
    pub fn peak_live_components(&self) -> usize {
        self.peak_live
    }

    /// Events that arrived for a retired slot and were dropped at dispatch.
    pub fn stale_events_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Post a message to a component at an absolute time (harness-level).
    /// Panics if `at` is before [`World::now`].
    pub fn post(&mut self, at: Time, to: ComponentId, msg: M) {
        assert_not_past(at, self.now);
        self.queue.post(self.now, at, to, Some(msg), 0);
    }

    /// Post a wake token to a component at an absolute time (harness-level).
    /// Panics if `at` is before [`World::now`].
    pub fn post_wake(&mut self, at: Time, to: ComponentId, token: u64) {
        assert_not_past(at, self.now);
        self.queue.post(self.now, at, to, None, token);
    }

    /// Post a same-instant message train to a component at an absolute time
    /// as one scheduler entry (harness-level [`Ctx::send_train`]).
    /// Panics if `at` is before [`World::now`].
    pub fn post_train(&mut self, at: Time, to: ComponentId, msgs: Vec<M>) {
        assert_not_past(at, self.now);
        self.queue.post_train(self.now, at, to, msgs);
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total events posted so far (train posts count one per message).
    pub fn events_posted(&self) -> u64 {
        self.queue.seq + self.queue.train_extra
    }

    /// Per-kind tally of every event posted so far: zero-delay forwards,
    /// positive-delay messages and timer wakes.
    pub fn event_kind_counts(&self) -> EventKindCounts {
        self.queue.kinds
    }

    /// Release burst-sized scheduler capacity accumulated since the last
    /// traffic peak, keeping all pending events. The scheduler's queues
    /// intentionally never shrink during a run (capacity reuse is what
    /// keeps the steady state allocation-free); call this between sweep points so a
    /// long campaign doesn't hold peak-burst memory.
    pub fn shrink_idle(&mut self) {
        self.queue.shrink_idle();
    }

    /// Run until the event queue empties or `horizon` passes.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        let start = self.events_processed;
        while let Some(s) = self.queue.pop_due(horizon) {
            debug_assert!(s.at >= self.now, "time went backwards");
            self.now = s.at;
            let ev = match s.msg {
                None => Event::Wake(s.arg),
                Some(m) if s.arg == 0 => Event::Msg(m),
                Some(first) => {
                    self.dispatch_train(s.to, first, s.arg);
                    continue;
                }
            };
            self.dispatch_one(s.to, ev);
        }
        // Advance the clock to the horizon only if we drained everything
        // before it; otherwise the clock stays at the last dispatched event.
        if self.queue.is_empty() && horizon != Time::MAX {
            self.now = self.now.max(horizon);
        }
        self.events_processed - start
    }

    /// Deliver one event to one component at the current instant — the
    /// shared hot path of [`World::run_until`] for single events and
    /// expanded train elements. `inline(always)`: it must stay merged into
    /// the dispatch loop — an outlined call would move the `Event` by
    /// value once more per dispatched event.
    #[inline(always)]
    fn dispatch_one(&mut self, to: ComponentId, ev: Event<M>) {
        let entry = &mut self.slots[to.idx as usize];
        if entry.gen != to.gen {
            // Stale event to a retired slot: the generation check is
            // what makes retirement safe — the slot's next occupant
            // never sees its predecessor's traffic.
            self.stale_dropped += 1;
            return;
        }
        self.events_processed += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(self.now, to, &ev);
        }
        // Split borrow: the component slot and the event queue / RNG are
        // disjoint fields, so dispatch hands out a `Ctx` without
        // vacating the slot (the seed's take/re-insert dance is gone).
        let Slot::Occupied(comp) = &mut entry.state else {
            missing_component(to)
        };
        let mut ctx = Ctx {
            now: self.now,
            self_id: to,
            queue: &mut self.queue,
            rng: &mut self.rng,
            deferred: &mut self.deferred,
        };
        comp.handle(ev, &mut ctx);
        if !self.deferred.is_empty() {
            self.drain_deferred();
        }
    }

    /// Expand a coalesced train into consecutive deliveries at this
    /// instant. Per-element generation checks and deferred drains keep
    /// this bit-identical to the individual posts it replaces (a component
    /// retired mid-train drops the rest as stale, exactly as separate
    /// events would have). The train's slot is free before its first
    /// delivery, for the trains that delivery posts.
    #[inline(never)]
    fn dispatch_train(&mut self, to: ComponentId, first: M, arg: u64) {
        let rest = self.queue.take_train(arg);
        self.dispatch_one(to, Event::Msg(first));
        for m in rest {
            self.dispatch_one(to, Event::Msg(m));
        }
    }

    /// Drain deferred world ops before the next dispatch: attach / retire
    /// requests made mid-handler run here, with full `&mut World`, at the
    /// current instant. Ops an op defers run in the same drain. Out of
    /// line: the dispatch loop only pays a length check per event.
    ///
    /// The batch being run swaps places with `deferred_spare`, so both
    /// buffers keep their capacity and a steady `Ctx::defer` allocates
    /// only the boxed op (nothing for an op that captures nothing).
    #[inline(never)]
    fn drain_deferred(&mut self) {
        while !self.deferred.is_empty() {
            let mut ops = std::mem::take(&mut self.deferred_spare);
            std::mem::swap(&mut ops, &mut self.deferred);
            for (by, op) in ops.drain(..) {
                op(self, by);
            }
            self.deferred_spare = ops;
        }
    }

    /// Run until no events remain.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }

    /// Immutable access to a component, downcast to its concrete type.
    ///
    /// Panics if the id is invalid, retired, or the type does not match —
    /// all are harness bugs, not recoverable conditions.
    pub fn get<C: 'static>(&self, id: ComponentId) -> &C {
        let entry = &self.slots[id.idx as usize];
        assert!(entry.gen == id.gen, "component {id} was retired");
        let Slot::Occupied(c) = &entry.state else {
            panic!("component {id} vacated")
        };
        let c: &dyn Any = &**c;
        c.downcast_ref::<C>()
            .unwrap_or_else(|| panic!("component {id} has unexpected type"))
    }

    /// Mutable access to a component, downcast to its concrete type.
    pub fn get_mut<C: 'static>(&mut self, id: ComponentId) -> &mut C {
        let entry = &mut self.slots[id.idx as usize];
        assert!(entry.gen == id.gen, "component {id} was retired");
        let Slot::Occupied(c) = &mut entry.state else {
            panic!("component {id} vacated")
        };
        let c: &mut dyn Any = &mut **c;
        c.downcast_mut::<C>()
            .unwrap_or_else(|| panic!("component {id} has unexpected type"))
    }

    /// Try to view a component as `C`: `None` for retired/stale ids,
    /// reserved slots and type mismatches.
    pub fn try_get<C: 'static>(&self, id: ComponentId) -> Option<&C> {
        let entry = self.slots.get(id.idx as usize)?;
        if entry.gen != id.gen {
            return None;
        }
        match &entry.state {
            Slot::Occupied(c) => (&**c as &dyn Any).downcast_ref::<C>(),
            _ => None,
        }
    }

    /// Number of live (non-retired) components.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate over live component ids, at their current generations (for
    /// post-run stat sweeps).
    pub fn ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, e)| {
            (!matches!(e.state, Slot::Free)).then_some(ComponentId {
                idx: i as u32,
                gen: e.gen,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_kinds() -> [SchedulerKind; 2] {
        [SchedulerKind::TwoTier, SchedulerKind::Classic]
    }

    struct Counter {
        ticks: u64,
        msgs: Vec<(u64, u32)>,
    }
    impl Component<u32> for Counter {
        fn handle(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            match ev {
                Event::Msg(m) => self.msgs.push((ctx.now().as_ps(), m)),
                Event::Wake(_) => self.ticks += 1,
            }
        }
    }

    fn counter() -> Counter {
        Counter {
            ticks: 0,
            msgs: Vec::new(),
        }
    }

    #[test]
    fn delivers_in_time_order() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            w.post(Time::from_us(5), id, 5);
            w.post(Time::from_us(1), id, 1);
            w.post(Time::from_us(3), id, 3);
            w.run_until_idle();
            let c = w.get::<Counter>(id);
            assert_eq!(
                c.msgs.iter().map(|m| m.1).collect::<Vec<_>>(),
                vec![1, 3, 5]
            );
        }
    }

    #[test]
    fn equal_timestamps_preserve_posting_order() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            for i in 0..100 {
                w.post(Time::from_us(7), id, i);
            }
            w.run_until_idle();
            let c = w.get::<Counter>(id);
            assert_eq!(
                c.msgs.iter().map(|m| m.1).collect::<Vec<_>>(),
                (0..100).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn horizon_stops_dispatch_but_keeps_events() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            w.post(Time::from_us(1), id, 1);
            w.post(Time::from_ms(1), id, 2);
            w.run_until(Time::from_us(10));
            assert_eq!(w.get::<Counter>(id).msgs.len(), 1);
            w.run_until_idle();
            assert_eq!(w.get::<Counter>(id).msgs.len(), 2);
        }
    }

    #[test]
    fn posts_straddling_an_interrupted_run_stay_ordered() {
        // A run stopped at a horizon far before the next (heap-resident)
        // event must not let later posts into the gap get reordered.
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            w.post(Time::from_ms(5), id, 99); // far future: heap tier
            w.run_until(Time::from_us(10));
            assert_eq!(w.get::<Counter>(id).msgs.len(), 0);
            // Posted after the interrupted run, due before the far one.
            w.post(Time::from_us(20), id, 1);
            w.post(Time::from_ms(1), id, 2);
            w.run_until_idle();
            let got: Vec<u32> = w.get::<Counter>(id).msgs.iter().map(|m| m.1).collect();
            assert_eq!(got, vec![1, 2, 99]);
        }
    }

    #[test]
    fn sparse_far_apart_instants_dispatch_in_order() {
        // One event every ~100 µs: each pop jumps the clock a long way.
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            for i in 0..50u64 {
                w.post(Time::from_ps(i * 100_663_296 + 7), id, i as u32);
            }
            w.run_until_idle();
            let got: Vec<u32> = w.get::<Counter>(id).msgs.iter().map(|m| m.1).collect();
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn events_near_time_max_are_dispatched() {
        // A wake posted at Time::MAX (a "never" sentinel) must still be
        // dispatched: an empty lane table (front cache at u64::MAX) must
        // not shadow it.
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            w.post(Time::from_us(1), id, 1);
            w.post(Time::MAX, id, 3);
            w.post(Time::from_ps(u64::MAX - 5), id, 2);
            w.run_until_idle();
            let got: Vec<u32> = w.get::<Counter>(id).msgs.iter().map(|m| m.1).collect();
            assert_eq!(got, vec![1, 2, 3]);
            assert_eq!(w.now(), Time::MAX);
        }
    }

    struct PingPong {
        peer: ComponentId,
        left: u32,
        bounces: u32,
    }
    impl Component<u32> for PingPong {
        fn handle(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            if let Event::Msg(v) = ev {
                self.bounces += 1;
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(self.peer, v + 1, Time::from_ns(100));
                }
            }
        }
    }

    #[test]
    fn components_message_each_other() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let a = w.reserve();
            let b = w.add(PingPong {
                peer: a,
                left: 10,
                bounces: 0,
            });
            w.install(
                a,
                PingPong {
                    peer: b,
                    left: 10,
                    bounces: 0,
                },
            );
            w.post(Time::ZERO, a, 0);
            w.run_until_idle();
            let total = w.get::<PingPong>(a).bounces + w.get::<PingPong>(b).bounces;
            assert_eq!(total, 21); // initial + 20 bounces
            assert_eq!(w.now(), Time::from_ns(2000));
        }
    }

    struct SelfTimer {
        fired: Vec<u64>,
    }
    impl Component<u32> for SelfTimer {
        fn handle(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            match ev {
                Event::Msg(_) => {
                    ctx.wake_in(Time::from_us(2), 7);
                    ctx.wake_at(Time::from_us(1), 9);
                }
                Event::Wake(tok) => self.fired.push(tok),
            }
        }
    }

    #[test]
    fn timers_fire_in_order() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(SelfTimer { fired: vec![] });
            w.post(Time::ZERO, id, 0);
            w.run_until_idle();
            assert_eq!(w.get::<SelfTimer>(id).fired, vec![9, 7]);
        }
    }

    struct ZeroDelayChain {
        next: Option<ComponentId>,
        got: Vec<u32>,
    }
    impl Component<u32> for ZeroDelayChain {
        fn handle(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            if let Event::Msg(v) = ev {
                self.got.push(v);
                if let Some(n) = self.next {
                    ctx.forward(n, v + 1);
                }
            }
        }
    }

    #[test]
    fn fast_lane_interleaves_with_timed_events_in_seq_order() {
        // Two timed events at the same instant; the first spawns a
        // zero-delay chain. The second timed event (earlier seq) must still
        // beat the chained zero-delay messages (later seqs). 1 µs is
        // lane-eligible (the pair splits between heap and lane); 50 ms is
        // not, so both events sit in the heap and its same-instant staging
        // is what keeps the order.
        for kind in both_kinds() {
            for at in [Time::from_us(1), Time::from_ms(50)] {
                let mut w: World<u32> = World::with_scheduler(1, kind);
                let order = w.add(counter());
                let c = w.add(ZeroDelayChain {
                    next: Some(order),
                    got: vec![],
                });
                let b = w.add(ZeroDelayChain {
                    next: Some(c),
                    got: vec![],
                });
                // seq order at `at`: msg->b (chains to c, then order), msg->order.
                w.post(at, b, 10);
                w.post(at, order, 77);
                w.run_until_idle();
                // The direct post reaches `order` before the chained one.
                assert_eq!(
                    w.get::<Counter>(order).msgs,
                    vec![(at.as_ps(), 77), (at.as_ps(), 12)],
                    "kind {kind:?} at {at:?}"
                );
                assert_eq!(w.get::<ZeroDelayChain>(c).got, vec![11]);
                assert_eq!(w.events_processed(), 4);
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64, kind: SchedulerKind) -> Vec<(u64, u32)> {
            let mut w: World<u32> = World::with_scheduler(seed, kind);
            let id = w.add(counter());
            // Use the rng through a component to make sure rng state is part
            // of the reproducibility contract.
            struct R {
                target: ComponentId,
                n: u32,
            }
            impl Component<u32> for R {
                fn handle(&mut self, _ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
                    use rand::Rng;
                    for _ in 0..self.n {
                        let d: u64 = ctx.rng().gen_range(0..1000);
                        let v: u32 = ctx.rng().gen_range(0..100);
                        ctx.send(self.target, v, Time::from_ns(d));
                    }
                }
            }
            let r = w.add(R { target: id, n: 50 });
            w.post_wake(Time::ZERO, r, 0);
            w.run_until_idle();
            w.get::<Counter>(id).msgs.clone()
        }
        for kind in both_kinds() {
            assert_eq!(trace(99, kind), trace(99, kind));
            assert_ne!(trace(99, kind), trace(100, kind));
        }
        // And across schedulers: identical seed, identical delivery order.
        assert_eq!(
            trace(99, SchedulerKind::TwoTier),
            trace(99, SchedulerKind::Classic)
        );
    }

    #[test]
    fn schedulers_agree_on_trace_hash() {
        fn run(kind: SchedulerKind) -> (u64, u64) {
            let mut w: World<u32> = World::with_scheduler(42, kind);
            w.enable_trace();
            let a = w.reserve();
            let b = w.add(PingPong {
                peer: a,
                left: 40,
                bounces: 0,
            });
            w.install(
                a,
                PingPong {
                    peer: b,
                    left: 40,
                    bounces: 0,
                },
            );
            let t = w.add(SelfTimer { fired: vec![] });
            w.post(Time::ZERO, a, 0);
            w.post(Time::from_ns(150), t, 0);
            // Heap tier; a Wake, because SelfTimer's Msg handler arms
            // absolute timers that would lie 2 ms in the past here.
            w.post_wake(Time::from_ms(2), t, 1);
            w.run_until_idle();
            w.trace_hash()
        }
        let (h1, n1) = run(SchedulerKind::TwoTier);
        let (h2, n2) = run(SchedulerKind::Classic);
        assert_eq!(n1, n2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn run_returns_event_count() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            for i in 0..10 {
                w.post(Time::from_us(i), id, i as u32);
            }
            assert_eq!(w.run_until(Time::from_us(4)), 5);
            assert_eq!(w.run_until_idle(), 5);
        }
    }

    /// `get`, `get_mut` and `try_get` reach a component as its own type
    /// (downcasting the boxed component, not the box), and `try_get` is
    /// `None` for a wrong type, a reserved slot and a retired id.
    #[test]
    fn downcasts_see_each_component_as_its_own_type() {
        let mut w: World<u32> = World::new(1);
        let a = w.add(counter());
        let b = w.add(SelfTimer { fired: vec![5] });
        let reserved = w.reserve();
        w.get_mut::<Counter>(a).ticks = 3;
        assert_eq!(w.get::<Counter>(a).ticks, 3);
        assert_eq!(w.get::<SelfTimer>(b).fired, vec![5]);
        assert_eq!(w.try_get::<Counter>(a).map(|c| c.ticks), Some(3));
        assert!(w.try_get::<SelfTimer>(b).is_some());
        assert!(w.try_get::<SelfTimer>(a).is_none(), "wrong type");
        assert!(w.try_get::<Counter>(reserved).is_none(), "reserved slot");
        assert!(w.retire(a));
        assert!(w.try_get::<Counter>(a).is_none(), "retired id");
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn downcast_mismatch_panics() {
        let mut w: World<u32> = World::new(1);
        let id = w.add(counter());
        let _ = w.get::<SelfTimer>(id);
    }

    #[test]
    fn retire_reclaims_slot_and_bumps_generation() {
        let mut w: World<u32> = World::with_scheduler(1, SchedulerKind::TwoTier);
        let a = w.add(counter());
        let b = w.add(counter());
        assert_eq!(w.live_components(), 2);
        assert!(w.retire(a));
        assert!(!w.retire(a), "second retire is a no-op");
        assert_eq!(w.live_components(), 1);
        // The next add reuses a's slot under a fresh generation.
        let c = w.add(counter());
        assert_eq!(c.index(), a.index());
        assert_ne!(c.generation(), a.generation());
        assert_eq!(w.live_components(), 2);
        assert_eq!(w.peak_live_components(), 2);
        // Stale handles are dead: try_get misses, ids() yields only live.
        assert!(w.try_get::<Counter>(a).is_none());
        assert!(w.try_get::<Counter>(c).is_some());
        let ids: Vec<ComponentId> = w.ids().collect();
        assert_eq!(ids, vec![c, b]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn stale_event_never_reaches_recycled_slot() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let victim = w.add(counter());
            // An event is in flight to `victim` when it is retired...
            w.post(Time::from_us(10), victim, 99);
            w.retire(victim);
            // ...and its slot is immediately recycled.
            let tenant = w.add(counter());
            assert_eq!(tenant.index(), victim.index());
            w.post(Time::from_us(20), tenant, 7);
            w.run_until_idle();
            let c = w.get::<Counter>(tenant);
            assert_eq!(
                c.msgs.iter().map(|m| m.1).collect::<Vec<_>>(),
                vec![7],
                "the stale event must not leak to the new occupant"
            );
            assert_eq!(w.stale_events_dropped(), 1);
            assert_eq!(w.events_processed(), 1);
        }
    }

    struct Retirer {
        target: ComponentId,
        spawn_replacement: bool,
    }
    impl Component<u32> for Retirer {
        fn handle(&mut self, _ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            let target = self.target;
            let spawn = self.spawn_replacement;
            ctx.defer(move |w, _| {
                w.retire(target);
                if spawn {
                    let id = w.add(Counter {
                        ticks: 0,
                        msgs: Vec::new(),
                    });
                    // Deferred ops can post into the world they mutate.
                    w.post(w.now(), id, 1);
                }
            });
        }
    }

    #[test]
    fn train_matches_individual_posts_exactly() {
        // A coalesced train must be indistinguishable from the back-to-back
        // posts it replaces: same delivery order, same event count, same
        // trace hash — on both schedulers, for both the zero-delay and the
        // timed form.
        for kind in both_kinds() {
            for delay in [Time::ZERO, Time::from_us(3)] {
                let run = |train: bool| {
                    let mut w: World<u32> = World::with_scheduler(5, kind);
                    w.enable_trace();
                    let id = w.add(counter());
                    let at = Time::from_us(1) + delay;
                    w.post(Time::from_us(1), id, 100); // unrelated earlier event
                    if train {
                        w.post_train(at, id, vec![1, 2, 3, 4]);
                    } else {
                        for v in [1, 2, 3, 4] {
                            w.post(at, id, v);
                        }
                    }
                    w.post(at, id, 200); // later seq, same instant: after the train
                    w.run_until_idle();
                    let msgs = w.get::<Counter>(id).msgs.clone();
                    (
                        msgs,
                        w.events_processed(),
                        w.events_posted(),
                        w.trace_hash(),
                    )
                };
                assert_eq!(run(false), run(true), "kind {kind:?} delay {delay:?}");
                let (msgs, processed, posted, _) = run(true);
                assert_eq!(
                    msgs.iter().map(|m| m.1).collect::<Vec<_>>(),
                    vec![100, 1, 2, 3, 4, 200]
                );
                assert_eq!(processed, 6);
                assert_eq!(posted, 6);
            }
        }
    }

    #[test]
    fn empty_and_singleton_trains_degenerate_cleanly() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            w.post_train(Time::from_us(1), id, vec![]);
            w.post_train(Time::from_us(1), id, vec![9]);
            w.run_until_idle();
            assert_eq!(w.get::<Counter>(id).msgs, vec![(1_000_000, 9)]);
            assert_eq!(w.events_posted(), 1);
        }
    }

    #[test]
    fn train_elements_to_a_retired_slot_drop_as_stale() {
        // A component that retires itself (via a deferred op) on its first
        // message must not see the rest of the train.
        struct SelfRetire {
            got: u32,
        }
        impl Component<u32> for SelfRetire {
            fn handle(&mut self, _ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
                self.got += 1;
                ctx.defer(|w, me| {
                    w.retire(me);
                });
            }
        }
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(SelfRetire { got: 0 });
            w.post_train(Time::from_us(1), id, vec![1, 2, 3]);
            w.run_until_idle();
            assert_eq!(w.events_processed(), 1);
            assert_eq!(w.stale_events_dropped(), 2);
        }
    }

    #[test]
    fn event_kind_counters_track_posts() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            w.post(Time::from_us(1), id, 0); // timed msg (now == 0 < at)
            w.post_wake(Time::from_us(2), id, 7); // wake
            w.post(Time::ZERO, id, 1); // at == now: forward lane
            w.post_train(Time::from_us(3), id, vec![1, 2, 3]); // 3 timed msgs
            w.run_until_idle();
            let k = w.event_kind_counts();
            assert_eq!(k.forward, 1);
            assert_eq!(k.timed_msg, 4);
            assert_eq!(k.wake, 1);
            assert_eq!(k.total(), 6);
            assert_eq!(w.events_posted(), 6);
        }
    }

    #[test]
    fn shrink_idle_preserves_pending_events() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let id = w.add(counter());
            // A burst well past the shrink floor; 500 distinct delays, so
            // all of it sits in the heap.
            for i in 0..500u64 {
                w.post(Time::from_ns(10 + i * 70), id, i as u32);
            }
            w.post(Time::from_ms(50), id, 9999);
            w.run_until(Time::from_ns(10 + 120 * 70));
            w.shrink_idle();
            w.run_until_idle();
            let got: Vec<u32> = w.get::<Counter>(id).msgs.iter().map(|m| m.1).collect();
            let mut want: Vec<u32> = (0..500).collect();
            want.push(9999);
            assert_eq!(got, want, "shrinking mid-run must not drop or reorder");
        }
    }

    #[test]
    fn hot_delays_get_promoted_to_lanes_on_second_sighting() {
        let mut w: World<u32> = World::with_scheduler(1, SchedulerKind::TwoTier);
        let id = w.add(counter());
        // Ten posts at one delay: the first is a candidate sighting (and
        // lands in the heap), the second promotes the lane, the rest ride it.
        for i in 0..10 {
            w.post(Time::from_ns(100), id, i);
        }
        {
            let QueueImpl::TwoTier(t) = &w.queue.imp else {
                panic!("two-tier world")
            };
            assert_eq!(t.lanes.len(), 1);
            assert_eq!(t.lane_delays[0], Time::from_ns(100).as_ps());
            assert_eq!(t.lanes[0].len(), 9, "first sighting stays in the heap");
            assert_eq!(
                t.lane_fronts[0],
                Time::from_ns(100).as_ps(),
                "front cache must track the lane head"
            );
            assert_eq!(t.heap.len(), 1);
        }
        // The heap event and the lane run tie at one instant: the merge
        // must still deliver in exact posting order.
        w.run_until_idle();
        let got: Vec<u32> = w.get::<Counter>(id).msgs.iter().map(|m| m.1).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn one_shot_and_oversized_delays_never_pin_lanes() {
        let mut w: World<u32> = World::with_scheduler(1, SchedulerKind::TwoTier);
        let id = w.add(counter());
        // Distinct delays seen once each: candidates only, no lanes.
        for i in 1..20u64 {
            w.post(Time::from_ns(i * 97), id, i as u32);
        }
        // RTO-scale and sentinel delays are lane-ineligible even repeated.
        for _ in 0..4 {
            w.post(Time::from_ms(50), id, 777);
            w.post(Time::MAX, id, 888);
        }
        {
            let QueueImpl::TwoTier(t) = &w.queue.imp else {
                panic!("two-tier world")
            };
            assert!(t.lanes.is_empty(), "no delay repeated within the ring");
        }
        w.run_until_idle();
        assert_eq!(w.get::<Counter>(id).msgs.len(), 27);
    }

    /// Register `delays` (ns) as lanes: a delay is promoted on its second
    /// sighting, so post each twice from `now` and drain.
    fn world_with_lanes(kind: SchedulerKind, delays: &[u64]) -> (World<u32>, ComponentId) {
        let mut w: World<u32> = World::with_scheduler(1, kind);
        let id = w.add(counter());
        for &d in delays {
            w.post(Time::from_ns(d), id, 0);
            w.post(Time::from_ns(d), id, 0);
        }
        w.run_until_idle();
        w.get_mut::<Counter>(id).msgs.clear();
        if let QueueImpl::TwoTier(t) = &w.queue.imp {
            assert_eq!(t.lanes.len(), delays.len());
        }
        (w, id)
    }

    fn delivered(w: &World<u32>, id: ComponentId) -> Vec<u32> {
        w.get::<Counter>(id).msgs.iter().map(|m| m.1).collect()
    }

    /// Move the clock to `at` exactly (`run_until` only advances an idle
    /// world's clock): a wake the counter tallies apart from its messages.
    fn walk_clock_to(w: &mut World<u32>, id: ComponentId, at: Time) {
        w.post_wake(at, id, 0);
        w.run_until(at);
        assert_eq!(w.now(), at);
    }

    #[test]
    fn three_lanes_and_the_heap_tied_at_one_instant_deliver_in_posting_order() {
        for kind in both_kinds() {
            let (mut w, id) = world_with_lanes(kind, &[100, 250, 450]);
            // Every post below is for the one instant `t`; which source it
            // rides is decided by the clock reading it is posted from. The
            // heap's run is split around a lane's, so the instant cannot
            // be served source by source.
            let t = w.now() + Time::from_ms(20);
            let mut v = 0u32;
            let mut post_run = |w: &mut World<u32>, n: u32| {
                for _ in 0..n {
                    w.post(t, id, v);
                    v += 1;
                }
            };
            post_run(&mut w, 2); // 20 ms: lane-ineligible, heap
            walk_clock_to(&mut w, id, t - Time::from_ns(450));
            post_run(&mut w, 3); // lane 450
            walk_clock_to(&mut w, id, t - Time::from_ns(320));
            post_run(&mut w, 1); // a one-shot delay: heap again
            walk_clock_to(&mut w, id, t - Time::from_ns(250));
            post_run(&mut w, 3); // lane 250
            walk_clock_to(&mut w, id, t - Time::from_ns(100));
            post_run(&mut w, 3); // lane 100
            if let QueueImpl::TwoTier(tt) = &w.queue.imp {
                assert_eq!(tt.heap.len(), 3);
                assert_eq!(tt.lanes.len(), 3);
                assert!(tt.lanes.iter().all(|q| q.len() == 3));
                assert!(tt.lane_fronts[..3].iter().all(|&f| f == t.as_ps()));
            }
            w.run_until_idle();
            assert_eq!(delivered(&w, id), (0..12).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn an_interrupted_run_commits_nothing_to_the_next_instant() {
        for kind in both_kinds() {
            let (mut w, id) = world_with_lanes(kind, &[100, 250]);
            // The pending instant `t` is fronted by the heap and a lane.
            let t = w.now() + Time::from_us(10);
            w.post(t, id, 90); // one-shot 10 µs delay: heap
            walk_clock_to(&mut w, id, t - Time::from_ns(250));
            let now = w.now();
            w.post(t, id, 91); // lane 250
                               // A horizon short of `t`: the run returns with nothing served
                               // and nothing committed to `t`.
            assert_eq!(w.run_until(now + Time::from_ns(50)), 0);
            if let QueueImpl::TwoTier(tt) = &w.queue.imp {
                assert_eq!((tt.cur_lanes, tt.cur_heap), (0, false));
            }
            // The harness then posts one event *earlier* than `t` (it rides
            // a lane) and, after it, one at `now` (fast lane): the next run
            // serves both before `t`, in (time, seq) order.
            w.post(now + Time::from_ns(100), id, 2);
            w.post(now, id, 1);
            w.run_until_idle();
            assert_eq!(delivered(&w, id), vec![1, 2, 90, 91], "{kind:?}");
        }
    }

    #[test]
    fn a_heap_event_at_time_max_is_not_sixteen_empty_lanes() {
        // Empty lanes' front caches start at u64::MAX — the very instant of
        // a `Time::MAX` heap event. The instant belongs to the heap alone.
        let (mut w, id) = world_with_lanes(SchedulerKind::TwoTier, &[100, 250, 400]);
        w.post(Time::MAX, id, 7);
        w.post(Time::MAX, id, 8);
        {
            let QueueImpl::TwoTier(tt) = &mut w.queue.imp else {
                panic!("two-tier world")
            };
            assert!(tt.advance(Time::MAX));
            assert_eq!((tt.cur_lanes, tt.cur_heap), (0, true));
        }
        w.run_until_idle();
        assert_eq!(delivered(&w, id), vec![7, 8]);
        assert_eq!(w.now(), Time::MAX);
    }

    #[test]
    fn occupied_names_the_nonempty_lanes_through_a_tie_with_the_heap() {
        // Sixteen lanes, all but one drained by the instant `t`, where the
        // last lane's event ties with two heap events — one posted before
        // it, one after. Delivery must match Classic's, and `occupied` must
        // name exactly the non-empty lanes after every pop, an interrupted
        // run and a shrink.
        fn check_occupied(w: &World<u32>) {
            if let QueueImpl::TwoTier(tt) = &w.queue.imp {
                let nonempty = (0..tt.lanes.len())
                    .filter(|&i| !tt.lanes[i].is_empty())
                    .fold(0u32, |m, i| m | 1 << i);
                assert_eq!(tt.occupied, nonempty);
            }
        }
        /// Pop (without dispatching) everything due by `horizon`.
        fn pop_until(w: &mut World<u32>, horizon: Time) -> Vec<(u64, Option<u32>)> {
            let mut got = Vec::new();
            while let Some(s) = w.queue.pop_due(horizon) {
                check_occupied(w);
                got.push((s.at.as_ps(), s.msg));
            }
            got
        }
        let delays: Vec<u64> = (0..16).map(|i| 100 + 50 * i).collect();
        let run = |kind| {
            let (mut w, id) = world_with_lanes(kind, &delays);
            let t = w.now() + Time::from_ms(20);
            w.post(t, id, 0); // lane-ineligible: heap
            let from = t - Time::from_ns(850);
            walk_clock_to(&mut w, id, from);
            for (v, &d) in (1..).zip(&delays) {
                w.post(from + Time::from_ns(d), id, v); // lane v-1; v = 16 lands at t
            }
            // An interrupted run drains lanes 0..=8.
            walk_clock_to(&mut w, id, t - Time::from_ns(333));
            check_occupied(&w);
            w.post(t, id, 17); // a one-shot delay: heap, after the lane's seq
            let mut got = pop_until(&mut w, t - Time::from_ns(1));
            w.shrink_idle();
            check_occupied(&w);
            if let QueueImpl::TwoTier(tt) = &w.queue.imp {
                assert_eq!(
                    (tt.occupied, tt.cur_lanes, tt.cur_heap),
                    (1 << 15, 0, false)
                );
            }
            got.extend(pop_until(&mut w, Time::MAX));
            (delivered(&w, id), got)
        };
        let two_tier = run(SchedulerKind::TwoTier);
        assert_eq!(two_tier.0, (1..=9).collect::<Vec<_>>());
        let tail: Vec<Option<u32>> = two_tier.1.iter().map(|&(_, m)| m).collect();
        assert_eq!(tail, [10, 11, 12, 13, 14, 15, 0, 16, 17].map(Some));
        assert_eq!(two_tier, run(SchedulerKind::Classic));
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past: at = 1us is before now = 5us")]
    fn posting_into_the_past_is_refused_two_tier() {
        post_into_the_past(SchedulerKind::TwoTier);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past: at = 1us is before now = 5us")]
    fn posting_into_the_past_is_refused_classic() {
        post_into_the_past(SchedulerKind::Classic);
    }

    fn post_into_the_past(kind: SchedulerKind) {
        let mut w: World<u32> = World::with_scheduler(1, kind);
        let id = w.add(counter());
        w.post(Time::from_us(5), id, 0);
        w.run_until_idle();
        w.post_wake(Time::from_us(1), id, 0);
    }

    #[test]
    fn lanes_are_results_invisible() {
        // The lanes and the classic heap must produce byte-identical
        // deliveries, trace hashes and counters on a workload mixing hot
        // repeated delays, one-shots, same-instant collisions, trains,
        // zero-delay chains, heap-tier timers, interrupted runs and mid-run
        // shrinks.
        type RunResult = (Vec<(u64, u32)>, Vec<u32>, (u64, u64), u64);
        fn run(kind: SchedulerKind) -> RunResult {
            let mut w: World<u32> = World::with_scheduler(7, kind);
            w.enable_trace();
            let id = w.add(counter());
            let chain = w.add(ZeroDelayChain {
                next: Some(id),
                got: vec![],
            });
            let delays = [100u64, 100, 250, 100, 250, 65_536, 100, 777, 250, 100];
            let mut v = 0u32;
            for round in 0..6u64 {
                let base = Time::from_ns(round * 300);
                w.run_until(base); // advance `now` so delays repeat per round
                for &d in &delays {
                    w.post(base + Time::from_ns(d), id, v);
                    v += 1;
                }
                // Same-instant collision between a laned delay and a train.
                w.post_train(base + Time::from_ns(100), id, vec![v, v + 1, v + 2]);
                v += 3;
                w.post(base + Time::from_ns(100), chain, v); // fast-lane chain
                v += 1;
                w.post(base + Time::from_ms(3), id, v); // heap tier
                v += 1;
                w.shrink_idle();
            }
            w.run_until_idle();
            (
                w.get::<Counter>(id).msgs.clone(),
                w.get::<ZeroDelayChain>(chain).got.clone(),
                w.trace_hash(),
                w.events_processed(),
            )
        }
        assert_eq!(run(SchedulerKind::TwoTier), run(SchedulerKind::Classic));
    }

    #[test]
    fn deferred_ops_retire_and_attach_mid_run() {
        for kind in both_kinds() {
            let mut w: World<u32> = World::with_scheduler(1, kind);
            let victim = w.add(counter());
            let r = w.add(Retirer {
                target: victim,
                spawn_replacement: true,
            });
            // The victim has a timer due after its retirement instant.
            w.post(Time::from_us(9), victim, 5);
            w.post_wake(Time::from_us(1), r, 0);
            w.run_until_idle();
            assert_eq!(w.live_components(), 2, "victim gone, replacement live");
            assert_eq!(w.stale_events_dropped(), 1);
            // The replacement reused the victim's slot and got its message.
            let replacement = w
                .ids()
                .find(|&id| id.index() == victim.index())
                .expect("slot reused");
            assert_ne!(replacement, victim);
            assert_eq!(w.get::<Counter>(replacement).msgs, vec![(1_000_000, 1)]);
        }
    }
}
