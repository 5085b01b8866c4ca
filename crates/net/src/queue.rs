//! The link: one egress port's serializer, its wire, and its counters.
//!
//! A [`Queue`] is every directional link of every fabric. It serializes
//! packets at a fixed [`Speed`] and delivers each to the next component
//! after the wire's propagation delay. *Which* packet it buffers, trims,
//! marks, refuses and serves next is the business of its
//! [`Discipline`] (see [`crate::discipline`]); everything the disciplines
//! share lives here, once:
//!
//! * the TX clock — `in_service` plus the TX-done wake;
//! * pause state, and the PFC Xoff/Xon edge: when a lossless discipline's
//!   occupancy crosses Xoff the link pauses every upstream transmitter that
//!   can feed it until Xon; pause frames cascade, reproducing DCQCN's
//!   collateral damage. (Real PFC pauses per ingress buffer; pausing all
//!   feeders is the standard egress-queue simplification and errs on the
//!   side of *more* collateral damage);
//! * down / flush / restore and rate renegotiation (fabric chaos);
//! * return-to-sender (§3.2.4): a header the discipline refused, or a data
//!   packet arriving at a dead port, is re-injected into the owning switch
//!   with its addresses swapped;
//! * the wire: propagation delay and corruption loss;
//! * one [`Tap`], through which every trim, mark, drop, bounce and
//!   forwarded packet bumps its [`QueueStats`] counter and reaches the
//!   flight recorder.

use ndp_sim::{Component, ComponentId, Ctx, Event, Speed, Time};
use rand::Rng;

use crate::discipline::{Admit, Discipline};
use crate::flight::{FlightHook, HopKind};
use crate::packet::{Packet, PacketKind};

const TX_DONE: u64 = 1;
/// Delay for a PFC pause frame to reach the upstream transmitter.
const PAUSE_DELAY: Time = Time::from_ns(500);

/// Where in the topology a queue sits — used for the paper's
/// trim-location statistics (§3.2.4: almost all trims happen at ToR
/// downlinks, almost none on core uplinks when senders load-balance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    HostNic,
    TorUp,
    TorDown,
    AggUp,
    AggDown,
    CoreDown,
    Other,
}

/// Counters harvested by the experiment harness after a run.
#[derive(Clone, Debug, Default)]
pub struct QueueStats {
    pub forwarded_pkts: u64,
    pub forwarded_bytes: u64,
    /// Payload bytes of *untrimmed* data packets forwarded (goodput).
    pub payload_bytes: u64,
    pub trimmed: u64,
    pub bounced: u64,
    pub dropped_data: u64,
    pub dropped_ctrl: u64,
    pub ecn_marked: u64,
    pub xoff_sent: u64,
    pub max_occupancy_bytes: u64,
    /// Packets lost to a down link: buffered packets flushed when the link
    /// failed, the packet on the wire at the failure instant, and arrivals
    /// while down that could not be bounced back to their sender.
    pub dropped_down: u64,
}

/// The link's single observation point: every per-packet [`QueueStats`]
/// counter is bumped here and nowhere else, and the same call feeds the
/// opt-in flight recorder (`None` — the default — costs one branch and
/// never posts events or draws RNG, so a hook cannot move a golden trace).
pub(crate) struct Tap<'a>(&'a mut QueueStats, Option<&'a FlightHook>, Time);

impl Tap<'_> {
    /// A tap on `stats` alone, for driving a discipline without a link.
    #[cfg(test)]
    pub(crate) fn detached(stats: &mut QueueStats) -> Tap<'_> {
        Tap(stats, None, Time::ZERO)
    }

    #[inline]
    pub(crate) fn note(&mut self, kind: HopKind, pkt: &Packet) {
        let Tap(st, flight, now) = self;
        match kind {
            HopKind::Dequeue => {
                st.forwarded_pkts += 1;
                st.forwarded_bytes += pkt.size as u64;
                if pkt.kind == PacketKind::Data && !pkt.is_trimmed() {
                    st.payload_bytes += pkt.payload as u64;
                }
            }
            HopKind::Trim => st.trimmed += 1,
            HopKind::Bounce => st.bounced += 1,
            HopKind::EcnMark => st.ecn_marked += 1,
            HopKind::DropDown => st.dropped_down += 1,
            HopKind::Drop if pkt.is_control() => st.dropped_ctrl += 1,
            HopKind::Drop => st.dropped_data += 1,
            HopKind::Enqueue | HopKind::Reroute => {}
        }
        if let Some(h) = flight {
            h.record(kind, *now, pkt);
        }
    }
}

/// One egress port: link mechanics around a [`Discipline`].
pub struct Queue {
    rate: Speed,
    /// Cached exact picoseconds-per-byte of `rate` (0 when inexact):
    /// turns the per-packet serialization-time division into a multiply
    /// on the TX hot path. Maintained by every `rate` assignment.
    ppb: u64,
    /// Construction-time rate, so a failed or degraded link can renegotiate
    /// back to its original speed on recovery ([`Queue::restore`]).
    nominal: Speed,
    /// Administratively down: nothing serializes, buffered packets were
    /// flushed at the failure instant, and new arrivals are dropped — or,
    /// on an RTS-capable port, trimmed and returned to their sender so
    /// multipath sources re-spray around the dead link immediately.
    down: bool,
    next: ComponentId,
    class: LinkClass,
    disc: Discipline,
    /// Packet currently being serialized (removed from the queue so that
    /// tail-trimming can never touch a packet already on the wire).
    in_service: Option<Packet>,
    /// Number of outstanding Xoff pauses applied to *us* by downstream.
    paused: u32,
    /// Egress queues one hop upstream that a lossless port pauses/resumes,
    /// and whether it currently holds them paused.
    upstreams: Vec<ComponentId>,
    xoff_active: bool,
    /// The owning switch, where a returned-to-sender header is re-injected.
    /// `None` disables RTS (headers are dropped instead, as in the NetFPGA
    /// implementation).
    bounce_to: Option<ComponentId>,
    /// Propagation delay of the wire (ZERO = hand over in the same tick).
    wire_delay: Time,
    /// Probability that a transmitted packet is corrupted and lost.
    wire_corrupt_prob: f64,
    pub wire_corrupted: u64,
    pub stats: QueueStats,
    flight: Option<FlightHook>,
}

impl Queue {
    /// A link: `disc` in front of a serializer at `rate`, whose packets
    /// arrive at `next` after `wire_delay` as one scheduled event. (The
    /// name dates from when a second wiring put a separate wire component
    /// behind the queue; it is kept because the frozen benchmark package
    /// under `examples/benchmark` calls it.)
    pub fn fused(
        rate: Speed,
        next: ComponentId,
        wire_delay: Time,
        class: LinkClass,
        disc: Discipline,
    ) -> Queue {
        Queue {
            rate,
            ppb: rate.ps_per_byte_exact(),
            nominal: rate,
            down: false,
            next,
            class,
            disc,
            in_service: None,
            paused: 0,
            upstreams: Vec::new(),
            xoff_active: false,
            bounce_to: None,
            wire_delay,
            wire_corrupt_prob: 0.0,
            wire_corrupted: 0,
            stats: QueueStats::default(),
            flight: None,
        }
    }

    /// Attach (or detach, with `None`) a flight-recorder hook. Purely
    /// observational — see [`Tap`].
    pub fn set_flight_hook(&mut self, hook: Option<FlightHook>) {
        self.flight = hook;
    }

    /// Enable fault injection on the wire: lose each transmitted packet
    /// with probability `p`. Exercises the transports' retransmission
    /// timeouts — per §3.2, with trimming an RTO should only ever fire for
    /// corrupted (truly lost) packets.
    pub fn with_wire_corruption(mut self, p: f64) -> Queue {
        assert!((0.0..=1.0).contains(&p));
        self.wire_corrupt_prob = p;
        self
    }

    pub fn class(&self) -> LinkClass {
        self.class
    }

    pub fn rate(&self) -> Speed {
        self.rate
    }

    /// Change the link rate (used by failure-injection experiments where a
    /// 10 Gb/s link renegotiates to 1 Gb/s, §3.2.3/Fig 22). A packet already
    /// being serialized finishes at the old rate.
    pub fn set_rate(&mut self, rate: Speed) {
        self.rate = rate;
        self.ppb = rate.ps_per_byte_exact();
    }

    /// The rate this queue was built with — what a recovered link
    /// renegotiates back to.
    pub fn nominal_rate(&self) -> Speed {
        self.nominal
    }

    /// The component transmitted packets arrive at.
    pub fn next_hop(&self) -> ComponentId {
        self.next
    }

    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Hard-fail or revive the link. Going down flushes every buffered
    /// packet (counted, but not flight-recorded: there is no clock outside
    /// an event) and the packet on the wire is lost at its TX-done instant;
    /// while down, arrivals are dropped or bounced. Coming back up leaves
    /// the rate untouched — use [`Queue::restore`] for full recovery. A
    /// lossless queue that paused its upstreams keeps them paused until the
    /// first packet transits the revived link (the Xon check lives on the
    /// dequeue path), which errs on the side of more collateral damage.
    pub fn set_down(&mut self, down: bool) {
        if down && !self.down {
            let mut tap = Tap(&mut self.stats, None, Time::ZERO);
            while let Some(p) = self.disc.pop() {
                tap.note(HopKind::DropDown, &p);
            }
        }
        self.down = down;
    }

    /// Full recovery: link up at its construction-time rate.
    pub fn restore(&mut self) {
        self.down = false;
        self.set_rate(self.nominal);
    }

    /// Enable return-to-sender (NDP software switch behaviour, §3.2.4):
    /// `switch` is the port's owner.
    pub fn set_bounce_to(&mut self, switch: ComponentId) {
        assert!(
            matches!(self.disc, Discipline::Ndp(_)),
            "bounce_to only applies to NDP queues"
        );
        self.bounce_to = Some(switch);
    }

    /// Register the upstream transmitters this (lossless) queue may pause.
    pub fn set_upstreams(&mut self, ups: Vec<ComponentId>) {
        assert!(
            self.disc.pfc().is_some(),
            "upstreams only apply to lossless queues"
        );
        self.upstreams = ups;
    }

    /// The owning switch a turned-away data packet is bounced through, if
    /// return-to-sender is enabled on this port.
    pub fn bounce_to(&self) -> Option<ComponentId> {
        self.bounce_to
    }

    /// The upstream transmitters this queue pauses, in pause order.
    pub fn upstreams(&self) -> &[ComponentId] {
        &self.upstreams
    }

    /// Bytes currently waiting (not counting the packet on the wire).
    pub fn occupancy_bytes(&self) -> u64 {
        self.disc.occupancy_bytes()
    }

    pub fn queued_packets(&self) -> usize {
        self.disc.queued_packets()
    }

    fn tap(&mut self, now: Time) -> Tap<'_> {
        Tap(&mut self.stats, self.flight.as_ref(), now)
    }

    /// A packet this port cannot carry. Data on an RTS port goes back to
    /// its sender through the owning switch, trimmed, unless it is already
    /// on its way back (bounced once only); anything else is lost as
    /// `loss` (`Drop` or `DropDown`).
    fn turn_away(&mut self, mut pkt: Packet, loss: HopKind, ctx: &mut Ctx<'_, Packet>) {
        let bounce_to = self.bounce_to;
        let mut tap = self.tap(ctx.now());
        match bounce_to {
            Some(sw) if pkt.kind == PacketKind::Data && !pkt.is_rts() => {
                if !pkt.is_trimmed() {
                    pkt.trim();
                    tap.note(HopKind::Trim, &pkt);
                }
                pkt.bounce_to_sender();
                tap.note(HopKind::Bounce, &pkt);
                ctx.forward(sw, pkt);
            }
            _ => tap.note(loss, &pkt),
        }
    }

    /// PFC pause/resume bookkeeping — link-local control, rare by design;
    /// kept out of line so the per-packet dispatch body stays compact.
    #[inline(never)]
    fn on_pause(&mut self, xoff: bool, ctx: &mut Ctx<'_, Packet>) {
        if xoff {
            self.paused += 1;
        } else {
            debug_assert!(self.paused > 0, "resume without pause");
            self.paused = self.paused.saturating_sub(1);
            self.start_tx_if_possible(ctx);
        }
    }

    /// The PFC edge of a lossless port: Xoff is checked as occupancy rises
    /// (after an admit), Xon as it falls (after a dequeue).
    fn pfc_edge(&mut self, rising: bool, ctx: &mut Ctx<'_, Packet>) {
        let Some((xoff, xon)) = self.disc.pfc() else {
            return;
        };
        let occ = self.disc.occupancy_bytes();
        let crossed = if rising {
            !self.xoff_active && occ > xoff
        } else {
            self.xoff_active && occ <= xon
        };
        if crossed {
            self.xoff_active = rising;
            self.stats.xoff_sent += rising as u64;
            for &up in &self.upstreams {
                let frame = Packet::control(0, 0, 0, PacketKind::Pause { xoff: rising });
                ctx.send(up, frame, PAUSE_DELAY);
            }
        }
    }

    fn start_tx_if_possible(&mut self, ctx: &mut Ctx<'_, Packet>) {
        if self.in_service.is_some() || self.paused > 0 || self.down {
            return;
        }
        if let Some(pkt) = self.disc.pop() {
            self.serialize(pkt, ctx);
        }
    }

    fn serialize(&mut self, pkt: Packet, ctx: &mut Ctx<'_, Packet>) {
        // Exact-rate links (all standard speeds) serialize with one
        // multiply; the division only runs for renegotiated oddballs.
        let t = if self.ppb != 0 {
            Time::from_ps(pkt.size as u64 * self.ppb)
        } else {
            self.rate.tx_time(pkt.size as u64)
        };
        self.in_service = Some(pkt);
        ctx.wake_in(t, TX_DONE);
    }

    fn enqueue(&mut self, pkt: Packet, ctx: &mut Ctx<'_, Packet>) {
        // Built in place: `tap` and `disc` are borrowed side by side below.
        let mut tap = Tap(&mut self.stats, self.flight.as_ref(), ctx.now());
        tap.note(HopKind::Enqueue, &pkt);
        if self.down {
            // Down-link admission: data on an RTS-capable port goes back to
            // its sender (the same §3.2.4 mechanism as a header-queue
            // overflow, so the source's path penalty reacts at RTT
            // timescales); everything else is lost.
            return self.turn_away(pkt, HopKind::DropDown, ctx);
        }
        let idle = self.in_service.is_none() && self.paused == 0;
        match self.disc.admit(pkt, idle, ctx.rng(), &mut tap) {
            Admit::Queued => {}
            // Alone in the port, as a push and pop would have left it.
            Admit::Serve(pkt) => {
                let occ = self.stats.max_occupancy_bytes.max(pkt.size as u64);
                self.stats.max_occupancy_bytes = occ;
                return self.serialize(pkt, ctx);
            }
            Admit::Refused(pkt) => self.turn_away(pkt, HopKind::Drop, ctx),
        }
        self.pfc_edge(true, ctx);
        let occ = self.disc.occupancy_bytes();
        if occ > self.stats.max_occupancy_bytes {
            self.stats.max_occupancy_bytes = occ;
        }
        self.start_tx_if_possible(ctx);
    }

    /// TX-done: the packet leaves the serializer and crosses the wire. The
    /// corruption coin is drawn only when corruption is enabled, so a
    /// healthy link consumes no RNG.
    fn transmit(&mut self, pkt: Packet, ctx: &mut Ctx<'_, Packet>) {
        if self.down {
            // The wire died while this packet was on it.
            self.tap(ctx.now()).note(HopKind::DropDown, &pkt);
            return;
        }
        self.tap(ctx.now()).note(HopKind::Dequeue, &pkt);
        if self.wire_corrupt_prob > 0.0 && ctx.rng().gen::<f64>() < self.wire_corrupt_prob {
            self.wire_corrupted += 1;
        } else if self.wire_delay.is_zero() {
            ctx.forward(self.next, pkt);
        } else {
            ctx.send(self.next, pkt, self.wire_delay);
        }
        self.pfc_edge(false, ctx);
        self.start_tx_if_possible(ctx);
    }
}

impl Component<Packet> for Queue {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        match ev {
            // The hot arm: a forwarded packet entering the queue. Pause
            // frames are rare link-local control; they take the cold path.
            Event::Msg(pkt) => {
                if let PacketKind::Pause { xoff } = pkt.kind {
                    return self.on_pause(xoff, ctx);
                }
                self.enqueue(pkt, ctx);
            }
            Event::Wake(TX_DONE) => {
                let pkt = self
                    .in_service
                    .take()
                    .expect("TX_DONE without packet in service");
                self.transmit(pkt, ctx);
            }
            Event::Wake(t) => unknown_wake(t),
        }
    }
}

/// Out-of-line panic for an unrecognized wake token, keeping the dispatch
/// loop's hot body free of format machinery.
#[cold]
#[inline(never)]
fn unknown_wake(t: u64) -> ! {
    panic!("unknown queue wake token {t}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flags, HEADER_BYTES};
    use ndp_sim::World;

    struct Sink {
        got: Vec<Packet>,
        times: Vec<Time>,
        /// One draw from the world's RNG per arrival: two runs with equal
        /// `draws` consumed the stream identically upstream of the sink.
        draws: Vec<u64>,
    }
    impl Sink {
        fn new() -> Sink {
            Sink {
                got: vec![],
                times: vec![],
                draws: vec![],
            }
        }
    }
    impl Component<Packet> for Sink {
        fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
            if let Event::Msg(p) = ev {
                self.got.push(p);
                self.times.push(ctx.now());
                self.draws.push(ctx.rng().gen());
            }
        }
    }

    /// A 10 Gb/s link with a zero-delay wire into `next`.
    fn link(next: ComponentId, disc: Discipline) -> Queue {
        Queue::fused(Speed::gbps(10), next, Time::ZERO, LinkClass::Other, disc)
    }

    fn world_with_queue(disc: Discipline) -> (World<Packet>, ComponentId, ComponentId) {
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        let q = w.add(link(sink, disc));
        (w, q, sink)
    }

    #[test]
    fn droptail_serializes_back_to_back() {
        let (mut w, q, sink) = world_with_queue(Discipline::droptail(100 * 9000, None));
        for i in 0..3 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        // 9 KB at 10 Gb/s = 7.2 us each, back to back.
        assert_eq!(
            s.times,
            vec![
                Time::from_ns(7_200),
                Time::from_ns(14_400),
                Time::from_ns(21_600)
            ]
        );
    }

    #[test]
    fn droptail_drops_when_full() {
        let (mut w, q, sink) = world_with_queue(Discipline::droptail(8 * 9000, None));
        for i in 0..20 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        // One enters service immediately, 8 queue; the rest drop.
        assert_eq!(w.get::<Sink>(sink).got.len(), 9);
        assert_eq!(w.get::<Queue>(q).stats.dropped_data, 11);
    }

    #[test]
    fn ecn_marks_ect_packets_over_threshold() {
        let (mut w, q, sink) = world_with_queue(Discipline::droptail(200 * 9000, Some(3 * 9000)));
        for i in 0..10 {
            let p = Packet::data(0, 1, 0, i, 9000).with_flags(Flags::ECT);
            w.post(Time::ZERO, q, p);
        }
        w.run_until_idle();
        let marked = w
            .get::<Sink>(sink)
            .got
            .iter()
            .filter(|p| p.flags.has(Flags::CE))
            .count();
        // First packet goes into service, next 4 enqueue below/at threshold
        // boundary; occupancy exceeds 3 pkts from the 5th queued packet on.
        assert!(marked >= 5, "marked {marked}");
        assert_eq!(w.get::<Queue>(q).stats.ecn_marked as usize, marked);
    }

    #[test]
    fn non_ect_packets_never_marked() {
        let (mut w, q, sink) = world_with_queue(Discipline::droptail(200 * 9000, Some(9000)));
        for i in 0..10 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        assert!(w
            .get::<Sink>(sink)
            .got
            .iter()
            .all(|p| !p.flags.has(Flags::CE)));
    }

    #[test]
    fn ndp_trims_on_overflow_and_prioritizes_headers() {
        let (mut w, q, sink) = world_with_queue(Discipline::ndp(8, 9000));
        // 1 in service + 8 queued + 4 trimmed.
        for i in 0..13 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        assert_eq!(s.got.len(), 13, "metadata must be lossless");
        let trimmed: Vec<_> = s.got.iter().filter(|p| p.is_trimmed()).collect();
        assert_eq!(trimmed.len(), 4);
        assert_eq!(w.get::<Queue>(q).stats.trimmed, 4);
        // Headers are prioritized: after the in-service packet, the trimmed
        // headers leave before the remaining full packets.
        let first_after_service = &s.got[1];
        assert!(
            first_after_service.is_trimmed(),
            "header should jump the data queue"
        );
    }

    #[test]
    fn ndp_tail_trim_probability_is_about_half() {
        // Fill the data queue, then send many more; about half the trims
        // should hit the arriving packet (seq >= 9) and half the tail.
        let (mut w, q, sink) = world_with_queue(Discipline::ndp(8, 9000));
        let n = 2000;
        for i in 0..n {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        // The 9 packets that escape untrimmed (1 in service + 8 buffered):
        // with coin flips, some should be high seq numbers (tail trimming
        // replaced older tails), i.e. the untrimmed set is not simply 0..9.
        let untrimmed: Vec<u32> = s
            .got
            .iter()
            .filter(|p| !p.is_trimmed())
            .map(|p| p.seq)
            .collect();
        assert_eq!(untrimmed.len(), 9);
        assert!(
            untrimmed.iter().any(|&q| q >= 9),
            "tail-trim randomization should let later arrivals displace queued tails: {untrimmed:?}"
        );
    }

    #[test]
    fn ndp_wrr_bounds_header_bandwidth() {
        // Saturate both queues and check the dequeue pattern: at most 10
        // headers between data packets.
        let (mut w, q, sink) = world_with_queue(Discipline::ndp(8, 9000));
        for i in 0..500 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        // The WRR bound applies while data is actually waiting: once the
        // data queue empties only headers remain, so measure runs up to the
        // last data departure.
        let last_data = s.got.iter().rposition(|p| !p.is_trimmed()).unwrap();
        let mut run = 0u32;
        let mut max_run = 0u32;
        for p in &s.got[..=last_data] {
            if p.is_trimmed() {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run <= 10, "header run {max_run} exceeds WRR ratio");
        assert!(
            max_run >= 9,
            "WRR should allow long header runs under load: {max_run}"
        );
    }

    #[test]
    fn ndp_control_packets_join_header_queue() {
        let (mut w, q, sink) = world_with_queue(Discipline::ndp(8, 9000));
        for i in 0..9 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        let mut ack = Packet::control(1, 0, 0, PacketKind::Ack);
        ack.seq = 99;
        w.post(Time::from_ns(100), q, ack);
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        // The ACK overtakes the 8 queued data packets (but not the one
        // already on the wire).
        assert_eq!(s.got[1].kind, PacketKind::Ack);
    }

    #[test]
    fn ndp_header_overflow_bounces_to_switch() {
        // The header queue holds data_cap x mtu bytes; an "mtu" of one
        // header makes that a 2-header cap.
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        let swid = w.add(Sink::new()); // stands in for the switch
        let mut qq = link(sink, Discipline::ndp(2, HEADER_BYTES));
        qq.set_bounce_to(swid);
        let q = w.add(qq);
        for i in 0..10 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        let bounced = &w.get::<Sink>(swid).got;
        assert!(!bounced.is_empty(), "expected return-to-sender traffic");
        for b in bounced {
            assert!(b.is_rts());
            assert!(b.is_trimmed());
            assert_eq!((b.src, b.dst), (1, 0), "addresses must be swapped");
        }
        let st = &w.get::<Queue>(q).stats;
        assert_eq!(st.bounced as usize, bounced.len());
        // Nothing silently lost: forwarded + bounced == 10 eventually.
        assert_eq!(w.get::<Sink>(sink).got.len() + bounced.len(), 10);
    }

    #[test]
    fn cp_trims_into_same_fifo_without_priority() {
        let (mut w, q, sink) = world_with_queue(Discipline::cp(8 * 9000));
        for i in 0..13 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        assert_eq!(s.got.len(), 13);
        // CP is FIFO: trimmed headers exit *after* all queued full packets.
        let first_trim_pos = s.got.iter().position(|p| p.is_trimmed()).unwrap();
        assert!(first_trim_pos >= 8, "CP must not give headers priority");
    }

    #[test]
    fn lossless_pauses_upstream_and_resumes() {
        // upstream link -> downstream lossless link -> sink
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        // Downstream drains at 1 Gb/s (slow), upstream feeds at 10 Gb/s.
        let down = w.add(Queue::fused(
            Speed::gbps(1),
            sink,
            Time::ZERO,
            LinkClass::Other,
            Discipline::lossless(40 * 9000, 10 * 9000, 5 * 9000, None),
        ));
        let up = w.add(Queue::fused(
            Speed::gbps(10),
            down,
            Time::from_ns(500),
            LinkClass::Other,
            Discipline::droptail(1000 * 9000, None),
        ));
        w.get_mut::<Queue>(down).set_upstreams(vec![up]);
        for i in 0..100 {
            w.post(Time::ZERO, up, Packet::data(0, 1, 0, i, 9000));
        }
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        assert_eq!(s.got.len(), 100, "lossless fabric must not drop");
        let d = w.get::<Queue>(down);
        assert_eq!(d.stats.dropped_data, 0);
        assert!(d.stats.xoff_sent >= 1, "expected at least one pause event");
        assert!(
            d.stats.max_occupancy_bytes <= 40 * 9000,
            "occupancy bounded by capacity"
        );
    }

    #[test]
    fn a_lone_arrival_at_an_idle_link_peaks_occupancy_at_its_size() {
        for disc in [
            Discipline::droptail(100 * 9000, None),
            Discipline::ndp(8, 9000),
        ] {
            let (mut w, q, sink) = world_with_queue(disc);
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, 0, 9000));
            w.run_until_idle();
            assert_eq!(w.get::<Queue>(q).stats.max_occupancy_bytes, 9000);
            assert_eq!(w.get::<Sink>(sink).times, [Time::from_ns(7_200)]);
        }
    }

    #[test]
    fn a_lone_packet_on_an_idle_lossless_port_still_crosses_xoff() {
        // Xoff below one packet: the arrival alone pauses the upstream, and
        // its departure resumes it.
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        let up = w.add(Sink::new());
        let disc = Discipline::lossless(4 * 9000, 4500, 0, None);
        let q = w.add(link(sink, disc));
        w.get_mut::<Queue>(q).set_upstreams(vec![up]);
        w.post(Time::ZERO, q, Packet::data(0, 1, 0, 0, 9000));
        w.run_until_idle();
        let frames: Vec<_> = w.get::<Sink>(up).got.iter().map(|p| p.kind).collect();
        let pause = |xoff| PacketKind::Pause { xoff };
        assert_eq!(frames, [pause(true), pause(false)]);
        assert_eq!(w.get::<Queue>(q).stats.xoff_sent, 1);
        assert_eq!(w.get::<Sink>(sink).times, [Time::from_ns(7_200)]);
    }

    #[test]
    fn paused_queue_does_not_transmit() {
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        let q = w.add(link(sink, Discipline::droptail(100 * 9000, None)));
        w.post(
            Time::ZERO,
            q,
            Packet::control(0, 0, 0, PacketKind::Pause { xoff: true }),
        );
        w.post(Time::from_ns(1), q, Packet::data(0, 1, 0, 0, 9000));
        w.post(
            Time::from_us(100),
            q,
            Packet::control(0, 0, 0, PacketKind::Pause { xoff: false }),
        );
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        assert_eq!(s.got.len(), 1);
        // Released only after the resume at t=100us, plus 7.2us tx.
        assert_eq!(s.times[0], Time::from_us(100) + Time::from_ns(7_200));
    }

    /// The link's timing contract (what the deleted queue-then-wire pair
    /// produced): packets leave back to back, each arriving one
    /// serialization time after its predecessor plus the wire delay, in
    /// order, for one scheduled event per packet beyond the TX-done wake.
    #[test]
    fn fused_hop_matches_queue_plus_pipe_timing() {
        let delay = Time::from_us(1);
        let tx = Time::from_ns(7_200); // 9 KB at 10 Gb/s
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        let q = w.add(Queue::fused(
            Speed::gbps(10),
            sink,
            delay,
            LinkClass::Other,
            Discipline::droptail(100 * 9000, None),
        ));
        for i in 0..5 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        // A lone packet on an idle link: exact propagation on top of TX.
        w.post(Time::from_us(100), q, Packet::data(0, 1, 0, 5, 9000));
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        let seqs: Vec<u32> = s.got.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<_>>(), "arrival order");
        for i in 0..5u64 {
            assert_eq!(s.times[i as usize], tx * (i + 1) + delay, "packet {i}");
        }
        assert_eq!(s.times[5], Time::from_us(100) + tx + delay);
        // Per packet: arrival at the queue, TX-done wake, arrival at the sink.
        assert_eq!(w.events_processed(), 6 * 3);
    }

    /// Wire corruption: every transmitted packet is either delivered or
    /// counted, the loss rate is the configured one, survivors keep the
    /// link's timing and order — and a healthy wire draws no RNG at all.
    #[test]
    fn fused_corruption_matches_pipe_corruption_exactly() {
        let delay = Time::from_ns(500);
        let tx = Speed::gbps(10).tx_time(1500);
        let n = 10_000u64;
        let run = |p: f64| {
            let mut w: World<Packet> = World::new(11);
            let sink = w.add(Sink::new());
            let q = w.add(
                Queue::fused(
                    Speed::gbps(10),
                    sink,
                    delay,
                    LinkClass::Other,
                    Discipline::droptail(n * 9000, None),
                )
                .with_wire_corruption(p),
            );
            for i in 0..n {
                w.post(Time::from_ns(i), q, Packet::data(0, 1, 0, i, 1500));
            }
            w.run_until_idle();
            (w, q, sink)
        };
        let (w, q, sink) = run(0.25);
        let s = w.get::<Sink>(sink);
        let lost = w.get::<Queue>(q).wire_corrupted;
        assert_eq!(w.get::<Queue>(q).stats.forwarded_pkts, n);
        assert_eq!(s.got.len() as u64 + lost, n, "delivered or counted");
        let share = lost as f64 / n as f64;
        assert!((share - 0.25).abs() < 0.02, "corrupted fraction {share}");
        for (p, &at) in s.got.iter().zip(&s.times) {
            // Packet i finishes serializing at (i+1)·tx whether or not its
            // predecessors survived the wire.
            assert_eq!(at, tx * (p.seq as u64 + 1) + delay, "seq {}", p.seq);
        }
        assert!(s.got.windows(2).all(|w| w[0].seq < w[1].seq), "in order");

        // p = 0 draws nothing: the sink's own draws are the seed's first n,
        // exactly what it sees with no link in front of it.
        let (w, q, sink) = run(0.0);
        assert_eq!(w.get::<Queue>(q).wire_corrupted, 0);
        let mut bare: World<Packet> = World::new(11);
        let bare_sink = bare.add(Sink::new());
        for i in 0..n {
            bare.post(Time::from_ns(i), bare_sink, Packet::data(0, 1, 0, i, 1500));
        }
        bare.run_until_idle();
        assert_eq!(
            w.get::<Sink>(sink).draws,
            bare.get::<Sink>(bare_sink).draws,
            "a healthy wire must not consume the RNG stream"
        );
    }

    #[test]
    fn down_link_loses_buffered_and_in_flight_packets() {
        let (mut w, q, sink) = world_with_queue(Discipline::droptail(100 * 9000, None));
        for i in 0..3 {
            w.post(Time::ZERO, q, Packet::data(0, 1, 0, i, 9000));
        }
        // At 10us: #0 delivered (7.2us), #1 on the wire, #2 buffered.
        w.run_until(Time::from_us(10));
        w.get_mut::<Queue>(q).set_down(true);
        assert_eq!(w.get::<Queue>(q).stats.dropped_down, 1, "buffer flushed");
        // A packet arriving while down is dropped, not queued.
        w.post(Time::from_us(11), q, Packet::data(0, 1, 0, 9, 9000));
        w.run_until_idle();
        let qq = w.get::<Queue>(q);
        assert_eq!(qq.stats.dropped_down, 3, "wire victim + arrival counted");
        assert_eq!(qq.queued_packets(), 0);
        assert_eq!(w.get::<Sink>(sink).got.len(), 1, "only #0 survived");
    }

    #[test]
    fn restored_link_comes_back_at_nominal_rate() {
        let (mut w, q, sink) = world_with_queue(Discipline::droptail(100 * 9000, None));
        {
            let qq = w.get_mut::<Queue>(q);
            qq.set_rate(Speed::gbps(1)); // degraded...
            qq.set_down(true); // ...then hard down...
            qq.restore(); // ...then recovered.
            assert!(!qq.is_down());
            assert_eq!(qq.rate(), qq.nominal_rate());
        }
        w.post(Time::ZERO, q, Packet::data(0, 1, 0, 0, 9000));
        w.run_until_idle();
        // 9 KB at the nominal 10 Gb/s again, not the degraded 1 Gb/s.
        assert_eq!(w.get::<Sink>(sink).times, vec![Time::from_ns(7_200)]);
    }

    #[test]
    fn down_ndp_queue_bounces_data_and_drops_control() {
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        let swid = w.add(Sink::new()); // stands in for the owning switch
        let mut qq = link(sink, Discipline::ndp(8, 9000));
        qq.set_bounce_to(swid);
        qq.set_down(true);
        let q = w.add(qq);
        w.post(Time::ZERO, q, Packet::data(3, 7, 1, 0, 9000));
        w.post(Time::ZERO, q, Packet::control(3, 7, 1, PacketKind::Ack));
        w.run_until_idle();
        let bounced = &w.get::<Sink>(swid).got;
        assert_eq!(bounced.len(), 1, "data comes back as an RTS header");
        assert!(bounced[0].is_rts() && bounced[0].is_trimmed());
        assert_eq!((bounced[0].src, bounced[0].dst), (7, 3));
        let st = &w.get::<Queue>(q).stats;
        assert_eq!(st.dropped_down, 1, "the ACK is gone");
        assert!(
            w.get::<Sink>(sink).got.is_empty(),
            "nothing crosses a dead link"
        );
    }

    #[test]
    fn rate_change_applies_to_next_packet() {
        let mut w: World<Packet> = World::new(5);
        let sink = w.add(Sink::new());
        let q = w.add(link(sink, Discipline::droptail(100 * 9000, None)));
        w.post(Time::ZERO, q, Packet::data(0, 1, 0, 0, 9000));
        w.run_until_idle();
        w.get_mut::<Queue>(q).set_rate(Speed::gbps(1));
        w.post(Time::from_ms(1), q, Packet::data(0, 1, 0, 1, 9000));
        w.run_until_idle();
        let s = w.get::<Sink>(sink);
        assert_eq!(s.times[1] - Time::from_ms(1), Time::from_us(72));
    }
}
