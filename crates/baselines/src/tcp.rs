//! The TCP family: TCP NewReno, DCTCP and MPTCP, one sender and receiver
//! pair configured by a [`Flavour`].
//!
//! A byte-sequence TCP in the style of htsim's: slow start, congestion
//! avoidance, duplicate-ACK fast retransmit with NewReno partial-ACK
//! recovery, exponential-backoff RTO with a Linux-like 200 ms MinRTO (the
//! paper attributes TCP's terrible incast tail exactly to this; DCTCP and
//! MPTCP run a 10 ms MinRTO), and an optional three-way handshake before
//! data (otherwise the connection is pre-established).
//!
//! A flow is one or more byte streams, each with its own path, sequence
//! space and loss recovery. TCP and DCTCP run one stream; MPTCP runs
//! [`crate::mptcp`]'s eight subflows on distinct random paths and couples
//! their increase by LIA. Every stream claims the flow's bytes one segment
//! at a time from a shared pool, so a stalled subflow simply stops
//! claiming, and a one-stream flow's segments are TCP's.
//!
//! The loss recovery is one machine, `NewReno`, run by every stream: it
//! computes RFC 6298's RTO over its own floor, inflates `cwnd` on each
//! duplicate ACK in recovery, and on an RTO expiry goes back N (RFC 5681
//! §3.1, RFC 6298 §5): `cwnd` falls to one MSS, `snd_nxt` returns to
//! `snd_una`, and the stream slow-starts back through the window, so every
//! hole of a lost burst is resent within round trips of the one expiry,
//! not one backed-off RTO per hole. The retransmissions of segments the
//! receiver already holds are not suppressed: no RFC 6582 `recover` guard
//! follows an expiry.
//!
//! DCTCP (Alizadeh et al. [4]) rides on the same machinery: data packets
//! are ECT, switches mark CE above threshold, the receiver echoes marks
//! per packet, and the sender maintains `alpha` with gain 1/16, cutting
//! `cwnd` by `alpha/2` once per window. `alpha` starts at 1, as in Linux,
//! so a new flow's first marked window halves `cwnd`. Only DCTCP sends
//! ECT, and queues mark only ECT packets, so TCP and MPTCP never see CE.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use ndp_net::host::{Delivery, Endpoint, EndpointCtx, FlowHarvest, Launch};
use ndp_net::packet::{Flags, FlowId, HostId, Packet, PacketKind, PathTag, HEADER_BYTES};
use ndp_sim::{ComponentId, Time, World};
use ndp_transport::attach_endpoints;
use rand::Rng;

use crate::mptcp::{lia_alpha, lia_increment, N_SUBFLOWS};

/// DCTCP's `alpha` estimation gain g (Alizadeh et al. [4]).
const DCTCP_G: f64 = 1.0 / 16.0;

/// DCTCP's `alpha` at the start of a flow: its maximum, as Linux's
/// `tcp_dctcp.c` starts it (`dctcp_alpha_on_init` defaults to
/// `DCTCP_MAX_ALPHA`). Starting at 0 made the first window's cut
/// `cwnd·(1 − 0/2)`, no cut at all, and left `alpha` ≤ 1/16 after it, so
/// a flow that lived a few RTTs never backed off from a marking queue.
const DCTCP_INIT_ALPHA: f64 = 1.0;

/// Connection-establishment behaviour (Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handshake {
    /// Connection pre-established (the steady-state assumption used in all
    /// simulation figures).
    None,
    /// Classic SYN / SYN-ACK round trip before data.
    ThreeWay,
}

/// Which member of the TCP family a flow runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavour {
    /// NewReno over one stream.
    Tcp,
    /// NewReno with ECT data and DCTCP's control law over one stream.
    Dctcp,
    /// Eight NewReno subflows on distinct paths, coupled by LIA.
    Mptcp,
}

/// TCP flow configuration.
#[derive(Clone, Debug)]
pub struct TcpCfg {
    pub size_bytes: u64,
    pub mtu: u32,
    pub handshake: Handshake,
    pub flavour: Flavour,
    /// Fixed per-flow ECMP path tag of a one-stream flow (hash-equivalent:
    /// chosen randomly by the harness; collisions are the point of Fig 14).
    /// MPTCP draws a random tag per subflow instead.
    pub path: PathTag,
}

impl TcpCfg {
    pub fn new(size_bytes: u64) -> TcpCfg {
        TcpCfg {
            size_bytes,
            mtu: 9000,
            handshake: Handshake::None,
            flavour: Flavour::Tcp,
            path: 0,
        }
    }

    pub fn dctcp(size_bytes: u64) -> TcpCfg {
        TcpCfg {
            flavour: Flavour::Dctcp,
            ..TcpCfg::new(size_bytes)
        }
    }

    pub fn mptcp(size_bytes: u64) -> TcpCfg {
        TcpCfg {
            flavour: Flavour::Mptcp,
            ..TcpCfg::new(size_bytes)
        }
    }

    /// The RTO floor: Linux's 200 ms for TCP, 10 ms for DCTCP and for
    /// each MPTCP subflow.
    pub fn min_rto(&self) -> Time {
        match self.flavour {
            Flavour::Tcp => Time::from_ms(200),
            Flavour::Dctcp | Flavour::Mptcp => Time::from_ms(10),
        }
    }

    /// Each stream's initial window in segments: RFC 6928's 10, or 2 per
    /// MPTCP subflow.
    fn init_cwnd_pkts(&self) -> u64 {
        match self.flavour {
            Flavour::Tcp | Flavour::Dctcp => 10,
            Flavour::Mptcp => 2,
        }
    }

    /// Byte streams per flow: one, or MPTCP's subflows.
    fn streams(&self) -> usize {
        match self.flavour {
            Flavour::Tcp | Flavour::Dctcp => 1,
            Flavour::Mptcp => N_SUBFLOWS,
        }
    }

    pub fn mss(&self) -> u64 {
        (self.mtu - HEADER_BYTES) as u64
    }
}

/// One value per byte stream of a flow. A one-stream flow keeps its value
/// inline, so TCP and DCTCP pay no heap block for it.
enum Streams<T> {
    One(T),
    Many(Box<[T]>),
}

impl<T> Streams<T> {
    fn new(n: usize, mut each: impl FnMut() -> T) -> Streams<T> {
        if n == 1 {
            Streams::One(each())
        } else {
            Streams::Many((0..n).map(|_| each()).collect())
        }
    }
}

impl<T> Deref for Streams<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Streams::One(one) => std::slice::from_ref(one),
            Streams::Many(many) => many,
        }
    }
}

impl<T> DerefMut for Streams<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Streams::One(one) => std::slice::from_mut(one),
            Streams::Many(many) => many,
        }
    }
}

enum State {
    Closed,
    SynSent,
    Established,
}

/// One byte stream of a flow: TCP's only one, or an MPTCP subflow.
pub(crate) struct Subflow {
    pub(crate) path: PathTag,
    /// Bytes claimed from the flow's shared pool: the stream's sequence
    /// space so far.
    pub(crate) claimed: u64,
    pub(crate) rec: NewReno,
}

/// The sender endpoint of every TCP-family flow.
pub struct TcpSender {
    flow: FlowId,
    dst: HostId,
    cfg: TcpCfg,
    state: State,
    subs: Streams<Subflow>,
    /// Bytes of the flow no stream has claimed yet.
    pool: u64,
    /// Bytes acknowledged over all streams.
    acked: u64,
    // DCTCP state, kept for stream 0.
    alpha: f64,
    bytes_acked_win: u64,
    bytes_marked_win: u64,
    win_end: u64,
    cut_this_window: bool,
    /// ACKs that echoed a CE mark (DCTCP).
    pub marks_echoed: u64,
    pub tx: Launch,
}

impl TcpSender {
    /// Panics if the flow is over 4 GiB: the wire `seq` counts its bytes
    /// in 32 bits, and refusing it here (every attach path builds its
    /// sender) fails before its first event rather than mid-run in
    /// [`Packet::seq32`].
    pub fn new(flow: FlowId, dst: HostId, cfg: TcpCfg) -> TcpSender {
        assert!(
            cfg.size_bytes <= u64::from(u32::MAX),
            "TCP-family flow {flow} of {} bytes is over the 4 GiB (2^32 - 1 byte) bound \
             of its 32-bit wire sequence",
            cfg.size_bytes
        );
        let subs = Streams::new(cfg.streams(), || Subflow {
            // A multi-stream flow draws each path in `on_start`.
            path: cfg.path,
            claimed: 0,
            rec: NewReno::new(cfg.init_cwnd_pkts(), cfg.mss(), cfg.min_rto()),
        });
        TcpSender {
            flow,
            dst,
            pool: cfg.size_bytes,
            cfg,
            state: State::Closed,
            subs,
            acked: 0,
            alpha: DCTCP_INIT_ALPHA,
            bytes_acked_win: 0,
            bytes_marked_win: 0,
            win_end: 0,
            cut_this_window: false,
            marks_echoed: 0,
            tx: Launch::default(),
        }
    }

    /// The flow's window: the sum of its streams'.
    pub fn cwnd(&self) -> u64 {
        self.subs.iter().map(|s| s.rec.cwnd).sum()
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn mss(&self) -> u64 {
        self.cfg.mss()
    }

    fn send_segment(&mut self, idx: usize, seq: u64, ctx: &mut EndpointCtx<'_, '_>) {
        let mss = self.mss();
        let s = &mut self.subs[idx];
        let payload = (s.claimed - seq).min(mss);
        let mut pkt = Packet::data(
            ctx.host(),
            self.dst,
            self.flow,
            seq,
            payload as u32 + HEADER_BYTES,
        );
        pkt.path = s.path;
        pkt.subflow = idx as u16;
        pkt.sent = ctx.now();
        if self.cfg.flavour == Flavour::Dctcp {
            pkt.flags = pkt.flags.with(Flags::ECT);
        }
        ctx.send(pkt);
        if let Some(delay) = s.rec.sent(seq, ctx.now()) {
            ctx.timer_in(delay, 1 + idx as u8);
        }
    }

    /// Send what stream `idx`'s window allows, claiming a segment's worth
    /// from the pool whenever the stream has sent all it claimed.
    fn send_available(&mut self, idx: usize, ctx: &mut EndpointCtx<'_, '_>) {
        let mss = self.mss();
        loop {
            let s = &mut self.subs[idx];
            if s.rec.flight() >= s.rec.cwnd {
                break;
            }
            if s.rec.snd_nxt >= s.claimed {
                let want = mss.min(self.pool);
                if want == 0 {
                    break;
                }
                self.pool -= want;
                s.claimed += want;
            }
            let seq = s.rec.snd_nxt;
            s.rec.snd_nxt += (s.claimed - seq).min(mss);
            self.send_segment(idx, seq, ctx);
        }
    }

    /// The connection is up: every stream sends what its window allows.
    fn establish(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.state = State::Established;
        for idx in 0..self.subs.len() {
            self.send_available(idx, ctx);
        }
    }

    /// Send the bare SYN of a three-way handshake on stream 0.
    fn send_syn(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        let s = &mut self.subs[0];
        let mut syn = Packet::control(ctx.host(), self.dst, self.flow, PacketKind::Data);
        syn.flags = Flags::SYN;
        syn.path = s.path;
        ctx.send(syn);
        if let Some(delay) = s.rec.arm() {
            ctx.timer_in(delay, 1);
        }
    }

    /// DCTCP per-window alpha update and proportional cut.
    fn dctcp_on_ack(&mut self, newly: u64, ece: bool) {
        let mss = self.mss();
        let rec = &mut self.subs[0].rec;
        self.bytes_acked_win += newly;
        if ece {
            self.bytes_marked_win += newly;
            self.marks_echoed += 1;
        }
        if rec.snd_una >= self.win_end {
            let f = if self.bytes_acked_win == 0 {
                0.0
            } else {
                self.bytes_marked_win as f64 / self.bytes_acked_win as f64
            };
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
            self.bytes_acked_win = 0;
            self.bytes_marked_win = 0;
            self.win_end = rec.snd_nxt;
            self.cut_this_window = false;
        }
        if ece && !self.cut_this_window {
            self.cut_this_window = true;
            let cut = (rec.cwnd as f64 * (1.0 - self.alpha / 2.0)) as u64;
            rec.cwnd = cut.max(mss);
            rec.ssthresh = rec.cwnd;
        }
    }

    fn on_ack(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if matches!(self.state, State::SynSent) {
            // SYN-ACK: connection established, start pushing data.
            self.subs[0].rec.sample_rtt(ctx.now() - pkt.sent);
            self.establish(ctx);
            return;
        }
        let idx = usize::from(pkt.subflow);
        if idx >= self.subs.len() {
            return;
        }
        // LIA reads every subflow's window and RTT as they were before
        // this ACK.
        let coupled =
            (self.cfg.flavour == Flavour::Mptcp).then(|| (lia_alpha(&self.subs), self.cwnd()));
        let mss = self.mss();
        match self.subs[idx]
            .rec
            .on_ack(u64::from(pkt.ack), pkt.sent, ctx.now())
        {
            Ack::Advanced(newly) => {
                self.acked += newly;
                if self.cfg.flavour == Flavour::Dctcp {
                    self.dctcp_on_ack(newly, pkt.flags.has(Flags::CE));
                }
                let increase = |cwnd: u64| match coupled {
                    Some((alpha, total)) => lia_increment(alpha, newly, mss, total, cwnd),
                    None => (mss * mss / cwnd).max(1),
                };
                if let Some(hole) = self.subs[idx].rec.open(newly, increase) {
                    // NewReno partial ACK: retransmit the next hole.
                    self.send_segment(idx, hole, ctx);
                }
                if self.acked >= self.cfg.size_bytes {
                    // Everything is ACKed, so there is nothing left to send.
                    self.tx.complete(ctx);
                    return;
                }
                self.send_available(idx, ctx);
            }
            Ack::FastRetransmit(seq) => {
                self.tx.retransmissions += 1;
                self.send_segment(idx, seq, ctx);
            }
            Ack::Recovering => self.send_available(idx, ctx),
            Ack::Ignored => {}
        }
    }
}

impl Endpoint for TcpSender {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_, '_>) {
        self.tx.start(ctx);
        if self.subs.len() > 1 {
            // Independent random path per subflow (per-flow ECMP hashing).
            for s in self.subs.iter_mut() {
                s.path = ctx.rng().gen();
            }
        }
        match self.cfg.handshake {
            Handshake::ThreeWay => {
                self.state = State::SynSent;
                self.send_syn(ctx);
            }
            Handshake::None => self.establish(ctx),
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind == PacketKind::Ack {
            self.on_ack(pkt, ctx);
        }
    }

    /// Stream `idx`'s RTO timer carries token `1 + idx`.
    fn on_timer(&mut self, token: u8, ctx: &mut EndpointCtx<'_, '_>) {
        let idx = usize::from(token.wrapping_sub(1));
        let Some(s) = self.subs.get_mut(idx) else {
            return;
        };
        match s.rec.on_rto(ctx.now()) {
            Timeout::Expired => {
                self.tx.retransmissions += 1;
                self.tx.timeouts += 1;
                self.send_available(idx, ctx);
            }
            Timeout::Rearm(left) => ctx.timer_in(left, token),
            // Nothing in flight: before the SYN-ACK, resend the SYN.
            Timeout::Idle if matches!(self.state, State::SynSent) => {
                s.rec.back_off();
                self.tx.retransmissions += 1;
                self.tx.timeouts += 1;
                self.send_syn(ctx);
            }
            Timeout::Idle => {}
        }
    }

    fn harvest(&self) -> FlowHarvest {
        self.tx.harvest()
    }
}

/// NewReno loss recovery (RFC 5681/6582) for one byte stream: a TCP flow
/// or one MPTCP subflow. It holds the window, the RTT estimate and the RTO
/// timer's state, and makes every recovery decision the family shares;
/// the sender frames packets, sets the timers this machine asks for,
/// resends what it names, and brings its own increase law and ECN
/// response.
pub(crate) struct NewReno {
    mss: u64,
    /// The floor of RFC 6298's RTO, and the RTO before the first sample.
    min_rto: Time,
    pub(crate) snd_una: u64,
    pub(crate) snd_nxt: u64,
    pub(crate) cwnd: u64,
    pub(crate) ssthresh: u64,
    dupacks: u32,
    in_recovery: bool,
    /// `snd_nxt` when recovery began; an ACK reaching it ends recovery.
    recover: u64,
    pub(crate) srtt: Option<Time>,
    rttvar: Time,
    rto_armed: bool,
    backoff: u32,
    /// Send time of the oldest unacknowledged segment (RTO anchor).
    una_time: Time,
}

/// What an ACK asks of the sender.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Ack {
    /// `snd_una` advanced by this many bytes: apply any ECN response,
    /// then [`NewReno::open`].
    Advanced(u64),
    /// The third duplicate entered recovery: resend this `snd_una`.
    FastRetransmit(u64),
    /// A further duplicate during recovery: `cwnd` grew by one MSS.
    Recovering,
    /// A stale ACK, or a duplicate before the third.
    Ignored,
}

/// What an RTO timer firing asks of the sender.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Timeout {
    /// Nothing in flight; the timer stays disarmed.
    Idle,
    /// The oldest segment has not been out a full RTO: re-arm for this
    /// remainder.
    Rearm(Time),
    /// Expired: the window is one MSS again and `snd_nxt` is back at
    /// `snd_una`, so sending what the window allows goes back N.
    Expired,
}

impl NewReno {
    /// A machine whose first window is `iw_pkts` segments of `mss` bytes.
    pub(crate) fn new(iw_pkts: u64, mss: u64, min_rto: Time) -> NewReno {
        NewReno {
            mss,
            min_rto,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: iw_pkts * mss,
            ssthresh: u64::MAX / 2,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: Time::ZERO,
            rto_armed: false,
            backoff: 1,
            una_time: Time::ZERO,
        }
    }

    pub(crate) fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// RFC 6298's `max(srtt + 4·rttvar, min_rto)`; `min_rto` alone
    /// before the first sample.
    fn rto(&self) -> Time {
        let floor = self.min_rto;
        self.srtt
            .map_or(floor, |srtt| (srtt + self.rttvar * 4).max(floor))
    }

    pub(crate) fn sample_rtt(&mut self, sample: Time) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(s) => {
                let err = if sample > s { sample - s } else { s - sample };
                self.rttvar = Time::from_ps((3 * self.rttvar.as_ps() + err.as_ps()) / 4);
                self.srtt = Some(Time::from_ps((7 * s.as_ps() + sample.as_ps()) / 8));
            }
        }
    }

    /// Arm the RTO unless it is armed: returns the delay to set the timer
    /// for, the RTO times the backoff.
    pub(crate) fn arm(&mut self) -> Option<Time> {
        if self.rto_armed {
            return None;
        }
        self.rto_armed = true;
        Some(self.rto() * self.backoff as u64)
    }

    /// The segment at `seq` just left; the oldest unacknowledged one
    /// anchors the RTO. Returns what [`NewReno::arm`] does.
    pub(crate) fn sent(&mut self, seq: u64, now: Time) -> Option<Time> {
        if seq == self.snd_una {
            self.una_time = now;
        }
        self.arm()
    }

    /// A cumulative ACK for `ack`, echoing a segment sent at `sent`.
    pub(crate) fn on_ack(&mut self, ack: u64, sent: Time, now: Time) -> Ack {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            // After going back N, the receiver may already hold what
            // follows the hole.
            self.snd_nxt = self.snd_nxt.max(ack);
            self.una_time = now;
            self.dupacks = 0;
            self.backoff = 1;
            if sent > Time::ZERO {
                self.sample_rtt(now - sent);
            }
            return Ack::Advanced(newly);
        }
        if ack != self.snd_una || self.flight() == 0 {
            return Ack::Ignored;
        }
        self.dupacks += 1;
        if self.dupacks == 3 && !self.in_recovery {
            self.ssthresh = (self.flight() / 2).max(2 * self.mss);
            self.cwnd = self.ssthresh + 3 * self.mss;
            self.in_recovery = true;
            self.recover = self.snd_nxt;
            Ack::FastRetransmit(self.snd_una)
        } else if self.in_recovery {
            // Each duplicate is a segment that left the network: inflate
            // to keep the pipe full.
            self.cwnd += self.mss;
            Ack::Recovering
        } else {
            Ack::Ignored
        }
    }

    /// After [`Ack::Advanced`]: leave recovery once `recover` is acked,
    /// return the next hole on a partial ACK, or else grow the window by
    /// slow start or, above `ssthresh`, by `increase(cwnd)`.
    pub(crate) fn open(&mut self, newly: u64, increase: impl FnOnce(u64) -> u64) -> Option<u64> {
        if self.in_recovery {
            if self.snd_una < self.recover {
                return Some(self.snd_una);
            }
            self.in_recovery = false;
            self.cwnd = self.ssthresh;
        } else if self.cwnd < self.ssthresh {
            self.cwnd += newly.min(self.mss);
        } else {
            self.cwnd += increase(self.cwnd);
        }
        None
    }

    /// The RTO timer fired. It expires only once the oldest unacknowledged
    /// segment has been out a full backed-off RTO. An expiry goes back N:
    /// the one-MSS window then slow-starts from `snd_una` through every
    /// segment that was in flight (RFC 5681 §3.1), so each hole is resent
    /// within round trips of the one expiry, not at an expiry of its own.
    pub(crate) fn on_rto(&mut self, now: Time) -> Timeout {
        self.rto_armed = false;
        if self.flight() == 0 {
            return Timeout::Idle;
        }
        let deadline = self.una_time + self.rto() * self.backoff as u64;
        if now < deadline {
            self.rto_armed = true;
            return Timeout::Rearm(deadline - now);
        }
        self.ssthresh = (self.flight() / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.snd_nxt = self.snd_una;
        self.in_recovery = false;
        self.dupacks = 0;
        self.back_off();
        Timeout::Expired
    }

    /// Double the RTO backoff, up to 64×.
    pub(crate) fn back_off(&mut self) {
        self.backoff = (self.backoff * 2).min(64);
    }
}

/// One byte stream's reassembly buffer: the contiguous prefix received
/// and the out-of-order segments above it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Reassembly {
    /// Highest contiguous byte received.
    rcv_nxt: u64,
    /// Out-of-order segments: start -> end.
    ooo: BTreeMap<u64, u64>,
}

impl Reassembly {
    pub(crate) fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Take segment `start..end`; returns how many bytes it made
    /// contiguous.
    pub(crate) fn absorb(&mut self, start: u64, end: u64) -> u64 {
        let before = self.rcv_nxt;
        if end <= before {
            return 0;
        }
        let start = start.max(before);
        self.ooo
            .insert(start, self.ooo.get(&start).copied().unwrap_or(0).max(end));
        // Advance rcv_nxt over any now-contiguous segments.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.rcv_nxt {
                self.ooo.pop_first();
                if e > self.rcv_nxt {
                    self.rcv_nxt = e;
                }
            } else {
                break;
            }
        }
        self.rcv_nxt - before
    }
}

/// The receiver endpoint of every TCP-family flow: per stream, cumulative
/// ACKs with out-of-order buffering, echoing each packet's CE mark
/// (DCTCP) on the path it came by.
pub struct TcpReceiver {
    peer: HostId,
    streams: Streams<Reassembly>,
    /// The flow's size: it is complete once this much is delivered.
    size: u64,
    rx: Delivery,
}

impl TcpReceiver {
    pub fn new(peer: HostId, streams: usize, size: u64) -> TcpReceiver {
        TcpReceiver {
            peer,
            streams: Streams::new(streams, Reassembly::default),
            size,
            rx: Delivery::default(),
        }
    }
}

impl Endpoint for TcpReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut EndpointCtx<'_, '_>) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        let Some(stream) = self.streams.get_mut(usize::from(pkt.subflow)) else {
            return;
        };
        self.rx.arrived(ctx);
        let mut ack = Packet::control(ctx.host(), self.peer, pkt.flow, PacketKind::Ack);
        ack.path = pkt.path;
        ack.sent = pkt.sent;
        if pkt.flags.has(Flags::SYN) && pkt.payload == 0 {
            // Bare SYN of a three-way handshake: reply SYN-ACK.
            ack.flags = Flags::SYN;
            ctx.send(ack);
            return;
        }
        let start = u64::from(pkt.seq);
        let delivered = stream.absorb(start, start + pkt.payload as u64);
        ack.ack = Packet::ack32(stream.rcv_nxt());
        ack.seq = pkt.seq;
        ack.subflow = pkt.subflow;
        if pkt.flags.has(Flags::CE) {
            // DCTCP-style precise echo.
            ack.flags = ack.flags.with(Flags::CE);
        }
        if delivered > 0 {
            self.rx.deliver(delivered, ctx);
        }
        ctx.send(ack);
        if self.rx.bytes() >= self.size {
            self.rx.complete(ctx);
        }
    }

    fn harvest(&self) -> FlowHarvest {
        self.rx.harvest()
    }
}

/// Attach a TCP-family flow between two hosts.
pub fn attach_tcp_flow(
    world: &mut World<Packet>,
    flow: FlowId,
    src: (ComponentId, HostId),
    dst: (ComponentId, HostId),
    cfg: TcpCfg,
    start: Time,
) {
    let receiver = TcpReceiver::new(src.1, cfg.streams(), cfg.size_bytes);
    let sender = TcpSender::new(flow, dst.1, cfg);
    attach_endpoints(world, flow, (src.0, sender), (dst.0, receiver), start);
}

/// The TCP family's [`Transport`] adapter, one instance per flavour.
///
/// [`Transport`]: ndp_transport::Transport
pub struct TcpTransport {
    pub flavour: Flavour,
}

/// TCP NewReno over 200-packet drop-tail queues.
pub static TCP: TcpTransport = TcpTransport {
    flavour: Flavour::Tcp,
};

/// DCTCP over 200-packet queues with a 30-packet marking threshold.
pub static DCTCP: TcpTransport = TcpTransport {
    flavour: Flavour::Dctcp,
};

/// MPTCP: 8 subflows on distinct paths, coupled by the LIA increase, over
/// the TCP drop-tail fabric.
pub static MPTCP: TcpTransport = TcpTransport {
    flavour: Flavour::Mptcp,
};

impl ndp_transport::Transport for TcpTransport {
    fn label(&self) -> &'static str {
        match self.flavour {
            Flavour::Tcp => "TCP",
            Flavour::Dctcp => "DCTCP",
            Flavour::Mptcp => "MPTCP",
        }
    }

    fn fabric(&self) -> ndp_transport::QueueSpec {
        match self.flavour {
            Flavour::Dctcp => ndp_transport::QueueSpec::dctcp_default(),
            Flavour::Tcp | Flavour::Mptcp => ndp_transport::QueueSpec::droptail_default(),
        }
    }

    fn attach(
        &self,
        world: &mut World<Packet>,
        topo: &dyn ndp_transport::Topology,
        spec: &ndp_transport::FlowSpec,
    ) {
        let [src, dst] = spec.ends(topo);
        let cfg = TcpCfg {
            mtu: topo.mtu(),
            flavour: self.flavour,
            path: ndp_transport::flow_hash_path(spec.flow),
            ..TcpCfg::new(spec.size)
        };
        attach_tcp_flow(world, spec.flow, src, dst, cfg, spec.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::host::HostLatency;
    use ndp_net::Host;
    use ndp_sim::Speed;
    use ndp_topology::{BackToBack, QueueSpec, SingleBottleneck};

    fn b2b(seed: u64, fabric: QueueSpec) -> (World<Packet>, BackToBack) {
        let mut w: World<Packet> = World::new(seed);
        let b = BackToBack::build(
            &mut w,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            fabric,
            HostLatency::default(),
        );
        (w, b)
    }

    fn sender(w: &World<Packet>, host: ndp_sim::ComponentId, flow: FlowId) -> &TcpSender {
        w.get::<Host>(host).endpoint::<TcpSender>(flow)
    }

    /// The 32-bit wire `seq` bounds a flow to 4 GiB: a larger one is
    /// refused when it attaches, before any event runs.
    #[test]
    #[should_panic(expected = "TCP-family flow 1 of 4294967296 bytes is over the 4 GiB")]
    fn a_flow_over_4_gib_is_refused_at_attach() {
        let (mut w, b) = b2b(1, QueueSpec::droptail_default());
        let cfg = TcpCfg::new(u64::from(u32::MAX) + 1);
        attach_tcp_flow(&mut w, 1, (b.hosts[0], 0), (b.hosts[1], 1), cfg, Time::ZERO);
    }

    #[test]
    fn a_flow_of_4_gib_attaches_and_runs() {
        let (mut w, b) = b2b(1, QueueSpec::droptail_default());
        let cfg = TcpCfg::mptcp(u64::from(u32::MAX));
        attach_tcp_flow(&mut w, 1, (b.hosts[0], 0), (b.hosts[1], 1), cfg, Time::ZERO);
        w.run_until(Time::from_ms(1));
        assert!(w.get::<Host>(b.hosts[1]).harvest(1).delivered_bytes > 0);
    }

    #[test]
    fn transfer_completes_and_delivers_exact_bytes() {
        let (mut w, b) = b2b(1, QueueSpec::droptail_default());
        let size = 5_000_000u64;
        attach_tcp_flow(
            &mut w,
            1,
            (b.hosts[0], 0),
            (b.hosts[1], 1),
            TcpCfg::new(size),
            Time::ZERO,
        );
        w.run_until(Time::from_ms(200));
        let rx = w.get::<Host>(b.hosts[1]).harvest(1);
        assert_eq!(rx.delivered_bytes, size);
        assert!(rx.completion_time.is_some());
        let tx = &sender(&w, b.hosts[0], 1).tx;
        assert_eq!(tx.timeouts, 0, "clean link should not time out");
        assert!(tx.is_complete());
    }

    #[test]
    fn slow_start_doubles_then_fills_pipe() {
        let (mut w, b) = b2b(2, QueueSpec::droptail_default());
        let size = 20_000_000u64;
        attach_tcp_flow(
            &mut w,
            1,
            (b.hosts[0], 0),
            (b.hosts[1], 1),
            TcpCfg::new(size),
            Time::ZERO,
        );
        w.run_until(Time::from_ms(200));
        let fct = sender(&w, b.hosts[0], 1).tx.fct().unwrap();
        let goodput = size as f64 * 8.0 / fct.as_secs() / 1e9;
        assert!(
            goodput > 8.5,
            "long flow should approach line rate, got {goodput:.2}"
        );
    }

    #[test]
    fn three_way_handshake_adds_an_rtt() {
        let run = |hs: Handshake| {
            let (mut w, b) = b2b(3, QueueSpec::droptail_default());
            let cfg = TcpCfg {
                handshake: hs,
                ..TcpCfg::new(100_000)
            };
            attach_tcp_flow(&mut w, 1, (b.hosts[0], 0), (b.hosts[1], 1), cfg, Time::ZERO);
            w.run_until(Time::from_ms(200));
            sender(&w, b.hosts[0], 1).tx.fct().unwrap()
        };
        let plain = run(Handshake::None);
        let full = run(Handshake::ThreeWay);
        assert!(full > plain, "3WHS must cost extra");
        // The extra cost is about one RTT (2 us propagation + header tx).
        assert!(full - plain < Time::from_us(10));
    }

    #[test]
    fn fast_retransmit_recovers_mid_window_loss_without_rto() {
        // Random single-packet losses inside a streaming window leave
        // plenty of later packets to generate dup-ACKs, so NewReno must
        // recover via fast retransmit, far quicker than the RTO. (Burst-
        // tail losses, by contrast, can only be recovered by the RTO —
        // exactly the paper's complaint about short flows.)
        use ndp_net::queue::{LinkClass, Queue};
        let mut w: World<Packet> = World::new(4);
        let h0 = w.reserve();
        let h1 = w.reserve();
        let speed = Speed::gbps(10);
        // Data path drops ~0.3% of packets (corruption); ACK path is clean.
        let nic = |to| {
            let disc = QueueSpec::droptail_default().build_host_nic(9000);
            Queue::fused(speed, to, Time::from_us(1), LinkClass::HostNic, disc)
        };
        let nic0 = w.add(nic(h1).with_wire_corruption(0.003));
        let nic1 = w.add(nic(h0));
        w.install(h0, Host::new(0, nic0, speed, 9000));
        w.install(h1, Host::new(1, nic1, speed, 9000));
        let size = 20_000_000u64;
        // DCTCP for its 10 ms MinRTO; a drop-tail NIC never CE-marks, so
        // its control law stays idle.
        attach_tcp_flow(&mut w, 1, (h0, 0), (h1, 1), TcpCfg::dctcp(size), Time::ZERO);
        w.run_until(Time::from_secs(20));
        let tx = &sender(&w, h0, 1).tx;
        assert!(tx.is_complete(), "long flow incomplete");
        // Retransmissions beyond one per RTO expiry are fast retransmits.
        assert!(
            tx.retransmissions > tx.timeouts,
            "mid-window loss must trigger fast retransmit"
        );
        // ~6-7 losses over 2239 packets, each recovered in about an RTT:
        // total time stays near the ideal 16 ms, far from RTO territory.
        assert!(
            tx.fct().unwrap() < Time::from_ms(100),
            "fct {}",
            tx.fct().unwrap()
        );
        assert_eq!(w.get::<Host>(h1).harvest(1).delivered_bytes, size);
    }

    #[test]
    fn dctcp_keeps_queue_near_threshold_and_avoids_loss() {
        let mut w: World<Packet> = World::new(5);
        let sb = SingleBottleneck::build(
            &mut w,
            2,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::dctcp_default(),
        );
        let size = 10_000_000u64;
        for s in 0..2 {
            attach_tcp_flow(
                &mut w,
                s + 1,
                (sb.senders[s as usize], s as u32),
                (sb.receiver, 2),
                TcpCfg::dctcp(size),
                Time::ZERO,
            );
        }
        w.run_until(Time::from_secs(1));
        for s in 0..2u64 {
            let tx = sender(&w, sb.senders[s as usize], s + 1);
            assert!(tx.tx.is_complete());
            assert!(
                tx.marks_echoed > 0,
                "DCTCP should see marks under congestion"
            );
        }
        let q = w.get::<ndp_net::queue::Queue>(sb.bottleneck);
        assert_eq!(
            q.stats.dropped_data, 0,
            "DCTCP should avoid loss in a 200-pkt queue"
        );
        // Queue stays well below the 200-packet cap thanks to marking.
        assert!(
            q.stats.max_occupancy_bytes < 100 * 9000,
            "occupancy {} too high",
            q.stats.max_occupancy_bytes
        );
    }

    /// An MPTCP flow starts every subflow, whether it is pre-established
    /// or opened by a three-way handshake: each claims a share of the
    /// bytes, and the receiver completes on the whole transfer.
    #[test]
    fn an_mptcp_flow_sends_on_every_subflow() {
        for handshake in [Handshake::None, Handshake::ThreeWay] {
            let (mut w, b) = b2b(7, QueueSpec::droptail_default());
            let size = 2_000_000u64;
            let cfg = TcpCfg {
                handshake,
                ..TcpCfg::mptcp(size)
            };
            attach_tcp_flow(&mut w, 1, (b.hosts[0], 0), (b.hosts[1], 1), cfg, Time::ZERO);
            w.run_until(Time::from_ms(200));
            let rx = w.get::<Host>(b.hosts[1]).harvest(1);
            assert_eq!(rx.delivered_bytes, size, "{handshake:?}");
            assert!(rx.completion_time.is_some(), "{handshake:?}");
            let tx = sender(&w, b.hosts[0], 1);
            assert!(tx.tx.is_complete(), "{handshake:?}");
            let claimed: Vec<u64> = tx.subs.iter().map(|s| s.claimed).collect();
            assert_eq!(claimed.len(), N_SUBFLOWS);
            assert!(claimed.iter().all(|&c| c > 0), "{handshake:?}: {claimed:?}");
            assert_eq!(claimed.iter().sum::<u64>(), size);
        }
    }

    #[test]
    fn incast_with_200ms_minrto_hits_timeouts() {
        let mut w: World<Packet> = World::new(6);
        let n = 20usize;
        let sb = SingleBottleneck::build(
            &mut w,
            n,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::DropTail {
                cap_pkts: 20,
                ecn_thresh_pkts: None,
            },
        );
        let size = 450_000u64;
        for s in 0..n as u64 {
            attach_tcp_flow(
                &mut w,
                s + 1,
                (sb.senders[s as usize], s as u32),
                (sb.receiver, n as u32),
                TcpCfg::new(size),
                Time::ZERO,
            );
        }
        w.run_until(Time::from_secs(10));
        let mut timeouts = 0;
        let mut last = Time::ZERO;
        for s in 0..n as u64 {
            let tx = &sender(&w, sb.senders[s as usize], s + 1).tx;
            assert!(tx.is_complete(), "flow {s} incomplete");
            timeouts += tx.timeouts;
            // Every flow starts at 0, so its FCT is its completion instant.
            last = last.max(tx.fct().unwrap());
        }
        assert!(timeouts > 0, "synchronized incast losses should cause RTOs");
        // The 200ms MinRTO pushes the tail far beyond the ideal ~7ms.
        assert!(
            last > Time::from_ms(100),
            "tail should be RTO-dominated, got {last}"
        );
    }

    const MSS: u64 = 1000;
    const RTO: Time = Time::from_ms(10);

    /// A NewReno machine with `segs` MSS-sized segments sent at time 0.
    fn in_flight(segs: u64) -> NewReno {
        let mut r = NewReno::new(10, MSS, RTO);
        for seq in (0..segs).map(|i| i * MSS) {
            r.snd_nxt += MSS;
            r.sent(seq, Time::ZERO);
        }
        r
    }

    /// A cumulative ACK at `now` that takes no RTT sample.
    fn ack(r: &mut NewReno, ack: u64) -> Ack {
        r.on_ack(ack, Time::ZERO, Time::from_us(100))
    }

    #[test]
    fn third_dupack_resends_snd_una_and_enters_recovery() {
        let mut r = in_flight(10);
        assert_eq!(ack(&mut r, 2 * MSS), Ack::Advanced(2 * MSS));
        assert_eq!(ack(&mut r, 2 * MSS), Ack::Ignored);
        assert_eq!(ack(&mut r, 2 * MSS), Ack::Ignored);
        assert_eq!(ack(&mut r, 2 * MSS), Ack::FastRetransmit(2 * MSS));
        // Half the 8 MSS in flight, plus the three segments that left.
        assert_eq!((r.ssthresh, r.cwnd), (4 * MSS, 7 * MSS));
        // Each further duplicate inflates the window by one segment.
        assert_eq!(ack(&mut r, 2 * MSS), Ack::Recovering);
        assert_eq!(r.cwnd, 8 * MSS);
        // Half of a 3 MSS flight is floored at 2 MSS.
        let mut r = in_flight(3);
        for _ in 0..2 {
            assert_eq!(ack(&mut r, 0), Ack::Ignored);
        }
        assert_eq!(ack(&mut r, 0), Ack::FastRetransmit(0));
        assert_eq!(r.ssthresh, 2 * MSS);
    }

    #[test]
    fn partial_acks_resend_each_hole_until_recover_is_acked() {
        let mut r = in_flight(10);
        for _ in 0..3 {
            ack(&mut r, 0);
        }
        assert_eq!(r.ssthresh, 5 * MSS);
        let no_increase = |_| unreachable!("no window growth in recovery");
        // A partial ACK names the next hole and stays in recovery.
        assert_eq!(ack(&mut r, 4 * MSS), Ack::Advanced(4 * MSS));
        assert_eq!(r.open(4 * MSS, no_increase), Some(4 * MSS));
        assert_eq!(ack(&mut r, 4 * MSS), Ack::Recovering);
        // An ACK reaching `recover` (10 MSS) ends it at `ssthresh`.
        assert_eq!(ack(&mut r, 10 * MSS), Ack::Advanced(6 * MSS));
        assert_eq!(r.open(6 * MSS, no_increase), None);
        assert_eq!(r.cwnd, 5 * MSS);
        // Out of recovery, above `ssthresh`, the caller's law grows it.
        assert_eq!(r.open(MSS, |cwnd| cwnd / 5), None);
        assert_eq!(r.cwnd, 6 * MSS);
    }

    #[test]
    fn rto_before_its_deadline_rearms_for_the_remainder() {
        let mut r = in_flight(2);
        assert_eq!(r.arm(), None, "the first send armed it");
        // The first segment is acked at 4 ms: the anchor moves there.
        r.on_ack(MSS, Time::ZERO, Time::from_ms(4));
        let at_10 = r.on_rto(Time::from_ms(10));
        assert_eq!(at_10, Timeout::Rearm(Time::from_ms(4)));
        assert_eq!(r.arm(), None, "re-armed");
        assert_eq!(r.on_rto(Time::from_ms(14)), Timeout::Expired);
        assert_eq!((r.snd_una, r.snd_nxt), (MSS, MSS), "back N to snd_una");
    }

    #[test]
    fn rto_is_rfc6298s_over_the_floor() {
        let mut r = in_flight(1);
        // srtt 4 ms, rttvar 2 ms: 4 + 4·2 = 12 ms clears the 10 ms floor.
        r.sample_rtt(Time::from_ms(4));
        assert_eq!(
            r.on_rto(Time::from_ms(11)),
            Timeout::Rearm(Time::from_ms(1))
        );
        assert_eq!(r.on_rto(Time::from_ms(12)), Timeout::Expired);
        // A 100 us path stays at the floor.
        let mut r = in_flight(1);
        r.sample_rtt(Time::from_us(100));
        assert_eq!(r.arm(), None);
        assert_eq!(r.on_rto(RTO), Timeout::Expired);
    }

    #[test]
    fn expiry_collapses_the_window_and_doubles_the_backoff_up_to_64() {
        let mut r = in_flight(10);
        let mut now = RTO;
        let mut backoffs = vec![];
        for i in 0..8 {
            assert_eq!(r.on_rto(now), Timeout::Expired);
            // The first expiry halves the 10 MSS in flight; each later one
            // finds only the one-MSS resend out, floored at 2 MSS.
            let ssthresh = if i == 0 { 5 * MSS } else { 2 * MSS };
            assert_eq!((r.cwnd, r.ssthresh, r.snd_nxt), (MSS, ssthresh, 0));
            r.snd_nxt += MSS;
            let delay = r.sent(0, now).expect("disarmed by expiry");
            backoffs.push(delay.as_ps() / RTO.as_ps());
            now += delay;
        }
        assert_eq!(backoffs, [2, 4, 8, 16, 32, 64, 64, 64]);
    }

    /// `TcpSender::send_available` for a `total`-byte flow of MSS-sized
    /// segments: send from `snd_nxt` while the window allows, at `now`.
    fn send_available(r: &mut NewReno, total: u64, now: Time) -> Vec<u64> {
        let mut sent = vec![];
        while r.snd_nxt < total && r.flight() < r.cwnd {
            let seq = r.snd_nxt;
            r.snd_nxt += MSS;
            r.sent(seq, now);
            sent.push(seq);
        }
        sent
    }

    #[test]
    fn expiry_goes_back_n_and_repairs_two_holes_in_round_trips() {
        let total = 10 * MSS;
        let mut r = in_flight(10);
        let mut rx = Reassembly::default();
        let mut now = Time::from_us(100);
        // Segments 7 and 9 of the window are lost: one duplicate ACK, too
        // few for fast retransmit, so only the RTO can repair them.
        for seq in (0..10).filter(|&i| i != 7 && i != 9).map(|i| i * MSS) {
            rx.absorb(seq, seq + MSS);
            if let Ack::Advanced(newly) = r.on_ack(rx.rcv_nxt(), Time::ZERO, now) {
                r.open(newly, |_| MSS);
            }
        }
        assert_eq!((r.snd_una, r.snd_nxt), (7 * MSS, total));
        now += RTO;
        assert_eq!(r.on_rto(now), Timeout::Expired);
        // One expiry, then round trips: each ACK clocks out the window.
        let mut round_trips = 0;
        let mut out = send_available(&mut r, total, now);
        while !out.is_empty() {
            round_trips += 1;
            now += Time::from_us(100);
            for seq in std::mem::take(&mut out) {
                rx.absorb(seq, seq + MSS);
                if let Ack::Advanced(newly) = r.on_ack(rx.rcv_nxt(), Time::ZERO, now) {
                    r.open(newly, |_| MSS);
                    out.extend(send_available(&mut r, total, now));
                }
            }
        }
        assert_eq!((rx.rcv_nxt(), r.snd_una, r.snd_nxt), (total, total, total));
        // The resent 7 is acked through the held 8; the one-MSS window
        // then opens to two and sends 9. No second expiry is due.
        assert_eq!(round_trips, 2);
        assert_eq!(r.on_rto(now + RTO * 64), Timeout::Idle);
    }

    /// A fresh DCTCP sender whose first window of `segs` segments is out.
    fn dctcp_sender(segs: u64) -> TcpSender {
        let mut tx = TcpSender::new(1, 1, TcpCfg::dctcp(100 * MSS));
        tx.subs[0].rec.snd_nxt = segs * tx.mss();
        tx
    }

    #[test]
    fn a_fresh_dctcp_sender_halves_cwnd_on_its_first_mark() {
        let mut tx = dctcp_sender(10);
        let mss = tx.mss();
        assert_eq!(
            tx.subs[0].rec.on_ack(mss, Time::ZERO, RTO),
            Ack::Advanced(mss)
        );
        tx.dctcp_on_ack(mss, true);
        assert_eq!(tx.alpha(), 1.0);
        assert_eq!((tx.cwnd(), tx.subs[0].rec.ssthresh), (5 * mss, 5 * mss));
    }

    #[test]
    fn a_window_without_marks_decays_alpha_by_one_minus_g() {
        let mut tx = dctcp_sender(10);
        let mss = tx.mss();
        // The first ACK closes the (empty) window open at the start.
        tx.subs[0].rec.on_ack(mss, Time::ZERO, RTO);
        tx.dctcp_on_ack(mss, false);
        assert_eq!(tx.alpha(), 1.0 - DCTCP_G);
        // The rest of the 10-segment window, unmarked.
        for seq in 2..=10 {
            tx.subs[0].rec.on_ack(seq * mss, Time::ZERO, RTO);
            tx.dctcp_on_ack(mss, false);
        }
        assert_eq!(tx.alpha(), (1.0 - DCTCP_G) * (1.0 - DCTCP_G));
        assert_eq!(tx.cwnd(), 10 * mss, "no mark, no cut");
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut r = Reassembly::default();
        r.absorb(8936, 17872);
        assert_eq!(r.rcv_nxt(), 0);
        r.absorb(0, 8936);
        assert_eq!(r.rcv_nxt(), 17872);
        r.absorb(26808, 35744);
        r.absorb(17872, 26808);
        assert_eq!(r.rcv_nxt(), 35744);
        // Duplicate and overlapping segments are harmless.
        r.absorb(0, 8936);
        r.absorb(30000, 35744);
        assert_eq!(r.rcv_nxt(), 35744);
    }
}
