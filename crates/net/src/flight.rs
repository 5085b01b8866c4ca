//! The packet flight recorder: an opt-in bounded ring of per-hop records.
//!
//! A [`FlightRecorder`] is shared (behind `Arc<Mutex<..>>`) between the
//! harness that will read it and the [`crate::queue::Queue`]s /
//! [`crate::switch::Switch`]es it observes. Each observed component holds
//! a [`FlightHook`] — the recorder handle plus a small integer tag that
//! identifies *which* queue or switch a record came from (the harness maps
//! tags back to human-readable labels at export time).
//!
//! Determinism and cost contract:
//!
//! * a hook never posts events, draws RNG, or touches simulated time
//!   beyond reading the timestamp it is handed — attaching hooks cannot
//!   perturb a run's golden trace;
//! * components without a hook pay one `Option` branch per hop record
//!   site (`None` in every run that never opted in);
//! * the ring is bounded: once `capacity` records are held the oldest is
//!   evicted and counted, so a long run's memory stays O(capacity).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ndp_sim::Time;

use crate::packet::{FlowId, HostId, Packet};

/// What happened to a packet at one hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    /// Arrived at a queue (admission outcome recorded separately).
    Enqueue,
    /// Finished serializing and was handed downstream.
    Dequeue,
    /// Payload cut off (NDP/CP trimming).
    Trim,
    /// Header returned to its sender (§3.2.4 return-to-sender).
    Bounce,
    /// Dropped by admission (full queue).
    Drop,
    /// Lost to a dead link (buffer flush, on-wire loss, down arrival).
    DropDown,
    /// ECN CE mark applied.
    EcnMark,
    /// Steered off a dead port onto a live equivalent by a switch.
    Reroute,
}

impl HopKind {
    /// Stable lowercase name used in NDJSON and Chrome trace output.
    pub fn name(self) -> &'static str {
        match self {
            HopKind::Enqueue => "enqueue",
            HopKind::Dequeue => "dequeue",
            HopKind::Trim => "trim",
            HopKind::Bounce => "bounce",
            HopKind::Drop => "drop",
            HopKind::DropDown => "drop_down",
            HopKind::EcnMark => "ecn_mark",
            HopKind::Reroute => "reroute",
        }
    }
}

/// One structured hop record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    pub at: Time,
    /// Which observed component produced this record (harness-assigned).
    pub tag: u32,
    pub kind: HopKind,
    pub flow: FlowId,
    pub src: HostId,
    pub dst: HostId,
    pub seq: u64,
    /// Wire bytes at the instant of the record (post-trim for trims).
    pub size: u32,
}

/// The bounded ring itself.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<HopRecord>,
    capacity: usize,
    /// Records pushed out of the ring to make room (reported so a
    /// truncated trace never masquerades as a complete one).
    pub evicted: u64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    pub fn push(&mut self, r: HopRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(r);
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// All held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &HopRecord> {
        self.ring.iter()
    }

    /// The records touching one flow, oldest first — the "dump the
    /// flight of a stuck flow" query.
    pub fn records_for_flow(&self, flow: FlowId) -> Vec<HopRecord> {
        self.ring
            .iter()
            .filter(|r| r.flow == flow)
            .copied()
            .collect()
    }

    /// Drain every record out, oldest first (harvest at end of run).
    pub fn take(&mut self) -> Vec<HopRecord> {
        self.ring.drain(..).collect()
    }
}

/// The handle a queue or switch holds: shared recorder + its own tag.
#[derive(Clone)]
pub struct FlightHook {
    rec: Arc<Mutex<FlightRecorder>>,
    tag: u32,
}

impl FlightHook {
    pub fn new(rec: Arc<Mutex<FlightRecorder>>, tag: u32) -> FlightHook {
        FlightHook { rec, tag }
    }

    /// Record one hop. Poisoned-lock recovery is deliberate: telemetry
    /// must never turn a panicking test into a deadlocked one.
    pub fn record(&self, kind: HopKind, at: Time, pkt: &Packet) {
        let mut rec = match self.rec.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        rec.push(HopRecord {
            at,
            tag: self.tag,
            kind,
            flow: pkt.flow,
            src: pkt.src,
            dst: pkt.dst,
            seq: u64::from(pkt.seq),
            size: pkt.size,
        });
    }
}

/// `Debug` without dumping the shared ring (printing it while a
/// component holds the lock would deadlock).
impl std::fmt::Debug for FlightHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightHook")
            .field("tag", &self.tag)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn rec(flow: FlowId) -> HopRecord {
        HopRecord {
            at: Time::from_us(1),
            tag: 0,
            kind: HopKind::Enqueue,
            flow,
            src: 0,
            dst: 9,
            seq: 0,
            size: 1500,
        }
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted, 2);
        let flows: Vec<FlowId> = r.records().map(|h| h.flow).collect();
        assert_eq!(flows, vec![2, 3, 4], "oldest records evicted first");
    }

    #[test]
    fn per_flow_dump_preserves_order() {
        let mut r = FlightRecorder::new(16);
        for (i, flow) in [(0u64, 1u64), (1, 2), (2, 1), (3, 1)] {
            let mut h = rec(flow);
            h.seq = i;
            r.push(h);
        }
        let dumped = r.records_for_flow(1);
        let seqs: Vec<u64> = dumped.iter().map(|h| h.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3]);
    }

    #[test]
    fn hook_records_packet_fields() {
        let shared = Arc::new(Mutex::new(FlightRecorder::new(8)));
        let hook = FlightHook::new(shared.clone(), 42);
        let pkt = Packet::data(3, 5, 77, 9, 1500);
        hook.record(HopKind::Trim, Time::from_us(2), &pkt);
        let r = shared.lock().unwrap();
        let h = r.records().next().expect("one record");
        assert_eq!(
            (h.tag, h.kind, h.flow, h.src, h.dst, h.seq),
            (42, HopKind::Trim, 77, 3, 5, 9)
        );
    }
}
