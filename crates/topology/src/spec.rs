//! Queue-discipline specifications, and the one place a topology link is
//! built from them.

use ndp_net::packet::Packet;
use ndp_net::queue::{LinkClass, Queue};
use ndp_net::Discipline;
use ndp_sim::{ComponentId, Speed, Time, World};

/// Which switch service model the fabric uses. Capacities are expressed in
/// MTU-sized packets, the unit the paper uses throughout ("8 packet output
/// queues", "marking threshold 30 packets", ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueSpec {
    /// NDP dual queue: `data_cap_pkts` full packets + equal header budget.
    Ndp { data_cap_pkts: usize },
    /// Plain FIFO with optional ECN marking threshold.
    DropTail {
        cap_pkts: usize,
        ecn_thresh_pkts: Option<usize>,
    },
    /// Cut-payload FIFO (Figure 2 baseline).
    Cp { thresh_pkts: usize },
    /// PFC lossless with ECN (the DCQCN fabric).
    Lossless {
        cap_pkts: usize,
        xoff_pkts: usize,
        xon_pkts: usize,
        ecn_thresh_pkts: Option<usize>,
    },
}

impl QueueSpec {
    /// The paper's NDP default: eight packet data queues.
    pub fn ndp_default() -> QueueSpec {
        QueueSpec::Ndp { data_cap_pkts: 8 }
    }

    /// The paper's DCTCP fabric: 200-packet queues, 30-packet marking.
    pub fn dctcp_default() -> QueueSpec {
        QueueSpec::DropTail {
            cap_pkts: 200,
            ecn_thresh_pkts: Some(30),
        }
    }

    /// The paper's MPTCP/TCP fabric: 200-packet drop-tail queues.
    pub fn droptail_default() -> QueueSpec {
        QueueSpec::DropTail {
            cap_pkts: 200,
            ecn_thresh_pkts: None,
        }
    }

    /// The paper's DCQCN fabric: lossless Ethernet, 200-packet buffers,
    /// 20-packet ECN marking threshold.
    pub fn dcqcn_default() -> QueueSpec {
        QueueSpec::Lossless {
            cap_pkts: 200,
            xoff_pkts: 80,
            xon_pkts: 40,
            ecn_thresh_pkts: Some(20),
        }
    }

    /// pHost fabric: small drop-tail queues (8 packets), no ECN.
    pub fn phost_default() -> QueueSpec {
        QueueSpec::DropTail {
            cap_pkts: 8,
            ecn_thresh_pkts: None,
        }
    }

    /// Materialize the discipline for a fabric queue with the given MTU.
    /// A zero capacity is rejected here, at configuration time: such a
    /// link would drop every packet (or, for NDP, have no tail to trim)
    /// and every flow would idle to the horizon.
    pub fn build(self, mtu: u32) -> Discipline {
        let b = mtu as u64;
        let (field, cap) = match self {
            QueueSpec::Ndp { data_cap_pkts } => ("data_cap_pkts", data_cap_pkts),
            QueueSpec::DropTail { cap_pkts, .. } | QueueSpec::Lossless { cap_pkts, .. } => {
                ("cap_pkts", cap_pkts)
            }
            QueueSpec::Cp { thresh_pkts } => ("thresh_pkts", thresh_pkts),
        };
        assert!(cap > 0, "{self:?}: {field} must be at least 1");
        match self {
            QueueSpec::Ndp { data_cap_pkts } => Discipline::ndp(data_cap_pkts, mtu),
            QueueSpec::DropTail {
                cap_pkts,
                ecn_thresh_pkts,
            } => Discipline::droptail(cap_pkts as u64 * b, ecn_thresh_pkts.map(|k| k as u64 * b)),
            QueueSpec::Cp { thresh_pkts } => Discipline::cp(thresh_pkts as u64 * b),
            QueueSpec::Lossless {
                cap_pkts,
                xoff_pkts,
                xon_pkts,
                ecn_thresh_pkts,
            } => Discipline::lossless(
                cap_pkts as u64 * b,
                xoff_pkts as u64 * b,
                xon_pkts as u64 * b,
                ecn_thresh_pkts.map(|k| k as u64 * b),
            ),
        }
    }

    /// The same service model with its data capacity capped at `pkts`
    /// packets — shallow-buffer scenarios (the NetFPGA testbed's ~8
    /// jumbogram output queues) apply to every protocol that runs there,
    /// so the cap is a property of the scenario, not of the transport.
    /// Thresholds that scale with the buffer (ECN marking, PFC Xoff/Xon)
    /// are clamped to stay inside the new capacity.
    pub fn with_data_cap(self, pkts: usize) -> QueueSpec {
        match self {
            QueueSpec::Ndp { .. } => QueueSpec::Ndp {
                data_cap_pkts: pkts,
            },
            QueueSpec::DropTail {
                ecn_thresh_pkts, ..
            } => QueueSpec::DropTail {
                cap_pkts: pkts,
                ecn_thresh_pkts: ecn_thresh_pkts.map(|t| t.min(pkts)),
            },
            QueueSpec::Cp { .. } => QueueSpec::Cp { thresh_pkts: pkts },
            QueueSpec::Lossless {
                xoff_pkts,
                xon_pkts,
                ecn_thresh_pkts,
                ..
            } => QueueSpec::Lossless {
                cap_pkts: pkts,
                xoff_pkts: xoff_pkts.min(pkts),
                xon_pkts: xon_pkts.min(pkts),
                ecn_thresh_pkts: ecn_thresh_pkts.map(|t| t.min(pkts)),
            },
        }
    }

    /// Host NIC discipline matching this fabric. Every host NIC serves the
    /// host's backlogged flows round-robin out of a 4096-packet buffer, so
    /// a short flow's first packet, or an ACK, waits one packet per other
    /// flow, not behind their whole windows. NDP and CP NICs add the NDP
    /// port's header queue (header-first, but with a deep data queue —
    /// hosts never trim their own traffic); other fabrics get a drop-tail
    /// NIC with no ECN or PFC thresholds.
    pub fn build_host_nic(self, mtu: u32) -> Discipline {
        match self {
            QueueSpec::Ndp { .. } | QueueSpec::Cp { .. } => Discipline::ndp_nic(4096, mtu),
            _ => Discipline::droptail_nic(4096 * mtu as u64),
        }
    }

    /// Wire one directional link of this fabric into `world`: a [`Queue`]
    /// at `speed` delivering to `to` after `delay`, with the host-NIC
    /// discipline on [`LinkClass::HostNic`] links and the fabric discipline
    /// everywhere else. Every topology builder makes its links here.
    pub fn link(
        self,
        world: &mut World<Packet>,
        to: ComponentId,
        class: LinkClass,
        speed: Speed,
        delay: Time,
        mtu: u32,
    ) -> ComponentId {
        let disc = if class == LinkClass::HostNic {
            self.build_host_nic(mtu)
        } else {
            self.build(mtu)
        };
        world.add(Queue::fused(speed, to, delay, class, disc))
    }

    pub fn is_lossless(self) -> bool {
        matches!(self, QueueSpec::Lossless { .. })
    }

    pub fn is_ndp(self) -> bool {
        matches!(self, QueueSpec::Ndp { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_data_cap_preserves_service_model() {
        // NDP stays NDP, drop-tail stays drop-tail; only capacities move.
        assert_eq!(
            QueueSpec::ndp_default().with_data_cap(8),
            QueueSpec::Ndp { data_cap_pkts: 8 }
        );
        assert_eq!(
            QueueSpec::droptail_default().with_data_cap(8),
            QueueSpec::DropTail {
                cap_pkts: 8,
                ecn_thresh_pkts: None
            }
        );
        // Dependent thresholds are clamped inside the new capacity.
        assert_eq!(
            QueueSpec::dctcp_default().with_data_cap(8),
            QueueSpec::DropTail {
                cap_pkts: 8,
                ecn_thresh_pkts: Some(8)
            }
        );
        match QueueSpec::dcqcn_default().with_data_cap(8) {
            QueueSpec::Lossless {
                cap_pkts,
                xoff_pkts,
                xon_pkts,
                ecn_thresh_pkts,
            } => {
                assert_eq!(cap_pkts, 8);
                assert!(xoff_pkts <= 8 && xon_pkts <= 8);
                assert_eq!(ecn_thresh_pkts, Some(8));
            }
            other => panic!("lossless stayed lossless, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "Ndp { data_cap_pkts: 0 }: data_cap_pkts must be at least 1")]
    fn zero_capacity_ndp_fails_at_the_door() {
        QueueSpec::Ndp { data_cap_pkts: 0 }.build(9000);
    }

    #[test]
    #[should_panic(expected = "DropTail { cap_pkts: 0, ecn_thresh_pkts: Some(0) }: cap_pkts must")]
    fn zero_capacity_droptail_fails_at_the_door() {
        QueueSpec::dctcp_default().with_data_cap(0).build(9000);
    }

    #[test]
    #[should_panic(expected = "Cp { thresh_pkts: 0 }: thresh_pkts must be at least 1")]
    fn zero_capacity_cp_fails_at_the_door() {
        QueueSpec::Cp { thresh_pkts: 0 }.build(9000);
    }

    #[test]
    #[should_panic(expected = "Lossless { cap_pkts: 0, xoff_pkts: 0, xon_pkts: 0")]
    fn zero_capacity_lossless_fails_at_the_door() {
        QueueSpec::dcqcn_default().with_data_cap(0).build(9000);
    }

    #[test]
    fn defaults_match_paper_parameters() {
        match QueueSpec::ndp_default() {
            QueueSpec::Ndp { data_cap_pkts } => assert_eq!(data_cap_pkts, 8),
            _ => panic!(),
        }
        match QueueSpec::dctcp_default() {
            QueueSpec::DropTail {
                cap_pkts,
                ecn_thresh_pkts,
            } => {
                assert_eq!(cap_pkts, 200);
                assert_eq!(ecn_thresh_pkts, Some(30));
            }
            _ => panic!(),
        }
        match QueueSpec::dcqcn_default() {
            QueueSpec::Lossless {
                ecn_thresh_pkts, ..
            } => assert_eq!(ecn_thresh_pkts, Some(20)),
            _ => panic!(),
        }
    }
}
