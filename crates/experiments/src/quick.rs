//! Tiny entry points used by the facade crate's examples and doctests.

use ndp_core::{attach_flow, NdpFlowCfg, NdpSender};
use ndp_net::host::{Host, HostLatency};
use ndp_net::packet::Packet;
use ndp_sim::{Speed, Time, World};
use ndp_topology::{BackToBack, QueueSpec};

/// Outcome of a simple two-host NDP transfer.
pub struct TransferReport {
    pub bytes: u64,
    pub fct: Time,
    pub goodput_gbps: f64,
    pub retransmissions: u64,
}

/// Transfer `bytes` between two back-to-back 10 Gb/s hosts over NDP and
/// report goodput — the crate's "hello world".
pub fn two_host_transfer(bytes: u64) -> TransferReport {
    let mut world: World<Packet> = World::new(7);
    let b2b = BackToBack::build(
        &mut world,
        Speed::gbps(10),
        Time::from_us(1),
        9000,
        QueueSpec::ndp_default(),
        HostLatency::default(),
    );
    let cfg = NdpFlowCfg {
        n_paths: 1,
        ..NdpFlowCfg::new(bytes)
    };
    attach_flow(
        &mut world,
        1,
        (b2b.hosts[0], 0),
        (b2b.hosts[1], 1),
        cfg,
        Time::ZERO,
    );
    world.run_until(Time::from_secs(10));
    let tx = &world.get::<Host>(b2b.hosts[0]).endpoint::<NdpSender>(1).tx;
    let fct = tx.fct().expect("transfer must complete");
    TransferReport {
        bytes,
        fct,
        goodput_gbps: bytes as f64 * 8.0 / fct.as_secs() / 1e9,
        retransmissions: tx.retransmissions,
    }
}

impl std::fmt::Display for TransferReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Quickstart — two-host NDP transfer")?;
        writeln!(f, "  bytes:       {}", self.bytes)?;
        writeln!(f, "  fct:         {:.3} ms", self.fct.as_ms())?;
        writeln!(f, "  goodput:     {:.2} Gb/s", self.goodput_gbps)?;
        write!(f, "  rtx:         {}", self.retransmissions)
    }
}

impl crate::registry::Report for TransferReport {
    fn headline(&self) -> String {
        format!(
            "{} MB over back-to-back 10G NDP: FCT {:.2} ms, goodput {:.2} Gb/s, {} rtx",
            self.bytes / 1_000_000,
            self.fct.as_ms(),
            self.goodput_gbps,
            self.retransmissions
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("bytes", Json::num(self.bytes as f64)),
            ("fct_ms", Json::num(self.fct.as_ms())),
            ("goodput_gbps", Json::num(self.goodput_gbps)),
            ("retransmissions", Json::num(self.retransmissions as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_hits_line_rate() {
        let r = two_host_transfer(10_000_000);
        assert!(r.goodput_gbps > 9.0, "goodput {:.2}", r.goodput_gbps);
        assert_eq!(r.retransmissions, 0);
    }
}
