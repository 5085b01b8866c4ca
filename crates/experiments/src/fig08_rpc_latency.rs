//! Figure 8: time to perform a 1 KB RPC over NDP, TCP Fast Open and TCP,
//! with and without deep CPU sleep states.
//!
//! The testbed artefacts are modelled per DESIGN.md: NDP runs on a
//! DPDK-style polling host (small constant per-packet cost), TCP/TFO on an
//! interrupt-driven kernel host; the "sleep" variants add the ~160 µs
//! C-state wake-up the paper found dominates the gap. Expected ordering:
//! NDP ≪ TFO(no sleep) < TCP(no sleep) < TFO < TCP.
//!
//! TFO attaches as a pre-established connection, which is exact here: the
//! 1 KB request fits in one segment, so the data rides on the SYN.

use std::sync::Arc;

use ndp_metrics::{Cdf, Table};
use ndp_net::host::HostLatency;
use ndp_net::packet::Packet;
use ndp_sim::{Speed, Time, World};
use ndp_topology::{BackToBack, QueueSpec, Topology};
use ndp_workloads::{ArrivalProcess, EmpiricalCdf, RpcProfile, RpcWorkload, TenantMix, TreeShape};

use crate::driver::RpcDriver;
use crate::harness::{Proto, Scale};
use ndp_baselines::tcp::Handshake;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    Ndp,
    Tfo,
    Tcp,
    TfoNoSleep,
    TcpNoSleep,
}

impl Stack {
    pub fn label(self) -> &'static str {
        match self {
            Stack::Ndp => "NDP",
            Stack::Tfo => "TFO",
            Stack::Tcp => "TCP",
            Stack::TfoNoSleep => "TFO (no sleep)",
            Stack::TcpNoSleep => "TCP (no sleep)",
        }
    }

    fn latency_model(self) -> HostLatency {
        match self {
            // DPDK polling: the paper's breakdown gives ~22 us for a raw
            // ping and ~40 us of NDP protocol + app processing per RPC.
            Stack::Ndp => HostLatency {
                rx_delay: Time::from_us(7),
                tx_delay: Time::from_us(7),
                ..Default::default()
            },
            // Interrupt-driven kernel stack.
            Stack::TfoNoSleep | Stack::TcpNoSleep => HostLatency {
                rx_delay: Time::from_us(25),
                tx_delay: Time::from_us(12),
                ..Default::default()
            },
            // Same, but C-states deeper than C1 enabled: ~160 us wake-up
            // split across the two hosts that wake per RPC.
            Stack::Tfo | Stack::Tcp => HostLatency {
                rx_delay: Time::from_us(25),
                tx_delay: Time::from_us(12),
                wake_latency: Time::from_us(80),
                sleep_after: Time::from_us(200),
                ..Default::default()
            },
        }
    }

    fn proto(self) -> Proto {
        match self {
            Stack::Ndp => Proto::Ndp,
            _ => Proto::Tcp,
        }
    }

    fn handshake(self) -> Handshake {
        match self {
            Stack::Ndp | Stack::Tfo | Stack::TfoNoSleep => Handshake::None,
            Stack::Tcp | Stack::TcpNoSleep => Handshake::ThreeWay,
        }
    }
}

pub struct Report {
    pub cdfs: Vec<(Stack, Cdf)>,
}

/// One request/response pair per RPC: client sends 1 KB, server replies
/// 1 KB when the request completes. RPCs repeat with a ~1 ms think time
/// (long enough for deep sleep to kick in, as in the paper's testbed).
///
/// The RPC loop is one closed-loop [`RpcProfile`] (ping-pong shape, chain
/// width 1) driven by the [`RpcDriver`]; the TCP/TFO handshake variants
/// ride the driver's pluggable attach hook instead of the generic
/// per-protocol path, so the only bespoke piece left is the per-stack
/// host latency model.
fn run_stack(stack: Stack, n_rpcs: usize) -> Cdf {
    let mut world: World<Packet> = World::new(99);
    let b2b = BackToBack::build(
        &mut world,
        Speed::gbps(10),
        Time::from_us(1),
        1500,
        match stack {
            Stack::Ndp => QueueSpec::ndp_default(),
            _ => QueueSpec::droptail_default(),
        },
        stack.latency_model(),
    );
    let hosts = b2b.hosts;
    let topo: Arc<dyn Topology> = Arc::new(b2b);
    let profile = RpcProfile {
        name: "fig08_rpc",
        shape: TreeShape::PingPong,
        fanout: 1,
        leg_sizes: EmpiricalCdf::fixed("req", 1_000),
        response_sizes: Some(EmpiricalCdf::fixed("rsp", 1_000)),
        arrivals: ArrivalProcess::ClosedLoop {
            median_gap_ps: Time::from_ms(1).as_ps(),
        },
        closed_loop_width: 1,
        slo_ps: Time::from_ms(1).as_ps(),
        clients: Some(vec![0]),
    };
    let horizon = Time::from_secs(30);
    let workload = RpcWorkload::new(2, TenantMix::new(vec![profile]), 99, horizon.as_ps());
    let drv = RpcDriver::install_into(
        &mut world,
        stack.proto(),
        topo,
        Box::new(workload),
        Time::ZERO,
    );
    if stack.proto() != Proto::Ndp {
        // Kernel-stack variants: same driver, but legs attach as TCP
        // flows with the stack's handshake model.
        let handshake = stack.handshake();
        world
            .get_mut::<RpcDriver>(drv)
            .set_attach(Arc::new(move |w, spec| {
                let mut cfg = ndp_baselines::tcp::TcpCfg::new(spec.size);
                cfg.mtu = 1500;
                cfg.handshake = handshake;
                ndp_baselines::tcp::attach_tcp_flow(
                    w,
                    spec.flow,
                    (hosts[spec.src as usize], spec.src),
                    (hosts[spec.dst as usize], spec.dst),
                    cfg,
                    spec.start,
                );
            }));
    }
    let chunk = Time::from_ms(5);
    let mut target = Time::ZERO;
    while world.get::<RpcDriver>(drv).completed.len() < n_rpcs && target < horizon {
        target = (target + chunk).min(horizon);
        world.run_until(target);
    }
    let samples: Vec<f64> = world
        .get::<RpcDriver>(drv)
        .completed
        .iter()
        .take(n_rpcs)
        .map(|c| c.latency.as_us())
        .collect();
    Cdf::from_samples(samples)
}

pub fn run(scale: Scale) -> Report {
    let n = match scale {
        Scale::Paper => 200,
        Scale::Quick => 40,
    };
    let stacks = [
        Stack::Ndp,
        Stack::TfoNoSleep,
        Stack::TcpNoSleep,
        Stack::Tfo,
        Stack::Tcp,
    ];
    Report {
        cdfs: stacks.iter().map(|&s| (s, run_stack(s, n))).collect(),
    }
}

impl Report {
    pub fn median(&self, stack: Stack) -> f64 {
        self.cdfs
            .iter()
            .find(|(s, _)| *s == stack)
            .map(|(_, c)| c.median())
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["stack", "p10 (us)", "median (us)", "p90 (us)", "p99 (us)"]);
        for (s, c) in &self.cdfs {
            t.row([
                s.label().to_string(),
                format!("{:.0}", c.percentile(0.10)),
                format!("{:.0}", c.median()),
                format!("{:.0}", c.percentile(0.90)),
                format!("{:.0}", c.percentile(0.99)),
            ]);
        }
        write!(f, "Figure 8 — 1KB RPC latency\n{}", t.render())
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "median 1KB RPC: NDP {:.0}us, TFO(no sleep) {:.0}us, TCP(no sleep) {:.0}us, TFO {:.0}us, TCP {:.0}us",
            self.median(Stack::Ndp),
            self.median(Stack::TfoNoSleep),
            self.median(Stack::TcpNoSleep),
            self.median(Stack::Tfo),
            self.median(Stack::Tcp)
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        use crate::registry::{cdf_json, CDF_POINTS};
        Json::obj([
            ("unit", Json::str("us")),
            (
                "stacks",
                Json::arr(self.cdfs.iter().map(|(s, c)| {
                    Json::obj([
                        ("stack", Json::str(s.label())),
                        ("rpc_latency", cdf_json(c, CDF_POINTS)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig08", &rep);
        let ndp = rep.median(Stack::Ndp);
        let tfo_ns = rep.median(Stack::TfoNoSleep);
        let tcp_ns = rep.median(Stack::TcpNoSleep);
        let tfo = rep.median(Stack::Tfo);
        let tcp = rep.median(Stack::Tcp);
        assert!(ndp < tfo_ns, "NDP {ndp} < TFO-no-sleep {tfo_ns}");
        assert!(tfo_ns < tcp_ns, "TFO beats TCP without sleep");
        assert!(tfo_ns < tfo, "sleep states inflate TFO");
        assert!(tcp_ns < tcp, "sleep states inflate TCP");
        // NDP is severalfold faster than full TCP, as in the paper.
        assert!(tcp > 2.5 * ndp, "TCP {tcp} vs NDP {ndp}");
    }
}
