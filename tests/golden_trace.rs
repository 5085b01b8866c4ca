//! Golden-trace determinism tests.
//!
//! Each world below is traced as a hash over every dispatched
//! `(time, component, kind)` triple, in ascending `(time, posting-seq)`
//! order, plus the dispatched-event count. The two-tier and classic
//! schedulers must render the same trace (and the mixed world must render
//! it twice over), which is never intentional to break: it means the
//! engine lost determinism or the schedulers diverged. Each trace is also
//! pinned to its snapshot in `tests/snapshots/`; an intended change
//! re-renders it under `NDP_BLESS=1`.

use ndp::baselines::tcp::{attach_tcp_flow, Handshake, TcpCfg};
use ndp::baselines::{attach_dcqcn_flow, DcqcnCfg};
use ndp::core::{attach_flow, NdpFlowCfg};
use ndp::net::{Host, Packet, Queue};
use ndp::sim::world::SchedulerKind::{self, Classic, TwoTier};
use ndp::sim::{Time, World};
use ndp::topology::{FatTree, FatTreeCfg, LeafSpine, LeafSpineCfg, QueueSpec, Topology};
use ndp_snapshot::snapshot;

/// Three NDP and two TCP flows sharing a k=4 FatTree for 20 ms.
fn mixed_world(kind: SchedulerKind) -> (u64, u64) {
    let mut w: World<Packet> = World::with_scheduler(11, kind);
    w.enable_trace();
    let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
    // Three NDP flows (multipath, trimming fabric is NDP-default).
    for (i, &(src, dst)) in [(0u32, 9u32), (3, 12), (7, 2)].iter().enumerate() {
        let cfg = NdpFlowCfg {
            n_paths: ft.n_paths(src, dst),
            ..NdpFlowCfg::new(300_000)
        };
        attach_flow(
            &mut w,
            i as u64 + 1,
            (ft.hosts[src as usize], src),
            (ft.hosts[dst as usize], dst),
            cfg,
            Time::from_us(i as u64),
        );
    }
    // Two TCP flows sharing the same fabric (cross-protocol event mix).
    for (i, &(src, dst)) in [(5u32, 10u32), (14, 1)].iter().enumerate() {
        let cfg = TcpCfg::new(150_000);
        attach_tcp_flow(
            &mut w,
            i as u64 + 100,
            (ft.hosts[src as usize], src),
            (ft.hosts[dst as usize], dst),
            cfg,
            Time::from_us(2 + i as u64),
        );
    }
    w.run_until(Time::from_ms(20));
    w.trace_hash()
}

/// NDP 7:1 incast on the paper's two-tier testbed: every host sends 450 KB
/// to host 0, sprayed over both spines.
fn testbed_incast(kind: SchedulerKind) -> (u64, u64) {
    let mut w: World<Packet> = World::with_scheduler(5, kind);
    w.enable_trace();
    let tb = LeafSpine::build(&mut w, LeafSpineCfg::testbed());
    for src in 1..8u32 {
        let cfg = NdpFlowCfg {
            n_paths: tb.n_paths(src, 0),
            ..NdpFlowCfg::new(450_000)
        };
        attach_flow(
            &mut w,
            src as u64,
            (tb.hosts[src as usize], src),
            (tb.hosts[0], 0),
            cfg,
            Time::ZERO,
        );
    }
    w.run_until(Time::from_ms(20));
    w.trace_hash()
}

/// DCQCN cross-pod permutation (host `i` to `i + 4`) on a lossless k=4
/// FatTree with every flow on path 0: each pod's four flows share one
/// agg→core link, so queues cross Xoff and PFC pauses propagate. A pausing
/// queue signals its upstreams in list order, so this trace holds the
/// *order* of the derived feeder relation.
fn dcqcn_permutation(kind: SchedulerKind) -> (u64, u64) {
    let mut w: World<Packet> = World::with_scheduler(7, kind);
    w.enable_trace();
    let ft = FatTree::build(
        &mut w,
        FatTreeCfg::new(4).with_fabric(QueueSpec::dcqcn_default()),
    );
    for src in 0..16u32 {
        let dst = (src + 4) % 16;
        attach_dcqcn_flow(
            &mut w,
            src as u64 + 1,
            (ft.hosts[src as usize], src),
            (ft.hosts[dst as usize], dst),
            DcqcnCfg::new(1_000_000),
            Time::ZERO,
        );
    }
    w.run_until(Time::from_ms(5));
    let paused: u64 = (ft.links().iter())
        .map(|l| w.get::<Queue>(l.queue).stats.xoff_sent)
        .sum();
    assert!(paused > 0, "the trace must exercise PFC pause");
    w.trace_hash()
}

/// A 15:1 incast on a k=4 FatTree of 200-packet drop-tail queues (which
/// CE-mark ECT packets above 30): every third sender is a 2.4 MB MPTCP
/// flow, the rest alternate 300 KB three-way-handshake TCP and DCTCP.
/// 3 s of simulated time covers TCP's 200 ms RTO floor with backoff.
/// Returns the trace and, per family (`[MPTCP, TCP + DCTCP]`), the summed
/// sender harvests' `(fast retransmits, timeouts)`.
fn tcp_family_incast(kind: SchedulerKind) -> ((u64, u64), [(u64, u64); 2]) {
    let mut w: World<Packet> = World::with_scheduler(13, kind);
    w.enable_trace();
    let ft = FatTree::build(
        &mut w,
        FatTreeCfg::new(4).with_fabric(QueueSpec::dctcp_default()),
    );
    let size = 300_000;
    for src in 1..16u32 {
        let (from, to) = ((ft.hosts[src as usize], src), (ft.hosts[0], 0));
        let flow = src as u64;
        let tcp = |cfg: TcpCfg| TcpCfg { path: src, ..cfg };
        match src % 3 {
            0 => attach_tcp_flow(&mut w, flow, from, to, TcpCfg::mptcp(8 * size), Time::ZERO),
            1 => {
                let cfg = TcpCfg {
                    handshake: Handshake::ThreeWay,
                    ..tcp(TcpCfg::new(size))
                };
                attach_tcp_flow(&mut w, flow, from, to, cfg, Time::ZERO)
            }
            _ => attach_tcp_flow(&mut w, flow, from, to, tcp(TcpCfg::dctcp(size)), Time::ZERO),
        }
    }
    w.run_until(Time::from_ms(3000));
    let mut recovery = [(0, 0); 2];
    for src in 1..16u32 {
        let h = w.get::<Host>(ft.hosts[src as usize]).harvest(src as u64);
        let family = &mut recovery[usize::from(src % 3 != 0)];
        family.0 += h.retransmissions - h.timeouts;
        family.1 += h.timeouts;
    }
    (w.trace_hash(), recovery)
}

fn render((hash, events): (u64, u64)) -> String {
    format!("hash 0x{hash:016X}\nevents {events}\n")
}

/// Renders `world`'s trace on both schedulers and asserts they agree.
fn on_both_schedulers(world: impl Fn(SchedulerKind) -> (u64, u64)) -> String {
    let [two_tier, classic] = [TwoTier, Classic].map(|kind| render(world(kind)));
    assert_eq!(
        two_tier, classic,
        "two-tier scheduler must reproduce the classic heap's exact event ordering"
    );
    two_tier
}

#[test]
fn golden_trace_is_reproducible_across_runs() {
    assert_eq!(
        render(mixed_world(TwoTier)),
        render(mixed_world(TwoTier)),
        "two consecutive runs must produce identical event traces"
    );
}

#[test]
fn golden_trace_identical_across_schedulers() {
    on_both_schedulers(mixed_world);
}

#[test]
fn golden_trace_matches_committed_hash() {
    snapshot!("mixed_world", render(mixed_world(TwoTier)));
}

#[test]
fn golden_trace_fused_matches_committed_hash_on_both_schedulers() {
    snapshot!("mixed_world", on_both_schedulers(mixed_world));
}

#[test]
fn tcp_family_incast_matches_its_parent_rendered_hash_on_both_schedulers() {
    let trace = on_both_schedulers(|kind| {
        let (trace, [mptcp, tcp]) = tcp_family_incast(kind);
        assert!(
            mptcp.0 > 0 && mptcp.1 > 0,
            "MPTCP (fast rtx, RTOs) {mptcp:?}"
        );
        assert!(tcp.0 > 0 && tcp.1 > 0, "TCP/DCTCP (fast rtx, RTOs) {tcp:?}");
        trace
    });
    snapshot!("tcp_family_incast", trace);
}

#[test]
fn wiring_traces_match_their_parent_rendered_hashes_on_both_schedulers() {
    snapshot!("testbed_incast", on_both_schedulers(testbed_incast));
    snapshot!("dcqcn_permutation", on_both_schedulers(dcqcn_permutation));
}
