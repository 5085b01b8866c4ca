//! Golden-trace determinism tests.
//!
//! These pin the scheduler refactor to an exact event ordering: a small
//! mixed NDP+TCP FatTree run is traced as a hash over every dispatched
//! `(time, component, kind)` triple, and that hash must be identical
//! (a) across repeated runs, (b) across the two-tier and classic
//! schedulers, and (c) equal to the committed constant below.
//!
//! If a change breaks (c) *intentionally* — a new RNG draw on a hot path,
//! a protocol fix that reorders packets — rerun with
//! `NDP_PRINT_TRACE_HASH=1 cargo test --release golden` and commit the
//! freshly printed value together with an explanation. Breaking (a) or (b)
//! is never intentional: it means the engine lost determinism or the
//! schedulers diverged.

use ndp::baselines::tcp::{attach_tcp_flow, Handshake, TcpCfg};
use ndp::baselines::{attach_dcqcn_flow, attach_mptcp_flow, DcqcnCfg};
use ndp::core::{attach_flow, NdpFlowCfg};
use ndp::net::{Host, Packet, Queue};
use ndp::sim::world::SchedulerKind;
use ndp::sim::{Time, World};
use ndp::topology::{FatTree, FatTreeCfg, LeafSpine, LeafSpineCfg, QueueSpec, Topology};

/// The pinned trace of `mixed_world` (hash, dispatched-event count):
/// ascending `(time, posting-seq)` over every dispatched event, one
/// scheduled delivery per packet hop. (The name dates from when a second
/// wiring, with a separate wire component behind every queue, had a
/// constant of its own.) Re-rendered in PR 26: the receivers' tail-pull
/// sweep adds 3 host wakes, which repeat no pull (was 6 788 events).
const GOLDEN_FUSED: (u64, u64) = (0x9B43_CA67_75AD_B9AE, 6_791);

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

/// Pinned trace of `testbed_incast`: rendered at c00d46e, the last commit
/// whose builders wired RTS bounce targets by hand, then re-rendered in
/// PR 26 for 3 tail-pull sweep wakes at host 0 (was 16 894 events).
const GOLDEN_TESTBED_INCAST: (u64, u64) = (0x1B2E_BF18_F225_384D, 16_897);

/// Pinned trace of `dcqcn_permutation`, rendered at c00d46e from the
/// hand-indexed PFC upstream lists. A pausing queue signals its upstreams
/// in list order, so this is the trace that holds the *order* of the
/// derived feeder relation. Re-rendered (37 194 → 37 022 events) when the
/// lossless fabric's host NIC became a per-flow round robin: each host here
/// sends one flow and receives another, so its ACKs and CNPs take turns
/// with its data instead of queueing behind it.
const GOLDEN_DCQCN_PERMUTATION: (u64, u64) = (0x3307_3CFB_BAA7_BE17, 37_022);

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
/// agg→core link, so queues cross Xoff and PFC pauses propagate.
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

/// Pinned trace of `tcp_family_incast`. Re-rendered when TCP and DCTCP
/// began to go back N on an RTO expiry and DCTCP's `alpha` began at 1:
/// `(0x4895_0FC3_5923_87E8, 58_865)` → the value below. Summed sender
/// `(fast retransmits, timeouts)` went (5, 29) → (1, 6) for TCP + DCTCP,
/// whose bursts are now repaired within one expiry, and (14, 74) →
/// (9, 120) for MPTCP, which shares their queues.
const GOLDEN_TCP_FAMILY_INCAST: (u64, u64) = (0x9E77_C827_492A_B247, 59_257);

/// A 15:1 incast on a k=4 FatTree of 200-packet drop-tail queues (which
/// CE-mark ECT packets above 30): every third sender is a 2.4 MB MPTCP
/// flow, the rest alternate 300 KB three-way-handshake TCP and DCTCP.
/// MPTCP's subflows still repair one hole per backed-off RTO (ROADMAP
/// item 9), so 3 s of simulated time covers backed-off expiries too. Returns
/// the trace and, per family (`[MPTCP, TCP + DCTCP]`), the summed sender
/// harvests' `(fast retransmits, timeouts)`.
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
            0 => attach_mptcp_flow(&mut w, flow, from, to, 8 * size, 9000, Time::ZERO),
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

#[test]
fn tcp_family_incast_matches_its_parent_rendered_hash_on_both_schedulers() {
    for kind in [SchedulerKind::TwoTier, SchedulerKind::Classic] {
        let (trace, [mptcp, tcp]) = tcp_family_incast(kind);
        if std::env::var("NDP_PRINT_TRACE_HASH").is_ok() {
            println!(
                "tcp family incast: (0x{:016X}, {}); (fast rtx, RTOs) MPTCP {mptcp:?}, TCP/DCTCP {tcp:?}",
                trace.0, trace.1
            );
        }
        assert!(
            mptcp.0 > 0 && mptcp.1 > 0,
            "MPTCP (fast rtx, RTOs) {mptcp:?}"
        );
        assert!(tcp.0 > 0 && tcp.1 > 0, "TCP/DCTCP (fast rtx, RTOs) {tcp:?}");
        assert_eq!(
            trace, GOLDEN_TCP_FAMILY_INCAST,
            "{kind:?} TCP family incast"
        );
    }
}

#[test]
fn wiring_traces_match_their_parent_rendered_hashes_on_both_schedulers() {
    for kind in [SchedulerKind::TwoTier, SchedulerKind::Classic] {
        let (incast, perm) = (testbed_incast(kind), dcqcn_permutation(kind));
        if std::env::var("NDP_PRINT_TRACE_HASH").is_ok() {
            println!("testbed incast: (0x{:016X}, {})", incast.0, incast.1);
            println!("dcqcn permutation: (0x{:016X}, {})", perm.0, perm.1);
        }
        assert_eq!(incast, GOLDEN_TESTBED_INCAST, "{kind:?} testbed incast");
        assert_eq!(perm, GOLDEN_DCQCN_PERMUTATION, "{kind:?} DCQCN permutation");
    }
}

#[test]
fn golden_trace_is_reproducible_across_runs() {
    assert_eq!(
        mixed_world(SchedulerKind::TwoTier),
        mixed_world(SchedulerKind::TwoTier),
        "two consecutive runs must produce identical event traces"
    );
}

#[test]
fn golden_trace_identical_across_schedulers() {
    let two_tier = mixed_world(SchedulerKind::TwoTier);
    let classic = mixed_world(SchedulerKind::Classic);
    assert_eq!(
        two_tier, classic,
        "two-tier scheduler must reproduce the classic heap's exact event ordering"
    );
}

#[test]
fn golden_trace_matches_committed_hash() {
    let got = mixed_world(SchedulerKind::TwoTier);
    if std::env::var("NDP_PRINT_TRACE_HASH").is_ok() {
        println!("golden trace: (0x{:016X}, {})", got.0, got.1);
    }
    assert_eq!(
        got, GOLDEN_FUSED,
        "event trace diverged from the committed golden hash; \
         if intentional, rerun with NDP_PRINT_TRACE_HASH=1 and update GOLDEN_FUSED"
    );
}

#[test]
fn golden_trace_fused_matches_committed_hash_on_both_schedulers() {
    for kind in [SchedulerKind::TwoTier, SchedulerKind::Classic] {
        assert_eq!(
            mixed_world(kind),
            GOLDEN_FUSED,
            "{kind:?} diverged from the committed golden hash"
        );
    }
}
