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

use ndp::baselines::tcp::{attach_tcp_flow, TcpCfg};
use ndp::core::{attach_flow, NdpFlowCfg};
use ndp::net::Packet;
use ndp::sim::world::SchedulerKind;
use ndp::sim::{Time, World};
use ndp::topology::{FatTree, FatTreeCfg};

/// The pinned trace of `mixed_world` (hash, dispatched-event count):
/// ascending `(time, posting-seq)` over every dispatched event, one
/// scheduled delivery per packet hop. (The name dates from when a second
/// wiring, with a separate wire component behind every queue, had a
/// constant of its own; the value has not moved since hop fusion landed.)
const GOLDEN_FUSED: (u64, u64) = (0xA11C_6039_EE14_D5C6, 6_788);

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
