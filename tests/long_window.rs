//! Long-window open-loop run: the O(concurrent) memory claim, end to end.
//!
//! Runs the quick-scale web-search load point at high load with a **10×**
//! measure window (200 ms simulated vs the sweep's 20 ms) and asserts the
//! flow-lifecycle invariants that make such windows affordable:
//!
//! * peak in-flight flows stay far below total arrivals (lazy attach +
//!   retirement — live state does not scale with the window length);
//! * after the drain, the component arena is back at its pre-traffic
//!   population (every endpoint was freed);
//! * drain ends when the live-flow gauge hits zero, not at a fixed horizon.

use ndp::experiments::openloop::{openloop_run, DistKind};
use ndp::experiments::sweep::OpenLoopPoint;
use ndp::experiments::topo::TopoSpec;
use ndp::experiments::Proto;
use ndp::sim::Time;
use ndp::topology::FatTreeCfg;

#[test]
fn a_ten_times_longer_window_keeps_live_state_o_concurrent() {
    let point = OpenLoopPoint {
        proto: Proto::Ndp,
        topo: TopoSpec::fattree(FatTreeCfg::new(4)),
        dist: DistKind::WebSearch,
        load: 0.5,
        seed: 7,
        warmup: Time::from_ms(2),
        // 10x the quick-scale sweep's measure window.
        measure: Time::from_ms(200),
        drain: Time::from_ms(20),
    };
    let r = openloop_run(point);

    // The point of the refactor: a 10x window costs the same live state.
    assert!(r.offered > 200, "expected a long arrival stream");
    assert!(
        r.peak_live_flows * 4 < r.offered,
        "peak live flows {} must be << total arrivals {}",
        r.peak_live_flows,
        r.offered
    );
    assert_eq!(
        r.live_components_end, r.live_components_baseline,
        "arena must return to the pre-traffic baseline after the drain"
    );
    assert_eq!(
        r.peak_live_components,
        r.live_components_baseline + 1,
        "traffic must not grow the arena (only the driver is added)"
    );
    assert!(
        r.slowdown.len() + r.incomplete == r.measured,
        "every measured flow is either binned or incomplete"
    );
}
