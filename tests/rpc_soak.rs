//! RPC soak: the serving subsystem's O(concurrent) claim over a
//! mixed-tenant campaign of over ten thousand requests.
//!
//! Runs a simulated mix — a fan-out-8 web-search RPC tenant at steady
//! load plus a bursty background tenant whose diurnal arrival schedule
//! swings between 10 % and 50 % load every 2 ms — on the quick fat-tree,
//! then asserts the invariants that make long request campaigns
//! affordable:
//!
//! * peak in-flight flows stay far below total legs offered (request
//!   trees attach lazily at their arrival instant and every leg detaches
//!   on completion — live state tracks concurrency, not history);
//! * peak in-flight *requests* likewise stay far below requests offered;
//! * the component arena returns to its pre-traffic baseline after the
//!   drain (every endpoint was freed);
//! * no request is left incomplete: like every NDP flow, the legs run
//!   the liveness net, so a dropped tail pull cannot wedge a tree.

use ndp::experiments::rpc::{rpc_leg_sizes, rpc_world_run, ArrivalSpec, RpcPoint, TenantSpec};
use ndp::experiments::topo::TopoSpec;
use ndp::experiments::Proto;
use ndp::sim::Time;
use ndp::topology::FatTreeCfg;
use ndp::workloads::{EmpiricalCdf, TreeShape};

#[test]
fn a_long_rpc_campaign_keeps_live_state_o_concurrent() {
    let point = RpcPoint {
        proto: Proto::Ndp,
        topo: TopoSpec::fattree(FatTreeCfg::new(4)),
        tenants: vec![
            TenantSpec {
                name: "websearch_rpc",
                shape: TreeShape::FanIn,
                fanout: 8,
                leg_sizes: rpc_leg_sizes(),
                response_sizes: Some(EmpiricalCdf::fixed("rpc-response", 1_460)),
                arrivals: ArrivalSpec::Load(0.30),
                slo: Time::from_us(500),
            },
            TenantSpec {
                name: "background_blast",
                shape: TreeShape::FanIn,
                fanout: 4,
                leg_sizes: EmpiricalCdf::fixed("blast-chunk", 8_192),
                arrivals: ArrivalSpec::DiurnalLoad {
                    base: 0.10,
                    peak: 0.50,
                    period: Time::from_ms(2),
                    burst_frac: 0.3,
                },
                response_sizes: None,
                slo: Time::from_us(300),
            },
        ],
        seed: 7,
        warmup: Time::from_ms(2),
        // The shortest whole-ms window that still offers over 10,000
        // requests (10,030; 44 ms offers 9,886).
        measure: Time::from_ms(45),
        drain: Time::from_ms(40),
        sched: None,
        key: "soak".into(),
    };
    let r = rpc_world_run(&point);
    let completed: u64 = r.tenants.iter().map(|t| t.completed).sum();
    let incomplete: u64 = r.tenants.iter().map(|t| t.incomplete).sum();

    assert!(r.offered > 10_000, "soak must offer a long request stream");
    assert!(
        r.peak_live_requests * 20 < r.offered,
        "peak live requests {} must be << requests offered {}",
        r.peak_live_requests,
        r.offered
    );
    // Legs offered >= fanout * completed requests for the fan-out-8
    // tenant alone; live flows must never approach that.
    assert!(
        (r.peak_live_flows as u64) * 20 < completed * 4,
        "peak live flows {} must be << legs offered (~{})",
        r.peak_live_flows,
        completed * 6
    );
    assert_eq!(
        incomplete, 0,
        "liveness net + drain must complete every request"
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
}
