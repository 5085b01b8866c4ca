//! Goldens for the three driven points — an open-loop point per sweep
//! protocol, a failure-matrix column and a two-tenant RPC point — first
//! rendered at the commit *before* open-loop flows moved off their own
//! lifecycle component onto the request driver, so that rewrite (and any
//! later one) is held to bit-identical behaviour: same event count, same
//! arrivals, same stragglers, same percentile bits. Each row is a snapshot
//! in `tests/snapshots/`, one labelled field per line; an intended change
//! re-renders them under `NDP_BLESS=1`.

use ndp_experiments::failure_matrix;
use ndp_experiments::openloop::{openloop_run, DistKind};
use ndp_experiments::rpc::{rpc_leg_sizes, rpc_world_run, ArrivalSpec, RpcPoint, TenantSpec};
use ndp_experiments::sweep::OpenLoopPoint;
use ndp_experiments::{find_topo, Proto, Scale, TopoSpec};
use ndp_metrics::SlowdownBins;
use ndp_sim::Time;
use ndp_snapshot::{field, snapshot};
use ndp_workloads::{EmpiricalCdf, TreeShape};

fn leafspine() -> TopoSpec {
    find_topo("leafspine")
        .expect("registered")
        .spec(Scale::Quick)
}

/// `{phase}_p50`, `_p99` and `_max` of the overall slowdown distribution.
fn tails(out: &mut String, phase: &str, s: &SlowdownBins) {
    let all = s.overall();
    field(out, &format!("{phase}_p50"), all.percentile(0.50));
    field(out, &format!("{phase}_p99"), all.percentile(0.99));
    field(out, &format!("{phase}_max"), all.max());
}

fn openloop_row(proto: Proto, seed: u64) -> String {
    let r = openloop_run(OpenLoopPoint {
        proto,
        topo: leafspine(),
        dist: DistKind::WebSearch,
        load: 0.6,
        seed,
        warmup: Time::from_ms(5),
        measure: Time::from_ms(30),
        drain: Time::from_ms(200),
    });
    assert_eq!(r.live_components_end, r.live_components_baseline);
    assert_eq!(r.peak_live_components, r.live_components_baseline + 1);
    let mut row = String::new();
    field(&mut row, "events", r.events_processed);
    field(&mut row, "offered", r.offered);
    field(&mut row, "measured", r.measured);
    field(&mut row, "incomplete", r.incomplete);
    field(&mut row, "delivered_bytes", r.delivered_bytes);
    field(&mut row, "peak_live_flows", r.peak_live_flows);
    tails(&mut row, "slowdown", &r.slowdown);
    row
}

#[test]
fn openloop_points_match_the_parent_render() {
    for (name, proto, seed) in [
        ("openloop_ndp_7", Proto::Ndp, 7),
        ("openloop_dctcp_23", Proto::Dctcp, 23),
        ("openloop_phost_1234", Proto::PHost, 1234),
    ] {
        snapshot!(name, openloop_row(proto, seed));
    }
}

#[test]
fn failure_column_matches_the_parent_render() {
    let rep = failure_matrix::run(Scale::Quick, find_topo("leafspine"));
    for (name, proto) in [("failure_ndp", Proto::Ndp), ("failure_dctcp", Proto::Dctcp)] {
        let c = rep
            .cells
            .iter()
            .find(|c| c.proto == proto)
            .expect("the column has one cell per sweep protocol");
        let mut row = String::new();
        field(&mut row, "events", c.events_processed);
        field(&mut row, "offered", c.offered);
        field(&mut row, "measured", c.measured);
        field(&mut row, "stuck", c.stuck_flows);
        field(&mut row, "peak_live_flows", c.peak_live_flows);
        field(&mut row, "reroutes", c.reroutes);
        field(&mut row, "dropped_down", c.dropped_down);
        for (phase, s) in failure_matrix::PHASES.iter().zip(&c.phases) {
            tails(&mut row, phase, s);
        }
        snapshot!(name, row);
    }
}

#[test]
fn two_tenant_rpc_point_matches_the_parent_render() {
    let r = rpc_world_run(&RpcPoint {
        proto: Proto::Ndp,
        topo: leafspine(),
        tenants: vec![
            TenantSpec {
                name: "open",
                shape: TreeShape::FanIn,
                fanout: 4,
                leg_sizes: rpc_leg_sizes(),
                response_sizes: Some(EmpiricalCdf::fixed("up", 1_460)),
                arrivals: ArrivalSpec::Load(0.3),
                slo: Time::from_us(300),
            },
            TenantSpec {
                name: "closed",
                shape: TreeShape::PingPong,
                fanout: 1,
                leg_sizes: EmpiricalCdf::fixed("req", 64),
                response_sizes: Some(EmpiricalCdf::fixed("rsp", 4_096)),
                arrivals: ArrivalSpec::Closed {
                    median_gap: Time::from_us(20),
                    width: 2,
                },
                slo: Time::from_us(500),
            },
        ],
        seed: 7,
        warmup: Time::from_ms(1),
        measure: Time::from_ms(6),
        drain: Time::from_ms(15),
        sched: None,
        key: "golden".into(),
    });
    assert_eq!(r.live_components_end, r.live_components_baseline);
    let mut row = String::new();
    field(&mut row, "events", r.events_processed);
    field(&mut row, "offered", r.offered);
    field(&mut row, "measured", r.measured);
    field(&mut row, "peak_live_flows", r.peak_live_flows);
    field(&mut row, "peak_live_requests", r.peak_live_requests);
    for t in &r.tenants {
        field(&mut row, &format!("{}_offered", t.name), t.offered);
        field(&mut row, &format!("{}_completed", t.name), t.completed);
        field(&mut row, &format!("{}_incomplete", t.name), t.incomplete);
        field(&mut row, &format!("{}_fingerprint", t.name), t.fingerprint);
    }
    snapshot!("rpc_two_tenant", row);
}
