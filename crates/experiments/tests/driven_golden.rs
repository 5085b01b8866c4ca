//! Goldens for the three driven points — an open-loop point per sweep
//! protocol, a failure-matrix column and a two-tenant RPC point — rendered
//! at the commit *before* open-loop flows moved off their own lifecycle
//! component onto the request driver, and pinned here so that rewrite (and
//! any later one) is held to bit-identical behaviour: same event count, same arrivals, same
//! stragglers, same percentile bits.
//!
//! To re-render after an intended behaviour change, run with
//! `-- --nocapture` and copy the printed rows. PR 26 re-rendered the NDP
//! and pHost rows for the receivers' tail-pull sweep: every row gains the
//! sweep's wakes, and only the NDP failure cell, whose dead link eats
//! pulls, moves in its tails and `dropped_down`. The NDP sender's pull
//! bank (a pull that overtakes its NACK pays for the resend when the NACK
//! arrives) re-rendered the three NDP rows; the DCTCP and pHost rows did
//! not move. The NDP host NIC's per-flow round robin re-rendered the same
//! three rows, and again only those (slowdowns as p50 / p99 / max):
//!
//! * `OPENLOOP_NDP_7`: events 3,299,275 → 3,275,434, peak live flows
//!   45 → 43, slowdown 2.152 / 26.299 / 52.617 → 2.061 / 7.944 / 10.210.
//! * `FAILURE_NDP`: events 1,097,784 → 1,094,882, reroutes 415 → 392,
//!   dropped-down 262 → 244; p50 / p99 before the failure 1.254 / 9.387 →
//!   1.271 / 6.879, during it 1.905 / 56.835 → 1.686 / 108.176, after it
//!   1.250 / 37.179 → 1.206 / 6.578.
//! * `RPC_TWO_TENANT`: events 782,861 → 787,022, offered 2,478 → 2,488,
//!   measured 2,137 → 2,148, peak live flows 123 → 114, peak live requests
//!   55 → 50; the closed tenant completes 165 → 176 requests.

use ndp_experiments::failure_matrix;
use ndp_experiments::openloop::{openloop_run, DistKind};
use ndp_experiments::rpc::{rpc_leg_sizes, rpc_world_run, ArrivalSpec, RpcPoint, TenantSpec};
use ndp_experiments::sweep::OpenLoopPoint;
use ndp_experiments::{find_topo, Proto, Scale, TopoSpec};
use ndp_metrics::SlowdownBins;
use ndp_sim::Time;
use ndp_workloads::{EmpiricalCdf, TreeShape};

fn leafspine() -> TopoSpec {
    find_topo("leafspine")
        .expect("registered")
        .spec(Scale::Quick)
}

/// p50 / p99 / max of the overall slowdown distribution, as bits.
fn tail_bits(s: &SlowdownBins) -> [u64; 3] {
    let all = s.overall();
    [
        all.percentile(0.50).to_bits(),
        all.percentile(0.99).to_bits(),
        all.max().to_bits(),
    ]
}

/// events / offered / measured / incomplete / delivered bytes / peak live
/// flows, then the slowdown tail bits.
type OpenLoopRow = ([u64; 6], [u64; 3]);

fn openloop_row(proto: Proto, seed: u64) -> OpenLoopRow {
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
    let row = (
        [
            r.events_processed,
            r.offered as u64,
            r.measured as u64,
            r.incomplete as u64,
            r.delivered_bytes,
            r.peak_live_flows as u64,
        ],
        tail_bits(&r.slowdown),
    );
    println!("openloop {} seed {seed}: {row:?}", proto.label());
    row
}

#[test]
fn openloop_points_match_the_parent_render() {
    let rows = [
        openloop_row(Proto::Ndp, 7),
        openloop_row(Proto::Dctcp, 23),
        openloop_row(Proto::PHost, 1234),
    ];
    assert_eq!(
        rows,
        [OPENLOOP_NDP_7, OPENLOOP_DCTCP_23, OPENLOOP_PHOST_1234]
    );
}

/// events / offered / measured / stuck / peak live flows / reroutes /
/// dropped-down, then the tail bits of each phase.
type FailureRow = ([u64; 7], [[u64; 3]; 3]);

#[test]
fn failure_column_matches_the_parent_render() {
    let rep = failure_matrix::run(Scale::Quick, find_topo("leafspine"));
    let mut rows = Vec::new();
    for (proto, want) in [(Proto::Ndp, FAILURE_NDP), (Proto::Dctcp, FAILURE_DCTCP)] {
        let c = rep
            .cells
            .iter()
            .find(|c| c.proto == proto)
            .expect("the column has one cell per sweep protocol");
        let row: FailureRow = (
            [
                c.events_processed,
                c.offered as u64,
                c.measured as u64,
                c.stuck_flows as u64,
                c.peak_live_flows as u64,
                c.reroutes,
                c.dropped_down,
            ],
            [
                tail_bits(&c.phases[0]),
                tail_bits(&c.phases[1]),
                tail_bits(&c.phases[2]),
            ],
        );
        println!("failure {}: {row:?}", proto.label());
        rows.push((row, want));
    }
    for (row, want) in rows {
        assert_eq!(row, want);
    }
}

/// events / offered / measured / peak live flows / peak live requests,
/// then per tenant offered / completed / incomplete / digest fingerprint.
type RpcRow = ([u64; 5], [[u64; 4]; 2]);

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
    let tenant = |i: usize| {
        let t = &r.tenants[i];
        [t.offered, t.completed, t.incomplete, t.fingerprint]
    };
    let row: RpcRow = (
        [
            r.events_processed,
            r.offered as u64,
            r.measured as u64,
            r.peak_live_flows as u64,
            r.peak_live_requests as u64,
        ],
        [tenant(0), tenant(1)],
    );
    println!("rpc: {row:?}");
    assert_eq!(row, RPC_TWO_TENANT);
}

const OPENLOOP_NDP_7: OpenLoopRow = (
    [3275434, 481, 400, 0, 797188318, 43],
    [
        4611824030160816999,
        4620629617180612678,
        4621937200914893078,
    ],
);
const OPENLOOP_DCTCP_23: OpenLoopRow = (
    [1905090, 490, 419, 2, 762304717, 68],
    [
        4613601000049763776,
        4639453826847217979,
        4648758898564768814,
    ],
);
const OPENLOOP_PHOST_1234: OpenLoopRow = (
    [3145302, 523, 452, 0, 774615849, 47],
    [
        4611634318137431557,
        4627045700815142011,
        4631809225670118614,
    ],
);
const FAILURE_NDP: FailureRow = (
    [1094882, 145, 132, 0, 21, 392, 244],
    [
        [
            4608401289199814449,
            4619431005883005135,
            4619431005883005135,
        ],
        [
            4610271113481446388,
            4637312633157264829,
            4637312633157264829,
        ],
        [
            4608108073390896582,
            4619092633409383127,
            4619092633409383127,
        ],
    ],
);
const FAILURE_DCTCP: FailureRow = (
    [600051, 145, 132, 3, 27, 10, 29],
    [
        [
            4608518067998451751,
            4631414532121156258,
            4631414532121156258,
        ],
        [
            4612665490247357571,
            4632971722194107164,
            4632971722194107164,
        ],
        [
            4609429219448145199,
            4635146694406350531,
            4635146694406350531,
        ],
    ],
);
const RPC_TWO_TENANT: RpcRow = (
    [787022, 2488, 2148, 114, 50],
    [
        [1972, 1972, 0, 1941872821678014893],
        [176, 176, 0, 14289227017752897833],
    ],
);
