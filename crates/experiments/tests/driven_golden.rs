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
//!
//! The drop-tail host NIC's per-flow round robin (every fabric but NDP's)
//! re-rendered the DCTCP and pHost rows, and only those; each constant's
//! doc says what moved. DCTCP's go-back-N RTO expiry and its `alpha`
//! starting at 1 re-rendered the two DCTCP rows, and only those.

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
/// Re-rendered when the drop-tail host NIC became a per-flow round robin:
/// a short flow no longer waits behind its host's TCP windows. Events
/// 1,905,090 → 1,906,555, incomplete 2 → 1, delivered bytes 762,304,717 →
/// 764,479,952, peak live flows 68 → 59; slowdown p50 / p99 / max 2.850 /
/// 149.209 / 630.699 → 2.445 / 50.645 / 1771.614 (the max is the one flow
/// still live at the drain cap).
///
/// Re-rendered again when an RTO expiry went back N and `alpha` began at
/// 1: the straggler's burst is repaired within one expiry, and short
/// flows back off from the marking queues. Events 1,906,555 → 1,919,401,
/// incomplete 1 → 0, delivered bytes 764,479,952 → 772,272,877; slowdown
/// p50 / p99 / max 2.445 / 50.645 / 1771.614 → 2.437 / 41.014 / 51.416.
const OPENLOOP_DCTCP_23: OpenLoopRow = (
    [1919401, 490, 419, 0, 772272877, 59],
    [
        4612670014946390874,
        4630969040309147930,
        4632432976271114702,
    ],
);
/// Re-rendered when the drop-tail host NIC (pHost's fabric takes it too)
/// became a per-flow round robin: a host's RTS, tokens and data take turns
/// with its other flows' packets. Events 3,145,302 → 3,141,925, peak live
/// flows 47 → 50; slowdown p50 / p99 / max 1.989 / 22.569 / 46.984 →
/// 1.981 / 20.786 / 53.514.
const OPENLOOP_PHOST_1234: OpenLoopRow = (
    [3141925, 523, 452, 0, 774615849, 50],
    [
        4611598845037861532,
        4626543860177654799,
        4632728178421938169,
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
/// Re-rendered when the drop-tail host NIC became a per-flow round robin.
/// Events 600,051 → 600,478, stuck 3 → 4, peak live flows 27 → 22,
/// reroutes 10 → 6, dropped-down 29 → 27; p50 / p99 before the failure
/// 1.297 / 44.180 → 1.264 / 15.453, during it 2.435 / 55.244 → 1.635 /
/// 27.856, after it 1.499 / 77.396 → 1.315 / 47.711. Which packets reach
/// the dead link while it is down, and so which flows are left stuck,
/// moves with the order the NICs send them.
///
/// Re-rendered again when an RTO expiry went back N and `alpha` began at
/// 1: the four stuck flows were repairing a lost burst one hole per
/// backed-off RTO; now each burst is repaired within one expiry and the
/// flow runs to completion, so the events grow. Events 600,478 → 697,464,
/// stuck 4 → 0, peak live flows 22 → 21, reroutes 6 → 8, dropped-down
/// 27 → 28; p50 / p99 before the failure 1.264 / 15.453 → 1.314 / 18.383,
/// during it 1.635 / 27.856 → 1.661 / 11.748, after it 1.315 / 47.711 →
/// 1.381 / 20.331.
const FAILURE_DCTCP: FailureRow = (
    [697464, 145, 132, 0, 21, 8, 28],
    [
        [
            4608595064750550288,
            4625867496205206118,
            4625867496205206118,
        ],
        [
            4610159985166563816,
            4622803079807552291,
            4622803079807552291,
        ],
        [
            4608897029761377956,
            4626416010889610840,
            4626416010889610840,
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
