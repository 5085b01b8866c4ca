//! Cross-crate integration tests: end-to-end behaviours the paper claims,
//! exercised through the public API of the facade crate.

use ndp::baselines::tcp::{attach_tcp_flow, TcpCfg};
use ndp::core::{attach_flow, NdpFlowCfg, NdpSender};
use ndp::net::{Host, Packet, Queue};
use ndp::sim::{Speed, Time, World};
use ndp::topology::{
    FatTree, FatTreeCfg, LeafSpine, LeafSpineCfg, QueueSpec, SingleBottleneck, Topology,
};

/// §3.1 / Figure 3: priority-forwarded headers let a retransmission arrive
/// before the congested queue drains, so the bottleneck link never idles
/// once the incast starts.
#[test]
fn fig3_retransmission_beats_queue_drain() {
    let mut w: World<Packet> = World::new(5);
    // Ten senders against an eight-packet queue (plus one packet on the
    // wire): at least one packet must be trimmed.
    let n = 10;
    let sb = SingleBottleneck::build(
        &mut w,
        n,
        Speed::gbps(10),
        Time::from_us(1),
        9000,
        QueueSpec::ndp_default(),
    );
    for s in 0..n {
        let cfg = NdpFlowCfg {
            n_paths: 1,
            iw_pkts: 1,
            ..NdpFlowCfg::new(8936)
        };
        attach_flow(
            &mut w,
            s as u64 + 1,
            (sb.senders[s], s as u32),
            (sb.receiver, n as u32),
            cfg,
            Time::ZERO,
        );
    }
    w.run_until(Time::from_ms(10));
    // All packets delivered.
    let host = w.get::<Host>(sb.receiver);
    assert_eq!(host.stats().delivered_payload_bytes, n as u64 * 8936);
    // At least one packet was trimmed, and its retransmission arrived
    // before the queue drained — if the link had gone idle waiting for an
    // RTO this would take >1 ms.
    let q = w.get::<Queue>(sb.bottleneck);
    assert!(q.stats.trimmed >= 1, "overflow packet should be trimmed");
    let last_done = (1..=n as u64)
        .map(|f| {
            w.get::<Host>(sb.receiver)
                .harvest(f)
                .completion_time
                .unwrap()
        })
        .max()
        .unwrap();
    assert!(
        last_done < Time::from_ms(1),
        "retransmission must not wait for a timeout (took {last_done})"
    );
}

/// Determinism: identical seeds give bit-identical outcomes across the
/// whole stack (engine, switches, transports).
#[test]
fn same_seed_same_world() {
    fn run(seed: u64) -> (u64, u64, Time) {
        let mut w: World<Packet> = World::new(seed);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        for (i, dst) in [5u32, 9, 13].iter().enumerate() {
            let cfg = NdpFlowCfg {
                n_paths: ft.n_paths(0, *dst),
                ..NdpFlowCfg::new(400_000)
            };
            attach_flow(
                &mut w,
                i as u64 + 1,
                (ft.hosts[0], 0),
                (ft.hosts[*dst as usize], *dst),
                cfg,
                Time::from_us(i as u64),
            );
        }
        w.run_until(Time::from_ms(20));
        let done: Time = (1..=3u64)
            .map(|f| {
                w.get::<Host>(ft.hosts[[5usize, 9, 13][(f - 1) as usize]])
                    .harvest(f)
                    .completion_time
                    .unwrap()
            })
            .max()
            .unwrap();
        (w.events_processed(), w.len() as u64, done)
    }
    // Bit-identical outcomes for identical seeds. (Different seeds may
    // still tie on completion time — an idle network is serialization
    // bound — so no inequality is asserted.)
    assert_eq!(run(42), run(42));
    assert_eq!(run(43), run(43));
}

/// Conservation: every payload byte pushed by NDP senders is delivered
/// exactly once to the application, regardless of trimming and
/// retransmissions (30:1 incast over a FatTree).
#[test]
fn payload_conservation_under_incast() {
    let mut w: World<Packet> = World::new(9);
    let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
    let n = 12;
    let size = 123_456u64;
    for s in 0..n {
        let src = (s + 1) as u32;
        let cfg = NdpFlowCfg {
            n_paths: ft.n_paths(src, 0),
            ..NdpFlowCfg::new(size)
        };
        attach_flow(
            &mut w,
            s as u64 + 1,
            (ft.hosts[src as usize], src),
            (ft.hosts[0], 0),
            cfg,
            Time::ZERO,
        );
    }
    w.run_until(Time::from_secs(2));
    for s in 0..n {
        let rx = w.get::<Host>(ft.hosts[0]).harvest(s as u64 + 1);
        assert_eq!(rx.delivered_bytes, size, "flow {s} byte count");
        assert!(rx.completion_time.is_some());
    }
    assert_eq!(
        w.get::<Host>(ft.hosts[0]).stats().delivered_payload_bytes,
        n as u64 * size
    );
}

/// NDP and TCP coexistence sanity: both complete on their own fabrics and
/// NDP's short-flow latency advantage holds through the public API.
#[test]
fn ndp_beats_tcp_on_short_transfers_across_a_tree() {
    let size = 90_000u64;
    // NDP on NDP switches.
    let mut w1: World<Packet> = World::new(1);
    let ft1 = FatTree::build(&mut w1, FatTreeCfg::new(4));
    let cfg = NdpFlowCfg {
        n_paths: ft1.n_paths(0, 15),
        ..NdpFlowCfg::new(size)
    };
    attach_flow(
        &mut w1,
        1,
        (ft1.hosts[0], 0),
        (ft1.hosts[15], 15),
        cfg,
        Time::ZERO,
    );
    w1.run_until(Time::from_secs(1));
    let ndp_fct = w1
        .get::<Host>(ft1.hosts[15])
        .harvest(1)
        .completion_time
        .expect("ndp completes");
    // TCP on 200-packet drop-tail switches.
    let mut w2: World<Packet> = World::new(1);
    let ft2 = FatTree::build(
        &mut w2,
        FatTreeCfg::new(4).with_fabric(QueueSpec::droptail_default()),
    );
    // TCP pays its connection handshake; NDP's zero-RTT start is exactly
    // the architectural difference under test here.
    let tcp_cfg = TcpCfg {
        handshake: ndp::baselines::tcp::Handshake::ThreeWay,
        ..TcpCfg::new(size)
    };
    attach_tcp_flow(
        &mut w2,
        1,
        (ft2.hosts[0], 0),
        (ft2.hosts[15], 15),
        tcp_cfg,
        Time::ZERO,
    );
    w2.run_until(Time::from_secs(1));
    let tcp_fct = w2
        .get::<Host>(ft2.hosts[15])
        .harvest(1)
        .completion_time
        .expect("tcp completes");
    assert!(
        ndp_fct < tcp_fct,
        "NDP {} should beat TCP {} on a 90KB transfer (zero-RTT + full-rate start)",
        ndp_fct,
        tcp_fct
    );
}

/// Metadata losslessness: across a heavily overloaded NDP fabric, data may
/// be trimmed but is never silently dropped while the header queues have
/// room; with return-to-sender enabled nothing is lost at all.
#[test]
fn metadata_is_lossless_with_rts() {
    let mut w: World<Packet> = World::new(3);
    let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
    // 15:1 incast with big IW to force trimming and header-queue pressure.
    for s in 1..16u32 {
        let cfg = NdpFlowCfg {
            n_paths: ft.n_paths(s, 0),
            iw_pkts: 30,
            ..NdpFlowCfg::new(30 * 8936)
        };
        attach_flow(
            &mut w,
            s as u64,
            (ft.hosts[s as usize], s),
            (ft.hosts[0], 0),
            cfg,
            Time::ZERO,
        );
    }
    w.run_until(Time::from_secs(2));
    let stats = ft.stats_by_class(&w);
    let mut trims = 0;
    let mut data_drops = 0;
    for (_, s) in &stats {
        trims += s.trimmed;
        data_drops += s.dropped_data;
    }
    assert!(trims > 0, "incast must trim");
    assert_eq!(data_drops, 0, "nothing silently dropped");
    for s in 1..16u64 {
        assert!(
            w.get::<Host>(ft.hosts[0])
                .harvest(s)
                .completion_time
                .is_some(),
            "flow {s} incomplete"
        );
    }
}

/// Two-tier testbed sanity through the facade: the full request fan-out
/// completes near the ideal serialization bound.
#[test]
fn testbed_incast_is_near_ideal() {
    let mut w: World<Packet> = World::new(4);
    let tt = LeafSpine::build(&mut w, LeafSpineCfg::testbed());
    let size = 450_000u64;
    for s in 1..8usize {
        let cfg = NdpFlowCfg {
            n_paths: tt.n_paths(s as u32, 0),
            ..NdpFlowCfg::new(size)
        };
        attach_flow(
            &mut w,
            s as u64,
            (tt.hosts[s], s as u32),
            (tt.hosts[0], 0),
            cfg,
            Time::ZERO,
        );
    }
    w.run_until(Time::from_secs(2));
    let mut last = Time::ZERO;
    for s in 1..8u64 {
        last = last.max(
            w.get::<Host>(tt.hosts[0])
                .harvest(s)
                .completion_time
                .unwrap(),
        );
    }
    let ideal = Speed::gbps(10).tx_time(7 * (size + size / 100));
    assert!(
        last < ideal + Time::from_ms(1),
        "last {last} vs ideal {ideal}"
    );
}

/// The sender's path scoreboard is reachable through the facade and
/// actually excludes a degraded path (end-to-end version of Fig 22).
#[test]
fn path_penalty_end_to_end() {
    let mut w: World<Packet> = World::new(6);
    let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
    // Pod 0's agg 0 and its first core, both directions (Figure 22's link).
    for label in ["agg_up[0][0]", "core_down[0][0]"] {
        let link = ft.links().into_iter().find(|l| l.label == label);
        ft.set_link_speed(&mut w, link.expect(label).queue, Speed::gbps(1));
    }
    let size = 40_000_000u64;
    let cfg = NdpFlowCfg {
        n_paths: ft.n_paths(0, 15),
        ..NdpFlowCfg::new(size)
    };
    attach_flow(
        &mut w,
        1,
        (ft.hosts[0], 0),
        (ft.hosts[15], 15),
        cfg,
        Time::ZERO,
    );
    w.run_until(Time::from_secs(2));
    let tx = w.get::<Host>(ft.hosts[0]).endpoint::<NdpSender>(1);
    let fct = tx.tx.fct().expect("completes");
    let gbps = size as f64 * 8.0 / fct.as_secs() / 1e9;
    // Naive 4-way spraying with one path at 1/10 speed converges to ~7.5
    // Gb/s; the scoreboard should do clearly better.
    assert!(gbps > 8.5, "goodput with degraded path {gbps:.2}");
}

/// §3.2: a new flow sends its first window at line rate, so a host with
/// several new flows backlogs its NIC. Five 30-packet flows leave host 0 at
/// t = 0 and a 1 KB flow at 1 µs. The NIC serves its backlogged flows
/// round-robin, so the short flow's packet waits one packet per other flow
/// plus the one on the serializer, and no flow's RTO fires: it finishes in
/// 44.05 µs against a 1.85 µs ideal FCT, inside the bound of ideal plus six
/// 7.2 µs packet times. With one FIFO for the whole NIC it waited behind
/// all 150 packets (≈1.08 ms), past the 1 ms NDP RTO: it finished in
/// 1.081 ms, 584× its ideal FCT, after one spurious RTO.
#[test]
fn a_short_flow_does_not_wait_behind_other_flows_first_windows() {
    use ndp::experiments::harness::attach_on;
    use ndp::experiments::{Proto, TopoSpec};
    use ndp::net::HEADER_BYTES;
    use ndp::transport::FlowSpec;

    let mut w: World<Packet> = World::new(7);
    let topo = TopoSpec::backtoback().build(&mut w, Proto::Ndp.fabric());
    let window = 30 * u64::from(topo.mtu() - HEADER_BYTES);
    let mut flows: Vec<FlowSpec> = (1..=5).map(|f| FlowSpec::new(f, 0, 1, window)).collect();
    flows.push(FlowSpec {
        start: Time::from_us(1),
        ..FlowSpec::new(6, 0, 1, 1_000)
    });
    for spec in &flows {
        attach_on(&mut w, topo.as_ref(), Proto::Ndp, spec);
    }
    w.run_until(Time::from_ms(20));
    for spec in &flows {
        let h = w.get::<Host>(topo.host(1)).harvest(spec.flow);
        let h = h.merge(w.get::<Host>(topo.host(0)).harvest(spec.flow));
        assert_eq!(h.delivered_bytes, spec.size, "flow {}", spec.flow);
        assert_eq!(h.timeouts, 0, "flow {}: spurious RTO", spec.flow);
    }
    let short = &flows[5];
    let done = w
        .get::<Host>(topo.host(1))
        .harvest(short.flow)
        .completion_time;
    let fct = done.expect("the short flow completes") - short.start;
    let ideal = topo.ideal_fct(0, 1, short.size);
    let packet = Speed::gbps(10).tx_time(topo.mtu() as u64);
    assert!(
        fct <= ideal + packet * 6,
        "short flow took {fct:?}; ideal {ideal:?} plus six packet times is the bound"
    );
}
