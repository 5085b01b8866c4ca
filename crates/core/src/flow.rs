//! Harness glue: attach an NDP flow between two hosts in a built world.

use ndp_net::host::PullPriority;
use ndp_net::packet::{FlowId, HostId, Packet};
use ndp_sim::{ComponentId, Time, World};
use ndp_transport::attach_endpoints;

use crate::receiver::NdpReceiver;
pub use crate::sender::NdpFlowCfg;
use crate::sender::NdpSender;

/// Register sender and receiver endpoints for one flow and schedule its
/// start. `src`/`dst` are (host component id, host id) pairs as returned by
/// the topology builders.
pub fn attach_flow(
    world: &mut World<Packet>,
    flow: FlowId,
    src: (ComponentId, HostId),
    dst: (ComponentId, HostId),
    cfg: NdpFlowCfg,
    start: Time,
) {
    let sender = NdpSender::new(flow, dst.1, cfg.clone());
    let prio = if cfg.high_priority {
        PullPriority::High
    } else {
        PullPriority::Normal
    };
    let receiver = NdpReceiver::new(src.1).with_priority(prio);
    attach_endpoints(world, flow, (src.0, sender), (dst.0, receiver), start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::host::{Endpoint, EndpointCtx, Host, HostLatency};
    use ndp_net::packet::PacketKind;
    use ndp_net::queue::{LinkClass, Queue};
    use ndp_sim::Speed;
    use ndp_topology::{BackToBack, FatTree, FatTreeCfg, QueueSpec, SingleBottleneck, Topology};

    fn b2b(seed: u64) -> (World<Packet>, BackToBack) {
        let mut w: World<Packet> = World::new(seed);
        let b = BackToBack::build(
            &mut w,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
            HostLatency::default(),
        );
        (w, b)
    }

    #[test]
    fn back_to_back_transfer_completes_at_line_rate() {
        let (mut w, b) = b2b(1);
        let size = 10_000_000u64; // 10 MB
        let cfg = NdpFlowCfg {
            n_paths: 1,
            ..NdpFlowCfg::new(size)
        };
        attach_flow(&mut w, 1, (b.hosts[0], 0), (b.hosts[1], 1), cfg, Time::ZERO);
        w.run_until(Time::from_ms(100));
        let rx = w.get::<Host>(b.hosts[1]).harvest(1);
        let tx = &w.get::<Host>(b.hosts[0]).endpoint::<NdpSender>(1).tx;
        assert_eq!(
            rx.delivered_bytes, size,
            "every byte delivered exactly once"
        );
        assert!(tx.is_complete(), "sender saw all ACKs");
        let fct = tx.fct().unwrap();
        let goodput_gbps = size as f64 * 8.0 / fct.as_secs() / 1e9;
        assert!(goodput_gbps > 9.0, "goodput {goodput_gbps:.2} Gb/s");
        assert_eq!(
            tx.retransmissions, 0,
            "nothing to retransmit on an idle link"
        );
        let rx: &NdpReceiver = w.get::<Host>(b.hosts[1]).endpoint(1);
        assert_eq!(rx.stats.duplicate_pkts, 0);
    }

    #[test]
    fn tiny_flow_single_packet() {
        let (mut w, b) = b2b(2);
        let cfg = NdpFlowCfg {
            n_paths: 1,
            ..NdpFlowCfg::new(100)
        };
        attach_flow(&mut w, 1, (b.hosts[0], 0), (b.hosts[1], 1), cfg, Time::ZERO);
        w.run_until(Time::from_ms(10));
        let rx = w.get::<Host>(b.hosts[1]).harvest(1);
        assert_eq!(rx.delivered_bytes, 100);
        assert!(rx.completion_time.is_some());
        // One packet, one ACK, no pull needed for completion.
        let rx: &NdpReceiver = w.get::<Host>(b.hosts[1]).endpoint(1);
        assert_eq!(rx.stats.data_pkts, 1);
    }

    #[test]
    fn fat_tree_cross_pod_transfer_with_reordering() {
        let mut w: World<Packet> = World::new(3);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        let size = 2_000_000u64;
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
        w.run_until(Time::from_ms(50));
        let rx = w.get::<Host>(ft.hosts[15]).harvest(1);
        assert_eq!(rx.delivered_bytes, size);
        let tx = &w.get::<Host>(ft.hosts[0]).endpoint::<NdpSender>(1).tx;
        assert!(tx.is_complete());
        // All four cores carried traffic (per-packet multipath).
        for c in 0..4 {
            assert!(
                w.get::<ndp_net::switch::Switch>(ft.cores[c]).rx_pkts > 10,
                "core {c} unused"
            );
        }
    }

    #[test]
    fn incast_is_lossless_for_metadata_and_completes() {
        let mut w: World<Packet> = World::new(4);
        let n = 30usize;
        let sb = SingleBottleneck::build(
            &mut w,
            n,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
        );
        let size = 30 * 8936; // 30 packets each
        for s in 0..n {
            let cfg = NdpFlowCfg {
                n_paths: 1,
                ..NdpFlowCfg::new(size)
            };
            attach_flow(
                &mut w,
                s as u64 + 1,
                (sb.senders[s], s as HostId),
                (sb.receiver, n as HostId),
                cfg,
                Time::ZERO,
            );
        }
        w.run_until(Time::from_ms(100));
        let mut total = 0u64;
        let mut last_done = Time::ZERO;
        for s in 0..n {
            let tx = &w
                .get::<Host>(sb.senders[s])
                .endpoint::<NdpSender>(s as u64 + 1)
                .tx;
            assert!(tx.is_complete(), "sender {s} incomplete");
            total += size;
            let rx = w.get::<Host>(sb.receiver).harvest(s as u64 + 1);
            last_done = last_done.max(rx.completion_time.unwrap());
        }
        let rx_host = w.get::<Host>(sb.receiver);
        assert_eq!(rx_host.stats().delivered_payload_bytes, total);
        // The bottleneck trimmed but never dropped data silently.
        let q = w.get::<Queue>(sb.bottleneck);
        assert!(q.stats.trimmed > 0, "incast of {n} should trim");
        assert_eq!(q.stats.dropped_data, 0, "metadata must be lossless");
        // Completion near-optimal: total bytes at 10 Gb/s plus 20% slack
        // for the trim-heavy first RTT.
        let optimal = Speed::gbps(10).tx_time(total + total / 5);
        assert!(
            last_done < optimal + Time::from_ms(1),
            "took {last_done} vs optimal {optimal}"
        );
    }

    #[test]
    fn corruption_recovers_via_rto() {
        let mut w: World<Packet> = World::new(5);
        // Build a lossy back-to-back pair by hand.
        let h0 = w.reserve();
        let h1 = w.reserve();
        let mtu = 9000;
        let speed = Speed::gbps(10);
        let nic = |to| {
            let disc = QueueSpec::ndp_default().build_host_nic(mtu);
            Queue::fused(speed, to, Time::from_us(1), LinkClass::HostNic, disc)
                .with_wire_corruption(0.05)
        };
        let nic0 = w.add(nic(h1));
        let nic1 = w.add(nic(h0));
        w.install(h0, Host::new(0, nic0, speed, mtu));
        w.install(h1, Host::new(1, nic1, speed, mtu));
        let size = 1_000_000u64;
        let cfg = NdpFlowCfg {
            n_paths: 1,
            ..NdpFlowCfg::new(size)
        };
        attach_flow(&mut w, 1, (h0, 0), (h1, 1), cfg, Time::ZERO);
        w.run_until(Time::from_secs(2));
        let rx = w.get::<Host>(h1).harvest(1);
        assert_eq!(rx.delivered_bytes, size, "all data must eventually arrive");
        let tx = &w.get::<Host>(h0).endpoint::<NdpSender>(1).tx;
        assert!(tx.timeouts > 0, "corruption must exercise the RTO path");
    }

    #[test]
    fn high_priority_flow_finishes_first_under_contention() {
        let mut w: World<Packet> = World::new(6);
        let n = 7usize;
        let sb = SingleBottleneck::build(
            &mut w,
            n,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
        );
        // Six long flows + one short high-priority flow, all simultaneous.
        let long = 2_000_000u64;
        let short = 200_000u64;
        for s in 0..6 {
            let cfg = NdpFlowCfg {
                n_paths: 1,
                ..NdpFlowCfg::new(long)
            };
            attach_flow(
                &mut w,
                s as u64 + 1,
                (sb.senders[s], s as HostId),
                (sb.receiver, n as HostId),
                cfg,
                Time::ZERO,
            );
        }
        let cfg = NdpFlowCfg {
            n_paths: 1,
            high_priority: true,
            ..NdpFlowCfg::new(short)
        };
        attach_flow(
            &mut w,
            7,
            (sb.senders[6], 6),
            (sb.receiver, n as HostId),
            cfg,
            Time::ZERO,
        );
        w.run_until(Time::from_ms(100));
        let fct = |flow| w.get::<Host>(sb.receiver).harvest(flow).completion_time;
        let short_fct = fct(7).unwrap();
        for s in 0..6 {
            let long_fct = fct(s + 1).unwrap();
            assert!(
                short_fct < long_fct,
                "priority flow must finish before long flows"
            );
        }
        // The priority flow should complete close to its idle-network time:
        // size/linkrate plus the first-RTT contention.
        let idle = Speed::gbps(10).tx_time(short + short / 50);
        assert!(
            short_fct < idle + Time::from_us(500),
            "short flow took {short_fct} vs idle {idle}"
        );
    }

    /// A silent receiver that records the seq of every packet it gets;
    /// tests hand-feed the sender whatever feedback they need.
    struct Recorder {
        sent: Vec<u32>,
    }
    impl Endpoint for Recorder {
        fn on_packet(&mut self, p: Packet, _c: &mut EndpointCtx<'_, '_>) {
            self.sent.push(p.seq);
        }
    }

    #[test]
    fn pull_counter_gap_sends_multiple_packets() {
        // §3.2.1: if a PULL is delayed and the next one (sent on another
        // path) arrives first, its counter pulls two packets.
        let (mut w, b) = b2b(7);
        let cfg = NdpFlowCfg {
            iw_pkts: 1,
            n_paths: 1,
            ..NdpFlowCfg::new(9000 * 20)
        };
        let sender = NdpSender::new(1, 1, cfg);
        w.get_mut::<Host>(b.hosts[0])
            .add_endpoint(1, Box::new(sender));
        w.get_mut::<Host>(b.hosts[1])
            .add_endpoint(1, Box::new(Recorder { sent: vec![] }));
        w.post_wake(Time::ZERO, b.hosts[0], 1 << 8);
        w.run_until(Time::from_us(50));
        // Simulate a reordered pull arriving with counter 3 (pulls 1,2
        // lost/late): the sender must emit 3 packets at once.
        let mut pull = Packet::control(1, 0, 1, PacketKind::Pull);
        pull.ack = 3;
        w.post(Time::from_us(60), b.hosts[0], pull);
        w.run_until(Time::from_us(200));
        let h = w.get::<Host>(b.hosts[0]);
        let s: &NdpSender = h.endpoint(1);
        assert_eq!(s.stats.data_sent, 4, "IW packet + 3 pulled");
        // A stale pull (counter 2 < 3) must be ignored.
        let mut stale = Packet::control(1, 0, 1, PacketKind::Pull);
        stale.ack = 2;
        w.post(Time::from_us(210), b.hosts[0], stale);
        w.run_until(Time::from_us(300));
        let h = w.get::<Host>(b.hosts[0]);
        let s: &NdpSender = h.endpoint(1);
        assert_eq!(s.stats.data_sent, 4, "stale pull ignored");
    }

    #[test]
    fn lost_only_pull_is_repeated_by_the_receiver_host() {
        // The flow's one pull is lost. The sender is owed it, so it stays
        // quiet; only the receiver's host knows the pull went unanswered,
        // and its sweep repeats it after an RTO of quiet.
        struct DropFirstPull(NdpSender, bool);
        impl Endpoint for DropFirstPull {
            fn on_start(&mut self, c: &mut EndpointCtx<'_, '_>) {
                self.0.on_start(c);
            }
            fn on_packet(&mut self, p: Packet, c: &mut EndpointCtx<'_, '_>) {
                if p.kind == PacketKind::Pull && !self.1 {
                    self.1 = true;
                } else {
                    self.0.on_packet(p, c);
                }
            }
            fn on_timer(&mut self, t: u8, c: &mut EndpointCtx<'_, '_>) {
                self.0.on_timer(t, c);
            }
        }
        let (mut w, b) = b2b(8);
        let cfg = NdpFlowCfg {
            iw_pkts: 1,
            n_paths: 1,
            ..NdpFlowCfg::new(2 * 8936)
        };
        let sender = DropFirstPull(NdpSender::new(1, 1, cfg), false);
        attach_endpoints(
            &mut w,
            1,
            (b.hosts[0], sender),
            (b.hosts[1], NdpReceiver::new(0)),
            Time::ZERO,
        );
        w.run_until(Time::from_ms(20));
        let tx: &DropFirstPull = w.get::<Host>(b.hosts[0]).endpoint(1);
        assert!(tx.1, "the pull was dropped");
        assert!(tx.0.tx.is_complete(), "the flow must complete");
        assert_eq!(tx.0.tx.timeouts, 0, "no data was lost, so no RTO");
        assert_eq!(w.get::<Host>(b.hosts[1]).stats().repulls, 1);
    }

    /// A flow of `pkts` packets, all sent in the initial window (the last
    /// one 100 bytes), a silent receiver, and a sender the test hand-feeds.
    fn hand_fed_flow(pkts: u64) -> (World<Packet>, BackToBack) {
        let (mut w, b) = b2b(9);
        let mut cfg = NdpFlowCfg {
            iw_pkts: pkts,
            n_paths: 1,
            ..NdpFlowCfg::new(0)
        };
        cfg.size_bytes = (pkts - 1) * cfg.payload_per_pkt() + 100;
        w.get_mut::<Host>(b.hosts[0])
            .add_endpoint(1, Box::new(NdpSender::new(1, 1, cfg)));
        w.get_mut::<Host>(b.hosts[1])
            .add_endpoint(1, Box::new(Recorder { sent: vec![] }));
        w.post_wake(Time::ZERO, b.hosts[0], 1 << 8);
        (w, b)
    }

    fn feedback(w: &mut World<Packet>, b: &BackToBack, at_us: u64, kind: PacketKind, n: u32) {
        let mut pkt = Packet::control(1, 0, 1, kind);
        match kind {
            PacketKind::Pull => pkt.ack = n,
            _ => pkt.seq = n,
        }
        w.post(Time::from_us(at_us), b.hosts[0], pkt);
    }

    #[test]
    fn overtaken_pull_is_banked_and_spent_by_its_nack() {
        // The flow's pull overtakes the NACK it answers and finds nothing
        // to send. It is banked, and the NACK spends it: seq 0 goes out
        // again when the NACK arrives, not one RTO later.
        let (mut w, b) = hand_fed_flow(1);
        feedback(&mut w, &b, 60, PacketKind::Pull, 1);
        feedback(&mut w, &b, 61, PacketKind::Nack, 0);
        w.run_until(Time::from_us(61));
        let s: &NdpSender = w.get::<Host>(b.hosts[0]).endpoint(1);
        assert_eq!(s.stats.data_sent, 2, "seq 0 resent at the NACK instant");
        assert_eq!(s.stats.wasted_pulls, 0, "the pull was banked");
        w.run_until(Time::from_us(70));
        let r: &Recorder = w.get::<Host>(b.hosts[1]).endpoint(1);
        assert_eq!(r.sent, vec![0, 0]);
        feedback(&mut w, &b, 70, PacketKind::Ack, 0);
        w.run_until(Time::from_ms(5));
        let s: &NdpSender = w.get::<Host>(b.hosts[0]).endpoint(1);
        assert!(s.tx.is_complete());
        assert_eq!(s.stats.rtx_nack, 1);
        assert_eq!(s.tx.timeouts, 0, "no RTO: the bank paid for the resend");
    }

    #[test]
    fn sender_owed_no_pull_self_clocks_after_one_rto() {
        // A pull worth two credits arrives while one packet is
        // outstanding: one credit is banked, and the bound clamps the
        // other away. The first NACK spends the bank. A second NACK for
        // the resent copy then queues work with nothing outstanding, no
        // credit and no pull owed, so no one else will restart the clock:
        // the sender self-clocks after a full RTO of silence.
        let (mut w, b) = hand_fed_flow(1);
        feedback(&mut w, &b, 60, PacketKind::Pull, 2);
        feedback(&mut w, &b, 61, PacketKind::Nack, 0);
        feedback(&mut w, &b, 62, PacketKind::Nack, 0);
        w.run_until(Time::from_us(1050));
        let r: &Recorder = w.get::<Host>(b.hosts[1]).endpoint(1);
        assert_eq!(r.sent, vec![0, 0], "nothing before a full RTO of silence");
        let s: &NdpSender = w.get::<Host>(b.hosts[0]).endpoint(1);
        assert_eq!(s.stats.wasted_pulls, 1, "one credit was clamped away");
        w.run_until(Time::from_us(1500));
        let r: &Recorder = w.get::<Host>(b.hosts[1]).endpoint(1);
        assert_eq!(r.sent, vec![0, 0, 0], "seq 0 self-clocked once");
        feedback(&mut w, &b, 1500, PacketKind::Ack, 0);
        w.run_until(Time::from_ms(5));
        let s: &NdpSender = w.get::<Host>(b.hosts[0]).endpoint(1);
        assert!(s.tx.is_complete());
        assert_eq!(s.tx.timeouts, 1);
    }

    #[test]
    fn the_bank_never_outgrows_the_outstanding_packets() {
        // Three credits for two outstanding packets: two are banked, one
        // is clamped away. An ACK retires a packet, and its credit goes
        // too. The one left pays for one resend, and a second NACK finds
        // the bank empty.
        let (mut w, b) = hand_fed_flow(2);
        feedback(&mut w, &b, 60, PacketKind::Pull, 3);
        feedback(&mut w, &b, 61, PacketKind::Ack, 1);
        feedback(&mut w, &b, 62, PacketKind::Nack, 0);
        feedback(&mut w, &b, 63, PacketKind::Nack, 0);
        w.run_until(Time::from_us(100));
        let s: &NdpSender = w.get::<Host>(b.hosts[0]).endpoint(1);
        assert_eq!(
            s.stats.wasted_pulls, 2,
            "one credit over the bound, one retired"
        );
        assert_eq!(s.stats.data_sent, 3, "the initial window and one resend");
    }

    #[test]
    fn deep_pull_queue_fires_neither_net() {
        // 24 senders into a 1 Gb/s receiver: its pacer serves each flow a
        // pull every 24 x 72 us = 1.7 ms, longer than the RTO. Every flow
        // is owed a pull for that whole gap, so the sender net must stay
        // quiet, and every flow has one pending, so the sweep must too.
        let n = 24usize;
        let mut w: World<Packet> = World::new(10);
        let sb = SingleBottleneck::build(
            &mut w,
            n,
            Speed::gbps(1),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
        );
        for s in 0..n {
            let cfg = NdpFlowCfg {
                n_paths: 1,
                ..NdpFlowCfg::new(20 * 8936)
            };
            let (src, dst) = ((sb.senders[s], s as HostId), (sb.receiver, n as HostId));
            attach_flow(&mut w, s as u64 + 1, src, dst, cfg, Time::ZERO);
        }
        w.run_until(Time::from_ms(200));
        for s in 0..n {
            let tx = &w
                .get::<Host>(sb.senders[s])
                .endpoint::<NdpSender>(s as u64 + 1)
                .tx;
            assert!(tx.is_complete(), "sender {s} incomplete");
            assert_eq!(tx.timeouts, 0, "sender {s} fired in a deep pull queue");
        }
        assert_eq!(w.get::<Host>(sb.receiver).stats().repulls, 0);
    }

    #[test]
    fn determinism_same_seed_same_fct() {
        fn run(seed: u64) -> Time {
            let mut w: World<Packet> = World::new(seed);
            let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
            let cfg = NdpFlowCfg {
                n_paths: ft.n_paths(0, 15),
                ..NdpFlowCfg::new(500_000)
            };
            attach_flow(
                &mut w,
                1,
                (ft.hosts[0], 0),
                (ft.hosts[15], 15),
                cfg,
                Time::ZERO,
            );
            w.run_until(Time::from_ms(50));
            w.get::<Host>(ft.hosts[15])
                .harvest(1)
                .completion_time
                .unwrap()
        }
        assert_eq!(run(11), run(11));
    }
}
