//! Property-based tests over the core data structures and protocol
//! invariants.

use ndp::core::{attach_flow, NdpFlowCfg, NdpSender, PathSet};
use ndp::metrics::Cdf;
use ndp::net::host::HostLatency;
use ndp::net::{Host, Packet, Queue};
use ndp::sim::{Speed, Time, World};
use ndp::topology::{BackToBack, QueueSpec, SingleBottleneck};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any flow size over a clean link is delivered exactly once,
    /// regardless of the initial window.
    #[test]
    fn ndp_delivers_exact_bytes(size in 1u64..2_000_000, iw in 1u64..64, seed in 0u64..1000) {
        let mut w: World<Packet> = World::new(seed);
        let b2b = BackToBack::build(
            &mut w,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
            HostLatency::default(),
        );
        let cfg = NdpFlowCfg { n_paths: 1, iw_pkts: iw, ..NdpFlowCfg::new(size) };
        attach_flow(&mut w, 1, (b2b.hosts[0], 0), (b2b.hosts[1], 1), cfg, Time::ZERO);
        w.run_until(Time::from_secs(10));
        let rx = w.get::<Host>(b2b.hosts[1]).harvest(1);
        prop_assert_eq!(rx.delivered_bytes, size);
        prop_assert!(rx.completion_time.is_some());
        let tx = &w.get::<Host>(b2b.hosts[0]).endpoint::<NdpSender>(1).tx;
        prop_assert_eq!(tx.retransmissions, 0, "no retransmissions on a clean link");
    }

    /// Even with corruption on both directions, every byte eventually
    /// arrives exactly once (RTO reliability net).
    #[test]
    fn ndp_survives_corruption(size in 1u64..300_000, p in 0.0f64..0.15, seed in 0u64..200) {
        let mut w: World<Packet> = World::new(seed);
        use ndp::net::{Host, LinkClass};
        let h0 = w.reserve();
        let h1 = w.reserve();
        let speed = Speed::gbps(10);
        let nic = |to| {
            let disc = QueueSpec::ndp_default().build_host_nic(9000);
            Queue::fused(speed, to, Time::from_us(1), LinkClass::HostNic, disc).with_wire_corruption(p)
        };
        let nic0 = w.add(nic(h1));
        let nic1 = w.add(nic(h0));
        w.install(h0, Host::new(0, nic0, speed, 9000));
        w.install(h1, Host::new(1, nic1, speed, 9000));
        let cfg = NdpFlowCfg { n_paths: 1, ..NdpFlowCfg::new(size) };
        attach_flow(&mut w, 1, (h0, 0), (h1, 1), cfg, Time::ZERO);
        w.run_until(Time::from_secs(60));
        let rx = w.get::<Host>(h1).harvest(1);
        prop_assert_eq!(rx.delivered_bytes, size, "all payload delivered despite corruption");
    }

    /// The path permutation visits every path exactly once per round, for
    /// any path count.
    #[test]
    fn pathset_round_coverage(n in 1u32..64, seed in 0u64..1000) {
        let mut ps = PathSet::new(n, false);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _round in 0..4 {
            let mut seen = vec![0u32; n as usize];
            for _ in 0..n {
                seen[ps.next(&mut rng) as usize] += 1;
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "round must be a permutation: {:?}", seen);
        }
    }

    /// CDF percentile queries are monotone and bounded by min/max.
    #[test]
    fn cdf_percentiles_monotone(mut xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let c = Cdf::from_samples(xs.clone());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let v = c.percentile(p);
            prop_assert!(v >= prev);
            prop_assert!(v >= c.min() && v <= c.max());
            prev = v;
        }
        prop_assert_eq!(c.percentile(1.0), *xs.last().unwrap());
    }

    /// The link's conservation law, for every discipline: under seeded
    /// overload or under-load (so arrivals at an idle port, served at once,
    /// are covered too), one or two down/restore flaps and a corrupting
    /// wire, every arrival is forwarded, dropped, bounced, lost to the dead
    /// link, still buffered or on the serializer — nothing else; everything
    /// forwarded is delivered or counted corrupted; occupancy stays inside
    /// the discipline's bound. The data arrives as bursts of `burst` packets
    /// from `flows` flows in turn, the ACKs as a flow of their own; each
    /// host NIC (NDP and drop-tail) must deliver each flow's packets in
    /// order and serve every other flow at most once while a flow's next
    /// packet waits. (Grown from the NDP-only, healthy-link capacity check
    /// whose name it keeps.)
    #[test]
    fn ndp_queue_never_exceeds_capacity(
        disc in 0usize..7,
        n_pkts in 1usize..600,
        flaps in 1u64..3,
        corrupt in 0u8..2,
        flows in 1u64..5,
        burst in 1u64..40,
        seed in 0u64..500,
        load in 0usize..3,
    ) {
        use ndp::net::{Discipline, Flags, LinkClass, PacketKind};
        struct Count(u64);
        impl ndp::sim::Component<Packet> for Count {
            fn handle(&mut self, _ev: ndp::sim::Event<Packet>, _ctx: &mut ndp::sim::Ctx<'_, Packet>) {
                self.0 += 1;
            }
        }
        /// Every delivery: (flow, seq, data?, arrival time).
        struct Log(Vec<(u64, u32, bool, Time)>);
        impl ndp::sim::Component<Packet> for Log {
            fn handle(&mut self, ev: ndp::sim::Event<Packet>, ctx: &mut ndp::sim::Ctx<'_, Packet>) {
                if let ndp::sim::Event::Msg(p) = ev {
                    self.0.push((p.flow, p.seq, p.kind == PacketKind::Data, ctx.now()));
                }
            }
        }
        const MTU: u64 = 9000;
        // (discipline, occupancy bound in bytes)
        let (d, bound) = match disc {
            0 | 1 => (Discipline::ndp(8, MTU as u32), 16 * MTU),
            2 => (Discipline::droptail(20 * MTU, Some(5 * MTU)), 20 * MTU),
            3 => (Discipline::cp(8 * MTU), 16 * MTU),
            4 => (Discipline::lossless(40 * MTU, 10 * MTU, 5 * MTU, Some(3 * MTU)), 40 * MTU),
            5 => (Discipline::ndp_nic(4096, MTU as u32), 8192 * MTU),
            // Shallow enough to refuse arrivals under the 14x overload.
            _ => (Discipline::droptail_nic(20 * MTU), 20 * MTU),
        };
        let (speed, delay) = (Speed::gbps(10), Time::from_us(1));
        let mut w: World<Packet> = World::new(seed);
        let sink = w.add(Log(Vec::new()));
        // Stands in for the owning switch (bounces) and the paused upstream.
        let side = w.add(Count(0));
        let mut link = Queue::fused(speed, sink, delay, LinkClass::TorDown, d)
            .with_wire_corruption(corrupt as f64 * 0.05);
        match disc {
            1 => link.set_bounce_to(side),
            4 => link.set_upstreams(vec![side]),
            _ => {}
        }
        let q = w.add(link);
        // A 9 KB packet (every 7th arrival an ACK, of a flow no data packet
        // belongs to) each `gap` into a 7.2 us serializer: 14x overload,
        // 1.2x, or a link busy about a third of the time.
        let gap = [500u64, 6_000, 20_000][load];
        for i in 0..n_pkts as u64 {
            let pkt = if i % 7 == 6 {
                Packet::control(1, 0, 4, PacketKind::Ack)
            } else {
                Packet::data(0, 1, i / burst % flows, i, MTU as u32).with_flags(Flags::ECT)
            };
            w.post(Time::from_ns(i * gap), q, pkt);
        }
        // Arrivals not yet accounted for by a counter or the buffer.
        let law = |w: &World<Packet>, arrivals: u64| {
            let qq = w.get::<Queue>(q);
            let st = &qq.stats;
            let seen = st.forwarded_pkts + st.dropped_data + st.dropped_ctrl + st.bounced
                + st.dropped_down + qq.queued_packets() as u64;
            arrivals as i64 - seen as i64
        };
        // Flap between arrivals (boundaries sit 250 ns off the arrival
        // grid), and check the law mid-run: the residual is the packet in
        // service, if any.
        let span = n_pkts as u64 * gap;
        let mut edge = 0;
        for k in 1..=flaps {
            let t = (span * k / (flaps + 1) + 250).max(edge);
            w.run_until(Time::from_ns(t));
            let residual = law(&w, (t / gap + 1).min(n_pkts as u64));
            prop_assert!((0..=1).contains(&residual), "before flap {}: {}", k, residual);
            w.get_mut::<Queue>(q).set_down(true);
            edge = t + (span / 8 / gap + 1) * gap;
            w.run_until(Time::from_ns(edge));
            w.get_mut::<Queue>(q).restore();
        }
        w.run_until_idle();
        prop_assert_eq!(law(&w, n_pkts as u64), 0, "idle link holds nothing");
        let qq = w.get::<Queue>(q);
        let log = &w.get::<Log>(sink).0;
        prop_assert_eq!(log.len() as u64, qq.stats.forwarded_pkts - qq.wire_corrupted);
        prop_assert!(corrupt == 1 || qq.wire_corrupted == 0);
        prop_assert!(qq.stats.max_occupancy_bytes <= bound, "occupancy {}", qq.stats.max_occupancy_bytes);
        match disc {
            1 => prop_assert_eq!(w.get::<Count>(side).0, qq.stats.bounced),
            4 => prop_assert!(w.get::<Count>(side).0 >= qq.stats.xoff_sent),
            _ => prop_assert_eq!(qq.stats.bounced, 0),
        }
        if disc >= 5 {
            prop_assert_eq!(qq.stats.trimmed, 0, "the NDP NIC is deep enough never to trim, the drop-tail NIC never does");
            // Each data delivery as (flow, seq, the instant its service
            // started, the instant it arrived at the link).
            let served: Vec<(u64, u32, Time, Time)> = log
                .iter()
                .filter(|d| d.2)
                .map(|&(f, seq, _, t)| (f, seq, t - delay - speed.tx_time(MTU), Time::from_ns(seq as u64 * gap)))
                .collect();
            for (k, &(f, seq, _, arrived)) in served.iter().enumerate() {
                let prev = served[..k].iter().rev().find(|p| p.0 == f);
                prop_assert!(prev.is_none_or(|p| p.1 < seq), "flow {} out of order at seq {}", f, seq);
                // A lost delivery (corrupt wire) would hide when this packet
                // began to wait.
                if corrupt == 1 {
                    continue;
                }
                // It waited from its arrival or its predecessor's service,
                // whichever is later; meanwhile every other flow was served
                // at most once.
                let waited_from = prev.map_or(arrived, |p| p.2.max(arrived));
                let mut others = [0u32; 4];
                for p in &served[..k] {
                    if p.0 != f && p.2 > waited_from {
                        others[p.0 as usize] += 1;
                    }
                }
                prop_assert!(others.iter().all(|&n| n <= 1), "flow {} seq {} waited behind {:?}", f, seq, others);
            }
        }
    }

    /// Retirement safety: under any interleaving of adds, retires and
    /// in-flight events, (a) a stale event is never delivered to a slot's
    /// new occupant, (b) every event sent to a live component arrives,
    /// (c) `ids()` / `try_get` exactly track the live population.
    #[test]
    fn retirement_never_misdelivers(ops in proptest::collection::vec(0u8..10, 1..80), seed in 0u64..1000) {
        use ndp::sim::{Component, ComponentId, Ctx, Event, World};
        /// Records every payload it receives; payloads encode the id the
        /// harness addressed, so misdelivery is detectable.
        struct Tagged { tag: u64, got: Vec<u64> }
        impl Component<u64> for Tagged {
            fn handle(&mut self, ev: Event<u64>, _ctx: &mut Ctx<'_, u64>) {
                if let Event::Msg(v) = ev { self.got.push(v); }
            }
        }
        let mut w: World<u64> = World::new(seed);
        let mut live: Vec<(ComponentId, u64)> = Vec::new();
        let mut retired: Vec<(ComponentId, u64)> = Vec::new();
        // Events posted while a component was live but retired before the
        // run are stale too; track in-flight counts per target.
        let mut pending: std::collections::HashMap<ComponentId, u64> =
            std::collections::HashMap::new();
        let mut next_tag = 0u64;
        let mut expect_stale = 0u64;
        let mut t = 0u64;
        for &op in &ops {
            t += 1;
            match op {
                // Add a fresh component (reuses retired slots).
                0..=3 => {
                    let tag = { next_tag += 1; next_tag };
                    let id = w.add(Tagged { tag, got: vec![] });
                    live.push((id, tag));
                }
                // Retire one live component (round-robin victim); whatever
                // was already addressed to it must now be dropped.
                4..=5 => {
                    if !live.is_empty() {
                        let victim = live.remove(t as usize % live.len());
                        prop_assert!(w.retire(victim.0));
                        expect_stale += pending.remove(&victim.0).unwrap_or(0);
                        retired.push(victim);
                    }
                }
                // Post to a live component.
                6..=8 => {
                    if !live.is_empty() {
                        let (id, tag) = live[t as usize % live.len()];
                        w.post(ndp::sim::Time::from_us(t), id, tag);
                        *pending.entry(id).or_default() += 1;
                    }
                }
                // Post to a retired id: must vanish.
                _ => {
                    if !retired.is_empty() {
                        let (id, tag) = retired[t as usize % retired.len()];
                        w.post(ndp::sim::Time::from_us(t), id, tag);
                        expect_stale += 1;
                    }
                }
            }
        }
        let sent_live: u64 = pending.values().sum();
        w.run_until_idle();
        prop_assert_eq!(w.live_components(), live.len());
        let seen: Vec<ComponentId> = w.ids().collect();
        prop_assert_eq!(seen.len(), live.len());
        let mut delivered = 0u64;
        for &(id, tag) in &live {
            let c = w.try_get::<Tagged>(id).expect("live component visible");
            prop_assert_eq!(c.tag, tag);
            // Every payload delivered here was addressed to this tag.
            prop_assert!(c.got.iter().all(|&v| v == tag), "misdelivered: {:?}", c.got);
            delivered += c.got.len() as u64;
        }
        for &(id, _) in &retired {
            prop_assert!(w.try_get::<Tagged>(id).is_none(), "stale id resolved");
        }
        prop_assert_eq!(delivered, sent_live, "live sends must all arrive");
        prop_assert_eq!(w.stale_events_dropped(), expect_stale);
    }

    /// Fair-share fractions from the blast sink are within [0, ~1] for any
    /// sender count (no accounting leaks).
    #[test]
    fn blast_fair_share_bounded(n in 1usize..40, seed in 0u64..100) {
        let mut w: World<Packet> = World::new(seed);
        let sb = SingleBottleneck::build(&mut w, n, Speed::gbps(10), Time::from_us(1), 9000, QueueSpec::ndp_default());
        for s in 0..n {
            ndp::baselines::blast::attach_blast(
                &mut w,
                s as u64 + 1,
                (sb.senders[s], s as u32),
                (sb.receiver, n as u32),
                9000,
                Speed::gbps(10),
                Time::ZERO,
            );
        }
        let span = Time::from_ms(2);
        w.run_until(span);
        let host = w.get::<Host>(sb.receiver);
        let total: u64 = (1..=n as u64)
            .map(|f| host.harvest(f).delivered_bytes)
            .sum();
        let frac = ndp::baselines::blast::fair_share_fraction(total, 1, Speed::gbps(10), 9000, span);
        prop_assert!(frac <= 1.05, "goodput cannot exceed the link: {frac}");
        if n >= 1 {
            prop_assert!(frac > 0.5, "the link should be mostly busy: {frac}");
        }
    }
}

// ---------------------------------------------------------------------------
// Topology-registry invariants: every registered fabric shape must uphold the
// `Topology` contract the experiment harnesses build on.

mod topology_invariants {
    use ndp::experiments::topo::{TopoEntry, TOPOLOGIES};
    use ndp::experiments::{Proto, Scale};
    use ndp::net::{Host, Packet};
    use ndp::sim::{Time, World};
    use ndp::topology::{QueueSpec, Topology};
    use ndp::transport::FlowSpec;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn build(entry: &TopoEntry, fabric: QueueSpec) -> (World<Packet>, Box<dyn Topology>) {
        let mut w: World<Packet> = World::new(1);
        let topo = entry.spec(Scale::Quick).build(&mut w, fabric);
        (w, topo)
    }

    /// A deterministic (src, dst) pair with src != dst.
    fn pair(n: usize, seed: u64) -> (u32, u32) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let src = rng.gen_range(0..n);
        let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
        (src as u32, dst as u32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Path and hop counts are symmetric, and a tagged raw packet
        /// injected at any source reaches the right destination for every
        /// valid path tag — on every registered topology.
        #[test]
        fn paths_are_symmetric_and_every_tag_delivers(
            ti in 0usize..TOPOLOGIES.len(),
            seed in 0u64..10_000,
        ) {
            let entry = &TOPOLOGIES[ti];
            let (mut w, topo) = build(entry, QueueSpec::ndp_default());
            let (src, dst) = pair(topo.n_hosts(), seed);
            prop_assert_eq!(
                topo.n_paths(src, dst), topo.n_paths(dst, src),
                "{}: n_paths asymmetric for ({}, {})", entry.name, src, dst
            );
            prop_assert_eq!(
                topo.n_hops(src, dst), topo.n_hops(dst, src),
                "{}: n_hops asymmetric for ({}, {})", entry.name, src, dst
            );
            prop_assert!(topo.n_paths(src, dst) >= 1);
            prop_assert_eq!(
                topo.n_hops(src, dst) as usize,
                topo.path_profile(src, dst).len(),
                "{}: hop count disagrees with the path profile", entry.name
            );
            let n_paths = topo.n_paths(src, dst);
            for tag in 0..n_paths {
                let pkt = Packet::data(src, dst, 1000 + tag as u64, 0, topo.mtu())
                    .with_path(tag);
                w.post(Time::ZERO, topo.host_nic(src), pkt);
            }
            w.run_until_idle();
            // No endpoints are registered, so deliveries land in the
            // unknown-flow counter — a delivery proof per tag.
            let h = w.get::<Host>(topo.host(dst));
            prop_assert_eq!(
                h.stats().unknown_flow_drops + h.stats().timewait_rejects,
                n_paths as u64,
                "{}: not every tag of ({}, {}) delivered", entry.name, src, dst
            );
        }

        /// `ideal_fct` is a true lower bound on an unloaded single-flow
        /// run for every registered topology — including the shapes with
        /// slow uplinks, whose bound comes from per-hop speeds.
        #[test]
        fn ideal_fct_is_a_lower_bound_on_an_unloaded_run(
            ti in 0usize..TOPOLOGIES.len(),
            seed in 0u64..10_000,
            size in 1u64..400_000,
        ) {
            let entry = &TOPOLOGIES[ti];
            let proto = Proto::Ndp;
            let (mut w, topo) = build(entry, proto.fabric());
            let (src, dst) = pair(topo.n_hosts(), seed);
            let spec = FlowSpec::new(1, src, dst, size);
            proto.transport().attach(&mut w, topo.as_ref(), &spec);
            w.run_until(Time::from_secs(5));
            let done = w
                .get::<ndp::net::Host>(topo.host(dst))
                .harvest(1)
                .completion_time
                .expect("unloaded flow must complete");
            let ideal = topo.ideal_fct(src, dst, size);
            prop_assert!(
                done >= ideal,
                "{}: measured FCT {} beat the 'ideal' bound {} for ({}, {}, {}B)",
                entry.name, done, ideal, src, dst, size
            );
        }
    }
}

mod chaos_invariants {
    use ndp::experiments::topo::{TopoEntry, TOPOLOGIES};
    use ndp::experiments::Scale;
    use ndp::net::{Host, LinkClass, Packet, Queue};
    use ndp::sim::{Time, World};
    use ndp::topology::{poisson_campaign, CampaignCfg, FabricOp, LinkRef, QueueSpec, Topology};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The registry entries whose switches carry class-labeled uplinks and
    /// reroute-capable routers — the shapes the chaos subsystem targets.
    const MULTIPATH: &[&str] = &[
        "fattree",
        "leafspine",
        "oversubscribed",
        "leafspine-oversub",
    ];

    fn build(name: &str) -> (World<Packet>, Box<dyn Topology>) {
        let entry: &TopoEntry = TOPOLOGIES
            .iter()
            .find(|e| e.name == name)
            .expect("registered topology");
        let mut w: World<Packet> = World::new(1);
        let topo = entry
            .spec(Scale::Quick)
            .build(&mut w, QueueSpec::ndp_default());
        (w, topo)
    }

    /// Uplink indices grouped by owning switch: the label prefix before
    /// the final `[port]` (`"tor_up[3]"` collects all of `tor_up[3][..]`).
    fn uplinks_by_switch(links: &[LinkRef]) -> Vec<Vec<usize>> {
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, l) in links.iter().enumerate() {
            if !matches!(l.class, LinkClass::TorUp | LinkClass::AggUp) {
                continue;
            }
            let key = &l.label[..l.label.rfind('[').expect("uplink labels end in [port]")];
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }

    /// A deterministic (src, dst) pair with src != dst.
    fn pair(n: usize, seed: u64) -> (u32, u32) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let src = rng.gen_range(0..n);
        let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
        (src as u32, dst as u32)
    }

    /// Inject one raw tagged packet per path of (src, dst) and run the
    /// world dry. With no endpoints registered, deliveries land in the
    /// destination host's unknown-flow counter — a proof per tag.
    fn inject_all_tags(
        w: &mut World<Packet>,
        topo: &dyn Topology,
        src: u32,
        dst: u32,
        base_flow: u64,
    ) {
        let at = w.now();
        for tag in 0..topo.n_paths(src, dst) {
            let pkt = Packet::data(src, dst, base_flow + tag as u64, 0, topo.mtu()).with_path(tag);
            w.post(at, topo.host_nic(src), pkt);
        }
        w.run_until_idle();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// After failing ANY strict per-switch subset of the uplinks, every
        /// path tag still delivers src -> dst (the switches reroute around
        /// the masked ports); after restoring, delivery still holds and the
        /// failed queues are back up at their nominal rates.
        #[test]
        fn every_path_delivers_during_failures_and_after_recovery(
            ni in 0usize..MULTIPATH.len(),
            seed in 0u64..10_000,
        ) {
            let (mut w, topo) = build(MULTIPATH[ni]);
            let links = topo.links();
            let groups = uplinks_by_switch(&links);
            prop_assert!(!groups.is_empty(), "{} exposes no uplinks", MULTIPATH[ni]);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xC4A0);
            let mut failed: Vec<usize> = Vec::new();
            for g in &groups {
                // A strict subset per switch: one uplink always survives,
                // so the reroute contract (a live equivalent exists) holds.
                let keep = rng.gen_range(0..g.len());
                for (i, &li) in g.iter().enumerate() {
                    if i != keep && rng.gen_bool(0.5) {
                        failed.push(li);
                    }
                }
            }
            if failed.is_empty() {
                // Keep the property non-vacuous: kill one uplink of the
                // first switch that has a spare.
                if let Some(g) = groups.iter().find(|g| g.len() >= 2) {
                    failed.push(g[0]);
                }
            }
            prop_assert!(!failed.is_empty());
            for &li in &failed {
                topo.fail_link(&mut w, links[li].queue);
            }
            let (src, dst) = pair(topo.n_hosts(), seed);
            let n_paths = topo.n_paths(src, dst) as u64;
            inject_all_tags(&mut w, topo.as_ref(), src, dst, 2_000);
            let delivered = |w: &World<Packet>| {
                let h = w.get::<Host>(topo.host(dst));
                h.stats().unknown_flow_drops + h.stats().timewait_rejects
            };
            prop_assert_eq!(
                delivered(&w), n_paths,
                "{}: not every tag of ({}, {}) delivered with {} uplinks down",
                MULTIPATH[ni], src, dst, failed.len()
            );
            for &li in &failed {
                topo.restore_link(&mut w, links[li].queue);
            }
            for &li in &failed {
                let q = w.get::<Queue>(links[li].queue);
                prop_assert!(!q.is_down(), "{} still down after restore", links[li].label);
                prop_assert_eq!(
                    q.rate(), q.nominal_rate(),
                    "{} not back at nominal rate", links[li].label
                );
            }
            inject_all_tags(&mut w, topo.as_ref(), src, dst, 3_000);
            prop_assert_eq!(
                delivered(&w), 2 * n_paths,
                "{}: delivery broken after recovery", MULTIPATH[ni]
            );
        }

        /// A Poisson campaign is (a) bit-identical per seed, (b) time-sorted,
        /// and (c) well-formed: every `LinkDown` hits a currently-up link of
        /// an eligible class inside [start, end), and is paired with a later
        /// `LinkUp` on the same link.
        #[test]
        fn poisson_campaigns_are_seed_deterministic_and_well_formed(
            seed in 0u64..u64::MAX,
            mtbf_us in 100u64..5_000,
            horizon_us in 500u64..20_000,
        ) {
            let (_w, topo) = build("fattree");
            let links = topo.links();
            let cfg = CampaignCfg {
                classes: vec![LinkClass::TorUp, LinkClass::AggUp],
                mtbf: Time::from_us(mtbf_us),
                mttr: Time::from_us(mtbf_us / 3 + 1),
                start: Time::ZERO,
                end: Time::from_us(horizon_us),
                seed,
            };
            let a = poisson_campaign(&links, &cfg);
            let b = poisson_campaign(&links, &cfg);
            prop_assert_eq!(&a, &b, "same seed must give the same schedule");
            let mut down: Vec<usize> = Vec::new();
            let mut last = Time::ZERO;
            for ev in &a {
                prop_assert!(ev.at >= last, "schedule must be time-sorted");
                last = ev.at;
                match ev.op {
                    FabricOp::LinkDown { link } => {
                        prop_assert!(ev.at < cfg.end, "failures only arrive in [start, end)");
                        prop_assert!(
                            matches!(links[link].class, LinkClass::TorUp | LinkClass::AggUp),
                            "campaign failed an ineligible link: {}", links[link].label
                        );
                        prop_assert!(!down.contains(&link), "double-killed a down link");
                        down.push(link);
                    }
                    FabricOp::LinkUp { link } => {
                        let i = down.iter().position(|&l| l == link);
                        prop_assert!(i.is_some(), "repair without a failure");
                        down.swap_remove(i.unwrap());
                    }
                    other => prop_assert!(false, "campaigns only emit link events, got {:?}", other),
                }
            }
            prop_assert!(down.is_empty(), "every failure must be paired with a repair");
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler delay-lane equivalence: the TwoTier scheduler with per-delay FIFO
// lanes must deliver in exactly the Classic heap's (time, posting-seq) order
// under arbitrary interleavings of hot repeated delays (more of them than
// there are lanes), same-instant trains (and trains posted while one is being
// expanded), zero-delay forwards, partial drains, and retirement churn.

mod scheduler_lanes {
    use ndp::sim::{Component, ComponentId, Ctx, Event, SchedulerKind, Time, World};
    use proptest::prelude::*;

    /// Logs every arrival; when `peer` is set, forwards each payload with
    /// zero delay, exercising the fast lane from inside dispatch.
    struct Echo {
        peer: Option<ComponentId>,
        log: Vec<(Time, u64)>,
    }
    impl Component<u64> for Echo {
        fn handle(&mut self, ev: Event<u64>, ctx: &mut Ctx<'_, u64>) {
            if let Event::Msg(v) = ev {
                self.log.push((ctx.now(), v));
                if let Some(p) = self.peer {
                    ctx.send(p, v, Time::ZERO);
                }
            }
        }
    }

    /// Logs every arrival and answers it with two bursts of its own to
    /// `peer`: one at zero delay, one at a hot lane delay. As trains
    /// (`batch`), fed a train, it posts new trains while its own is still
    /// being expanded, reusing the train slots that expansion just freed.
    struct Relay {
        peer: ComponentId,
        batch: bool,
        log: Vec<(Time, u64)>,
    }
    impl Component<u64> for Relay {
        fn handle(&mut self, ev: Event<u64>, ctx: &mut Ctx<'_, u64>) {
            if let Event::Msg(v) = ev {
                self.log.push((ctx.now(), v));
                let bursts = [
                    (vec![v * 10, v * 10 + 1], Time::ZERO),
                    (vec![v * 10 + 2, v * 10 + 3, v * 10 + 4], hot_delay(v % 4)),
                ];
                for (msgs, delay) in bursts {
                    if self.batch {
                        ctx.send_train(self.peer, msgs, delay);
                    } else {
                        for m in msgs {
                            ctx.send(self.peer, m, delay);
                        }
                    }
                }
            }
        }
    }

    /// Lane-eligible delays on a shared 50 ns grid, so posts from different
    /// (grid-aligned) bases collide on one instant. Twenty of them against
    /// the scheduler's 16 lanes: once the table is full the rest spill to
    /// the heap on every post.
    const HOT_DELAYS: u64 = 20;

    fn hot_delay(k: u64) -> Time {
        Time::from_ns(50 * (k + 1))
    }

    /// The hot grid, three off-grid lane-eligible delays, and two repeated
    /// lane-ineligible ones (> 10 ms) that always tie in the heap.
    fn delay(r: u64) -> Time {
        match r % (HOT_DELAYS + 6) {
            k if k < HOT_DELAYS => hot_delay(k),
            20 => Time::from_ns(777),
            21 => Time::from_ps(65_536),
            22 => Time::from_us(80),
            23 => Time::from_ms(3),
            24 => Time::from_ms(50),
            _ => Time::from_secs(30),
        }
    }

    /// Everything observable about a run: per-component delivery logs
    /// (time + payload, in order), the trace hash, the dispatched-event
    /// count, and the stale-drop count.
    type Outcome = (Vec<Vec<(Time, u64)>>, (u64, u64), u64, u64);

    /// A same-instant burst: one train when `batch`, else the individual
    /// posts it stands for.
    fn post_burst(w: &mut World<u64>, batch: bool, at: Time, to: ComponentId, msgs: Vec<u64>) {
        if batch {
            w.post_train(at, to, msgs);
        } else {
            for m in msgs {
                w.post(at, to, m);
            }
        }
    }

    /// Runs the op script; `batch` posts every burst as a train.
    fn run(kind: SchedulerKind, ops: &[u16], batch: bool) -> Outcome {
        let mut w: World<u64> = World::with_scheduler(7, kind);
        w.enable_trace();
        let sink = w.add(Echo {
            peer: None,
            log: vec![],
        });
        let fwd = w.add(Echo {
            peer: Some(sink),
            log: vec![],
        });
        let relay = w.add(Relay {
            peer: fwd,
            batch,
            log: vec![],
        });
        let mut retired: Vec<ComponentId> = Vec::new();
        let mut base = Time::ZERO;
        let mut tag = 0u64;
        for &x in ops {
            tag += 1;
            let (op, r) = (x % 14, (x / 14) as u64);
            match op {
                // A train to the relay, which answers every element with
                // trains of its own while this one is being expanded.
                13 => {
                    let msgs: Vec<u64> = (0..r % 3 + 2).map(|i| tag * 1000 + i).collect();
                    post_burst(&mut w, batch, base + delay(r), relay, msgs);
                }
                0..=2 => w.post(base + delay(r), sink, tag),
                // Through the forwarder: arrival triggers a zero-delay hop
                // from inside dispatch.
                3 | 4 => w.post(base + delay(r), fwd, tag),
                // Same-instant train; routed through the forwarder half the
                // time so one train spawns a run of zero-delay hops.
                5 | 6 => {
                    let to = if op == 6 { fwd } else { sink };
                    let msgs: Vec<u64> = (0..r % 4 + 1).map(|i| tag * 1000 + i).collect();
                    post_burst(&mut w, batch, base + delay(r), to, msgs);
                }
                // Spawn-and-retire churn: the pre-retire post goes stale.
                7 => {
                    let victim = w.add(Echo {
                        peer: None,
                        log: vec![],
                    });
                    w.post(base + delay(r), victim, tag);
                    assert!(w.retire(victim));
                    retired.push(victim);
                }
                // Post to an already-retired id: stale on arrival.
                8 => {
                    if let Some(&id) = retired.last() {
                        w.post(base + delay(r), id, tag);
                    }
                }
                // Partial drain, then advance the posting base: off the
                // delay grid (9) or along it (10).
                9 | 10 => {
                    let step = if op == 9 { 1 + r * 7 } else { 50 * (1 + r % 8) };
                    let h = base + Time::from_ns(step);
                    w.run_until(h);
                    base = h;
                }
                11 => w.shrink_idle(),
                // Every hot delay twice in a row: the second sighting
                // promotes it while lanes are free, so one sweep fills the
                // lane table and leaves the tail of the grid to the heap,
                // each pair tying at one instant.
                _ => {
                    for k in 0..HOT_DELAYS {
                        w.post(base + hot_delay(k), sink, tag * 1000 + 2 * k);
                        w.post(base + hot_delay(k), fwd, tag * 1000 + 2 * k + 1);
                    }
                }
            }
        }
        w.run_until_idle();
        let logs = vec![
            w.get::<Echo>(sink).log.clone(),
            w.get::<Echo>(fwd).log.clone(),
            w.get::<Relay>(relay).log.clone(),
        ];
        (
            logs,
            w.trace_hash(),
            w.events_processed(),
            w.stale_events_dropped(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Classic and TwoTier fed the same op script must agree on every
        /// delivery (time and order), the trace hash, the event count and
        /// the stale count — with each other, and with Classic posting
        /// every burst as individual messages (the train slots are shared
        /// by both schedulers, so only that reference can see them).
        #[test]
        fn lanes_preserve_exact_delivery_order(
            ops in proptest::collection::vec(0u16..u16::MAX, 1..160),
        ) {
            let reference = run(SchedulerKind::Classic, &ops, false);
            let classic = run(SchedulerKind::Classic, &ops, true);
            let two_tier = run(SchedulerKind::TwoTier, &ops, true);
            prop_assert_eq!(&classic, &reference, "trains diverged from individual posts");
            prop_assert_eq!(&two_tier, &classic, "TwoTier diverged from Classic");
        }
    }
}

// ---------------------------------------------------------------------------
// Classic vs TwoTier A/B at the experiment level: the fast lane, the delay
// lanes and the heap are a pure scheduler-internal reshuffling, so FCTs,
// goodput and even the dispatched event count must be bit-identical to the
// reference heap's on every registered topology entry.

mod scheduler_ab {
    use ndp::experiments::harness::{incast_run, permutation_run};
    use ndp::experiments::{Proto, TopoSpec};
    use ndp::sim::{set_default_scheduler, SchedulerKind, Speed, Time};
    use ndp::topology::{FatTreeCfg, LeafSpineCfg};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Serializes sections that flip the process-wide scheduler default, so
    /// the A and B runs of one case can't interleave with another case's flip.
    static SCHED_TOGGLE: Mutex<()> = Mutex::new(());

    /// All six registered topology entries at quick scale.
    fn spec(ti: usize) -> TopoSpec {
        match ti {
            0 => TopoSpec::fattree(FatTreeCfg::new(4)),
            1 => TopoSpec::leafspine(LeafSpineCfg::new(4, 4, 4)),
            2 => TopoSpec::fattree(FatTreeCfg::new(4).with_hosts_per_tor(8)),
            3 => TopoSpec::leafspine(LeafSpineCfg::new(4, 4, 4).with_uplink_speed(Speed::gbps(5))),
            4 => TopoSpec::leafspine(LeafSpineCfg::testbed()),
            _ => TopoSpec::backtoback(),
        }
    }

    /// Runs `f` twice — TwoTier, then Classic — restoring the TwoTier default.
    fn ab<T>(f: impl Fn() -> T) -> (T, T) {
        let _guard = SCHED_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        set_default_scheduler(SchedulerKind::TwoTier);
        let a = f();
        set_default_scheduler(SchedulerKind::Classic);
        let b = f();
        set_default_scheduler(SchedulerKind::TwoTier);
        (a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Incast completion times are bit-identical on TwoTier and
        /// Classic, on all six registered topology entries.
        #[test]
        fn incast_fcts_scheduler_invariant(seed in 0u64..1000) {
            for ti in 0..6 {
                let s = spec(ti);
                let n = (s.n_hosts() - 1).min(8);
                let horizon = Time::from_ms(500);
                let (a, b) =
                    ab(|| incast_run(Proto::Ndp, spec(ti), n, 45_000, None, seed, horizon));
                prop_assert_eq!(a.incomplete, b.incomplete, "topology {}", ti);
                prop_assert_eq!(a.fcts, b.fcts, "scheduler changed FCTs on topology {}", ti);
                prop_assert_eq!(
                    a.events_processed, b.events_processed,
                    "the scheduler reorders nothing, so event counts must match (topology {})", ti
                );
            }
        }

        /// Permutation goodput and utilization are bit-identical on TwoTier
        /// and Classic, on all six registered topology entries.
        #[test]
        fn permutation_goodput_scheduler_invariant(seed in 0u64..1000) {
            for ti in 0..6 {
                let dur = Time::from_us(500);
                let (a, b) = ab(|| permutation_run(Proto::Ndp, spec(ti), dur, seed, Some(12)));
                prop_assert_eq!(&a.per_flow_gbps, &b.per_flow_gbps, "topology {}", ti);
                prop_assert_eq!(a.utilization, b.utilization, "topology {}", ti);
                prop_assert_eq!(a.events_processed, b.events_processed, "topology {}", ti);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SeqWindow vs the dense arrays it replaced: any script of sends and
// feedback (duplicated, reordered) or of arrivals (any order, far ahead)
// reads back exactly as stores sized for the whole flow would, while the
// window holds only lowest-unsettled..highest-touched.

mod seq_window_oracle {
    use ndp::transport::SeqWindow;
    use proptest::prelude::*;

    // The NDP sender's slot encoding.
    const IDLE: u32 = u32::MAX;
    const ACKED: u32 = u32::MAX - 1;
    const TOTAL: usize = 160;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sender shape, against `acked: Vec<bool>` + `outstanding:
        /// Vec<u32>`.
        #[test]
        fn sender_window_matches_dense_arrays(
            // Each word packs (op, path, feedback target).
            ops in proptest::collection::vec(0u32..7 * 8 * 1000, 1..500),
            reserve in 0usize..40,
        ) {
            let mut w = SeqWindow::new(IDLE, ACKED, reserve);
            let mut acked = [false; TOTAL];
            let mut outstanding = [IDLE; TOTAL];
            let mut next_new = 0usize;
            for word in ops {
                let (op, path, r) = (word % 7, word / 7 % 8, (word / 56) as usize);
                // Feedback is for something sent: first, duplicate or late.
                let seq = r % next_new.max(1);
                match op {
                    // Send the next new packet.
                    0..=2 if next_new < TOTAL => {
                        outstanding[next_new] = path;
                        w.set(next_new as u64, path);
                        next_new += 1;
                    }
                    // ACK.
                    3 if next_new > 0 => {
                        outstanding[seq] = IDLE;
                        acked[seq] = true;
                        if w.get(seq as u64) != ACKED {
                            w.set(seq as u64, ACKED);
                        }
                    }
                    // NACK: stops being outstanding, stays un-ACKed.
                    4 if next_new > 0 => {
                        outstanding[seq] = IDLE;
                        if w.get(seq as u64) < ACKED {
                            w.set(seq as u64, IDLE);
                        }
                    }
                    // RTS / pulled retransmission: back out on a new path.
                    5 if next_new > 0 && !acked[seq] => {
                        outstanding[seq] = path;
                        w.set(seq as u64, path);
                    }
                    // RTO: the oldest outstanding packet and its path.
                    6 => {
                        let dense = outstanding
                            .iter()
                            .position(|&p| p != IDLE)
                            .map(|i| (i as u64, outstanding[i]));
                        prop_assert_eq!(w.iter().find(|&(_, p)| p < ACKED), dense);
                    }
                    _ => {}
                }
                for s in 0..TOTAL + 2 {
                    let dense = match acked.get(s) {
                        Some(true) => ACKED,
                        _ => outstanding.get(s).copied().unwrap_or(IDLE),
                    };
                    prop_assert_eq!(w.get(s as u64), dense, "seq {}", s);
                }
                let first_unacked = acked.iter().position(|&a| !a).unwrap_or(TOTAL);
                prop_assert_eq!(w.floor(), first_unacked as u64);
                prop_assert!(w.high() <= next_new.max(first_unacked) as u64);
                prop_assert!(w.len() as u64 <= w.high() - w.floor());
            }
        }

        /// Receiver shape, against `received: Vec<bool>` grown on demand.
        #[test]
        fn receiver_window_matches_dense_bitmap(
            arrivals in proptest::collection::vec(0u64..400, 1..600),
        ) {
            let mut w = SeqWindow::new(false, true, 0);
            let mut received = [false; 402];
            let mut top = 0;
            for seq in arrivals {
                prop_assert_eq!(w.settle(seq), !received[seq as usize]);
                received[seq as usize] = true;
                top = top.max(seq + 1);
                for (s, &r) in received.iter().enumerate() {
                    prop_assert_eq!(w.get(s as u64), r, "seq {}", s);
                }
                let first_missing = received.iter().position(|&r| !r).unwrap() as u64;
                prop_assert_eq!(w.floor(), first_missing);
                prop_assert!(w.high() <= top.max(first_missing));
                prop_assert!(w.len() as u64 <= w.high() - w.floor());
            }
        }
    }
}
