//! The transport registry: `Proto` is a plain registry key; everything a
//! protocol *does* lives behind its [`Transport`] impl next to its
//! sender/receiver.
//!
//! Adding a transport to the evaluation is two steps:
//!
//! 1. next to the new sender/receiver, override `Endpoint::harvest` on
//!    each: the receiver keeps an `ndp_net::Delivery` ledger, which counts
//!    what it delivers and completes the flow once, and the sender
//!    reports its recovery tallies. Implement [`Transport`]'s
//!    `label`/`fabric`/`attach`; `attach`
//!    reads its hosts (`FlowSpec::ends`), MTU and path count off the
//!    `&dyn Topology` it is given and ends in one
//!    `ndp_transport::attach_endpoints` call (see
//!    `ndp_baselines::phost` for a template, or `ndp_core::transport` for
//!    a multi-variant one), exposed as a `static`;
//! 2. add a `Proto` variant and one line to [`TRANSPORTS`].
//!
//! No harness or figure module needs to change: they attach through
//! [`Proto::transport`] and read or retire any flow through
//! `Host::harvest` / `ndp_transport::detach_endpoints`.

pub use ndp_transport::{flow_hash_path, FlowHarvest, FlowSpec, QueueSpec, Transport};

/// The transports under evaluation — registry keys into [`TRANSPORTS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Ndp,
    /// NDP with §3.2.3 path-penalty disabled (Figure 22's ablation).
    NdpNoPenalty,
    Tcp,
    Dctcp,
    Mptcp,
    Dcqcn,
    PHost,
    /// Unresponsive CBR blast (Figure 2's overload traffic).
    Blast,
}

/// Every registered transport. One line per protocol; variants such as
/// DCTCP or the no-penalty NDP ablation are configured `static` instances
/// of a shared impl, not separate types.
pub static TRANSPORTS: &[(Proto, &dyn Transport)] = &[
    (Proto::Ndp, &ndp_core::NDP),
    (Proto::NdpNoPenalty, &ndp_core::NDP_NO_PENALTY),
    (Proto::Tcp, &ndp_baselines::TCP),
    (Proto::Dctcp, &ndp_baselines::DCTCP),
    (Proto::Mptcp, &ndp_baselines::MPTCP),
    (Proto::Dcqcn, &ndp_baselines::DCQCN),
    (Proto::PHost, &ndp_baselines::PHOST),
    (Proto::Blast, &ndp_baselines::BLAST),
];

impl Proto {
    /// Iterate every registered protocol, in registry order.
    pub fn all() -> impl Iterator<Item = Proto> {
        TRANSPORTS.iter().map(|&(p, _)| p)
    }

    /// Resolve this key to its transport object.
    pub fn transport(self) -> &'static dyn Transport {
        TRANSPORTS
            .iter()
            .find(|&&(p, _)| p == self)
            .map(|&(_, t)| t)
            .expect("every Proto variant is registered in TRANSPORTS")
    }

    pub fn label(self) -> &'static str {
        self.transport().label()
    }

    /// The switch service model this transport runs over.
    pub fn fabric(self) -> QueueSpec {
        self.transport().fabric()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_proto_resolves_and_labels_match_seed_behavior() {
        // The registry must reproduce the seed harness's `match proto`
        // tables exactly: label and fabric per protocol.
        let expected: &[(Proto, &str, QueueSpec)] = &[
            (Proto::Ndp, "NDP", QueueSpec::ndp_default()),
            (
                Proto::NdpNoPenalty,
                "NDP (no path penalty)",
                QueueSpec::ndp_default(),
            ),
            (Proto::Tcp, "TCP", QueueSpec::droptail_default()),
            (Proto::Dctcp, "DCTCP", QueueSpec::dctcp_default()),
            (Proto::Mptcp, "MPTCP", QueueSpec::droptail_default()),
            (Proto::Dcqcn, "DCQCN", QueueSpec::dcqcn_default()),
            (Proto::PHost, "pHost", QueueSpec::phost_default()),
            (Proto::Blast, "blast", QueueSpec::ndp_default()),
        ];
        assert_eq!(expected.len(), TRANSPORTS.len());
        for &(proto, label, fabric) in expected {
            assert_eq!(proto.label(), label);
            assert_eq!(proto.fabric(), fabric, "{proto:?} fabric");
        }
    }

    #[test]
    fn registry_keys_are_unique() {
        for (i, &(p, _)) in TRANSPORTS.iter().enumerate() {
            for &(q, _) in &TRANSPORTS[i + 1..] {
                assert!(p != q, "duplicate registry key {p:?}");
            }
        }
    }

    #[test]
    fn all_iterates_the_registry_in_order() {
        let keys: Vec<Proto> = Proto::all().collect();
        assert_eq!(keys.len(), TRANSPORTS.len());
        assert_eq!(keys[0], Proto::Ndp);
    }

    /// A host watcher that records every wake, in order, per token.
    #[derive(Default)]
    struct Wakes(std::collections::HashMap<u64, Vec<ndp_sim::Time>>);

    impl ndp_sim::Component<ndp_net::Packet> for Wakes {
        fn handle(
            &mut self,
            ev: ndp_sim::Event<ndp_net::Packet>,
            ctx: &mut ndp_sim::Ctx<'_, ndp_net::Packet>,
        ) {
            if let ndp_sim::Event::Wake(token) = ev {
                self.0.entry(token).or_default().push(ctx.now());
            }
        }
    }

    /// Attach one `size`-byte flow per `(flow, src)` to host 15 of a k=4
    /// FatTree on `proto`'s fabric through the registry adapter, with one
    /// [`Wakes`] watching every host, run to `horizon`, then retire every
    /// flow. Checks that host 15's delivered payload bytes equal its flows'
    /// harvested bytes, that each detach result equals
    /// `rx.harvest().merge(tx.harvest())` read just before it, that the
    /// watcher was woken for the flow twice, first at its `completion_time`
    /// (the receiver) and then strictly later (the sender's last ACK), or
    /// once for DCQCN (its sender has no ACKs) and never for blast, that a
    /// second detach is an empty no-op and that no endpoint is left behind.
    /// Returns each flow's detach harvest.
    fn run_and_detach(
        proto: Proto,
        flows: &[(u64, u32)],
        size: u64,
        horizon: ndp_sim::Time,
    ) -> Vec<FlowHarvest> {
        use ndp_net::{Host, Packet};
        use ndp_sim::World;
        use ndp_topology::{FatTree, FatTreeCfg};
        use ndp_transport::detach_endpoints;
        let cfg = FatTreeCfg::new(4).with_fabric(proto.fabric());
        let mut w: World<Packet> = World::new(7);
        let ft = FatTree::build(&mut w, cfg);
        let watcher = w.add(Wakes::default());
        for host in &ft.hosts {
            w.get_mut::<Host>(*host).set_watcher(watcher);
        }
        let (dst, t) = (ft.hosts[15], proto.transport());
        for &(flow, src) in flows {
            t.attach(&mut w, &ft, &FlowSpec::new(flow, src, 15, size));
        }
        w.run_until(horizon);
        // The host's byte counter and its flows' harvests are one ledger.
        let harvested: u64 = (flows.iter())
            .map(|&(flow, _)| w.get::<Host>(dst).harvest(flow).delivered_bytes)
            .sum();
        let host_bytes = w.get::<Host>(dst).stats().delivered_payload_bytes;
        assert_eq!(host_bytes, harvested, "{proto:?}: host vs flow bytes");
        let mut harvests = Vec::new();
        for &(flow, src) in flows {
            let src = ft.hosts[src as usize];
            let halves = w.get::<Host>(dst).harvest(flow);
            let halves = halves.merge(w.get::<Host>(src).harvest(flow));
            let h = detach_endpoints(&mut w, src, dst, flow);
            assert_eq!(h, halves, "{proto:?} flow {flow}: detach = rx + tx");
            let wakes = w.get::<Wakes>(watcher).0.get(&flow);
            let wakes = wakes.map_or(&[][..], Vec::as_slice);
            let msg = format!("{proto:?} flow {flow}: watcher wakes {wakes:?}");
            let want = match proto {
                Proto::Blast => 0,
                Proto::Dcqcn => 1,
                _ => 2,
            };
            assert_eq!(wakes.len(), want, "{msg}");
            assert_eq!(wakes.first().copied(), h.completion_time, "{msg}");
            if let [first, second] = wakes {
                assert!(second > first, "{msg}");
            }
            // Detaching again is a harmless no-op with an empty harvest.
            let again = t.detach(&mut w, src, dst, flow);
            assert_eq!(again, FlowHarvest::default(), "{proto:?} re-detach");
            harvests.push(h);
        }
        for host in &ft.hosts {
            assert_eq!(w.get::<Host>(*host).n_endpoints(), 0, "{proto:?}");
        }
        harvests
    }

    /// Every transport sizes its packets by the MTU of the topology it is
    /// attached on: a 90 KB flow over a 1500-byte leaf-spine leaves its
    /// source NIC as at least ⌈90000 / (1500 − header)⌉ data packets, none
    /// larger than the MTU.
    #[test]
    fn every_transport_takes_its_mtu_from_the_topology() {
        use ndp_net::{FlightHook, FlightRecorder, HopKind, Packet, Queue, HEADER_BYTES};
        use ndp_sim::{Time, World};
        use ndp_topology::{LeafSpine, LeafSpineCfg, Topology};
        use std::sync::{Arc, Mutex};
        const MTU: u32 = 1500;
        for proto in Proto::all() {
            let cfg = LeafSpineCfg::new(2, 2, 2).with_mtu(MTU);
            let mut w: World<Packet> = World::new(7);
            let topo = LeafSpine::build(&mut w, cfg.with_fabric(proto.fabric()));
            let rec = Arc::new(Mutex::new(FlightRecorder::new(10_000)));
            let hook = FlightHook::new(Arc::clone(&rec), 0);
            w.get_mut::<Queue>(topo.host_nic(0))
                .set_flight_hook(Some(hook));
            proto
                .transport()
                .attach(&mut w, &topo, &FlowSpec::new(1, 0, 3, 90_000));
            w.run_until(Time::from_ms(50));
            let rec = rec.lock().unwrap();
            let data: Vec<u32> = (rec.records())
                .filter(|r| r.kind == HopKind::Dequeue && r.size > HEADER_BYTES)
                .map(|r| r.size)
                .collect();
            let want = 90_000u64.div_ceil((MTU - HEADER_BYTES) as u64);
            assert!(
                data.len() as u64 >= want,
                "{proto:?}: {} data packets, want ≥ {want}",
                data.len()
            );
            assert!(data.iter().all(|&s| s <= MTU), "{proto:?}: {data:?}");
        }
    }

    #[test]
    fn every_transport_detaches_and_harvests() {
        use ndp_sim::Time;
        for proto in Proto::all() {
            // Input 1: one 90 KB flow across an idle fabric.
            let h = run_and_detach(proto, &[(1, 0)], 90_000, Time::from_ms(50))[0];
            if proto == Proto::Blast {
                // CBR blast rounds the size up to whole MTU packets and has
                // no completion handshake.
                assert!(h.delivered_bytes >= 90_000, "blast delivered {h:?}");
            } else {
                assert_eq!(h.delivered_bytes, 90_000, "{proto:?} must deliver the flow");
                assert!(
                    h.completion_time.is_some(),
                    "{proto:?} must record completion"
                );
            }

            // Input 2 (lossy): a 30:1 incast, two 450 KB flows from each of
            // the other 15 hosts. The first windows alone overflow the
            // receiver's downlink — 30 x 10-packet TCP/DCTCP IWs (30 x 16
            // for MPTCP's 8 subflows) against a 200-packet drop-tail
            // buffer, 30 x 30-packet NDP/pHost bursts against 8-packet
            // trimming and small drop-tail queues — so every sender-side
            // recovery tally is exercised, and a sender harvest that
            // silently returned defaults fails here. The last flow finishes
            // at (RTO expiries over all 30 flows): TCP 206.2 ms (18), DCTCP
            // 13.0 ms (2), MPTCP 17.9 ms (145), NDP, pHost and DCQCN about
            // 11 ms. The 1 s horizon fails a return to repairing one hole
            // per backed-off RTO, which took TCP to 11.0 s (258), DCTCP to
            // 272.5 ms (137) and MPTCP to 114.1 ms (399).
            //
            // The progress law (ROADMAP 17(a), first input): the burst is
            // one loss episode, so each byte stream repairs it with at most
            // one RTO expiry. MPTCP's 8 subflows are 8 streams; every other
            // transport's flow is one.
            const SIZE: u64 = 450_000;
            let flows: Vec<(u64, u32)> = (1..=30).map(|f| (f, ((f - 1) % 15) as u32)).collect();
            let hs = run_and_detach(proto, &flows, SIZE, Time::from_secs(1));
            if proto != Proto::Blast {
                // (Blast is unresponsive: what the fabric trims is lost.)
                for (&(flow, _), h) in flows.iter().zip(&hs) {
                    assert_eq!(
                        h.delivered_bytes, SIZE,
                        "{proto:?} must deliver flow {flow}"
                    );
                    assert!(
                        h.completion_time.is_some(),
                        "{proto:?} must complete {flow}"
                    );
                }
            }
            let streams = if proto == Proto::Mptcp { 8 } else { 1 };
            for (&(flow, _), h) in flows.iter().zip(&hs) {
                assert!(
                    h.timeouts <= streams,
                    "{proto:?} flow {flow}: {} RTO expiries for {streams} byte streams",
                    h.timeouts
                );
            }
            let retransmissions: u64 = hs.iter().map(|h| h.retransmissions).sum();
            let trimmed: u64 = hs.iter().map(|h| h.trimmed_headers).sum();
            if !matches!(proto, Proto::Dcqcn | Proto::Blast) {
                assert!(retransmissions > 0, "{proto:?}: incast must retransmit");
            }
            if matches!(proto, Proto::Ndp | Proto::NdpNoPenalty) {
                assert!(trimmed > 0, "{proto:?}: incast must trim");
            }
        }
    }
}
