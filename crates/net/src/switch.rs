//! A switch: an L2 forwarding decision plus per-port egress queues.
//!
//! Switches are deliberately thin — all buffering lives in the
//! [`crate::queue::Queue`] components — matching the paper's NetFPGA design
//! (Figure 6: input arbiter → L2 switching logic → NDP logic → output
//! queues). Routing policy is injected via [`Router`] so topology crates can
//! supply FatTree arithmetic without this crate depending on them.

use ndp_sim::{Component, ComponentId, Ctx, Event};
use rand::rngs::SmallRng;

use crate::packet::Packet;

/// A forwarding decision: which output port a packet leaves on.
///
/// Implementations exist per topology (see `ndp-topology`). `rng` supports
/// per-packet random ECMP modes (the paper's "switches randomly choose the
/// next hop" baseline in §3.1.1).
pub trait Router: Send {
    fn route(&self, pkt: &Packet, rng: &mut SmallRng) -> usize;

    /// The chosen port's link is down (see `up`, the live-mask over the
    /// switch's ports): pick an equivalent live port that still delivers,
    /// or `None` when the dead port was the only way (a downlink in a tree
    /// fabric). Implementations must be deterministic and draw no RNG —
    /// reroute happens on the hot path only while links are actually down,
    /// and must not perturb the RNG stream of healthy runs.
    fn reroute(&self, _pkt: &Packet, _chosen: usize, _up: &[bool]) -> Option<usize> {
        None
    }
}

/// A blanket impl so simple closures can act as routers in tests.
impl<F> Router for F
where
    F: Fn(&Packet, &mut SmallRng) -> usize + Send,
{
    fn route(&self, pkt: &Packet, rng: &mut SmallRng) -> usize {
        self(pkt, rng)
    }
}

/// The switch component.
pub struct Switch {
    ports: Vec<ComponentId>,
    /// Live-mask over `ports`, maintained by the fabric-chaos layer. A
    /// masked port is one whose egress link is down; the router is asked to
    /// [`Router::reroute`] around it.
    port_up: Vec<bool>,
    /// Fast guard: true iff any entry of `port_up` is false. Keeps the
    /// healthy hot path to a single predictable branch.
    any_down: bool,
    router: Box<dyn Router>,
    pub rx_pkts: u64,
    /// Packets steered off a dead port onto a live equivalent.
    pub rerouted: u64,
    /// Opt-in flight recorder hook (see [`crate::flight`]): records each
    /// reroute. `None` by default; purely observational.
    flight: Option<crate::flight::FlightHook>,
}

impl Switch {
    pub fn new(ports: Vec<ComponentId>, router: Box<dyn Router>) -> Switch {
        let port_up = vec![true; ports.len()];
        Switch {
            ports,
            port_up,
            any_down: false,
            router,
            rx_pkts: 0,
            rerouted: 0,
            flight: None,
        }
    }

    /// Attach (or detach, with `None`) a flight-recorder hook. Hooks post
    /// no events and draw no RNG, so they cannot change a golden trace.
    pub fn set_flight_hook(&mut self, hook: Option<crate::flight::FlightHook>) {
        self.flight = hook;
    }

    pub fn ports(&self) -> &[ComponentId] {
        &self.ports
    }

    /// Mark one egress port live or dead. Dead ports are avoided where the
    /// router knows an equivalent; traffic with no alternative still
    /// forwards into the dead link's queue, which drops or bounces it.
    pub fn set_port_up(&mut self, port: usize, up: bool) {
        self.port_up[port] = up;
        self.any_down = self.port_up.iter().any(|&u| !u);
    }

    pub fn port_is_up(&self, port: usize) -> bool {
        self.port_up[port]
    }
}

impl Component<Packet> for Switch {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        let Event::Msg(pkt) = ev else { return };
        self.rx_pkts += 1;
        let mut port = self.router.route(&pkt, ctx.rng());
        debug_assert!(port < self.ports.len(), "router chose invalid port {port}");
        if self.any_down && !self.port_up[port] {
            if let Some(alt) = self.router.reroute(&pkt, port, &self.port_up) {
                debug_assert!(alt < self.ports.len() && self.port_up[alt]);
                self.rerouted += 1;
                if let Some(h) = &self.flight {
                    h.record(crate::flight::HopKind::Reroute, ctx.now(), &pkt);
                }
                port = alt;
            }
        }
        ctx.forward(self.ports[port], pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_sim::{Time, World};

    struct Sink {
        got: u64,
    }
    impl Component<Packet> for Sink {
        fn handle(&mut self, ev: Event<Packet>, _ctx: &mut Ctx<'_, Packet>) {
            if let Event::Msg(_) = ev {
                self.got += 1;
            }
        }
    }

    #[test]
    fn routes_by_destination() {
        let mut w: World<Packet> = World::new(3);
        let a = w.add(Sink { got: 0 });
        let b = w.add(Sink { got: 0 });
        let sw = w.add(Switch::new(
            vec![a, b],
            Box::new(|p: &Packet, _: &mut SmallRng| p.dst as usize % 2),
        ));
        for i in 0..10u32 {
            let pkt = Packet::data(0, i, 0, 0, 1500);
            w.post(Time::ZERO, sw, pkt);
        }
        w.run_until_idle();
        assert_eq!(w.get::<Sink>(a).got, 5);
        assert_eq!(w.get::<Sink>(b).got, 5);
        assert_eq!(w.get::<Switch>(sw).rx_pkts, 10);
    }

    #[test]
    fn dead_port_reroutes_when_router_knows_an_alternative() {
        struct TwoUplinks;
        impl Router for TwoUplinks {
            fn route(&self, _: &Packet, _: &mut SmallRng) -> usize {
                0
            }
            fn reroute(&self, _: &Packet, chosen: usize, up: &[bool]) -> Option<usize> {
                (0..up.len())
                    .map(|i| (chosen + 1 + i) % up.len())
                    .find(|&p| up[p])
            }
        }
        let mut w: World<Packet> = World::new(3);
        let a = w.add(Sink { got: 0 });
        let b = w.add(Sink { got: 0 });
        let sw = w.add(Switch::new(vec![a, b], Box::new(TwoUplinks)));
        w.post(Time::ZERO, sw, Packet::data(0, 1, 0, 0, 1500));
        w.run_until(Time::from_ns(1));
        w.get_mut::<Switch>(sw).set_port_up(0, false);
        w.post(Time::from_ns(2), sw, Packet::data(0, 1, 0, 1, 1500));
        w.run_until(Time::from_ns(3));
        w.get_mut::<Switch>(sw).set_port_up(0, true);
        w.post(Time::from_ns(4), sw, Packet::data(0, 1, 0, 2, 1500));
        w.run_until_idle();
        assert_eq!(w.get::<Sink>(a).got, 2, "healthy traffic uses port 0");
        assert_eq!(w.get::<Sink>(b).got, 1, "masked-window packet detoured");
        assert_eq!(w.get::<Switch>(sw).rerouted, 1);
    }

    #[test]
    fn dead_port_without_alternative_still_forwards_into_it() {
        // Closure routers have no reroute knowledge: the packet must keep
        // heading for the dead port's queue (which drops or bounces it) —
        // the switch itself never silently eats packets.
        let mut w: World<Packet> = World::new(3);
        let a = w.add(Sink { got: 0 });
        let b = w.add(Sink { got: 0 });
        let sw = w.add(Switch::new(
            vec![a, b],
            Box::new(|_: &Packet, _: &mut SmallRng| 0usize),
        ));
        w.get_mut::<Switch>(sw).set_port_up(0, false);
        w.post(Time::ZERO, sw, Packet::data(0, 1, 0, 0, 1500));
        w.run_until_idle();
        assert_eq!(w.get::<Sink>(a).got, 1);
        assert_eq!(w.get::<Switch>(sw).rerouted, 0);
    }

    #[test]
    fn random_router_uses_world_rng_deterministically() {
        fn run(seed: u64) -> (u64, u64) {
            let mut w: World<Packet> = World::new(seed);
            let a = w.add(Sink { got: 0 });
            let b = w.add(Sink { got: 0 });
            let sw = w.add(Switch::new(
                vec![a, b],
                Box::new(|_: &Packet, rng: &mut SmallRng| {
                    use rand::Rng;
                    rng.gen_range(0..2)
                }),
            ));
            for _ in 0..100 {
                w.post(Time::ZERO, sw, Packet::data(0, 1, 0, 0, 1500));
            }
            w.run_until_idle();
            (w.get::<Sink>(a).got, w.get::<Sink>(b).got)
        }
        assert_eq!(run(17), run(17));
        let (a, b) = run(17);
        assert_eq!(a + b, 100);
        assert!(a > 20 && b > 20, "roughly balanced: {a}/{b}");
    }
}
