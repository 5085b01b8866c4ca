//! The fabric-chaos subsystem: scheduled failure campaigns executed
//! inside simulated time.
//!
//! A [`FabricEvent`] schedule (hand-written, or generated by the seeded
//! MTBF/MTTR Poisson [`poisson_campaign`]) is walked by a
//! [`ChaosController`] component exactly the way the experiments' request
//! driver walks arrivals: one self-wake per event instant, with each
//! operation applied through the deferred world-op queue so the controller
//! gets full `&mut World` access between dispatches. Taking a link down
//! flips two switches' worth of state in the same simulated instant:
//!
//! * the egress [`Queue`] goes hard-down — buffered packets are flushed,
//!   the packet on the wire is lost at its TX-done, and arrivals drop or
//!   (NDP data with RTS) bounce back to their sender;
//! * the owning [`Switch`]'s live-mask bit clears, so its router
//!   [`ndp_net::switch::Router::reroute`]s traffic onto an equivalent live
//!   uplink where one exists.
//!
//! Multipath senders therefore re-spray around the dead link within an
//! RTT (bounced headers feed the §3.2.3 path penalty), single-path
//! transports recover by retransmission, and `LinkUp` restores the
//! remembered nominal rate. Everything is deterministic: the controller
//! draws no world RNG, the campaign generator owns a seeded RNG, and event
//! application rides the engine's exact `(time, posting-seq)` order.

use std::any::Any;

use ndp_net::packet::Packet;
use ndp_net::queue::{LinkClass, Queue};
use ndp_net::switch::Switch;
use ndp_sim::{Component, ComponentId, Ctx, Event, Speed, Time, World};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::topology::{LinkRef, Topology};

/// The controller's only wake token (it owns no flows, so any constant
/// works; `u64::MAX` matches the request driver's convention).
const CHAOS_TICK: u64 = u64::MAX;

/// One fabric operation. Links are named by their index into
/// [`Topology::links`] (stable across identically-built worlds; see
/// [`link_index`] to resolve a label), switches by component id (the
/// builder handles expose them, e.g. `FatTree::cores`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FabricOp {
    /// Hard-fail one directional link.
    LinkDown { link: usize },
    /// Recover a failed or degraded link at its nominal rate.
    LinkUp { link: usize },
    /// Renegotiate a link's rate downward without cutting it (Figure 22's
    /// asymmetric failure mode).
    LinkDegrade { link: usize, speed: Speed },
    /// Hard-fail a whole switch: every egress link goes down and every
    /// feeder port upstream is masked.
    SwitchDown { switch: ComponentId },
    /// Recover a switch: egress links restore, feeder masks clear.
    SwitchUp { switch: ComponentId },
}

/// One scheduled operation of a chaos campaign.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricEvent {
    pub at: Time,
    pub op: FabricOp,
}

/// Find a link's schedule index by its stable label (`"agg_up[0][0]"`).
pub fn link_index(links: &[LinkRef], label: &str) -> Option<usize> {
    links.iter().position(|l| l.label == label)
}

/// Per-kind tallies of applied operations, harvested by experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosTally {
    pub link_down: u64,
    pub link_up: u64,
    pub link_degrade: u64,
    pub switch_down: u64,
    pub switch_up: u64,
}

impl ChaosTally {
    /// Total fabric events applied.
    pub fn applied(&self) -> u64 {
        self.link_down + self.link_up + self.link_degrade + self.switch_down + self.switch_up
    }
}

/// A link with its owning switch port resolved at install time, so event
/// application is O(1) instead of an arena walk.
#[derive(Clone)]
struct ResolvedLink {
    queue: ComponentId,
    /// `(switch, port)` owning this egress queue; `None` for host NICs.
    owner: Option<(ComponentId, usize)>,
}

/// A switch's blast radius, resolved at install time.
#[derive(Clone)]
struct SwitchPorts {
    /// Its own egress queues (go down with the switch).
    egress: Vec<ComponentId>,
    /// `(switch, port)` pairs one hop upstream whose links feed it (their
    /// masks flip so neighbours stop forwarding into the dead switch).
    feeders: Vec<(ComponentId, usize)>,
}

/// The component that executes a [`FabricEvent`] schedule in simulated
/// time. Install with [`ChaosController::install_into`]; harvest
/// [`ChaosController::tally`] after the run. Runs with an *empty* schedule
/// simply never install one, so healthy-path traces stay untouched.
pub struct ChaosController {
    schedule: Vec<FabricEvent>,
    next: usize,
    links: Vec<ResolvedLink>,
    switches: Vec<(ComponentId, SwitchPorts)>,
    pub tally: ChaosTally,
}

impl ChaosController {
    /// Resolve the schedule against a built topology and arm the first
    /// event. The schedule is stably sorted by time; events already in the
    /// past apply at the current instant.
    pub fn install_into(
        world: &mut World<Packet>,
        topo: &dyn Topology,
        mut schedule: Vec<FabricEvent>,
    ) -> ComponentId {
        schedule.sort_by_key(|ev| ev.at);
        // queue id -> (switch, port) over every switch in the arena.
        // Arena iteration order is the deterministic build order.
        let switch_ids: Vec<ComponentId> = world
            .ids()
            .filter(|&id| world.try_get::<Switch>(id).is_some())
            .collect();
        let owner_of = |world: &World<Packet>, q: ComponentId| {
            switch_ids.iter().find_map(|&sw| {
                world
                    .get::<Switch>(sw)
                    .ports()
                    .iter()
                    .position(|&p| p == q)
                    .map(|port| (sw, port))
            })
        };
        let links: Vec<ResolvedLink> = topo
            .links()
            .iter()
            .map(|l| ResolvedLink {
                queue: l.queue,
                owner: owner_of(world, l.queue),
            })
            .collect();
        for ev in &schedule {
            if let FabricOp::LinkDown { link }
            | FabricOp::LinkUp { link }
            | FabricOp::LinkDegrade { link, .. } = ev.op
            {
                assert!(link < links.len(), "chaos schedule names unknown link");
            }
        }
        // Resolve the blast radius of every switch the schedule touches.
        let mut switches: Vec<(ComponentId, SwitchPorts)> = Vec::new();
        for ev in &schedule {
            let (FabricOp::SwitchDown { switch } | FabricOp::SwitchUp { switch }) = ev.op else {
                continue;
            };
            if switches.iter().any(|(id, _)| *id == switch) {
                continue;
            }
            let egress = world.get::<Switch>(switch).ports().to_vec();
            let mut feeders = Vec::new();
            for &up in &switch_ids {
                if up == switch {
                    continue;
                }
                let n_ports = world.get::<Switch>(up).ports().len();
                for port in 0..n_ports {
                    let q = world.get::<Switch>(up).ports()[port];
                    if world.get::<Queue>(q).next_hop() == switch {
                        feeders.push((up, port));
                    }
                }
            }
            switches.push((switch, SwitchPorts { egress, feeders }));
        }
        let first = schedule.first().map(|ev| ev.at);
        let id = world.add(ChaosController {
            schedule,
            next: 0,
            links,
            switches,
            tally: ChaosTally::default(),
        });
        if let Some(at) = first {
            world.post_wake(at.max(world.now()), id, CHAOS_TICK);
        }
        id
    }

    fn blast_radius(&self, switch: ComponentId) -> &SwitchPorts {
        self.switches
            .iter()
            .find_map(|(id, t)| (*id == switch).then_some(t))
            .expect("switch resolved at install")
    }

    /// Apply one due operation through the deferred world-op queue.
    fn apply(&mut self, op: FabricOp, ctx: &mut Ctx<'_, Packet>) {
        match op {
            FabricOp::LinkDown { link } => {
                self.tally.link_down += 1;
                let l = self.links[link].clone();
                ctx.defer(move |w| {
                    w.get_mut::<Queue>(l.queue).set_down(true);
                    if let Some((sw, p)) = l.owner {
                        w.get_mut::<Switch>(sw).set_port_up(p, false);
                    }
                });
            }
            FabricOp::LinkUp { link } => {
                self.tally.link_up += 1;
                let l = self.links[link].clone();
                ctx.defer(move |w| {
                    w.get_mut::<Queue>(l.queue).restore();
                    if let Some((sw, p)) = l.owner {
                        w.get_mut::<Switch>(sw).set_port_up(p, true);
                    }
                });
            }
            FabricOp::LinkDegrade { link, speed } => {
                self.tally.link_degrade += 1;
                let queue = self.links[link].queue;
                ctx.defer(move |w| {
                    w.get_mut::<Queue>(queue).set_rate(speed);
                });
            }
            FabricOp::SwitchDown { switch } => {
                self.tally.switch_down += 1;
                let t = self.blast_radius(switch).clone();
                ctx.defer(move |w| {
                    for q in t.egress {
                        w.get_mut::<Queue>(q).set_down(true);
                    }
                    for (sw, p) in t.feeders {
                        w.get_mut::<Switch>(sw).set_port_up(p, false);
                    }
                });
            }
            FabricOp::SwitchUp { switch } => {
                self.tally.switch_up += 1;
                let t = self.blast_radius(switch).clone();
                ctx.defer(move |w| {
                    for q in t.egress {
                        w.get_mut::<Queue>(q).restore();
                    }
                    for (sw, p) in t.feeders {
                        w.get_mut::<Switch>(sw).set_port_up(p, true);
                    }
                });
            }
        }
    }
}

impl Component<Packet> for ChaosController {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        let Event::Wake(CHAOS_TICK) = ev else { return };
        while let Some(ev) = self.schedule.get(self.next).copied() {
            if ev.at > ctx.now() {
                ctx.wake_at(ev.at, CHAOS_TICK);
                break;
            }
            self.next += 1;
            self.apply(ev.op, ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A seeded MTBF/MTTR failure campaign over link classes.
#[derive(Clone, Debug)]
pub struct CampaignCfg {
    /// Link classes eligible to fail (e.g. `[AggUp, CoreDown]` for core
    /// failures only).
    pub classes: Vec<LinkClass>,
    /// Mean time between failure arrivals, fabric-wide (exponential).
    pub mtbf: Time,
    /// Mean time to repair one failed link (exponential).
    pub mttr: Time,
    /// Failures arrive in `[start, end)`; repairs may land later.
    pub start: Time,
    pub end: Time,
    pub seed: u64,
}

/// Draw an exponential interval with the given mean.
fn exp_interval(mean: Time, rng: &mut SmallRng) -> Time {
    let u: f64 = rng.gen();
    // 1-u is in (0, 1], so the log is finite.
    Time::from_ps((mean.as_ps() as f64 * -(1.0 - u).ln()) as u64)
}

/// Generate a time-sorted `LinkDown`/`LinkUp` schedule: failure arrivals
/// are Poisson with mean spacing `mtbf`, each kills one uniformly-chosen
/// eligible link (arrivals hitting an already-down link are skipped — the
/// fabric-wide process doesn't double-kill), and each failure repairs
/// after an exponential `mttr`. Bit-identical per seed; the RNG is local,
/// so generating a campaign never perturbs world RNG streams.
pub fn poisson_campaign(links: &[LinkRef], cfg: &CampaignCfg) -> Vec<FabricEvent> {
    let eligible: Vec<usize> = links
        .iter()
        .enumerate()
        .filter(|(_, l)| cfg.classes.contains(&l.class))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !eligible.is_empty(),
        "no links of the requested classes to fail"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC4A0_5C4A_05C4_A05C);
    let mut down_until: Vec<Option<Time>> = vec![None; links.len()];
    let mut events = Vec::new();
    let mut t = cfg.start;
    loop {
        t += exp_interval(cfg.mtbf, &mut rng);
        if t >= cfg.end {
            break;
        }
        let link = eligible[rng.gen_range(0..eligible.len())];
        if down_until[link].is_some_and(|until| until > t) {
            continue;
        }
        let repair = t + exp_interval(cfg.mttr, &mut rng);
        down_until[link] = Some(repair);
        events.push(FabricEvent {
            at: t,
            op: FabricOp::LinkDown { link },
        });
        events.push(FabricEvent {
            at: repair,
            op: FabricOp::LinkUp { link },
        });
    }
    events.sort_by_key(|ev| ev.at);
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTree, FatTreeCfg};

    fn fat_tree(seed: u64) -> (World<Packet>, FatTree) {
        let mut w: World<Packet> = World::new(seed);
        let ft = FatTree::build(&mut w, FatTreeCfg::new(4));
        (w, ft)
    }

    #[test]
    fn controller_applies_link_events_at_their_instants() {
        let (mut w, ft) = fat_tree(3);
        let links = ft.links();
        let link = link_index(&links, "agg_up[0][0]").unwrap();
        let q = links[link].queue;
        let nominal = w.get::<Queue>(q).rate();
        let id = ChaosController::install_into(
            &mut w,
            &ft,
            vec![
                FabricEvent {
                    at: Time::from_us(5),
                    op: FabricOp::LinkDown { link },
                },
                FabricEvent {
                    at: Time::from_us(10),
                    op: FabricOp::LinkUp { link },
                },
            ],
        );
        w.run_until(Time::from_us(7));
        assert!(w.get::<Queue>(q).is_down(), "down inside the window");
        let agg0 = ft.aggs[0];
        let port = w
            .get::<Switch>(agg0)
            .ports()
            .iter()
            .position(|&p| p == q)
            .unwrap();
        assert!(!w.get::<Switch>(agg0).port_is_up(port), "port masked");
        w.run_until(Time::from_us(12));
        let qq = w.get::<Queue>(q);
        assert!(!qq.is_down(), "restored after the window");
        assert_eq!(qq.rate(), nominal);
        assert!(w.get::<Switch>(agg0).port_is_up(port), "mask cleared");
        let tally = w.get::<ChaosController>(id).tally;
        assert_eq!((tally.link_down, tally.link_up), (1, 1));
        assert_eq!(tally.applied(), 2);
    }

    #[test]
    fn switch_down_takes_egress_and_feeder_ports_with_it() {
        let (mut w, ft) = fat_tree(3);
        let core = ft.cores[0];
        let id = ChaosController::install_into(
            &mut w,
            &ft,
            vec![
                FabricEvent {
                    at: Time::from_us(1),
                    op: FabricOp::SwitchDown { switch: core },
                },
                FabricEvent {
                    at: Time::from_us(2),
                    op: FabricOp::SwitchUp { switch: core },
                },
            ],
        );
        w.run_until(Time::from_us(1) + Time::from_ns(1));
        for pod in 0..4 {
            assert!(
                w.get::<Queue>(ft.core_down[0][pod]).is_down(),
                "core egress down"
            );
        }
        // Every agg whose uplink 0 feeds core 0 has that port masked.
        let mut masked = 0;
        for &agg in &ft.aggs {
            let sw = w.get::<Switch>(agg);
            masked += (0..sw.ports().len()).filter(|&p| !sw.port_is_up(p)).count();
        }
        assert_eq!(masked, 4, "one feeder port per pod masked");
        w.run_until(Time::from_us(3));
        for pod in 0..4 {
            assert!(!w.get::<Queue>(ft.core_down[0][pod]).is_down());
        }
        for &agg in &ft.aggs {
            let sw = w.get::<Switch>(agg);
            assert!((0..sw.ports().len()).all(|p| sw.port_is_up(p)));
        }
        let tally = w.get::<ChaosController>(id).tally;
        assert_eq!((tally.switch_down, tally.switch_up), (1, 1));
    }

    #[test]
    fn poisson_campaign_is_seed_deterministic_sorted_and_paired() {
        let (_w, ft) = fat_tree(3);
        let links = ft.links();
        let cfg = CampaignCfg {
            classes: vec![LinkClass::AggUp, LinkClass::CoreDown],
            mtbf: Time::from_ms(2),
            mttr: Time::from_ms(5),
            start: Time::from_ms(1),
            end: Time::from_ms(50),
            seed: 42,
        };
        let a = poisson_campaign(&links, &cfg);
        let b = poisson_campaign(&links, &cfg);
        assert_eq!(a, b, "same seed, same campaign");
        assert!(!a.is_empty(), "50 ms at 2 ms MTBF should fail something");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
        let downs = a
            .iter()
            .filter(|e| matches!(e.op, FabricOp::LinkDown { .. }))
            .count();
        let ups = a
            .iter()
            .filter(|e| matches!(e.op, FabricOp::LinkUp { .. }))
            .count();
        assert_eq!(downs, ups, "every failure repairs");
        for ev in &a {
            let (FabricOp::LinkDown { link } | FabricOp::LinkUp { link }) = ev.op else {
                panic!("campaigns emit only link events");
            };
            assert!(
                matches!(links[link].class, LinkClass::AggUp | LinkClass::CoreDown),
                "only eligible classes fail"
            );
            if matches!(ev.op, FabricOp::LinkDown { .. }) {
                assert!(ev.at >= cfg.start && ev.at < cfg.end);
            }
        }
        let other = poisson_campaign(
            &links,
            &CampaignCfg {
                seed: 43,
                ..cfg.clone()
            },
        );
        assert_ne!(a, other, "different seed, different campaign");
    }
}
