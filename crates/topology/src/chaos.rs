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

use ndp_net::packet::Packet;
use ndp_net::queue::{LinkClass, Queue};
use ndp_net::switch::Switch;
use ndp_sim::{Component, ComponentId, Ctx, Event, Speed, Time, World};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::topology::{LinkRef, Topology};
use crate::wiring::Wiring;

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

/// The component that executes a [`FabricEvent`] schedule in simulated
/// time. Install with [`ChaosController::install_into`]; harvest
/// [`ChaosController::tally`] after the run. Runs with an *empty* schedule
/// simply never install one, so healthy-path traces stay untouched.
pub struct ChaosController {
    schedule: Vec<FabricEvent>,
    next: usize,
    /// The queue of each [`Topology::links`] entry, by schedule index.
    links: Vec<ComponentId>,
    /// Owner/feeder relations read once at install time, so applying an
    /// event is a lookup instead of an arena walk.
    wiring: Wiring,
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
        let links: Vec<ComponentId> = topo.links().iter().map(|l| l.queue).collect();
        for ev in &schedule {
            match ev.op {
                FabricOp::LinkDown { link }
                | FabricOp::LinkUp { link }
                | FabricOp::LinkDegrade { link, .. } => {
                    assert!(link < links.len(), "chaos schedule names unknown link")
                }
                FabricOp::SwitchDown { switch } | FabricOp::SwitchUp { switch } => assert!(
                    world.try_get::<Switch>(switch).is_some(),
                    "chaos schedule names unknown switch"
                ),
            }
        }
        let first = schedule.first().map(|ev| ev.at);
        let wiring = Wiring::of(world);
        let id = world.add(ChaosController {
            schedule,
            next: 0,
            links,
            wiring,
            tally: ChaosTally::default(),
        });
        if let Some(at) = first {
            world.post_wake(at.max(world.now()), id, CHAOS_TICK);
        }
        id
    }

    /// Apply one due operation through the deferred world-op queue: the
    /// egress queues that go down (or come back) and the switch ports whose
    /// live-mask bits flip with them.
    fn apply(&mut self, op: FabricOp, ctx: &mut Ctx<'_, Packet>) {
        let t = &mut self.tally;
        *match op {
            FabricOp::LinkDown { .. } => &mut t.link_down,
            FabricOp::LinkUp { .. } => &mut t.link_up,
            FabricOp::LinkDegrade { .. } => &mut t.link_degrade,
            FabricOp::SwitchDown { .. } => &mut t.switch_down,
            FabricOp::SwitchUp { .. } => &mut t.switch_up,
        } += 1;
        let wiring = &self.wiring;
        let (queues, ports): (Vec<_>, Vec<_>) = match op {
            FabricOp::LinkDown { link } | FabricOp::LinkUp { link } => {
                let queue = self.links[link];
                (vec![queue], wiring.owner(queue).into_iter().collect())
            }
            FabricOp::LinkDegrade { link, speed } => {
                let queue = self.links[link];
                return ctx.defer(move |w, _| w.get_mut::<Queue>(queue).set_rate(speed));
            }
            // A switch takes its egress links with it, and every port one
            // hop upstream that feeds it is masked so neighbours stop
            // forwarding into it (host NICs sit on no port: nothing to mask).
            FabricOp::SwitchDown { switch } | FabricOp::SwitchUp { switch } => (
                wiring.egress(switch).to_vec(),
                (wiring.feeders(switch).iter())
                    .filter_map(|&q| wiring.owner(q))
                    .collect(),
            ),
        };
        let up = matches!(op, FabricOp::LinkUp { .. } | FabricOp::SwitchUp { .. });
        ctx.defer(move |w, _| {
            for q in queues {
                let q = w.get_mut::<Queue>(q);
                if up {
                    q.restore();
                } else {
                    q.set_down(true);
                }
            }
            for (sw, port) in ports {
                w.get_mut::<Switch>(sw).set_port_up(port, up);
            }
        });
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
