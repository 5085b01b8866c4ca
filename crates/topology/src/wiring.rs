//! The switch back-references of a built fabric, derived from the graph.
//!
//! Return-to-sender re-injects a trimmed header at the switch that *owns*
//! the port (§3.2.4); PFC pauses the queues that *feed* a congested switch;
//! a dying switch takes its egress links and its feeders' ports with it.
//! All three relations are already in the arena — a [`Switch`] lists its
//! ports, a [`Queue`] names its next hop — so builders wire only hosts,
//! switches and queues, and everything else asks [`Wiring::of`].

use ndp_net::packet::Packet;
use ndp_net::queue::Queue;
use ndp_net::switch::Switch;
use ndp_sim::{ComponentId, World};

use crate::spec::QueueSpec;

/// Owner, egress and feeder relations of every switch in a world, each
/// indexed by [`ComponentId::index`] (fabric components are never retired,
/// so the slot identifies them).
pub(crate) struct Wiring {
    owner: Vec<Option<(ComponentId, usize)>>,
    egress: Vec<Vec<ComponentId>>,
    feeders: Vec<Vec<ComponentId>>,
}

fn slot(id: ComponentId) -> usize {
    id.index() as usize
}

impl Wiring {
    /// One pass over the arena: each switch claims its ports, each queue
    /// whose next hop is a switch is one of that switch's feeders. Ids are
    /// visited in ascending order, so feeder lists are ascending too (host
    /// NICs first, then the tier above in creation order).
    pub(crate) fn of(world: &World<Packet>) -> Wiring {
        let n = world.ids().last().map_or(0, |id| slot(id) + 1);
        let mut w = Wiring {
            owner: vec![None; n],
            egress: vec![Vec::new(); n],
            feeders: vec![Vec::new(); n],
        };
        for id in world.ids() {
            if let Some(sw) = world.try_get::<Switch>(id) {
                for (port, &q) in sw.ports().iter().enumerate() {
                    w.owner[slot(q)] = Some((id, port));
                }
                w.egress[slot(id)] = sw.ports().to_vec();
            } else if let Some(q) = world.try_get::<Queue>(id) {
                let next = q.next_hop();
                if world.try_get::<Switch>(next).is_some() {
                    w.feeders[slot(next)].push(id);
                }
            }
        }
        w
    }

    /// `(switch, port)` owning egress queue `q`; `None` for host NICs.
    pub(crate) fn owner(&self, q: ComponentId) -> Option<(ComponentId, usize)> {
        *self.owner.get(slot(q))?
    }

    /// `switch`'s own egress queues, in port order.
    pub(crate) fn egress(&self, switch: ComponentId) -> &[ComponentId] {
        self.egress.get(slot(switch)).map_or(&[], |v| v)
    }

    /// The queues one hop upstream that deliver into `switch`.
    pub(crate) fn feeders(&self, switch: ComponentId) -> &[ComponentId] {
        self.feeders.get(slot(switch)).map_or(&[], |v| v)
    }
}

/// Post-install wiring of a fabric built into `world`: every switch port of
/// an NDP fabric bounces to its owner, every switch port of a lossless
/// fabric pauses its owner's feeders.
pub(crate) fn wire_back_refs(world: &mut World<Packet>, fabric: QueueSpec) {
    if !fabric.is_ndp() && !fabric.is_lossless() {
        return;
    }
    let wiring = Wiring::of(world);
    for id in world.ids().collect::<Vec<_>>() {
        let Some((sw, _)) = wiring.owner(id) else {
            continue;
        };
        let q = world.get_mut::<Queue>(id);
        if fabric.is_ndp() {
            q.set_bounce_to(sw);
        } else {
            q.set_upstreams(wiring.feeders(sw).to_vec());
        }
    }
}
