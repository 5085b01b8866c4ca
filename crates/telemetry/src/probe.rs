//! The sampling probe: a component that snapshots gauges on a tick.
//!
//! Like the experiments' request driver and the chaos `ChaosController`, the
//! probe is a self-wake-chain component: it posts one wake to itself,
//! samples via [`ndp_sim::Ctx::defer`] (so it reads a quiescent world,
//! never a half-applied event), and re-arms until its horizon. Samples
//! land in a bounded [`SampleRing`]; when full, the oldest samples are
//! evicted and counted, so memory stays flat on long runs.
//!
//! Determinism: the probe draws no RNG and its wakes are ordinary
//! events, so a probed run is bit-reproducible; an unprobed run is
//! untouched because no probe exists.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ndp_net::packet::Packet;
use ndp_net::queue::Queue;
use ndp_net::switch::Switch;
use ndp_sim::{Component, ComponentId, Ctx, Event, Time, World};

/// Wake token for probe ticks (the probe owns its whole token space).
const PROBE_TICK: u64 = u64::MAX;

/// One sampled observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Snapshot of one egress queue.
    Queue {
        at: Time,
        /// Index into the point's tag table (resolves to a link label).
        tag: u32,
        occ_bytes: u64,
        occ_pkts: usize,
        forwarded: u64,
        trimmed: u64,
        bounced: u64,
        dropped: u64,
        dropped_down: u64,
        ecn_marked: u64,
    },
    /// Snapshot of one switch.
    Switch {
        at: Time,
        tag: u32,
        rx_pkts: u64,
        rerouted: u64,
    },
    /// Whole-world snapshot.
    World {
        at: Time,
        live_components: usize,
        live_flows: u64,
        events: u64,
    },
}

impl Gauge {
    pub fn at(&self) -> Time {
        match *self {
            Gauge::Queue { at, .. } | Gauge::Switch { at, .. } | Gauge::World { at, .. } => at,
        }
    }
}

/// Bounded gauge store; evicts oldest when full.
#[derive(Debug)]
pub struct SampleRing {
    samples: VecDeque<Gauge>,
    capacity: usize,
    pub evicted: u64,
}

impl SampleRing {
    pub fn new(capacity: usize) -> SampleRing {
        SampleRing {
            samples: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    pub fn push(&mut self, g: Gauge) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(g);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn take(&mut self) -> Vec<Gauge> {
        self.samples.drain(..).collect()
    }
}

/// What a [`Probe`] watches and how often.
pub struct ProbeSpec {
    /// Sampling period.
    pub tick: Time,
    /// Last instant at which a sample may be scheduled.
    pub until: Time,
    /// Ring capacity (gauge records, across all targets).
    pub capacity: usize,
    /// Queues to snapshot, with their tag-table indices.
    pub queues: Vec<(ComponentId, u32)>,
    /// Switches to snapshot, with their tag-table indices.
    pub switches: Vec<(ComponentId, u32)>,
    /// Optional externally-maintained live-flow count (the request
    /// driver publishes its live-flow map size here).
    pub live_flows: Option<Arc<AtomicU64>>,
}

/// The sampling component. Install with [`Probe::install_into`].
pub struct Probe {
    tick: Time,
    until: Time,
    queues: Arc<[(ComponentId, u32)]>,
    switches: Arc<[(ComponentId, u32)]>,
    live_flows: Option<Arc<AtomicU64>>,
    out: Arc<Mutex<SampleRing>>,
}

impl Probe {
    /// Add a probe to `world`, arm its first tick at t=0, and return the
    /// component id plus the shared ring the samples land in.
    pub fn install_into(
        world: &mut World<Packet>,
        spec: ProbeSpec,
    ) -> (ComponentId, Arc<Mutex<SampleRing>>) {
        let out = Arc::new(Mutex::new(SampleRing::new(spec.capacity)));
        let probe = Probe {
            tick: spec.tick,
            until: spec.until,
            queues: spec.queues.into(),
            switches: spec.switches.into(),
            live_flows: spec.live_flows,
            out: Arc::clone(&out),
        };
        let id = world.add(probe);
        world.post_wake(Time::ZERO, id, PROBE_TICK);
        (id, out)
    }

    fn sample(&self, ctx: &mut Ctx<'_, Packet>) {
        let at = ctx.now();
        let queues = Arc::clone(&self.queues);
        let switches = Arc::clone(&self.switches);
        let live_flows = self.live_flows.clone();
        let out = Arc::clone(&self.out);
        ctx.defer(move |w, _| {
            let mut ring = match out.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            for &(id, tag) in queues.iter() {
                if let Some(q) = w.try_get::<Queue>(id) {
                    ring.push(Gauge::Queue {
                        at,
                        tag,
                        occ_bytes: q.occupancy_bytes(),
                        occ_pkts: q.queued_packets(),
                        forwarded: q.stats.forwarded_pkts,
                        trimmed: q.stats.trimmed,
                        bounced: q.stats.bounced,
                        dropped: q.stats.dropped_data + q.stats.dropped_ctrl,
                        dropped_down: q.stats.dropped_down,
                        ecn_marked: q.stats.ecn_marked,
                    });
                }
            }
            for &(id, tag) in switches.iter() {
                if let Some(s) = w.try_get::<Switch>(id) {
                    ring.push(Gauge::Switch {
                        at,
                        tag,
                        rx_pkts: s.rx_pkts,
                        rerouted: s.rerouted,
                    });
                }
            }
            ring.push(Gauge::World {
                at,
                live_components: w.live_components(),
                live_flows: live_flows.as_ref().map_or(0, |c| c.load(Ordering::Relaxed)),
                events: w.events_processed(),
            });
        });
    }
}

impl Component<Packet> for Probe {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        if let Event::Wake(PROBE_TICK) = ev {
            self.sample(ctx);
            let next = Time(ctx.now().as_ps().saturating_add(self.tick.as_ps()));
            if next <= self.until {
                ctx.wake_in(self.tick, PROBE_TICK);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut r = SampleRing::new(2);
        for i in 0..5u64 {
            r.push(Gauge::World {
                at: Time(i),
                live_components: 0,
                live_flows: 0,
                events: i,
            });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.evicted, 3);
        let got = r.take();
        assert_eq!(got[0].at(), Time(3));
        assert_eq!(got[1].at(), Time(4));
    }

    #[test]
    fn probe_samples_world_gauges_on_its_tick() {
        let mut w: World<Packet> = World::new(1);
        let (_, ring) = Probe::install_into(
            &mut w,
            ProbeSpec {
                tick: Time::from_us(10),
                until: Time::from_us(100),
                capacity: 1024,
                queues: Vec::new(),
                switches: Vec::new(),
                live_flows: None,
            },
        );
        w.run_until(Time::from_ms(1));
        let samples = ring.lock().unwrap().take();
        // Ticks at 0, 10, ..., 100 us inclusive.
        assert_eq!(samples.len(), 11);
        assert!(samples.iter().all(|g| matches!(g, Gauge::World { .. })));
        assert_eq!(samples.last().unwrap().at(), Time::from_us(100));
    }

    #[test]
    fn probe_ring_stays_bounded() {
        let mut w: World<Packet> = World::new(2);
        let (_, ring) = Probe::install_into(
            &mut w,
            ProbeSpec {
                tick: Time::from_us(1),
                until: Time::from_ms(1),
                capacity: 16,
                queues: Vec::new(),
                switches: Vec::new(),
                live_flows: None,
            },
        );
        w.run_until(Time::from_ms(2));
        let g = ring.lock().unwrap();
        assert_eq!(g.len(), 16);
        assert_eq!(g.evicted, 1001 - 16);
    }
}
