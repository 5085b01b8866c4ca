//! The topology registry: the scenario half of the evaluation matrix,
//! mirroring the [`crate::transport`] registry exactly.
//!
//! A [`TopoSpec`] is a cloneable, world-independent recipe for one fabric
//! shape: sweep points carry it, and every point's world builds its own
//! fresh instance (`spec.build(&mut world, fabric)`) so parallel sweeps
//! stay bit-reproducible. [`TOPOLOGIES`] maps stable names to
//! scale-aware specs — the table behind `ndp run --topo <name>` and the
//! `NDP_TOPO` default override.
//!
//! Adding a fabric shape to the evaluation is two steps:
//!
//! 1. implement [`ndp_topology::Topology`] next to the new builder (see
//!    `ndp_topology::leafspine` for a template);
//! 2. add one [`TopoEntry`] line to [`TOPOLOGIES`].
//!
//! No harness or figure module needs to change: they all hold
//! `&dyn Topology` (or a [`TopoSpec`]) and never name a concrete fabric.

use std::fmt;
use std::sync::Arc;

use ndp_net::packet::Packet;
use ndp_sim::{Speed, World};
use ndp_topology::{FatTreeCfg, LeafSpineCfg, QueueSpec, Topology};

use crate::harness::Scale;

/// The shared builder closure behind a [`TopoSpec`]: fresh world +
/// fabric service model in, wired topology out.
type BuildFn = dyn Fn(&mut World<Packet>, QueueSpec) -> Box<dyn Topology> + Send + Sync;

/// A buildable description of one fabric shape. Cheap to clone (the
/// builder is shared behind an `Arc`); building wires a fresh instance
/// into the given world with the transport's fabric service model.
#[derive(Clone)]
pub struct TopoSpec {
    name: &'static str,
    n_hosts: usize,
    build: Arc<BuildFn>,
}

impl TopoSpec {
    /// The spec's registry/display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Hosts the built fabric will have (known without building).
    pub fn n_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Wire a fresh instance into `world` over the given queue service
    /// model.
    pub fn build(&self, world: &mut World<Packet>, fabric: QueueSpec) -> Box<dyn Topology> {
        (self.build)(world, fabric)
    }

    /// Rename the spec (registry entries label their canonical variants).
    pub fn named(mut self, name: &'static str) -> TopoSpec {
        self.name = name;
        self
    }

    /// A full-bisection (or [`FatTreeCfg::with_hosts_per_tor`]
    /// oversubscribed) three-tier FatTree.
    pub fn fattree(cfg: FatTreeCfg) -> TopoSpec {
        TopoSpec {
            name: "fattree",
            n_hosts: cfg.n_hosts(),
            build: Arc::new(move |w, fabric| {
                Box::new(ndp_topology::FatTree::build(
                    w,
                    cfg.clone().with_fabric(fabric),
                ))
            }),
        }
    }

    /// Like [`TopoSpec::fattree`] but pinning the cfg's own queue service
    /// model: the transport's default fabric is ignored at build time.
    /// For scenarios whose knob *is* the fabric — Figure 17 sweeps NDP
    /// over 6/8/10-packet switch buffers, which the fabric-overriding
    /// spec cannot express.
    pub fn fattree_pinned(cfg: FatTreeCfg) -> TopoSpec {
        TopoSpec {
            name: "fattree",
            n_hosts: cfg.n_hosts(),
            build: Arc::new(move |w, _fabric| {
                Box::new(ndp_topology::FatTree::build(w, cfg.clone()))
            }),
        }
    }

    /// A leaf-spine fabric (spine count / uplink speed per the cfg).
    pub fn leafspine(cfg: LeafSpineCfg) -> TopoSpec {
        TopoSpec {
            name: "leafspine",
            n_hosts: cfg.n_hosts(),
            build: Arc::new(move |w, fabric| {
                Box::new(ndp_topology::LeafSpine::build(
                    w,
                    cfg.clone().with_fabric(fabric),
                ))
            }),
        }
    }

    /// Two hosts wired NIC-to-NIC.
    pub fn backtoback() -> TopoSpec {
        TopoSpec {
            name: "backtoback",
            n_hosts: 2,
            build: Arc::new(move |w, fabric| {
                Box::new(ndp_topology::BackToBack::build(
                    w,
                    Speed::gbps(10),
                    ndp_sim::Time::from_us(1),
                    9000,
                    fabric,
                    ndp_net::host::HostLatency::default(),
                ))
            }),
        }
    }
}

impl fmt::Debug for TopoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TopoSpec({}, {} hosts)", self.name, self.n_hosts)
    }
}

/// One registered topology: a stable name, a one-line description for
/// `ndp list`-style surfaces, and a scale-aware spec constructor.
pub struct TopoEntry {
    pub name: &'static str,
    pub describe: &'static str,
    pub mk: fn(Scale) -> TopoSpec,
}

impl TopoEntry {
    /// The spec at a given scale, carrying this entry's canonical name.
    pub fn spec(&self, scale: Scale) -> TopoSpec {
        (self.mk)(scale)
    }
}

/// Every registered topology. One line per fabric shape; sizes scale with
/// `--scale` like every experiment grid (quick keeps CI bounded, paper
/// matches the evaluation's host counts).
pub static TOPOLOGIES: &[TopoEntry] = &[
    TopoEntry {
        name: "fattree",
        describe: "full-bisection three-tier FatTree (quick k=4/16 hosts, paper k=8/128 hosts)",
        mk: |scale| {
            TopoSpec::fattree(match scale {
                Scale::Paper => FatTreeCfg::new(8),
                Scale::Quick => FatTreeCfg::new(4),
            })
        },
    },
    TopoEntry {
        name: "leafspine",
        describe: "full-bisection two-tier leaf-spine (quick 8x4 hosts/4 spines, paper 16x8/8)",
        mk: |scale| {
            TopoSpec::leafspine(match scale {
                Scale::Paper => LeafSpineCfg::new(16, 8, 8),
                Scale::Quick => LeafSpineCfg::new(8, 4, 4),
            })
        },
    },
    TopoEntry {
        name: "oversubscribed",
        describe: "4:1 oversubscribed FatTree via dense racks (Figure-23 shape)",
        mk: |scale| {
            TopoSpec::fattree(match scale {
                Scale::Paper => FatTreeCfg::new(8).with_hosts_per_tor(16),
                Scale::Quick => FatTreeCfg::new(4).with_hosts_per_tor(8),
            })
            .named("oversubscribed")
        },
    },
    TopoEntry {
        name: "leafspine-oversub",
        describe: "4:1 oversubscribed leaf-spine via 5 Gb/s uplinks (per-hop-speed ideal FCT)",
        mk: |scale| {
            TopoSpec::leafspine(
                match scale {
                    Scale::Paper => LeafSpineCfg::new(8, 16, 8),
                    Scale::Quick => LeafSpineCfg::new(4, 8, 4),
                }
                .with_uplink_speed(Speed::gbps(5)),
            )
            .named("leafspine-oversub")
        },
    },
    TopoEntry {
        name: "testbed",
        describe: "the paper's 8-server two-tier NetFPGA testbed replica",
        mk: |_scale| TopoSpec::leafspine(LeafSpineCfg::testbed()).named("testbed"),
    },
    TopoEntry {
        name: "backtoback",
        describe: "two hosts wired NIC-to-NIC (calibration shape)",
        mk: |_scale| TopoSpec::backtoback(),
    },
];

/// Look a topology up by name (case-insensitive exact match).
pub fn find_topo(name: &str) -> Option<&'static TopoEntry> {
    let lower = name.to_ascii_lowercase();
    TOPOLOGIES.iter().find(|e| e.name == lower)
}

/// Resolve a registry name that is known to exist (registry defaults).
pub(crate) fn registered(name: &str) -> &'static TopoEntry {
    find_topo(name).unwrap_or_else(|| panic!("topology '{name}' must be registered"))
}

/// Read `NDP_TOPO`, the default-topology override for topology-neutral
/// experiments. Unset (or empty) means no override; anything that is not
/// a registered topology name is an error — a typoed
/// `NDP_TOPO=leafspin` must not silently run the default fabric,
/// matching the strict `NDP_SCALE`/`NDP_THREADS` behavior.
pub fn topo_from_env() -> Result<Option<&'static TopoEntry>, String> {
    match std::env::var("NDP_TOPO") {
        Err(_) => Ok(None),
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) => find_topo(&v).map(Some).ok_or_else(|| {
            let known: Vec<&str> = TOPOLOGIES.iter().map(|e| e.name).collect();
            format!("NDP_TOPO must be one of {known:?} (case-insensitive), got '{v}'")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_net::queue::Queue;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = TOPOLOGIES.iter().map(|e| e.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate topology names");
        for e in TOPOLOGIES {
            assert!(!e.describe.is_empty(), "{} has no description", e.name);
            assert_eq!(find_topo(e.name).map(|f| f.name), Some(e.name));
            // Case-insensitive like Scale::parse.
            let upper = e.name.to_ascii_uppercase();
            assert_eq!(find_topo(&upper).map(|f| f.name), Some(e.name));
            // The spec's display name matches its registry key.
            assert_eq!(e.spec(Scale::Quick).name(), e.name);
        }
        assert!(find_topo("leafspin").is_none());
    }

    #[test]
    fn every_registered_topology_builds_and_reports_hosts() {
        for e in TOPOLOGIES {
            let spec = e.spec(Scale::Quick);
            let mut w: World<Packet> = World::new(1);
            let topo = spec.build(&mut w, QueueSpec::ndp_default());
            assert_eq!(topo.n_hosts(), spec.n_hosts(), "{}", e.name);
            assert!(topo.n_hosts() >= 2, "{}", e.name);
            assert!(!topo.links().is_empty(), "{}", e.name);
        }
    }

    /// The derived switch back-references (RTS bounce target, PFC upstream
    /// list and its order) of every registered fabric equal what the
    /// hand-indexed per-builder wiring produced: the constants were rendered
    /// at the last commit that had it (c00d46e). Hash per `links()` entry:
    /// link index, bounce switch (component index), upstreams as link
    /// indices in pause order.
    #[test]
    fn wiring_matches_the_hand_indexed_builders() {
        // [NDP, DCQCN] fabric per `TOPOLOGIES` entry, in registry order.
        const EXPECT: [[u64; 2]; 6] = [
            [0x142f_ec5e_61a9_87e5, 0xf07b_457a_7d5a_1da5], // fattree
            [0xbb8f_0acf_927a_36a5, 0xbbdf_e38f_3ee9_daa5], // leafspine
            [0x45fa_dc88_088b_27a5, 0xd760_de53_2995_3925], // oversubscribed
            [0xf136_a82b_333f_4ea5, 0xc1ee_79e9_7dce_3825], // leafspine-oversub
            [0xf204_7a1a_e203_ac65, 0x90a0_eaca_bbb2_08a5], // testbed
            [0x6eaa_79d2_014d_0274, 0x6eaa_79d2_014d_0274], // backtoback
        ];
        let fabrics = [QueueSpec::ndp_default(), QueueSpec::dcqcn_default()];
        for (e, hashes) in TOPOLOGIES.iter().zip(EXPECT) {
            for (fabric, want) in fabrics.into_iter().zip(hashes) {
                let mut w: World<Packet> = World::new(1);
                let links = e.spec(Scale::Quick).build(&mut w, fabric).links();
                let mut words = Vec::new();
                for (i, l) in links.iter().enumerate() {
                    let q = w.get::<Queue>(l.queue);
                    words.push(i as u64);
                    words.push(q.bounce_to().map_or(u64::MAX, |sw| sw.index() as u64));
                    words.push(q.upstreams().len() as u64);
                    words.extend(q.upstreams().iter().map(|up| {
                        links.iter().position(|l| l.queue == *up).expect("a link") as u64
                    }));
                }
                // FNV-1a over the little-endian bytes.
                let got = words
                    .iter()
                    .flat_map(|w| w.to_le_bytes())
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                assert_eq!(got, want, "{} over {fabric:?}", e.name);
            }
        }
    }

    #[test]
    fn canonical_sizes_match_the_paper_grids() {
        // quick/paper host counts the figures are calibrated against.
        let count = |name: &str, scale: Scale| registered(name).spec(scale).n_hosts();
        assert_eq!(count("fattree", Scale::Quick), 16);
        assert_eq!(count("fattree", Scale::Paper), 128);
        assert_eq!(count("leafspine", Scale::Quick), 32);
        assert_eq!(count("leafspine", Scale::Paper), 128);
        assert_eq!(count("oversubscribed", Scale::Quick), 64);
        assert_eq!(count("oversubscribed", Scale::Paper), 512);
        assert_eq!(count("testbed", Scale::Quick), 8);
        assert_eq!(count("backtoback", Scale::Quick), 2);
    }
}
