//! The RPC serving subsystem: fan-out/fan-in request trees graded by
//! end-to-end request latency, not per-flow FCT.
//!
//! An [`RpcWorkload`] is the request source of a driven point (see
//! [`crate::driver`]): all shard legs of a request attach at its arrival
//! instant (the response path is a natural N:1 incast onto the client
//! ToR) and the request is done when its *last* flow is. Completions feed
//! per-tenant request-latency digests ([`ndp_metrics::TenantDigest`]):
//! p50/p99/p999 with sample-size confidence gates, SLO attainment against
//! the tenant deadline, and straggler attribution.
//!
//! # Experiments
//!
//! * `rpc_sweep` — request latency vs. client load × fan-out degree on a
//!   leaf-spine fabric, NDP vs DCTCP vs pHost. The paper's §5 serving
//!   claim in request terms: fan-in trees are exactly where trimming
//!   beats drop-tail loss recovery, because one timed-out straggler leg
//!   blows the whole request deadline.
//! * `rpc_tenant_mix` — a web-search RPC tenant, a data-mining bulk
//!   tenant and a bursty background tenant sharing one fabric; per-tenant
//!   SLO attainment in the mix vs. each tenant alone quantifies
//!   cross-tenant interference per protocol.
//!
//! Measured at quick scale since every host NIC serves its flows
//! round-robin (the baselines' were one FIFO per host before): in
//! `rpc_tenant_mix`, DCTCP's web-search SLO attainment rose 55.3% → 86.2%
//! and now *beats* NDP's 79.1%, an ordering the FIFO NICs had reversed.
//! pHost's fell 31.2% → 26.6%, with 1,441 → 1,578 of its requests served.
//! In `rpc_sweep` DCTCP keeps its lower p99 at fan-out 8 and 50% load
//! (370 → 385 µs, against NDP's 659). Since DCTCP's `alpha` starts at 1
//! and its RTO expiry goes back N, its `rpc_tenant_mix` web-search SLO
//! attainment reads 89.1% (86.2% before; NDP 79.1%); `rpc_sweep` did not
//! move.
//!
//! Both are `--topo`-neutral: tenant arrival rates are declared as
//! *loads* ([`ArrivalSpec`]) and resolved against the built topology's
//! host count and NIC speed, so the same experiment runs on any
//! registered fabric. With `--trace`, request spans (and the
//! `FlowSpan.request` back-links on their legs) surface the fan-out trees
//! in the NDJSON/Perfetto exports.

use ndp_metrics::{Table, TenantDigest};
use ndp_sim::{EventKindCounts, SchedulerKind, Time};
use ndp_topology::Topology;
use ndp_workloads::{ArrivalProcess, EmpiricalCdf, RpcProfile, RpcWorkload, TenantMix, TreeShape};

use crate::driver::{run_driven, DrivenSpec, Instruments};
use crate::harness::{Proto, Scale};
use crate::openloop::SWEEP_PROTOS;
use crate::sweep;
use crate::topo::{registered, TopoEntry, TopoSpec};

/// How a tenant's request arrivals are declared — loads, not rates, so a
/// point is `--topo`-neutral. Resolved against the built fabric's NIC
/// speed and host count by [`resolve_mix`].
#[derive(Clone, Debug)]
pub enum ArrivalSpec {
    /// Poisson at the rate that offers this fraction of the average
    /// client NIC on the fan-in path
    /// (see [`RpcProfile::rate_for_client_load`]).
    Load(f64),
    /// Diurnal-burst arrivals swinging between two such loads: `base`
    /// for `1 - burst_frac` of each period, `peak` for the rest.
    DiurnalLoad {
        base: f64,
        peak: f64,
        period: Time,
        burst_frac: f64,
    },
    /// Closed-loop think time: the tenant keeps `width` request chains
    /// outstanding, each following its previous completion by a
    /// log-uniform gap around the median.
    Closed { median_gap: Time, width: usize },
}

/// One tenant of an RPC experiment, declaratively.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    pub name: &'static str,
    pub shape: TreeShape,
    pub fanout: usize,
    pub leg_sizes: EmpiricalCdf,
    pub response_sizes: Option<EmpiricalCdf>,
    pub arrivals: ArrivalSpec,
    /// End-to-end deadline the tenant's SLO attainment is graded against.
    pub slo: Time,
}

/// Resolve declarative tenant specs into an [`TenantMix`] for the built
/// topology: loads become Poisson rates on this fabric's NIC speed and
/// host count.
pub fn resolve_mix(tenants: &[TenantSpec], topo: &dyn Topology) -> TenantMix {
    let link_bps = topo.host_link_speed().as_bps();
    let n = topo.n_hosts();
    let profiles = tenants
        .iter()
        .map(|t| {
            let mut p = RpcProfile {
                name: t.name,
                shape: t.shape,
                fanout: t.fanout,
                leg_sizes: t.leg_sizes.clone(),
                response_sizes: t.response_sizes.clone(),
                arrivals: ArrivalProcess::ClosedLoop { median_gap_ps: 1 },
                closed_loop_width: 1,
                slo_ps: t.slo.as_ps(),
                clients: None,
            };
            let (arrivals, width) = match t.arrivals {
                ArrivalSpec::Load(load) => (
                    ArrivalProcess::Poisson {
                        rate_hz: p.rate_for_client_load(load, link_bps, n),
                    },
                    1,
                ),
                ArrivalSpec::DiurnalLoad {
                    base,
                    peak,
                    period,
                    burst_frac,
                } => (
                    ArrivalProcess::diurnal_burst(
                        p.rate_for_client_load(base, link_bps, n),
                        p.rate_for_client_load(peak, link_bps, n),
                        period.as_ps(),
                        burst_frac,
                    ),
                    1,
                ),
                ArrivalSpec::Closed { median_gap, width } => (
                    ArrivalProcess::ClosedLoop {
                        median_gap_ps: median_gap.as_ps(),
                    },
                    width,
                ),
            };
            p.arrivals = arrivals;
            p.closed_loop_width = width;
            p
        })
        .collect();
    TenantMix::new(profiles)
}

/// One RPC simulation point.
#[derive(Clone)]
pub struct RpcPoint {
    pub proto: Proto,
    pub topo: TopoSpec,
    pub tenants: Vec<TenantSpec>,
    pub seed: u64,
    pub warmup: Time,
    pub measure: Time,
    pub drain: Time,
    /// Scheduler override for determinism A/B tests; `None` = default.
    pub sched: Option<SchedulerKind>,
    /// Telemetry point key suffix (distinguishes grid cells).
    pub key: String,
}

/// Per-tenant results of one point, fully summarised (percentiles
/// resolved through the sample-size confidence gate — `None` means the
/// sample cannot support the estimate and reports print `null`).
#[derive(Clone, Debug)]
pub struct TenantSummary {
    pub name: &'static str,
    pub slo_us: f64,
    /// Requests that arrived inside the measurement window.
    pub offered: u64,
    pub completed: u64,
    pub incomplete: u64,
    pub mean_us: Option<f64>,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    pub p999_us: Option<f64>,
    pub slo_attainment: Option<f64>,
    pub straggler_largest_frac: Option<f64>,
    /// Bit-exact digest fingerprint — the determinism witness.
    pub fingerprint: u64,
}

impl TenantSummary {
    fn from_digest(d: &mut TenantDigest) -> TenantSummary {
        TenantSummary {
            name: d.name,
            slo_us: d.slo_us,
            offered: d.offered,
            completed: d.n() as u64,
            incomplete: d.incomplete,
            mean_us: d.mean_us(),
            p50_us: d.latency_us(0.50),
            p99_us: d.latency_us(0.99),
            p999_us: d.latency_us(0.999),
            slo_attainment: d.slo_attainment(),
            straggler_largest_frac: d.straggler_largest_frac(),
            fingerprint: d.fingerprint(),
        }
    }
}

/// One finished RPC point.
pub struct RpcPointResult {
    pub proto: Proto,
    pub tenants: Vec<TenantSummary>,
    /// All requests spawned (warmup + measured).
    pub offered: usize,
    pub measured: usize,
    pub events_processed: u64,
    pub event_kinds: EventKindCounts,
    pub peak_live_flows: usize,
    pub peak_live_requests: usize,
    pub live_components_baseline: usize,
    pub live_components_end: usize,
    pub peak_live_components: usize,
}

/// Run one RPC point on the [`crate::driver`] runner: per-tenant
/// request-latency digests ([`ndp_metrics::TenantDigest`]) fed chunk by
/// chunk.
pub fn rpc_world_run(point: &RpcPoint) -> RpcPointResult {
    let arrivals_end = point.warmup + point.measure;
    let mut digests: Vec<TenantDigest> = (point.tenants.iter())
        .map(|t| TenantDigest::new(t.name, t.slo.as_ps() as f64 / 1e6))
        .collect();
    let spec = DrivenSpec {
        proto: point.proto,
        topo: &point.topo,
        seed: point.seed,
        sched: point.sched,
        warmup: point.warmup,
        arrivals_end,
        drain: point.drain,
        chunk_of: point.measure,
        request_trees: true,
        cell: &point.key,
    };
    let (d, world) = run_driven(
        &spec,
        |_, topo, _| {
            let mix = resolve_mix(&point.tenants, topo.as_ref());
            // The request stream is a function of (seed, tenants) only —
            // every protocol and scheduler at the same point sees the
            // identical request trees, so comparisons are paired.
            let workload = RpcWorkload::new(
                topo.n_hosts(),
                mix,
                point.seed ^ 0x52BC,
                arrivals_end.as_ps(),
            );
            (Box::new(workload), Instruments::default())
        },
        |c| {
            digests[c.tenant as usize].record(
                c.latency.as_ps() as f64 / 1e6,
                c.straggler_leg as usize,
                c.straggler_was_largest,
            )
        },
    );
    // Requests still live at the cap are graded as SLO misses.
    for (t, digest) in digests.iter_mut().enumerate() {
        digest.offered = d.measured_per_tenant.get(t).copied().unwrap_or(0);
    }
    for &t in &d.stuck {
        digests[t as usize].incomplete += 1;
    }
    RpcPointResult {
        proto: point.proto,
        tenants: digests.iter_mut().map(TenantSummary::from_digest).collect(),
        offered: d.offered,
        measured: d.measured,
        events_processed: world.events_processed(),
        event_kinds: world.event_kind_counts(),
        peak_live_flows: d.peak_live_flows,
        peak_live_requests: d.peak_live_requests,
        live_components_baseline: d.live_components_baseline,
        live_components_end: world.live_components(),
        peak_live_components: world.peak_live_components(),
    }
}

// ---------------------------------------------------------------------------
// Shared experiment plumbing
// ---------------------------------------------------------------------------

/// The shard-answer size distribution RPC tenants draw legs from: mice
/// with a modest tail (mean ≈ 9 KB), so quick-scale windows still resolve
/// p999 with thousands of requests.
pub fn rpc_leg_sizes() -> EmpiricalCdf {
    EmpiricalCdf::new(
        "rpc-shard",
        vec![
            (0.0, 1_000.0),
            (0.5, 4_000.0),
            (0.9, 16_000.0),
            (1.0, 64_000.0),
        ],
    )
}

fn fmt_us(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.0}"),
        None => "-".into(),
    }
}

fn fmt_frac(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.1}%", v * 100.0),
        None => "-".into(),
    }
}

fn opt_num(v: Option<f64>) -> crate::json::Json {
    crate::json::Json::num(v.unwrap_or(f64::NAN))
}

fn tenant_json(t: &TenantSummary) -> crate::json::Json {
    use crate::json::Json;
    Json::obj([
        ("tenant", Json::str(t.name)),
        ("slo_us", Json::num(t.slo_us)),
        ("offered", Json::num(t.offered as f64)),
        ("completed", Json::num(t.completed as f64)),
        ("incomplete", Json::num(t.incomplete as f64)),
        ("mean_us", opt_num(t.mean_us)),
        ("p50_us", opt_num(t.p50_us)),
        ("p99_us", opt_num(t.p99_us)),
        ("p999_us", opt_num(t.p999_us)),
        ("slo_attainment", opt_num(t.slo_attainment)),
        ("straggler_largest_frac", opt_num(t.straggler_largest_frac)),
    ])
}

/// One world's share of [`crate::registry::RunStats::over_worlds`].
fn world_stats(r: &RpcPointResult) -> (u64, EventKindCounts, usize, usize) {
    (
        r.events_processed,
        r.event_kinds,
        r.peak_live_components,
        r.peak_live_flows,
    )
}

// ---------------------------------------------------------------------------
// rpc_sweep: load × fan-out × protocol
// ---------------------------------------------------------------------------

struct SweepCell {
    load: f64,
    fanout: usize,
    result: RpcPointResult,
}

/// `rpc_sweep` report: request latency and SLO attainment per
/// (protocol, client load, fan-out degree).
pub struct RpcSweepReport {
    topo_override: Option<&'static str>,
    topo_name: &'static str,
    loads: Vec<f64>,
    fanouts: Vec<usize>,
    rows: Vec<SweepCell>,
}

fn sweep_tenant(load: f64, fanout: usize) -> TenantSpec {
    TenantSpec {
        name: "rpc",
        shape: TreeShape::FanIn,
        fanout,
        leg_sizes: rpc_leg_sizes(),
        response_sizes: None,
        arrivals: ArrivalSpec::Load(load),
        // Fan-in serialization grows with degree; grade each cell against
        // a deadline proportional to its own ideal fan-in time.
        slo: Time::from_us(100 + 25 * fanout as u64),
    }
}

impl RpcSweepReport {
    pub(crate) fn run(scale: Scale, seed: u64, topo: Option<&'static TopoEntry>) -> RpcSweepReport {
        let (loads, fanouts): (Vec<f64>, Vec<usize>) = match scale {
            Scale::Paper => (vec![0.2, 0.4, 0.6], vec![4, 16, 32]),
            Scale::Quick => (vec![0.2, 0.5], vec![4, 8]),
        };
        let (warmup, measure, drain) = match scale {
            Scale::Paper => (Time::from_ms(2), Time::from_ms(40), Time::from_ms(40)),
            Scale::Quick => (Time::from_ms(1), Time::from_ms(10), Time::from_ms(20)),
        };
        let entry = topo.unwrap_or(registered("leafspine"));
        let spec = entry.spec(scale);
        let mut points = Vec::new();
        for (li, &load) in loads.iter().enumerate() {
            for &fanout in &fanouts {
                for &proto in SWEEP_PROTOS {
                    points.push(RpcPoint {
                        proto,
                        topo: spec.clone(),
                        tenants: vec![sweep_tenant(load, fanout)],
                        // One seed per (load, fanout): protocols replay
                        // identical request trees.
                        seed: seed + li as u64 * 37 + fanout as u64,
                        warmup,
                        measure,
                        drain,
                        sched: None,
                        key: format!("load{:02}x{}", (load * 100.0) as u32, fanout),
                    });
                }
            }
        }
        let results = sweep::run(&points, rpc_world_run);
        let rows = points
            .iter()
            .zip(results)
            .map(|(p, result)| SweepCell {
                load: match p.tenants[0].arrivals {
                    ArrivalSpec::Load(l) => l,
                    _ => unreachable!("sweep tenants are load-driven"),
                },
                fanout: p.tenants[0].fanout,
                result,
            })
            .collect();
        RpcSweepReport {
            topo_override: topo.map(|e| e.name),
            topo_name: entry.name,
            loads,
            fanouts,
            rows,
        }
    }

    fn cell(&self, proto: Proto, load: f64, fanout: usize) -> Option<&TenantSummary> {
        self.rows
            .iter()
            .find(|c| c.result.proto == proto && c.load == load && c.fanout == fanout)
            .map(|c| &c.result.tenants[0])
    }
}

impl std::fmt::Display for RpcSweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "protocol",
            "load",
            "fanout",
            "requests",
            "incompl",
            "p50us",
            "p99us",
            "p999us",
            "SLO",
            "strag=big",
        ]);
        for c in &self.rows {
            let s = &c.result.tenants[0];
            t.row(vec![
                c.result.proto.label().to_string(),
                format!("{:.0}%", c.load * 100.0),
                c.fanout.to_string(),
                s.completed.to_string(),
                s.incomplete.to_string(),
                fmt_us(s.p50_us),
                fmt_us(s.p99_us),
                fmt_us(s.p999_us),
                fmt_frac(s.slo_attainment),
                fmt_frac(s.straggler_largest_frac),
            ]);
        }
        write!(
            f,
            "RPC serving sweep on {} — end-to-end request latency vs. client load and fan-out\n{}",
            self.topo_name,
            t.render()
        )
    }
}

impl crate::registry::Report for RpcSweepReport {
    fn headline(&self) -> String {
        let &load = self.loads.last().expect("loads");
        let &fanout = self.fanouts.last().expect("fanouts");
        let per_proto: Vec<String> = SWEEP_PROTOS
            .iter()
            .map(|&p| {
                let s = self.cell(p, load, fanout);
                format!(
                    "{} {}",
                    p.label(),
                    fmt_us(s.and_then(|s| s.p99_us.or(s.mean_us)))
                )
            })
            .collect();
        format!(
            "rpc fan-out {fanout} @{:.0}% client load: p99 request latency (us) {}",
            load * 100.0,
            per_proto.join(", ")
        )
    }

    fn run_stats(&self) -> crate::registry::RunStats {
        crate::registry::RunStats::over_worlds(self.rows.iter().map(|c| world_stats(&c.result)))
    }

    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("topo", Json::str(self.topo_name)),
            (
                "topo_override",
                self.topo_override.map_or(Json::Null, Json::str),
            ),
            ("loads", Json::arr(self.loads.iter().map(|&l| Json::num(l)))),
            (
                "fanouts",
                Json::arr(self.fanouts.iter().map(|&f| Json::num(f as f64))),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|c| {
                    let s = &c.result.tenants[0];
                    Json::obj([
                        ("proto", Json::str(c.result.proto.label())),
                        ("load", Json::num(c.load)),
                        ("fanout", Json::num(c.fanout as f64)),
                        ("summary", tenant_json(s)),
                    ])
                })),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// rpc_tenant_mix: three tenants sharing one fabric, vs each alone
// ---------------------------------------------------------------------------

fn mix_tenants() -> Vec<TenantSpec> {
    vec![
        // Latency-critical serving tier: wide fan-in of shard answers.
        TenantSpec {
            name: "websearch_rpc",
            shape: TreeShape::FanIn,
            fanout: 8,
            leg_sizes: rpc_leg_sizes(),
            response_sizes: Some(EmpiricalCdf::fixed("rpc-upstream", 1460)),
            arrivals: ArrivalSpec::Load(0.35),
            slo: Time::from_us(500),
        },
        // Bulk analytics: few requests, elephant flows, loose deadline.
        TenantSpec {
            name: "datamining_bulk",
            shape: TreeShape::FanIn,
            fanout: 1,
            leg_sizes: EmpiricalCdf::datamining(),
            response_sizes: None,
            arrivals: ArrivalSpec::Load(0.08),
            slo: Time::from_ms(50),
        },
        // Bursty background traffic swinging between quiet and blast.
        TenantSpec {
            name: "background_blast",
            shape: TreeShape::FanIn,
            fanout: 4,
            leg_sizes: EmpiricalCdf::fixed("blast", 8_192),
            response_sizes: None,
            arrivals: ArrivalSpec::DiurnalLoad {
                base: 0.1,
                peak: 0.5,
                period: Time::from_ms(2),
                burst_frac: 0.3,
            },
            slo: Time::from_us(300),
        },
    ]
}

struct MixRow {
    proto: Proto,
    mix: RpcPointResult,
    /// `solo[t]` ran tenant `t` alone on the same fabric and seed.
    solo: Vec<RpcPointResult>,
}

/// `rpc_tenant_mix` report: per-tenant SLO attainment in the shared mix
/// vs. alone, per protocol.
pub struct RpcTenantMixReport {
    topo_override: Option<&'static str>,
    topo_name: &'static str,
    tenants: Vec<&'static str>,
    rows: Vec<MixRow>,
}

impl RpcTenantMixReport {
    pub(crate) fn run(
        scale: Scale,
        seed: u64,
        topo: Option<&'static TopoEntry>,
    ) -> RpcTenantMixReport {
        let (warmup, measure, drain) = match scale {
            Scale::Paper => (Time::from_ms(2), Time::from_ms(40), Time::from_ms(60)),
            Scale::Quick => (Time::from_ms(1), Time::from_ms(16), Time::from_ms(30)),
        };
        let entry = topo.unwrap_or(registered("fattree"));
        let spec = entry.spec(scale);
        let tenants = mix_tenants();
        let names: Vec<&'static str> = tenants.iter().map(|t| t.name).collect();
        let mut points = Vec::new();
        for &proto in SWEEP_PROTOS {
            points.push(RpcPoint {
                proto,
                topo: spec.clone(),
                tenants: tenants.clone(),
                seed,
                warmup,
                measure,
                drain,
                sched: None,
                key: "mix".into(),
            });
            for (t, tenant) in tenants.iter().enumerate() {
                points.push(RpcPoint {
                    proto,
                    topo: spec.clone(),
                    tenants: vec![tenant.clone()],
                    // Same seed as the mix run: the solo baseline is the
                    // identical fabric and seed minus the other tenants
                    // (the per-tenant streams are SplitMix-independent,
                    // but the solo world re-subseeds from tenant 0, so
                    // the comparison is distributional, not paired).
                    seed: seed + 1 + t as u64,
                    warmup,
                    measure,
                    drain,
                    sched: None,
                    key: format!("solo-{}", tenant.name),
                });
            }
        }
        let mut results = sweep::run(&points, rpc_world_run).into_iter();
        let mut rows = Vec::new();
        for &proto in SWEEP_PROTOS {
            let mix = results.next().expect("mix row");
            let solo: Vec<RpcPointResult> = (0..tenants.len())
                .map(|_| results.next().expect("solo row"))
                .collect();
            debug_assert_eq!(mix.proto, proto);
            rows.push(MixRow { proto, mix, solo });
        }
        RpcTenantMixReport {
            topo_override: topo.map(|e| e.name),
            topo_name: entry.name,
            tenants: names,
            rows,
        }
    }
}

/// p99-latency interference ratio: shared-fabric p99 over alone p99
/// (falls back to means when a tail is unresolvable). > 1 means the mix
/// hurt the tenant.
fn interference(mix: &TenantSummary, solo: &TenantSummary) -> Option<f64> {
    let m = mix.p99_us.or(mix.mean_us)?;
    let s = solo.p99_us.or(solo.mean_us)?;
    (s > 0.0).then_some(m / s)
}

impl std::fmt::Display for RpcTenantMixReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "protocol",
            "tenant",
            "requests",
            "p50us",
            "p99us",
            "p999us",
            "SLO mix",
            "SLO alone",
            "interf",
        ]);
        for row in &self.rows {
            for (i, s) in row.mix.tenants.iter().enumerate() {
                let solo = &row.solo[i].tenants[0];
                t.row(vec![
                    row.proto.label().to_string(),
                    s.name.to_string(),
                    s.completed.to_string(),
                    fmt_us(s.p50_us),
                    fmt_us(s.p99_us),
                    fmt_us(s.p999_us),
                    fmt_frac(s.slo_attainment),
                    fmt_frac(solo.slo_attainment),
                    match interference(s, solo) {
                        Some(r) => format!("{r:.2}x"),
                        None => "-".into(),
                    },
                ]);
            }
        }
        write!(
            f,
            "RPC tenant mix on {} — SLO attainment shared vs. alone\n{}",
            self.topo_name,
            t.render()
        )
    }
}

impl crate::registry::Report for RpcTenantMixReport {
    fn headline(&self) -> String {
        // The serving tenant's SLO attainment under the shared fabric is
        // the claim: NDP holds the deadline where the baselines shed it.
        let per_proto: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{} {}",
                    r.proto.label(),
                    fmt_frac(r.mix.tenants[0].slo_attainment)
                )
            })
            .collect();
        format!(
            "{} SLO attainment in shared mix: {}",
            self.tenants[0],
            per_proto.join(", ")
        )
    }

    fn run_stats(&self) -> crate::registry::RunStats {
        let worlds = self
            .rows
            .iter()
            .flat_map(|r| std::iter::once(&r.mix).chain(&r.solo));
        crate::registry::RunStats::over_worlds(worlds.map(world_stats))
    }

    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("topo", Json::str(self.topo_name)),
            (
                "topo_override",
                self.topo_override.map_or(Json::Null, Json::str),
            ),
            (
                "tenants",
                Json::arr(self.tenants.iter().map(|&t| Json::str(t))),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("proto", Json::str(r.proto.label())),
                        ("mix", Json::arr(r.mix.tenants.iter().map(tenant_json))),
                        (
                            "solo",
                            Json::arr(r.solo.iter().map(|s| tenant_json(&s.tenants[0]))),
                        ),
                        (
                            "interference_p99",
                            Json::arr(
                                r.mix
                                    .tenants
                                    .iter()
                                    .zip(&r.solo)
                                    .map(|(m, s)| opt_num(interference(m, &s.tenants[0]))),
                            ),
                        ),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RpcDriver;
    use ndp_net::packet::Packet;
    use ndp_sim::World;
    use std::sync::Arc;

    fn quick_point(proto: Proto, seed: u64) -> RpcPoint {
        RpcPoint {
            proto,
            topo: registered("leafspine").spec(Scale::Quick),
            tenants: vec![sweep_tenant(0.3, 4)],
            seed,
            warmup: Time::from_ms(1),
            measure: Time::from_ms(6),
            drain: Time::from_ms(15),
            sched: None,
            key: "test".into(),
        }
    }

    #[test]
    fn rpc_point_books_request_latencies_and_drains() {
        let r = rpc_world_run(&quick_point(Proto::Ndp, 7));
        let s = &r.tenants[0];
        assert!(s.completed > 100, "only {} completed requests", s.completed);
        assert_eq!(s.offered, s.completed + s.incomplete);
        assert!(s.mean_us.unwrap() > 0.0);
        // A 4-leg fan-in moves >= 4 KB; even unloaded it cannot finish in
        // under a microsecond, and the p50 should sit near the ideal
        // fan-in time (tens of microseconds), far under a millisecond.
        assert!(s.p50_us.unwrap() > 1.0, "p50 {:?}", s.p50_us);
        assert!(s.p50_us.unwrap() < 1_000.0, "p50 {:?}", s.p50_us);
        assert!(r.peak_live_requests >= 1);
        assert!(r.peak_live_flows >= 4, "legs attach in parallel");
        assert_eq!(
            r.live_components_end, r.live_components_baseline,
            "arena must drain to baseline"
        );
    }

    #[test]
    fn request_latency_is_the_fan_in_max_not_the_leg_mean() {
        // Attach a span log directly (no session) and check the fan-in
        // invariant: request latency == max leg completion - arrival.
        let point = quick_point(Proto::Ndp, 11);
        let mut world: World<Packet> = World::new(point.seed);
        let topo: Arc<dyn Topology> = Arc::from(point.topo.build(&mut world, point.proto.fabric()));
        let n = topo.n_hosts();
        let arrivals_end = point.warmup + point.measure;
        let mix = resolve_mix(&point.tenants, topo.as_ref());
        let workload = RpcWorkload::new(n, mix, point.seed ^ 0x52BC, arrivals_end.as_ps());
        let drv = RpcDriver::install_into(
            &mut world,
            point.proto,
            topo.clone(),
            Box::new(workload),
            point.warmup,
        );
        let spans = ndp_telemetry::span::span_log();
        let requests = ndp_telemetry::span::request_log();
        {
            let d = world.get_mut::<RpcDriver>(drv);
            d.set_span_log(spans.clone());
            d.set_request_log(requests.clone());
        }
        world.run_until(arrivals_end + point.drain);
        let spans = ndp_telemetry::span::take_spans(&spans);
        let reqs = ndp_telemetry::span::take_requests(&requests);
        assert!(reqs.len() > 50, "want a real sample, got {}", reqs.len());
        assert!(spans.iter().all(|s| s.request.is_some()));
        for r in &reqs {
            let legs: Vec<_> = spans
                .iter()
                .filter(|s| s.request == Some(r.request))
                .collect();
            assert_eq!(legs.len(), r.fanout as usize, "no response flows here");
            let last = legs
                .iter()
                .filter_map(|s| s.completion)
                .max()
                .expect("completed request has completed legs");
            assert_eq!(
                r.completion,
                Some(last),
                "request completes exactly when its slowest leg does"
            );
            assert!(legs.iter().all(|s| s.arrival == r.arrival));
        }
    }

    #[test]
    fn rpc_runs_are_bit_identical_across_threads_and_schedulers() {
        let base = quick_point(Proto::Ndp, 21);
        let mut classic = base.clone();
        classic.sched = Some(SchedulerKind::Classic);
        let mut twotier = base.clone();
        twotier.sched = Some(SchedulerKind::TwoTier);
        let points = vec![base, classic, twotier];
        let fp = |rs: &[RpcPointResult]| -> Vec<u64> {
            rs.iter().map(|r| r.tenants[0].fingerprint).collect()
        };
        let serial = fp(&sweep::run_with_threads(&points, 1, rpc_world_run));
        let threaded = fp(&sweep::run_with_threads(&points, 7, rpc_world_run));
        assert_eq!(serial, threaded, "thread count changed results");
        assert_eq!(
            serial[0], serial[1],
            "Classic scheduler must replay the default exactly"
        );
        assert_eq!(serial[1], serial[2], "schedulers diverged");
    }

    #[test]
    fn protocols_replay_identical_request_trees() {
        let a = rpc_world_run(&quick_point(Proto::Ndp, 3));
        let b = rpc_world_run(&quick_point(Proto::Dctcp, 3));
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.measured, b.measured);
    }

    #[test]
    fn closed_loop_tenant_self_clocks_through_the_driver() {
        let point = RpcPoint {
            proto: Proto::Ndp,
            topo: registered("leafspine").spec(Scale::Quick),
            tenants: vec![TenantSpec {
                name: "pingpong",
                shape: TreeShape::PingPong,
                fanout: 1,
                leg_sizes: EmpiricalCdf::fixed("req", 64),
                response_sizes: Some(EmpiricalCdf::fixed("rsp", 4_096)),
                arrivals: ArrivalSpec::Closed {
                    median_gap: Time::from_us(20),
                    width: 2,
                },
                slo: Time::from_us(500),
            }],
            seed: 5,
            warmup: Time::ZERO,
            measure: Time::from_ms(4),
            drain: Time::from_ms(10),
            sched: None,
            key: "closed".into(),
        };
        let r = rpc_world_run(&point);
        let s = &r.tenants[0];
        // Two chains, each ping-ponging with ~20us think time over a ~10us
        // RTT: the window fits hundreds of requests, and closed-loop flow
        // control keeps the live set at the chain width.
        assert!(
            s.completed > 50,
            "chains stalled: {} completed",
            s.completed
        );
        assert!(r.peak_live_requests <= 2, "width must cap outstanding");
        assert_eq!(r.live_components_end, r.live_components_baseline);
    }

    #[test]
    fn heavy_fan_in_point_drains_completely() {
        // Regression for the lost-PULL stall: this exact point (50% load,
        // fan-out 8) used to leave 47 NDP flows permanently wedged — every
        // packet had NACK feedback, so the stock RTO never re-armed, and
        // the dropped pull meant no event would ever touch the flow again.
        // Every NDP flow now runs the liveness net, so every request must
        // complete within the drain window.
        let mut point = quick_point(Proto::Ndp, 0);
        point.seed = 0xE400 + 37 + 8;
        point.tenants = vec![sweep_tenant(0.5, 8)];
        point.measure = Time::from_ms(10);
        point.drain = Time::from_ms(20);
        let r = rpc_world_run(&point);
        let incomplete: u64 = r.tenants.iter().map(|t| t.incomplete).sum();
        assert_eq!(incomplete, 0, "liveness net must unstick every request");
        assert!(r.tenants[0].completed > 1000, "point should be busy");
        assert_eq!(r.live_components_end, r.live_components_baseline);
    }

    #[test]
    fn mix_solo_reduction_matches_tenant_list() {
        // Smoke the tenant-mix wiring at tiny scale: tenants stay in
        // declared order and every solo row carries its own tenant.
        let tenants = mix_tenants();
        assert_eq!(tenants.len(), 3);
        let names: Vec<_> = tenants.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            vec!["websearch_rpc", "datamining_bulk", "background_blast"]
        );
    }

    /// The quick `rpc_tenant_mix` document covers three protocols by three
    /// tenants with tail percentiles on at least two tenants per protocol
    /// (the low-rate data-mining tenant may offer too few requests for a
    /// p999), NDP's RPC tenants drain completely, and NDP's web-search SLO
    /// attainment beats pHost's.
    #[test]
    fn rpc_tenant_mix_document_keeps_its_shape() {
        use crate::json::Json;
        use crate::registry::{document, find};
        use std::collections::{BTreeMap, BTreeSet};
        let exp = find("rpc_tenant_mix").expect("rpc_tenant_mix is registered");
        let report = (exp.run)(Scale::Quick, None);
        document::pin(exp.id, report.as_ref());
        let data = report.to_json();
        fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
            v.get(key).unwrap_or_else(|| panic!("no {key}: {v:?}"))
        }
        fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
            field(v, key).as_arr().expect("an array")
        }
        fn label(r: &Json) -> &str {
            field(r, "proto").as_str().expect("a label")
        }
        assert_eq!(list(&data, "tenants").len(), 3);
        let rows = list(&data, "rows");
        let protos: BTreeSet<&str> = rows.iter().map(label).collect();
        for proto in ["NDP", "DCTCP", "pHost"] {
            assert!(protos.contains(proto), "no {proto} row: {protos:?}");
        }
        let mut slo = BTreeMap::new();
        for r in rows {
            let (proto, mix) = (label(r), list(r, "mix"));
            for key in ["mix", "solo", "interference_p99"] {
                assert_eq!(list(r, key).len(), 3, "{proto}: {key}");
            }
            let tails = mix.iter().filter(|t| {
                field(t, "p999_us").as_f64().is_some()
                    && field(t, "slo_attainment").as_f64().is_some()
            });
            assert!(tails.count() >= 2, "{proto}: tail percentiles missing");
            for t in mix {
                let tenant = field(t, "tenant").as_str().expect("a name");
                let completed = field(t, "completed").as_f64();
                assert!(completed > Some(0.0), "{proto} {tenant}: none completed");
                if proto == "NDP" && tenant != "datamining_bulk" {
                    let incomplete = field(t, "incomplete").as_f64();
                    assert_eq!(incomplete, Some(0.0), "{tenant}: NDP stranded requests");
                }
                if tenant == "websearch_rpc" {
                    slo.insert(proto, field(t, "slo_attainment").as_f64());
                }
            }
        }
        assert!(slo["NDP"] > slo["pHost"], "{slo:?}");
    }
}
