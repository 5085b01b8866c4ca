//! RPC serving workload: fan-out/fan-in request trees over tenant mixes.
//!
//! A *request* is a tree of flows, not a single flow. In the default
//! [`TreeShape::FanIn`] shape a client request fans out to `fanout`
//! distinct shard servers whose responses converge on the client NIC —
//! the natural N:1 incast the paper's §5.6 serving claim is about — and
//! an optional upstream response flow leaves the client once the last
//! shard answer lands. The request is *done* when its final flow is done;
//! end-to-end request latency (not per-flow FCT) is what the RPC metrics
//! family books.
//!
//! Per-tenant [`RpcProfile`]s (fan-out degree, leg/response size
//! distributions from [`EmpiricalCdf`], arrival process, SLO deadline)
//! compose into a [`TenantMix`]; [`RpcWorkload`] merges the per-tenant
//! streams into one time-ordered request sequence.
//!
//! Determinism contract (same as [`DynamicWorkload`]): each tenant's
//! stream is a pure function of `(seed, tenant)` via SplitMix64 mixing,
//! and the merge breaks ties by tenant index, so request trees are
//! bit-identical for equal seeds regardless of thread count or scheduler.
//!
//! [`DynamicWorkload`]: crate::DynamicWorkload

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::arrival::ArrivalProcess;
use crate::dynamic::mix_seed;
use crate::empirical::EmpiricalCdf;
use crate::{incast, uniform_where};

/// One flow inside a request tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowLeg {
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
}

/// How a request's flow tree is shaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeShape {
    /// `fanout` shard fetches (distinct shards → client, an N:1 incast on
    /// the client ToR) in parallel; the optional response flow
    /// (client → random upstream) starts after the last shard answer.
    FanIn,
    /// Request/response ping-pong: one client → server flow, then the
    /// optional server → client response — the Figure 8 RPC loop shape.
    PingPong,
}

/// One tenant's RPC behaviour: tree shape and degree, size distributions,
/// arrival process, and the latency deadline its SLO is graded against.
#[derive(Clone, Debug)]
pub struct RpcProfile {
    pub name: &'static str,
    pub shape: TreeShape,
    /// Shard fetches per request (`FanIn`); must be 1 for `PingPong`.
    pub fanout: usize,
    /// Size distribution of each parallel leg (shard answers for `FanIn`,
    /// the request flow for `PingPong`).
    pub leg_sizes: EmpiricalCdf,
    /// Size distribution of the sequential follow-up flow, if any.
    pub response_sizes: Option<EmpiricalCdf>,
    /// Tenant-aggregate arrival process. `ClosedLoop` makes the tenant
    /// self-clocked: the next request follows the previous completion by
    /// a think-time gap (see [`RpcWorkload::on_complete`]).
    pub arrivals: ArrivalProcess,
    /// Outstanding request chains for a `ClosedLoop` tenant (ignored for
    /// open-loop arrivals).
    pub closed_loop_width: usize,
    /// End-to-end latency deadline this tenant's SLO attainment is
    /// measured against.
    pub slo_ps: u64,
    /// Hosts that may issue requests; `None` means every host.
    pub clients: Option<Vec<u32>>,
}

impl RpcProfile {
    /// Mean bytes a single request moves across the fabric.
    pub fn mean_request_bytes(&self) -> f64 {
        self.fanout as f64 * self.leg_sizes.mean_size()
            + self
                .response_sizes
                .as_ref()
                .map_or(0.0, |cdf| cdf.mean_size())
    }

    /// The tenant-aggregate Poisson rate that offers `load` (fraction of
    /// one `link_bps` NIC) on the average client's fan-in path, given
    /// requests spread over `n_clients` clients. The bottleneck of a
    /// fan-in tree is the client NIC, which receives `fanout × mean leg`
    /// bytes per request.
    pub fn rate_for_client_load(&self, load: f64, link_bps: u64, n_clients: usize) -> f64 {
        assert!(load > 0.0 && load < 1.5, "load {load} out of range");
        let fan_in_bytes = self.fanout as f64 * self.leg_sizes.mean_size();
        load * n_clients as f64 * link_bps as f64 / (8.0 * fan_in_bytes)
    }

    fn validate(&self, n_hosts: usize) {
        assert!(self.fanout >= 1, "{}: fanout must be >= 1", self.name);
        assert!(
            self.fanout < n_hosts,
            "{}: fanout {} needs more than {} hosts",
            self.name,
            self.fanout,
            n_hosts
        );
        if self.shape == TreeShape::PingPong {
            assert_eq!(self.fanout, 1, "{}: ping-pong is fanout 1", self.name);
        }
        assert!(self.slo_ps > 0, "{}: SLO deadline required", self.name);
        if let Some(clients) = &self.clients {
            assert!(!clients.is_empty(), "{}: empty client set", self.name);
            assert!(
                clients.iter().all(|&c| (c as usize) < n_hosts),
                "{}: client out of range",
                self.name
            );
        }
        if matches!(self.arrivals, ArrivalProcess::ClosedLoop { .. }) {
            assert!(
                self.closed_loop_width >= 1,
                "{}: closed loop needs at least one chain",
                self.name
            );
        }
    }
}

/// Tenants sharing one fabric.
#[derive(Clone, Debug)]
pub struct TenantMix {
    pub profiles: Vec<RpcProfile>,
}

impl TenantMix {
    pub fn new(profiles: Vec<RpcProfile>) -> TenantMix {
        assert!(!profiles.is_empty(), "tenant mix needs at least one tenant");
        TenantMix { profiles }
    }

    /// The mix reduced to a single tenant — the "alone" baseline for
    /// cross-tenant interference measurements.
    pub fn solo(&self, tenant: usize) -> TenantMix {
        TenantMix::new(vec![self.profiles[tenant].clone()])
    }
}

/// One request tree, fully materialised at generation time. Orders
/// `(start_ps, tenant, seq)` — the workload's own merge order, which the
/// derive gets from the field order; `(tenant, seq)` is unique, so the
/// remaining fields never decide.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RpcRequest {
    pub start_ps: u64,
    /// Index into the mix's profile list.
    pub tenant: u32,
    /// Per-tenant request sequence number.
    pub seq: u64,
    pub client: u32,
    /// Parallel stage: all legs start at `start_ps`.
    pub legs: Vec<FlowLeg>,
    /// Sequential stage: starts when the last leg completes.
    pub response: Option<FlowLeg>,
}

/// The next pending arrival of one open-loop tenant, ordered
/// `(time, tenant)` so the merge is total and deterministic.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    at_ps: u64,
    tenant: u32,
}

struct TenantState {
    profile: RpcProfile,
    rng: SmallRng,
    next_seq: u64,
}

/// A time-ordered stream of [`RpcRequest`] trees over `n_hosts` hosts, up
/// to (and excluding) `horizon_ps`.
///
/// Open-loop tenants are driven by [`Iterator::next`]; closed-loop
/// tenants seed `closed_loop_width` chains up front (via
/// [`RpcWorkload::initial_closed_loop`]) and produce follow-ups through
/// [`RpcWorkload::on_complete`] as the driver reports completions.
pub struct RpcWorkload {
    tenants: Vec<TenantState>,
    heap: BinaryHeap<Reverse<Pending>>,
    horizon_ps: u64,
    n_hosts: u32,
}

impl RpcWorkload {
    pub fn new(n_hosts: usize, mix: TenantMix, seed: u64, horizon_ps: u64) -> RpcWorkload {
        assert!(n_hosts >= 2, "need at least two hosts for traffic");
        let mut tenants = Vec::with_capacity(mix.profiles.len());
        let mut heap = BinaryHeap::new();
        for (t, profile) in mix.profiles.into_iter().enumerate() {
            profile.validate(n_hosts);
            let mut state = TenantState {
                profile,
                rng: SmallRng::seed_from_u64(mix_seed(seed, t as u64)),
                next_seq: 0,
            };
            if !matches!(state.profile.arrivals, ArrivalProcess::ClosedLoop { .. }) {
                let first = state.profile.arrivals.next_gap_at_ps(0, &mut state.rng);
                if first < horizon_ps {
                    heap.push(Reverse(Pending {
                        at_ps: first,
                        tenant: t as u32,
                    }));
                }
            }
            tenants.push(state);
        }
        RpcWorkload {
            tenants,
            heap,
            horizon_ps,
            n_hosts: n_hosts as u32,
        }
    }

    pub fn horizon_ps(&self) -> u64 {
        self.horizon_ps
    }

    /// The SLO deadline of tenant `t`.
    pub fn slo_ps(&self, t: u32) -> u64 {
        self.tenants[t as usize].profile.slo_ps
    }

    /// The initial request chains of every closed-loop tenant: chain 0
    /// fires at t=0, further chains are staggered by one think-time draw
    /// each. Call once before pulling open-loop arrivals.
    pub fn initial_closed_loop(&mut self) -> Vec<RpcRequest> {
        let mut out = Vec::new();
        for t in 0..self.tenants.len() {
            let (is_closed, width) = {
                let p = &self.tenants[t].profile;
                (
                    matches!(p.arrivals, ArrivalProcess::ClosedLoop { .. }),
                    p.closed_loop_width,
                )
            };
            if !is_closed {
                continue;
            }
            for chain in 0..width {
                let at = if chain == 0 {
                    0
                } else {
                    let st = &mut self.tenants[t];
                    st.profile.arrivals.next_gap_at_ps(0, &mut st.rng)
                };
                if at < self.horizon_ps {
                    out.push(self.build_request(t as u32, at));
                }
            }
        }
        out.sort_by_key(|r| (r.start_ps, r.tenant, r.seq));
        out
    }

    /// Report a request completion. For a closed-loop tenant this yields
    /// the chain's next request (previous completion + think-time gap);
    /// open-loop tenants return `None`. Requests past the horizon end the
    /// chain.
    pub fn on_complete(&mut self, tenant: u32, done_ps: u64) -> Option<RpcRequest> {
        let st = &mut self.tenants[tenant as usize];
        if !matches!(st.profile.arrivals, ArrivalProcess::ClosedLoop { .. }) {
            return None;
        }
        let gap = st.profile.arrivals.next_gap_at_ps(done_ps, &mut st.rng);
        let at = done_ps.saturating_add(gap);
        (at < self.horizon_ps).then(|| self.build_request(tenant, at))
    }

    /// Materialise one request tree for tenant `t` at `at_ps`.
    fn build_request(&mut self, tenant: u32, at_ps: u64) -> RpcRequest {
        let n_hosts = self.n_hosts as usize;
        let st = &mut self.tenants[tenant as usize];
        let seq = st.next_seq;
        st.next_seq += 1;
        let rng = &mut st.rng;
        let p = &st.profile;
        let client = match &p.clients {
            Some(set) => set[rng.gen_range(0..set.len())],
            None => rng.gen_range(0..self.n_hosts),
        };
        let (legs, response) = match p.shape {
            TreeShape::FanIn => {
                let shards = incast(client as usize, p.fanout, n_hosts, rng);
                let legs = shards
                    .into_iter()
                    .map(|s| FlowLeg {
                        src: s as u32,
                        dst: client,
                        bytes: p.leg_sizes.sample(rng),
                    })
                    .collect();
                let response = p.response_sizes.as_ref().map(|cdf| {
                    let up = uniform_where(n_hosts, rng, |d| d != client as usize);
                    FlowLeg {
                        src: client,
                        dst: up as u32,
                        bytes: cdf.sample(rng),
                    }
                });
                (legs, response)
            }
            TreeShape::PingPong => {
                let server = uniform_where(n_hosts, rng, |d| d != client as usize) as u32;
                let legs = vec![FlowLeg {
                    src: client,
                    dst: server,
                    bytes: p.leg_sizes.sample(rng),
                }];
                let response = p.response_sizes.as_ref().map(|cdf| FlowLeg {
                    src: server,
                    dst: client,
                    bytes: cdf.sample(rng),
                });
                (legs, response)
            }
        };
        RpcRequest {
            start_ps: at_ps,
            tenant,
            seq,
            client,
            legs,
            response,
        }
    }
}

impl Iterator for RpcWorkload {
    type Item = RpcRequest;

    /// The merged open-loop request stream, time-ordered with ties broken
    /// by tenant index.
    fn next(&mut self) -> Option<RpcRequest> {
        let Reverse(Pending { at_ps, tenant }) = self.heap.pop()?;
        let st = &mut self.tenants[tenant as usize];
        let gap = st.profile.arrivals.next_gap_at_ps(at_ps, &mut st.rng);
        let next = at_ps.saturating_add(gap);
        if next < self.horizon_ps {
            self.heap.push(Reverse(Pending {
                at_ps: next,
                tenant,
            }));
        }
        Some(self.build_request(tenant, at_ps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fan_in_profile(name: &'static str, fanout: usize, rate_hz: f64) -> RpcProfile {
        RpcProfile {
            name,
            shape: TreeShape::FanIn,
            fanout,
            leg_sizes: EmpiricalCdf::websearch(),
            response_sizes: Some(EmpiricalCdf::fixed("rsp", 1460)),
            arrivals: ArrivalProcess::Poisson { rate_hz },
            closed_loop_width: 0,
            slo_ps: 1_000_000_000,
            clients: None,
        }
    }

    fn mix() -> TenantMix {
        TenantMix::new(vec![
            fan_in_profile("websearch", 8, 50_000.0),
            fan_in_profile("datamining", 2, 10_000.0),
        ])
    }

    #[test]
    fn requests_are_time_ordered_well_formed_trees() {
        let wl = RpcWorkload::new(32, mix(), 1, 10_000_000_000);
        let reqs: Vec<RpcRequest> = wl.collect();
        assert!(
            reqs.len() > 200,
            "expected ~600 requests, got {}",
            reqs.len()
        );
        let mut prev = 0u64;
        for r in &reqs {
            assert!(r.start_ps >= prev && r.start_ps < 10_000_000_000);
            prev = r.start_ps;
            let fanout = if r.tenant == 0 { 8 } else { 2 };
            assert_eq!(r.legs.len(), fanout);
            let mut shards: Vec<u32> = r.legs.iter().map(|l| l.src).collect();
            shards.sort_unstable();
            shards.dedup();
            assert_eq!(shards.len(), fanout, "shards must be distinct");
            for l in &r.legs {
                assert!(l.src < 32 && l.src != r.client, "leg src invalid");
                assert_eq!(l.dst, r.client, "fan-in converges on the client");
                assert!(l.bytes >= 1);
            }
            let rsp = r.response.expect("profiles carry a response flow");
            assert_eq!(rsp.src, r.client);
            assert_ne!(rsp.dst, r.client);
        }
        // Both tenants produce requests, with per-tenant dense sequences.
        for t in 0..2u32 {
            let seqs: Vec<u64> = reqs
                .iter()
                .filter(|r| r.tenant == t)
                .map(|r| r.seq)
                .collect();
            assert!(!seqs.is_empty(), "tenant {t} silent");
            assert!(seqs.iter().enumerate().all(|(i, &s)| s == i as u64));
        }
    }

    #[test]
    fn equal_seeds_are_bit_identical_and_seeds_differ() {
        let draw = |seed| -> Vec<RpcRequest> {
            RpcWorkload::new(32, mix(), seed, 5_000_000_000).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn tenant_streams_are_independent() {
        // Adding a tenant must not perturb an existing tenant's stream
        // (per-tenant SplitMix subseeding).
        let solo: Vec<RpcRequest> = RpcWorkload::new(
            32,
            TenantMix::new(vec![fan_in_profile("websearch", 8, 50_000.0)]),
            9,
            5_000_000_000,
        )
        .collect();
        let mixed: Vec<RpcRequest> = RpcWorkload::new(32, mix(), 9, 5_000_000_000)
            .filter(|r| r.tenant == 0)
            .collect();
        assert_eq!(solo.len(), mixed.len());
        assert!(solo
            .iter()
            .zip(&mixed)
            .all(|(a, b)| (a.start_ps, &a.legs) == (b.start_ps, &b.legs)));
    }

    #[test]
    fn closed_loop_tenants_self_clock() {
        let profile = RpcProfile {
            name: "pingpong",
            shape: TreeShape::PingPong,
            fanout: 1,
            leg_sizes: EmpiricalCdf::fixed("req", 64),
            response_sizes: Some(EmpiricalCdf::fixed("rsp", 4096)),
            arrivals: ArrivalProcess::ClosedLoop {
                median_gap_ps: 1_000_000_000,
            },
            closed_loop_width: 2,
            slo_ps: 1_000_000,
            clients: Some(vec![0]),
        };
        let mut wl = RpcWorkload::new(2, TenantMix::new(vec![profile]), 3, 60_000_000_000);
        assert!(wl.next().is_none(), "closed loop has no open-loop arrivals");
        let initial = wl.initial_closed_loop();
        assert_eq!(initial.len(), 2, "one request per chain");
        assert_eq!(initial[0].start_ps, 0, "chain 0 starts immediately");
        assert!(initial[1].start_ps > 0, "chain 1 staggered by think time");
        for r in &initial {
            assert_eq!(r.client, 0);
            assert_eq!(
                r.legs,
                vec![FlowLeg {
                    src: 0,
                    dst: 1,
                    bytes: 64
                }]
            );
            assert_eq!(
                r.response,
                Some(FlowLeg {
                    src: 1,
                    dst: 0,
                    bytes: 4096
                })
            );
        }
        // Completions chain follow-ups after a think gap; the horizon ends
        // the chain.
        let follow = wl.on_complete(0, 500_000).expect("chain continues");
        assert!(follow.start_ps > 500_000);
        assert!(
            wl.on_complete(0, 59_999_999_999).is_none() || {
                // A tiny think gap could still land inside the horizon; both
                // outcomes are legal here — what matters is no panic and
                // determinism, covered above.
                true
            }
        );
    }

    #[test]
    fn time_varying_tenant_swings_load() {
        let profile = RpcProfile {
            arrivals: ArrivalProcess::time_varying(vec![
                (2_000_000_000, 5_000.0),
                (2_000_000_000, 100_000.0),
            ]),
            ..fan_in_profile("diurnal", 4, 0.0)
        };
        let wl = RpcWorkload::new(16, TenantMix::new(vec![profile]), 5, 20_000_000_000);
        let reqs: Vec<RpcRequest> = wl.collect();
        let burst = reqs
            .iter()
            .filter(|r| r.start_ps % 4_000_000_000 >= 2_000_000_000)
            .count();
        let base = reqs.len() - burst;
        assert!(
            burst as f64 > 10.0 * base as f64,
            "burst {burst} vs base {base}"
        );
    }

    #[test]
    fn rate_for_client_load_accounts_for_fan_in() {
        let p = fan_in_profile("websearch", 8, 0.0);
        let rate = p.rate_for_client_load(0.4, 10_000_000_000, 32);
        // 0.4 × 32 × 10G / (8 × 8 × mean_websearch)
        let expect = 0.4 * 32.0 * 10e9 / (8.0 * 8.0 * EmpiricalCdf::websearch().mean_size());
        assert!((rate / expect - 1.0).abs() < 1e-9, "rate {rate}");
        assert!(p.mean_request_bytes() > 8.0 * EmpiricalCdf::websearch().mean_size());
    }
}
