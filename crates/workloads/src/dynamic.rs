//! Open-loop dynamic traffic: every host runs an independent arrival
//! process and flow-size distribution, and [`DynamicWorkload`] merges the
//! per-host streams into one time-ordered iterator of flow events.
//!
//! Determinism contract: each host's stream is a pure function of
//! `(seed, host)` — its RNG is seeded by mixing the two — and the merge
//! breaks ties by host index, so the event sequence is bit-identical for
//! equal seeds regardless of machine, thread count or iteration pattern.
//! The parallel sweep layer in `ndp-experiments` relies on this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arrival::ArrivalProcess;
use crate::empirical::EmpiricalCdf;
use crate::uniform_where;

/// One flow to be spawned: start time (ps), endpoints, size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEvent {
    pub start_ps: u64,
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
}

/// SplitMix64 finalizer: decorrelates per-host RNG seeds so host streams
/// are independent even for adjacent master seeds.
pub(crate) fn mix_seed(seed: u64, host: u64) -> u64 {
    let mut z = seed ^ host.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next pending arrival of one host, ordered `(time, host)` so the
/// merge is total and deterministic.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    at_ps: u64,
    host: u32,
}

/// A time-ordered stream of `(start, src, dst, bytes)` flow events over
/// `n_hosts` hosts, up to (and excluding) `horizon_ps`.
///
/// Destinations are uniformly random among the other hosts; sizes come
/// from the [`EmpiricalCdf`]; start times from the per-host
/// [`ArrivalProcess`].
pub struct DynamicWorkload {
    process: ArrivalProcess,
    sizes: EmpiricalCdf,
    horizon_ps: u64,
    n_hosts: u32,
    rngs: Vec<SmallRng>,
    heap: BinaryHeap<Reverse<Pending>>,
}

impl DynamicWorkload {
    pub fn new(
        n_hosts: usize,
        process: ArrivalProcess,
        sizes: EmpiricalCdf,
        seed: u64,
        horizon_ps: u64,
    ) -> DynamicWorkload {
        assert!(n_hosts >= 2, "need at least two hosts for traffic");
        let mut rngs: Vec<SmallRng> = (0..n_hosts)
            .map(|h| SmallRng::seed_from_u64(mix_seed(seed, h as u64)))
            .collect();
        let mut heap = BinaryHeap::with_capacity(n_hosts);
        for (h, rng) in rngs.iter_mut().enumerate() {
            let first = process.next_gap_at_ps(0, rng);
            if first < horizon_ps {
                heap.push(Reverse(Pending {
                    at_ps: first,
                    host: h as u32,
                }));
            }
        }
        DynamicWorkload {
            process,
            sizes,
            horizon_ps,
            n_hosts: n_hosts as u32,
            rngs,
            heap,
        }
    }

    /// The mean offered rate per host, in bits/sec (diagnostics).
    pub fn offered_bps_per_host(&self) -> f64 {
        8.0 * self.sizes.mean_size() / (self.process.mean_gap_ps() / 1e12)
    }
}

impl Iterator for DynamicWorkload {
    type Item = FlowEvent;

    fn next(&mut self) -> Option<FlowEvent> {
        let Reverse(Pending { at_ps, host }) = self.heap.pop()?;
        let rng = &mut self.rngs[host as usize];
        let bytes = self.sizes.sample(rng);
        let src = host as usize;
        let dst = uniform_where(self.n_hosts as usize, rng, |d| d != src) as u32;
        let next = at_ps.saturating_add(self.process.next_gap_at_ps(at_ps, rng));
        if next < self.horizon_ps {
            self.heap.push(Reverse(Pending { at_ps: next, host }));
        }
        Some(FlowEvent {
            start_ps: at_ps,
            src: host,
            dst,
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(seed: u64) -> DynamicWorkload {
        DynamicWorkload::new(
            16,
            ArrivalProcess::Poisson { rate_hz: 100_000.0 },
            EmpiricalCdf::websearch(),
            seed,
            10_000_000_000, // 10 ms
        )
    }

    #[test]
    fn events_are_time_ordered_and_valid() {
        let evs: Vec<FlowEvent> = workload(1).collect();
        assert!(evs.len() > 100, "expected ~16 flows/ms, got {}", evs.len());
        let mut prev = 0u64;
        for e in &evs {
            assert!(e.start_ps >= prev, "events must be time-ordered");
            assert!(e.start_ps < 10_000_000_000);
            assert!(e.src < 16 && e.dst < 16 && e.src != e.dst);
            assert!(e.bytes >= 1460);
            prev = e.start_ps;
        }
        // Every host participates as a source.
        let srcs: std::collections::HashSet<u32> = evs.iter().map(|e| e.src).collect();
        assert_eq!(srcs.len(), 16);
    }

    #[test]
    fn equal_seeds_are_bit_identical_and_seeds_differ() {
        let a: Vec<FlowEvent> = workload(7).collect();
        let b: Vec<FlowEvent> = workload(7).collect();
        let c: Vec<FlowEvent> = workload(8).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn offered_rate_tracks_the_target() {
        // 100k flows/s/host × mean websearch size ≈ measured bytes/time.
        let wl = workload(3);
        let offered = wl.offered_bps_per_host();
        let evs: Vec<FlowEvent> = wl.collect();
        let total_bytes: u64 = evs.iter().map(|e| e.bytes).sum();
        let measured = total_bytes as f64 * 8.0 / (16.0 * 0.01); // bps/host
        assert!(
            (measured / offered - 1.0).abs() < 0.3,
            "measured {measured:.2e} vs offered {offered:.2e}"
        );
    }
}
