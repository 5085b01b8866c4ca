//! The parallel sweep harness: declarative (protocol × parameter × seed)
//! grids executed across cores.
//!
//! Every figure of the paper is a grid of *independent* simulations — same
//! topology builder, same traffic generator, different protocol, knob or
//! seed. The engine deliberately forbids parallelism *inside* a world (that
//! is what keeps runs bit-reproducible), so the way to paper-scale runs is
//! to run many deterministic worlds side by side. [`run`] executes each
//! point of a slice in its own `World` on a worker pool and returns results
//! **in point order**, so a parallel sweep is indistinguishable from the
//! serial loop it replaced — same seeds, same results, different
//! wall-clock.
//!
//! Worker count: `NDP_THREADS` if set, otherwise the machine's available
//! parallelism. `NDP_THREADS=1` forces the serial path (useful for
//! debugging and for A/B-ing the harness itself).

use ndp_sim::Time;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::harness::Proto;
use crate::openloop::DistKind;
use crate::topo::TopoSpec;

/// `NDP_THREADS` as a worker count. Unset (or empty) means no override;
/// anything but a positive integer is an error, so a typo cannot silently
/// run on every core. Front ends call this before running anything;
/// [`worker_threads`] panics with the same message.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var("NDP_THREADS").as_deref() {
        Err(_) | Ok("") => Ok(None),
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("NDP_THREADS must be a positive integer, got '{v}'")),
        },
    }
}

/// Number of sweep workers.
pub fn worker_threads() -> usize {
    threads_from_env()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Execute `job` on every point on [`worker_threads`] workers, returning
/// results in point order. `job` must be a pure function of its point
/// (every experiment builds its own seeded `World`, so this holds by
/// construction throughout the crate).
pub fn run<P: Sync, R: Send>(points: &[P], job: impl Fn(&P) -> R + Sync) -> Vec<R> {
    run_with_threads(points, worker_threads(), job)
}

/// [`run`] with an explicit worker count.
pub fn run_with_threads<P: Sync, R: Send>(
    points: &[P],
    threads: usize,
    job: impl Fn(&P) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(points.len());
    if threads <= 1 {
        return points.iter().map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let r = job(point);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished")
        })
        .collect()
}

/// One permutation-matrix simulation: protocol, topology, duration, seed
/// and optional initial-window override.
#[derive(Clone, Debug)]
pub struct PermutationPoint {
    pub proto: Proto,
    pub topo: TopoSpec,
    pub duration: Time,
    pub seed: u64,
    pub iw: Option<u64>,
}

/// One N:1 incast simulation.
#[derive(Clone, Debug)]
pub struct IncastPoint {
    pub proto: Proto,
    pub topo: TopoSpec,
    pub n_senders: usize,
    pub size: u64,
    pub iw: Option<u64>,
    pub seed: u64,
    pub horizon: Time,
}

/// One open-loop dynamic-traffic simulation: protocol, topology, size
/// distribution, offered load (fraction of the host NIC) and the
/// warmup/measure/drain windows.
#[derive(Clone, Debug)]
pub struct OpenLoopPoint {
    pub proto: Proto,
    pub topo: TopoSpec,
    pub dist: DistKind,
    pub load: f64,
    pub seed: u64,
    pub warmup: Time,
    pub measure: Time,
    pub drain: Time,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{incast_run, incast_world_run, permutation_run, permutation_world_run};

    #[test]
    fn results_preserve_grid_order() {
        let points: Vec<u64> = (0..32).collect();
        let out = run(&points, |&x| x * 2);
        assert_eq!(out, (0u64..32).map(|x| x * 2).collect::<Vec<_>>());
        // Force the threaded path regardless of this machine's core count.
        let threaded = run_with_threads(&points, 4, |&x| x * 2);
        assert_eq!(threaded, out);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        // The same permutation grid through the parallel harness and the
        // one-shot entry point must be bit-identical: each point is an
        // independent seeded world.
        let mk = |seed: u64| PermutationPoint {
            proto: Proto::Ndp,
            topo: crate::topo::registered("fattree").spec(crate::harness::Scale::Quick),
            duration: Time::from_ms(2),
            seed,
            iw: Some(30),
        };
        let points = vec![mk(1), mk(2)];
        let par = run_with_threads(&points, 2, permutation_world_run);
        for (point, got) in points.iter().zip(&par) {
            let serial = permutation_run(
                point.proto,
                point.topo.clone(),
                point.duration,
                point.seed,
                point.iw,
            );
            assert_eq!(
                got.per_flow_gbps, serial.per_flow_gbps,
                "seed {}",
                point.seed
            );
            assert_eq!(got.utilization, serial.utilization);
        }
    }

    #[test]
    fn parallel_incast_matches_serial_exactly() {
        let mk = |seed: u64| IncastPoint {
            proto: Proto::Ndp,
            topo: crate::topo::registered("fattree").spec(crate::harness::Scale::Quick),
            n_senders: 6,
            size: 90_000,
            iw: None,
            seed,
            horizon: Time::from_secs(2),
        };
        let points = vec![mk(5), mk(6)];
        let par = run_with_threads(&points, 2, incast_world_run);
        for (point, got) in points.iter().zip(&par) {
            let serial = incast_run(
                point.proto,
                point.topo.clone(),
                point.n_senders,
                point.size,
                point.iw,
                point.seed,
                point.horizon,
            );
            assert_eq!(got.fcts, serial.fcts, "seed {}", point.seed);
            assert_eq!(got.incomplete, serial.incomplete);
        }
    }
}
