//! Flow arrival processes for dynamic traffic.
//!
//! The open-loop evaluation ("FCT slowdown vs. offered load") drives each
//! host with an independent arrival process whose rate is derived from a
//! target load fraction of the host NIC: `rate = load × link_bps / (8 ×
//! mean_flow_size)`. All sampling is inverse-transform over the world's
//! seeded RNG stream, so equal seeds give bit-identical arrival times —
//! the contract the parallel sweep layer relies on.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

/// Picoseconds per second, the unit arrival gaps are expressed in.
const PS_PER_S: f64 = 1e12;

/// One piece of a piecewise-constant rate schedule: hold `rate_hz` for
/// `dur_ps`, then move to the next segment (the schedule cycles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateSegment {
    /// Segment length in picoseconds (must be positive).
    pub dur_ps: u64,
    /// Poisson arrival rate inside the segment, in arrivals/sec.
    /// Zero means a quiet period — no arrivals until the segment ends.
    pub rate_hz: f64,
}

/// How a host decides when its next flow starts.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals: exponential inter-arrival gaps with
    /// mean `1/rate_hz` — the standard load-sweep model.
    Poisson { rate_hz: f64 },
    /// Closed-loop think time: exponential gap with the given *median*
    /// (the paper's Figure 23 uses a 1 ms median inter-flow gap). As a
    /// gap generator this is an exponential with mean `median / ln 2`.
    ClosedLoop { median_gap_ps: u64 },
    /// Non-homogeneous Poisson with a piecewise-constant rate that cycles
    /// through `segments` — the diurnal / bursty load swing model for
    /// sustained multi-second campaigns. Sampling is exact: a draw that
    /// overshoots its segment boundary is discarded and the process
    /// restarts at the boundary (valid by memorylessness), so equal seeds
    /// still give bit-identical arrival streams.
    TimeVarying { segments: Arc<[RateSegment]> },
}

impl ArrivalProcess {
    /// The Poisson process that offers `load` (fraction of `link_bps`)
    /// given flows of `mean_flow_bytes` on average.
    pub fn poisson_for_load(load: f64, link_bps: u64, mean_flow_bytes: f64) -> ArrivalProcess {
        assert!(load > 0.0 && load < 1.5, "load {load} out of range");
        assert!(mean_flow_bytes > 0.0);
        ArrivalProcess::Poisson {
            rate_hz: load * link_bps as f64 / (8.0 * mean_flow_bytes),
        }
    }

    /// A cycling piecewise-rate process from `(duration_ps, rate_hz)`
    /// pieces. Panics on empty schedules, zero-length segments, or an
    /// all-quiet cycle (which could never produce an arrival).
    pub fn time_varying(pieces: Vec<(u64, f64)>) -> ArrivalProcess {
        assert!(!pieces.is_empty(), "time-varying schedule needs segments");
        let segments: Vec<RateSegment> = pieces
            .into_iter()
            .map(|(dur_ps, rate_hz)| {
                assert!(dur_ps > 0, "zero-length rate segment");
                assert!(rate_hz >= 0.0, "negative arrival rate");
                RateSegment { dur_ps, rate_hz }
            })
            .collect();
        assert!(
            segments.iter().any(|s| s.rate_hz > 0.0),
            "time-varying schedule must have at least one active segment"
        );
        ArrivalProcess::TimeVarying {
            segments: segments.into(),
        }
    }

    /// A diurnal-burst schedule: hold `base_hz`, then burst to `peak_hz`
    /// for the final `burst_frac` of every `period_ps` cycle.
    pub fn diurnal_burst(
        base_hz: f64,
        peak_hz: f64,
        period_ps: u64,
        burst_frac: f64,
    ) -> ArrivalProcess {
        assert!(
            (0.0..1.0).contains(&burst_frac) && burst_frac > 0.0,
            "burst fraction {burst_frac} out of (0, 1)"
        );
        let burst_ps = ((period_ps as f64 * burst_frac) as u64).max(1);
        let base_ps = period_ps.saturating_sub(burst_ps).max(1);
        ArrivalProcess::time_varying(vec![(base_ps, base_hz), (burst_ps, peak_hz)])
    }

    /// Total length of one rate cycle (only meaningful for
    /// [`ArrivalProcess::TimeVarying`]).
    fn period_ps(segments: &[RateSegment]) -> u64 {
        segments.iter().map(|s| s.dur_ps).sum()
    }

    /// Mean inter-arrival gap in picoseconds. For time-varying schedules
    /// this is the cycle-averaged rate's reciprocal.
    pub fn mean_gap_ps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_hz } => PS_PER_S / rate_hz,
            ArrivalProcess::ClosedLoop { median_gap_ps } => {
                *median_gap_ps as f64 / std::f64::consts::LN_2
            }
            ArrivalProcess::TimeVarying { segments } => {
                let period = Self::period_ps(segments) as f64;
                let arrivals: f64 = segments
                    .iter()
                    .map(|s| s.rate_hz * s.dur_ps as f64 / PS_PER_S)
                    .sum();
                period / arrivals
            }
        }
    }

    /// Draw the next inter-arrival gap for a stationary process. For
    /// [`ArrivalProcess::TimeVarying`] the gap depends on the current
    /// time — use [`ArrivalProcess::next_gap_at_ps`]; this draws as seen
    /// from the start of the cycle.
    pub fn next_gap_ps(&self, rng: &mut SmallRng) -> u64 {
        match self {
            ArrivalProcess::Poisson { .. } | ArrivalProcess::ClosedLoop { .. } => {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                (-u.ln() * self.mean_gap_ps()) as u64
            }
            ArrivalProcess::TimeVarying { .. } => self.next_gap_at_ps(0, rng),
        }
    }

    /// Draw the gap to the next arrival given the current simulated time.
    /// Stationary processes ignore `now_ps` (one RNG draw, bit-identical
    /// to [`ArrivalProcess::next_gap_ps`]); time-varying schedules sample
    /// the segment containing `now_ps` and restart at each boundary they
    /// overshoot — exact for piecewise-constant rates by memorylessness.
    pub fn next_gap_at_ps(&self, now_ps: u64, rng: &mut SmallRng) -> u64 {
        let ArrivalProcess::TimeVarying { segments } = self else {
            return self.next_gap_ps(rng);
        };
        let period = Self::period_ps(segments);
        let mut t = now_ps;
        loop {
            // Locate the segment containing t and its absolute end time.
            let phase = t % period;
            let mut acc = 0u64;
            let (mut rate, mut seg_end) = (0.0, t);
            for s in segments.iter() {
                acc += s.dur_ps;
                if phase < acc {
                    rate = s.rate_hz;
                    seg_end = t + (acc - phase);
                    break;
                }
            }
            if rate > 0.0 {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let gap = (-u.ln() * PS_PER_S / rate) as u64;
                if t.saturating_add(gap) < seg_end {
                    return t + gap - now_ps;
                }
            }
            // Quiet segment, or the draw overshot: restart at the boundary.
            t = seg_end;
        }
    }
}

/// Closed-loop arrival gaps: exponential with a given median (the paper
/// uses a 1 ms median inter-flow gap for Figure 23).
pub fn closed_loop_gap_ps(median_ps: u64, rng: &mut SmallRng) -> u64 {
    ArrivalProcess::ClosedLoop {
        median_gap_ps: median_ps,
    }
    .next_gap_ps(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_gap_mean_matches_rate() {
        let rate = 50_000.0; // 50k flows/s => mean gap 20 us
        let p = ArrivalProcess::Poisson { rate_hz: rate };
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| p.next_gap_ps(&mut rng) as f64).sum();
        let mean = sum / n as f64;
        let expect = PS_PER_S / rate;
        assert!(
            (mean / expect - 1.0).abs() < 0.02,
            "mean gap {mean:.0} ps vs 1/rate {expect:.0} ps"
        );
    }

    #[test]
    fn closed_loop_gap_median_matches() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut gaps: Vec<u64> = (0..20_000)
            .map(|_| closed_loop_gap_ps(1_000_000_000, &mut rng))
            .collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2] as f64;
        assert!((median / 1e9 - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn load_resolves_to_rate() {
        // 30 % of 10 Gb/s with 1.5 MB flows: 0.3 * 1.25e9 / 1.5e6 = 250/s.
        let p = ArrivalProcess::poisson_for_load(0.3, 10_000_000_000, 1_500_000.0);
        match p {
            ArrivalProcess::Poisson { rate_hz } => {
                assert!((rate_hz - 250.0).abs() < 1e-9, "rate {rate_hz}");
            }
            other => panic!("expected Poisson, got {other:?}"),
        }
        assert!((p.mean_gap_ps() - 4e9).abs() < 1.0); // 4 ms mean gap
    }

    /// Count arrivals of `p` in `[0, horizon_ps)` starting from t=0.
    fn arrivals_in(p: &ArrivalProcess, horizon_ps: u64, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = p.next_gap_at_ps(0, &mut rng);
        let mut out = Vec::new();
        while t < horizon_ps {
            out.push(t);
            t += p.next_gap_at_ps(t, &mut rng);
        }
        out
    }

    #[test]
    fn time_varying_rates_track_segments() {
        // 1 ms at 1M/s then 1 ms at 10M/s, cycling: the burst half must
        // carry ~10x the arrivals of the base half, cycle after cycle.
        let p = ArrivalProcess::time_varying(vec![(1_000_000_000, 1e6), (1_000_000_000, 1e7)]);
        let ts = arrivals_in(&p, 8_000_000_000, 11);
        let mut base = 0usize;
        let mut burst = 0usize;
        for &t in &ts {
            if t % 2_000_000_000 < 1_000_000_000 {
                base += 1;
            } else {
                burst += 1;
            }
        }
        let ratio = burst as f64 / base as f64;
        assert!((8.0..12.5).contains(&ratio), "burst/base ratio {ratio:.2}");
        // Cycle-averaged mean gap: 5.5M/s average rate.
        let expect = 1e12 / 5.5e6;
        assert!((p.mean_gap_ps() / expect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_varying_quiet_segments_are_silent() {
        // 1 ms active, 3 ms dead quiet, cycling.
        let p = ArrivalProcess::time_varying(vec![(1_000_000_000, 2e6), (3_000_000_000, 0.0)]);
        let ts = arrivals_in(&p, 20_000_000_000, 5);
        assert!(ts.len() > 1000, "active segments must produce arrivals");
        assert!(
            ts.iter().all(|t| t % 4_000_000_000 < 1_000_000_000),
            "no arrival may land in a quiet segment"
        );
    }

    #[test]
    fn diurnal_burst_splits_the_period() {
        let p = ArrivalProcess::diurnal_burst(1e5, 4e6, 10_000_000_000, 0.2);
        match &p {
            ArrivalProcess::TimeVarying { segments } => {
                assert_eq!(segments.len(), 2);
                assert_eq!(segments[0].dur_ps + segments[1].dur_ps, 10_000_000_000);
                assert_eq!(segments[1].dur_ps, 2_000_000_000);
                assert_eq!(segments[1].rate_hz, 4e6);
            }
            other => panic!("expected TimeVarying, got {other:?}"),
        }
    }

    #[test]
    fn stationary_next_gap_at_ps_matches_next_gap_ps() {
        // The at-time entry point must consume the identical RNG stream
        // for stationary processes (golden-trace compatibility).
        for p in [
            ArrivalProcess::Poisson { rate_hz: 1e6 },
            ArrivalProcess::ClosedLoop {
                median_gap_ps: 1_000_000,
            },
        ] {
            let mut a = SmallRng::seed_from_u64(3);
            let mut b = SmallRng::seed_from_u64(3);
            for now in [0u64, 17, 1_000_000_007] {
                assert_eq!(p.next_gap_at_ps(now, &mut a), p.next_gap_ps(&mut b));
            }
        }
    }

    #[test]
    fn equal_seeds_give_identical_gap_streams() {
        let p = ArrivalProcess::Poisson { rate_hz: 1e6 };
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..1000)
                .map(|_| p.next_gap_ps(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
