//! Measurement collectors and figure-style rendering.
//!
//! Everything the evaluation section reports reduces to a handful of
//! shapes: CDFs of latencies/FCTs, ranked per-flow throughput series,
//! utilization percentages, time-bucketed goodput traces and small tables.
//! This crate renders them as aligned text so each experiment binary can
//! print "the same rows/series the paper reports".

pub mod cdf;
pub mod percentile;
pub mod rpc;
pub mod series;
pub mod slowdown;
pub mod table;

pub use cdf::Cdf;
pub use percentile::{percentile, percentile_checked};
pub use rpc::TenantDigest;
pub use series::TimeSeries;
pub use slowdown::{size_bin, SlowdownBins, SLOWDOWN_BIN_EDGES, SLOWDOWN_BIN_LABELS};
pub use table::{fmt_or_dash, Table};

/// Jain's fairness index: 1.0 = perfectly fair.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean of the worst (smallest) `frac` of the samples — Figure 2's
/// "worst 10%" metric.
pub fn worst_fraction_mean(xs: &[f64], frac: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = ((v.len() as f64 * frac).ceil() as usize).clamp(1, v.len());
    mean(&v[..n])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[1.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
    }

    #[test]
    fn worst_fraction() {
        let xs = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0];
        assert!((worst_fraction_mean(&xs, 0.1) - 1.0).abs() < 1e-12);
        assert!((worst_fraction_mean(&xs, 0.2) - 1.5).abs() < 1e-12);
        assert!((worst_fraction_mean(&xs, 1.0) - 5.5).abs() < 1e-12);
    }
}
