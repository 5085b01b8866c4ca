//! Time-bucketed counters for goodput-vs-time traces (Figure 19).

use ndp_sim::Time;

/// Accumulates byte counts into fixed-width time buckets and reports each
/// bucket as a rate.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket: Time,
    buckets: Vec<u64>,
}

impl TimeSeries {
    pub fn new(bucket: Time) -> TimeSeries {
        assert!(!bucket.is_zero());
        TimeSeries {
            bucket,
            buckets: Vec::new(),
        }
    }

    pub fn add(&mut self, at: Time, bytes: u64) {
        let idx = (at.as_ps() / self.bucket.as_ps()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
    }

    pub fn total_bytes(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// (bucket start time, rate in Gb/s) for every bucket.
    pub fn rates_gbps(&self) -> Vec<(Time, f64)> {
        let secs = self.bucket.as_secs();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| (self.bucket * i as u64, b as f64 * 8.0 / secs / 1e9))
            .collect()
    }

    /// Peak bucket rate in Gb/s.
    pub fn peak_gbps(&self) -> f64 {
        self.rates_gbps()
            .into_iter()
            .map(|(_, r)| r)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_and_convert() {
        let mut ts = TimeSeries::new(Time::from_ms(1));
        // 1.25 MB in bucket 0 => 10 Gb/s over 1 ms.
        ts.add(Time::from_us(10), 625_000);
        ts.add(Time::from_us(900), 625_000);
        ts.add(Time::from_us(1500), 125_000); // bucket 1 => 1 Gb/s
        let rates = ts.rates_gbps();
        assert_eq!(rates.len(), 2);
        assert!((rates[0].1 - 10.0).abs() < 1e-9);
        assert!((rates[1].1 - 1.0).abs() < 1e-9);
        assert_eq!(ts.total_bytes(), 1_375_000);
        assert!((ts.peak_gbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_buckets_are_zero_filled() {
        let mut ts = TimeSeries::new(Time::from_us(100));
        ts.add(Time::from_us(950), 1);
        assert_eq!(ts.rates_gbps().len(), 10);
        assert_eq!(ts.rates_gbps()[5].1, 0.0);
    }
}
