//! Figure 13: does imperfect pull spacing hurt incast performance?
//!
//! A 200:1 incast with flow sizes up to 120 KB, comparing perfectly paced
//! pulls against pulls drawn from the measured (synthetic) spacing
//! distribution. The paper finds no discernible difference — the
//! validation that real-world pacing artefacts don't invalidate the
//! simulation results.

use ndp_metrics::Table;
use ndp_net::host::{HostLatency, JitterDist};
use ndp_sim::Time;
use ndp_topology::{FatTree, FatTreeCfg};

use crate::harness::{incast_flows, FlowSet, Proto, Scale};

pub struct Report {
    /// (flow size, perfect-pulls last FCT us, jittered-pulls last FCT us)
    pub rows: Vec<(u64, f64, f64)>,
}

fn trial(scale: Scale, size: u64, jitter: bool, seed: u64) -> Time {
    let mut cfg = FatTreeCfg::new(scale.big_k()).with_mtu(1500);
    if jitter {
        cfg.host_latency = HostLatency {
            pull_jitter: Some(JitterDist::measured_1500b()),
            ..Default::default()
        };
    }
    let n = cfg.n_hosts();
    let n_senders = match scale {
        Scale::Paper => 200,
        Scale::Quick => 60,
    };
    let flows = incast_flows(n, n_senders.min(n - 1), size, seed);
    let mut set = FlowSet::attach(seed, Proto::Ndp, &flows, |w| {
        Box::new(FatTree::build(w, cfg))
    });
    set.world.run_until(Time::from_secs(5));
    let done = flows
        .iter()
        .map(|f| set.rx(f).completion_time.expect("complete"));
    done.fold(Time::ZERO, Time::max)
}

pub fn run(scale: Scale) -> Report {
    let sizes: &[u64] = match scale {
        Scale::Paper => &[10_000, 20_000, 40_000, 60_000, 80_000, 100_000, 120_000],
        Scale::Quick => &[20_000, 60_000, 120_000],
    };
    Report {
        rows: sizes
            .iter()
            .map(|&s| {
                (
                    s,
                    trial(scale, s, false, 31).as_us(),
                    trial(scale, s, true, 31).as_us(),
                )
            })
            .collect(),
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "flow size (KB)",
            "perfect pulls (us)",
            "measured pulls (us)",
        ]);
        for (s, p, j) in &self.rows {
            t.row([(s / 1000).to_string(), format!("{p:.0}"), format!("{j:.0}")]);
        }
        write!(
            f,
            "Figure 13 — 200:1 incast FCT, perfect vs measured pull spacing\n{}",
            t.render()
        )
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        let max_rel: f64 = self
            .rows
            .iter()
            .map(|(_, p, j)| ((j - p) / p).abs())
            .fold(0.0, f64::max);
        format!(
            "max relative FCT difference perfect vs measured pulls: {:.1}%",
            max_rel * 100.0
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([(
            "rows",
            Json::arr(self.rows.iter().map(|&(size, perfect, measured)| {
                Json::obj([
                    ("size_bytes", Json::num(size as f64)),
                    ("perfect_us", Json::num(perfect)),
                    ("measured_us", Json::num(measured)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_makes_no_discernible_difference() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig13", &rep);
        for (s, p, j) in &rep.rows {
            let rel = ((j - p) / p).abs();
            assert!(
                rel < 0.15,
                "size {s}: perfect {p:.0}us vs jittered {j:.0}us ({rel:.3})"
            );
        }
    }
}
