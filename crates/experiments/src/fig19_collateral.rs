//! Figure 19: collateral damage caused by a 64-flow incast on a
//! *different* host of the same ToR, for DCTCP, DCQCN and NDP.
//!
//! Setup (Fig 18): host A receives one long-running flow; host B, on the
//! same ToR, receives a 64:1 incast of 900 KB responses. We trace goodput
//! of both hosts in 1 ms buckets. Expected: DCTCP's long flow dips for
//! tens of ms while losses recover; DCQCN's PFC pauses repeatedly punch
//! holes in the long flow; NDP's long flow dips for under ~2 ms (the first
//! RTT of the incast) and recovers to line rate.
//!
//! Measured at quick scale since DCTCP's RTO expiry goes back N: DCTCP's
//! 32-flow incast completes by 107 ms (before, 56% of its bytes had
//! arrived by the 400 ms horizon). Its long flow still does not recover:
//! after 110 ms it delivers at most 0.29 Gb/s (0.14 before; 341 depressed
//! buckets, was 340). Its sender stays from ~65 ms to the horizon in the
//! NewReno recovery its one fast retransmit began, with no RTO: NewReno
//! repairs one hole per partial ACK, and it entered recovery with a
//! window above 35 MB, which no receive window bounds.

use ndp_metrics::{Table, TimeSeries};
use ndp_net::host::Host;
use ndp_net::packet::{HostId, Packet};
use ndp_sim::{ComponentId, Time, World};
use ndp_topology::{LeafSpine, LeafSpineCfg};

use crate::harness::{FlowSet, FlowSpec, Proto, Scale, LONG_FLOW};

pub struct Trace {
    pub proto: Proto,
    pub long_flow: TimeSeries,
    pub incast: TimeSeries,
    /// Buckets (ms) where the long flow ran below half line rate after the
    /// incast started.
    pub long_flow_depressed_ms: usize,
}

pub struct Report {
    pub traces: Vec<Trace>,
    pub incast_start: Time,
}

fn trial(proto: Proto, scale: Scale, seed: u64) -> Trace {
    let n_incast = match scale {
        Scale::Paper => 64,
        Scale::Quick => 32,
    };
    // Victim rack (hosts 0, 1) + sender racks, two hosts each.
    let cfg = LeafSpineCfg::collateral(n_incast / 2 + 1).with_fabric(proto.fabric());
    // Long flow into host 0 from the last sender host, then a 64:1 incast
    // of 900KB into host 1 starting at t=50ms, from hosts 2.., skipping
    // the long-flow source.
    let long_src = cfg.n_hosts() - 1;
    let incast_start = Time::from_ms(50);
    let incast = (0..n_incast).map(|i| {
        let src = 2 + i;
        assert!(src < long_src);
        FlowSpec {
            start: incast_start,
            ..FlowSpec::new(10 + i as u64, src as HostId, 1, 900_000)
        }
    });
    let long = FlowSpec::new(1, long_src as HostId, 0, LONG_FLOW);
    let flows: Vec<FlowSpec> = [long].into_iter().chain(incast).collect();
    let mut set = FlowSet::attach(seed, proto, &flows, |w| Box::new(LeafSpine::build(w, cfg)));
    let horizon = match proto {
        Proto::Dctcp => Time::from_ms(400),
        _ => Time::from_ms(200),
    };
    let bucket = Time::from_ms(1);
    let hosts = [set.topo.host(0), set.topo.host(1)];
    let [long_flow, incast] = goodput_series(&mut set.world, hosts, bucket, horizon);
    let start_bucket = (incast_start.as_ps() / bucket.as_ps()) as usize;
    let depressed = long_flow
        .rates_gbps()
        .iter()
        .skip(start_bucket)
        .filter(|(_, r)| *r < 5.0)
        .count();
    Trace {
        proto,
        long_flow,
        incast,
        long_flow_depressed_ms: depressed,
    }
}

/// Run `world` to `horizon` one `bucket` at a time and return each host's
/// delivered payload per bucket, read from outside as the growth of its
/// `delivered_payload_bytes`. A bucket holds the deliveries in
/// `[start, start + bucket)`; `run_until` includes its horizon, so each
/// step stops one picosecond short of the next bucket. Trailing empty
/// buckets are dropped: a series ends at its host's last delivery.
fn goodput_series<const N: usize>(
    world: &mut World<Packet>,
    hosts: [ComponentId; N],
    bucket: Time,
    horizon: Time,
) -> [TimeSeries; N] {
    let delivered =
        |world: &World<Packet>| hosts.map(|h| world.get::<Host>(h).stats().delivered_payload_bytes);
    let mut buckets: [Vec<u64>; N] = std::array::from_fn(|_| Vec::new());
    let mut last = delivered(world);
    let mut start = Time::ZERO;
    while start <= horizon {
        world.run_until((start + bucket - Time::from_ps(1)).min(horizon));
        let now = delivered(world);
        for ((bytes, now), last) in buckets.iter_mut().zip(now).zip(last) {
            bytes.push(now - last);
        }
        last = now;
        start += bucket;
    }
    buckets.map(|mut bytes| {
        while bytes.last() == Some(&0) {
            bytes.pop();
        }
        let mut ts = TimeSeries::new(bucket);
        for (i, b) in bytes.into_iter().enumerate() {
            ts.add(bucket * i as u64, b);
        }
        ts
    })
}

pub fn run(scale: Scale) -> Report {
    let protos = [Proto::Dctcp, Proto::Dcqcn, Proto::Ndp];
    Report {
        traces: protos.iter().map(|&p| trial(p, scale, 13)).collect(),
        incast_start: Time::from_ms(50),
    }
}

impl Report {
    pub fn depressed_ms(&self, proto: Proto) -> usize {
        self.traces
            .iter()
            .find(|t| t.proto == proto)
            .map(|t| t.long_flow_depressed_ms)
            .unwrap_or(usize::MAX)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for t in &self.traces {
            writeln!(
                f,
                "Figure 19 — {} (incast starts at {})",
                t.proto.label(),
                self.incast_start
            )?;
            let mut tab = Table::new(["t (ms)", "long flow Gb/s", "incast Gb/s"]);
            let long = t.long_flow.rates_gbps();
            let inc = t.incast.rates_gbps();
            let n = long.len().max(inc.len());
            for i in (0..n).step_by(2) {
                let lf = long.get(i).map(|x| x.1).unwrap_or(0.0);
                let ic = inc.get(i).map(|x| x.1).unwrap_or(0.0);
                tab.row([
                    format!("{:.0}", i as f64),
                    format!("{lf:.2}"),
                    format!("{ic:.2}"),
                ]);
            }
            writeln!(f, "{}", tab.render())?;
        }
        Ok(())
    }
}

impl crate::registry::Report for Report {
    fn headline(&self) -> String {
        format!(
            "long-flow depressed buckets (<5Gb/s, 1ms each): DCTCP {}, DCQCN {}, NDP {}",
            self.depressed_ms(Proto::Dctcp),
            self.depressed_ms(Proto::Dcqcn),
            self.depressed_ms(Proto::Ndp)
        )
    }
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let series = |ts: &ndp_metrics::TimeSeries| {
            Json::arr(ts.rates_gbps().iter().map(|&(t, gbps)| {
                Json::obj([("t_ms", Json::num(t.as_ms())), ("gbps", Json::num(gbps))])
            }))
        };
        Json::obj([
            ("incast_start_ms", Json::num(self.incast_start.as_ms())),
            (
                "traces",
                Json::arr(self.traces.iter().map(|tr| {
                    Json::obj([
                        ("proto", Json::str(tr.proto.label())),
                        (
                            "long_flow_depressed_ms",
                            Json::num(tr.long_flow_depressed_ms as f64),
                        ),
                        ("long_flow", series(&tr.long_flow)),
                        ("incast", series(&tr.incast)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndp_recovers_fastest() {
        let rep = run(Scale::Quick);
        crate::registry::document::pin("fig19", &rep);
        let ndp = rep.depressed_ms(Proto::Ndp);
        let dctcp = rep.depressed_ms(Proto::Dctcp);
        assert!(ndp <= 3, "NDP long flow should dip <3ms, got {ndp}");
        assert!(
            dctcp > ndp,
            "DCTCP ({dctcp}ms) must suffer longer than NDP ({ndp}ms)"
        );
        // The incast itself completes: its aggregate trace carries all the
        // bytes eventually.
        for t in &rep.traces {
            let total = t.incast.total_bytes();
            assert!(total > 0, "{:?} incast never delivered", t.proto);
        }
    }
}
