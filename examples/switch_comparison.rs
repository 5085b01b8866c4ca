//! Compare all four switch service models under the same 40:1 overload
//! (the design-space tour of §2.3): drop-tail loses data silently, ECN
//! marks, CP trims into a FIFO, NDP trims into a priority queue; lossless
//! PFC pauses upstream.
//!
//! ```sh
//! cargo run --release --example switch_comparison
//! ```

use ndp::baselines::blast::attach_blast;
use ndp::metrics::Table;
use ndp::net::{Host, Packet, Queue};
use ndp::sim::{Speed, Time, World};
use ndp::topology::{QueueSpec, SingleBottleneck};

fn run(fabric: QueueSpec, label: &str, t: &mut Table) {
    let n = 40;
    let span = Time::from_ms(5);
    let mut world: World<Packet> = World::new(11);
    let sb = SingleBottleneck::build(
        &mut world,
        n,
        Speed::gbps(10),
        Time::from_us(1),
        9000,
        fabric,
    );
    for s in 0..n {
        attach_blast(
            &mut world,
            s as u64 + 1,
            (sb.senders[s], s as u32),
            (sb.receiver, n as u32),
            9000,
            Speed::gbps(10),
            Time::from_ns(s as u64 * 180),
        );
    }
    world.run_until(span);
    let q = world.get::<Queue>(sb.bottleneck);
    let delivered: u64 = {
        let h = world.get::<Host>(sb.receiver);
        (1..=n as u64).map(|f| h.harvest(f).delivered_bytes).sum()
    };
    let goodput = delivered as f64 * 8.0 / span.as_secs() / 1e9;
    t.row([
        label.to_string(),
        format!("{goodput:.2}"),
        q.stats.trimmed.to_string(),
        q.stats.dropped_data.to_string(),
        q.stats.ecn_marked.to_string(),
        q.stats.xoff_sent.to_string(),
    ]);
}

fn main() {
    let mut t = Table::new([
        "switch",
        "goodput Gb/s",
        "trimmed",
        "dropped",
        "marked",
        "pauses",
    ]);
    run(QueueSpec::ndp_default(), "NDP (trim+prio+WRR)", &mut t);
    run(QueueSpec::Cp { thresh_pkts: 8 }, "CP (trim, FIFO)", &mut t);
    run(
        QueueSpec::DropTail {
            cap_pkts: 8,
            ecn_thresh_pkts: None,
        },
        "drop-tail (8 pkts)",
        &mut t,
    );
    run(
        QueueSpec::dctcp_default(),
        "drop-tail+ECN (200 pkts)",
        &mut t,
    );
    run(QueueSpec::dcqcn_default(), "lossless PFC+ECN", &mut t);
    println!("{}", t.render());
    println!("note: unresponsive senders — transports are compared in the fig* binaries");
}
