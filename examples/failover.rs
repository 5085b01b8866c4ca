//! Failure robustness (§3.2.3): a core link silently renegotiates from
//! 10 Gb/s to 1 Gb/s mid-run. The NDP sender's path scoreboard notices the
//! NACK outlier and routes around it within a few permutation rounds —
//! without any routing-protocol involvement.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use ndp::core::{attach_flow, NdpFlowCfg, NdpSender};
use ndp::net::{Host, Packet};
use ndp::sim::{Speed, Time, World};
use ndp::topology::{FatTree, FatTreeCfg, Topology};

fn main() {
    let mut world: World<Packet> = World::new(3);
    let ft = FatTree::build(&mut world, FatTreeCfg::new(4));

    // A long flow crossing pods (4 paths, one of which we will degrade).
    let size = 200_000_000u64; // 200 MB ~ 160 ms at line rate
    let cfg = NdpFlowCfg {
        n_paths: ft.n_paths(0, 15),
        ..NdpFlowCfg::new(size)
    };
    attach_flow(
        &mut world,
        1,
        (ft.hosts[0], 0),
        (ft.hosts[15], 15),
        cfg,
        Time::ZERO,
    );

    // Run 10 ms healthy.
    world.run_until(Time::from_ms(10));
    let healthy = world.get::<Host>(ft.hosts[15]).harvest(1).delivered_bytes;
    println!(
        "after 10 ms healthy: {:.2} Gb/s",
        healthy as f64 * 8.0 / 0.010 / 1e9
    );

    // Degrade path 0's core link to 1 Gb/s.
    ft.degrade_core_link(&mut world, 0, 0, 0, Speed::gbps(1));
    println!("degraded core link (pod 0, agg 0, uplink 0) to 1 Gb/s");

    // Run another 30 ms; the scoreboard should exclude the sick path.
    world.run_until(Time::from_ms(40));
    let after = world.get::<Host>(ft.hosts[15]).harvest(1).delivered_bytes;
    let gbps = (after - healthy) as f64 * 8.0 / 0.030 / 1e9;
    println!("next 30 ms with failure: {gbps:.2} Gb/s");

    let sender = world.get::<Host>(ft.hosts[0]).endpoint::<NdpSender>(1);
    println!(
        "sender saw {} NACKs, {} retransmissions ({} via RTO)",
        sender.stats.nacks, sender.tx.retransmissions, sender.tx.timeouts
    );
    // With 4 paths and one at 1/10th speed, naive spraying would cap at
    // ~77% of line rate; path exclusion should do much better.
    if gbps > 8.5 {
        println!("path penalty successfully routed around the failure");
    } else {
        println!("WARNING: throughput lower than expected — inspect the scoreboard");
    }
}
