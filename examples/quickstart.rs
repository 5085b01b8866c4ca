//! Quickstart: build a FatTree, run one NDP flow across it, print stats.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ndp::core::{attach_flow, NdpFlowCfg, NdpSender};
use ndp::net::{Host, Packet};
use ndp::sim::{Time, World};
use ndp::topology::{FatTree, FatTreeCfg, Topology};

fn main() {
    // A 16-host FatTree (k=4) with the paper's defaults: 10 Gb/s links,
    // 9 KB jumbograms, NDP switches with 8-packet data queues.
    let mut world: World<Packet> = World::new(1);
    let ft = FatTree::build(&mut world, FatTreeCfg::new(4));
    println!(
        "built a k=4 FatTree: {} hosts, {} components",
        ft.n_hosts(),
        world.len()
    );

    // Transfer 10 MB from host 0 to host 15 (different pods: 4 paths).
    let size = 10_000_000u64;
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
    world.run_until(Time::from_secs(1));

    let tx = world.get::<Host>(ft.hosts[0]).endpoint::<NdpSender>(1);
    let rx = world.get::<Host>(ft.hosts[15]).harvest(1);
    let fct = tx.tx.fct().expect("flow should complete");
    println!("transferred {} bytes in {}", rx.delivered_bytes, fct);
    println!(
        "goodput: {:.2} Gb/s",
        size as f64 * 8.0 / fct.as_secs() / 1e9
    );
    println!(
        "data packets sent: {} (retransmissions: {}), headers NACKed: {}",
        tx.stats.data_sent, tx.tx.retransmissions, tx.stats.nacks
    );
    println!("events processed: {}", world.events_processed());
}
