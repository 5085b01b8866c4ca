//! The paper's motivating scenario (§2.1): a frontend fans a request out
//! to many workers and needs the *straggler* — the late response from the
//! previous request — prioritized over the new wave.
//!
//! We run a 32:1 incast of 450 KB responses to one frontend, with one
//! worker marked high priority. The receiver pulls the priority flow
//! first, so it finishes in near-idle time while the rest fair-share.
//!
//! ```sh
//! cargo run --release --example incast_priority
//! ```

use ndp::core::{attach_flow, NdpFlowCfg};
use ndp::metrics::Table;
use ndp::net::{Host, Packet};
use ndp::sim::{Time, World};
use ndp::topology::{FatTree, FatTreeCfg, Topology};
use rand::SeedableRng;

fn main() {
    let mut world: World<Packet> = World::new(7);
    let ft = FatTree::build(&mut world, FatTreeCfg::new(8)); // 128 hosts
    let frontend = 0u32;
    let n = 32;
    let size = 450_000u64;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let workers = ndp::workloads::incast(frontend as usize, n, ft.n_hosts(), &mut rng);

    for (i, &w) in workers.iter().enumerate() {
        let mut cfg = NdpFlowCfg::new(size);
        cfg.n_paths = ft.n_paths(w as u32, frontend);
        cfg.high_priority = i == 0; // the straggler gets priority pulls
        attach_flow(
            &mut world,
            i as u64 + 1,
            (ft.hosts[w], w as u32),
            (ft.hosts[frontend as usize], frontend),
            cfg,
            Time::ZERO,
        );
    }
    world.run_until(Time::from_secs(5));

    let mut t = Table::new(["flow", "priority", "FCT (ms)"]);
    let mut last = Time::ZERO;
    let mut prio_fct = Time::ZERO;
    for i in 0..workers.len() {
        let rx = world
            .get::<Host>(ft.hosts[frontend as usize])
            .harvest(i as u64 + 1);
        let fct = rx.completion_time.expect("all incast flows complete");
        last = last.max(fct);
        if i == 0 {
            prio_fct = fct;
        }
        if i < 5 {
            t.row([
                format!("worker {i}"),
                if i == 0 { "HIGH" } else { "normal" }.to_string(),
                format!("{:.2}", fct.as_ms()),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "prioritized straggler finished at {:.2} ms",
        prio_fct.as_ms()
    );
    println!("last incast flow finished at    {:.2} ms", last.as_ms());
    println!(
        "ideal (all {} responses at 10 Gb/s): {:.2} ms",
        n,
        (n as u64 * size) as f64 * 8.0 / 10e9 * 1e3
    );
}
