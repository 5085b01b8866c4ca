//! The fast regression detector: one open-loop web-search point (NDP,
//! leaf-spine 8×4×4, load 0.6). PR 13 showed this run resolves a 3 %
//! per-packet slowdown in seconds; alternate it against a parent build
//! and take the minimum over alternations before spending a full
//! `BENCHMARK.json` A/B.

use criterion::{criterion_group, criterion_main, Criterion};
use ndp_experiments::harness::Proto;
use ndp_experiments::openloop::{openloop_run, DistKind};
use ndp_experiments::sweep::OpenLoopPoint;
use ndp_experiments::topo::TopoSpec;
use ndp_sim::Time;
use ndp_topology::LeafSpineCfg;

fn openloop_websearch_60() -> u64 {
    openloop_run(OpenLoopPoint {
        proto: Proto::Ndp,
        topo: TopoSpec::leafspine(LeafSpineCfg::new(8, 4, 4)),
        dist: DistKind::WebSearch,
        load: 0.6,
        seed: 7,
        warmup: Time::from_ms(2),
        measure: Time::from_ms(20),
        drain: Time::from_ms(20),
    })
    .events_processed
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(1);
    g.measurement_time(std::time::Duration::from_secs(10));
    g.bench_function("openloop_websearch_60", |b| {
        b.iter(|| criterion::black_box(openloop_websearch_60()))
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
