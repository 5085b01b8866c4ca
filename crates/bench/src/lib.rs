//! No library code: this crate exists to hold `benches/engine.rs`, the one
//! criterion bench kept as a fast per-packet regression detector. The
//! perf contract itself is `BENCHMARK.json` + `examples/benchmark`.
