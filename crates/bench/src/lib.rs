//! Criterion benchmarks of isolated kernels, one target per file in
//! `benches/`: the eval sweeps (`eval_throughput`), the serve hit/miss
//! path (`serve_throughput`), checkpoint encode/restore
//! (`fault_overhead`) and the smoke scenario-matrix fan-out
//! (`scenario_matrix`). Each records its numbers in a `BENCH_*.json` at
//! the repository root. End-to-end cells, rounds and serving are measured
//! by the repository benchmark (`perfbench/`).
//!
//! The library itself is empty: Cargo needs a lib or bin target to host
//! the bench targets.
