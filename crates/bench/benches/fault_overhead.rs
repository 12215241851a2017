//! Cost of the crash-resume checkpoint path on a mid-run faulted
//! simulation over 1,000 clients, 2,000 items at k = 32. Measured numbers
//! are recorded in BENCH_faults.json at the repository root. The faulted
//! round itself is timed end to end by the repository benchmark
//! (`perfbench/`, the `mf-fedrecattack-krum` workload).
//!
//! Two arms:
//!
//! * `checkpoint_encode` — serializing a mid-run simulation (server item
//!   matrix, RNG states, touched client rows, pending late uploads,
//!   adversary state, history prefix) to the resume blob;
//! * `checkpoint_restore` — restoring that blob into a simulation
//!   (fingerprint check, replay-materialization of touched clients,
//!   state overwrite).

use criterion::{criterion_group, criterion_main, Criterion};
use fedrec_data::synthetic::SyntheticConfig;
use fedrec_federated::history::TrainingHistory;
use fedrec_federated::{FaultPlan, FedConfig, NoAttack, Simulation};
use std::hint::black_box;
use std::time::Duration;

const USERS: usize = 1_000;
const ITEMS: usize = 2_000;
const K: usize = 32;

fn dataset() -> fedrec_data::Dataset {
    SyntheticConfig {
        name: "fault-overhead",
        num_users: USERS,
        num_items: ITEMS,
        num_interactions: 30_000,
        zipf_exponent: 0.9,
        user_activity_exponent: 0.7,
    }
    .generate(7)
}

fn cfg() -> FedConfig {
    FedConfig {
        k: K,
        epochs: 8,
        ..FedConfig::default()
    }
}

/// Checkpoint blob encode/restore of a mid-run faulted simulation —
/// the fixed cost a crash-resume cycle adds on top of the rounds.
fn bench_checkpoint(c: &mut Criterion) {
    let data = dataset();
    let mut sim = Simulation::new(&data, cfg(), Box::new(NoAttack), 0);
    sim.enable_faults(FaultPlan::smoke(), 0xFA17);
    let mut history = TrainingHistory::new();
    // Mid-run state: touched clients, possibly pending late uploads.
    sim.run_segment(&mut history, 4);

    let mut g = c.benchmark_group("fault_checkpoint");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(5));
    g.bench_function("checkpoint_encode", |b| {
        b.iter(|| black_box(sim.checkpoint(&history).len()))
    });

    let blob = sim.checkpoint(&history);
    g.bench_function("checkpoint_restore", |b| {
        b.iter(|| black_box(sim.restore(&blob).losses.len()))
    });
    g.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
