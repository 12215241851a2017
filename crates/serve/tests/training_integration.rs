//! Serving concurrently with real federated training.
//!
//! A requester thread fires top-K requests while a federated simulation
//! trains one epoch at a time; between rounds the test publishes each
//! epoch's item matrix and drains the backlog against the live (paused) user store with rotating
//! worker counts. Every response must byte-match offline evaluation of
//! the exact (item matrix, user row) state its epoch tag names, response
//! epochs must arrive monotonically, and serving must never materialize a
//! cold client row.

use fedrec_data::synthetic::SyntheticConfig;
use fedrec_federated::defense::DefensePipeline;
use fedrec_federated::history::TrainingHistory;
use fedrec_federated::server::SumAggregator;
use fedrec_federated::{FedConfig, MfClientModel, NoAttack, Simulation, StoreBackend};
use fedrec_linalg::Matrix;
use fedrec_recsys::scorer::{PrunedItems, PrunedScores};
use fedrec_serve::{ServeConfig, ServedTopK, Service};
use std::sync::{mpsc, Arc};

fn offline_topk(items: &Matrix, row: &[f32], exclude: &[u32], k: usize) -> Vec<(u32, f32)> {
    let pruned = PrunedItems::build(items);
    let mut ps = PrunedScores::new(&pruned, items, row);
    let mut out = Vec::new();
    ps.top_ranked_excluding(exclude, k, &mut out);
    out
}

fn exclusions_for(user: u32, m: usize) -> Vec<u32> {
    (0..m as u32)
        .filter(|i| (i + user).is_multiple_of(13))
        .collect()
}

#[test]
fn serving_mid_training_is_exact_monotonic_and_cold() {
    let data = SyntheticConfig {
        name: "serve-mid-train",
        num_users: 50,
        num_items: 120,
        num_interactions: 600,
        zipf_exponent: 0.9,
        user_activity_exponent: 0.7,
    }
    .generate(17);
    let (n, m) = (data.num_users(), data.num_items());
    let epochs = 8usize;
    let cfg = FedConfig {
        k: 8,
        lr: 0.05,
        epochs,
        // Partial participation: plenty of users never train, so the
        // sharded store keeps them cold and serving must derive their
        // rows by RNG replay.
        client_fraction: 0.3,
        ..FedConfig::default()
    };
    let mut sim = Simulation::with_model(
        Arc::new(data),
        cfg,
        Box::new(MfClientModel),
        Box::new(NoAttack),
        0,
        DefensePipeline::plain(Box::new(SumAggregator)),
        StoreBackend::Sharded { shard_rows: 16 },
    );

    let svc = Arc::new(Service::new(ServeConfig::default()));
    let k = svc.config().k;
    // Per-epoch (V, user rows) copies for after-the-fact verification.
    let mut recorded: Vec<(Matrix, Matrix)> = Vec::with_capacity(epochs);
    let passes = 20usize;
    let expected = passes * n;

    let (responses, materialized) = std::thread::scope(|scope| {
        let svc_req = Arc::clone(&svc);
        let requester = scope.spawn(move || {
            let (tx, rx) = mpsc::channel();
            for pass in 0..passes {
                for u in 0..n as u32 {
                    assert!(svc_req.submit(u, exclusions_for(u, m), tx.clone()));
                }
                if pass % 5 == 0 {
                    std::thread::yield_now();
                }
            }
            drop(tx);
            rx
        });

        let mut history = TrainingHistory::new();
        for epoch in 0..epochs {
            sim.run_segment(&mut history, epoch + 1);
            let users = sim.user_rows();
            svc.publish(epoch as u64, sim.items());
            let mut rows = Matrix::zeros(n, cfg.k);
            for u in 0..n {
                users.write_user_row(u, rows.row_mut(u));
            }
            recorded.push((sim.items().clone(), rows));
            // Rotate worker counts: determinism must not care.
            let threads = [1usize, 2, 8][epoch % 3];
            svc.drain_now(users, threads);
        }
        let materialized = sim.rows_materialized();

        // Training is done; flush whatever the requester queued after
        // the last between-rounds drain, serving rows frozen at the final
        // epoch.
        let rx = requester.join().expect("requester panicked");
        let final_rows = &recorded.last().expect("at least one epoch").1;
        let mut responses: Vec<ServedTopK> = Vec::with_capacity(expected);
        loop {
            svc.drain_now(final_rows, 2);
            while let Ok(r) = rx.try_recv() {
                responses.push(r);
            }
            if responses.len() >= expected {
                break;
            }
            std::thread::yield_now();
        }
        (responses, materialized)
    });

    assert_eq!(responses.len(), expected);
    assert_eq!(recorded.len(), epochs);

    // Monotone epoch tags in arrival order: drains are serialized by the
    // training loop, so the reply channel can never observe a regression.
    for w in responses.windows(2) {
        assert!(
            w[0].epoch <= w[1].epoch,
            "epoch regressed: {} then {}",
            w[0].epoch,
            w[1].epoch
        );
    }

    // Exactness: every response equals offline evaluation of the exact
    // state its epoch names — a torn V or stale user row cannot pass.
    let mut hits = 0u64;
    for resp in &responses {
        let (v, rows) = &recorded[resp.epoch as usize];
        let offline = offline_topk(
            v,
            rows.row(resp.user as usize),
            &exclusions_for(resp.user, m),
            k,
        );
        assert_eq!(
            resp.top.len(),
            offline.len(),
            "user {} epoch {}",
            resp.user,
            resp.epoch
        );
        for (s, o) in resp.top.iter().zip(&offline) {
            assert_eq!(s.0, o.0, "user {} epoch {}", resp.user, resp.epoch);
            assert_eq!(
                s.1.to_bits(),
                o.1.to_bits(),
                "score bits: user {} epoch {}",
                resp.user,
                resp.epoch
            );
        }
        hits += u64::from(resp.cache_hit);
    }

    // Partial participation kept clients cold, and serving didn't warm
    // them: the store's materialization is exactly training's doing.
    assert!(
        materialized < n,
        "expected cold users with client_fraction=0.3 (materialized {materialized}/{n})"
    );
    // Sanity: training published one snapshot per epoch.
    assert!(svc.publish_count() == epochs as u64);
    // Cold-or-hot, hit-or-miss — both paths byte-checked above; record
    // the hit count only as telemetry sanity (zero is legal under heavy
    // early-training drift).
    let _ = hits;
}
