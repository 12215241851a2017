//! Property-based tests for the federated simulation layer.

use fedrec_data::synthetic::SyntheticConfig;
use fedrec_federated::{FedConfig, MfClientModel, NoAttack, Simulation, StoreBackend};
use proptest::prelude::*;
use std::sync::Arc;

fn tiny_cfg(seed: u64) -> FedConfig {
    FedConfig {
        k: 6,
        lr: 0.05,
        epochs: 4,
        seed,
        ..FedConfig::default()
    }
}

fn tiny_data(seed: u64) -> fedrec_data::Dataset {
    SyntheticConfig {
        name: "prop-fed",
        num_users: 30,
        num_items: 60,
        num_interactions: 400,
        zipf_exponent: 0.9,
        user_activity_exponent: 0.7,
    }
    .generate(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ bit-identical run, for any thread count.
    #[test]
    fn determinism_across_threads(seed in 0u64..200, threads in 1usize..5) {
        let data = tiny_data(seed);
        let run = |t: usize| {
            let cfg = FedConfig { threads: t, ..tiny_cfg(seed) };
            let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 0);
            let h = sim.run();
            (h.losses, sim.items().clone())
        };
        let (l1, v1) = run(1);
        let (lt, vt) = run(threads);
        prop_assert_eq!(l1, lt);
        prop_assert_eq!(v1, vt);
    }

    /// The parallel engine's full observable output — the recorded loss
    /// series, a `V`-derived series read between rounds and the final
    /// `V` — is byte-identical across 1, 2 and 8 worker threads, under
    /// partial participation and DP noise (the stress case for slot
    /// bookkeeping: rounds where some clients skip and buffers are
    /// recompacted).
    #[test]
    fn history_and_items_identical_for_1_2_8_threads(
        seed in 0u64..200,
        frac in 0.2f64..1.0,
        noise in 0.0f32..0.2,
    ) {
        let data = tiny_data(seed ^ 0x77);
        let run = |t: usize| {
            let cfg = FedConfig {
                threads: t,
                client_fraction: frac,
                noise_scale: noise,
                ..tiny_cfg(seed)
            };
            let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 3);
            // Step one epoch at a time and record a V-derived series, so the
            // state visible between rounds is part of the comparison too.
            let mut h = fedrec_federated::history::TrainingHistory::new();
            let mut norms = Vec::new();
            for epoch in 0..cfg.epochs {
                sim.run_segment(&mut h, epoch + 1);
                norms.push(sim.items().frobenius_norm() as f64);
            }
            (h, norms, sim.items().clone())
        };
        let (h1, n1, v1) = run(1);
        for t in [2usize, 8] {
            let (ht, nt, vt) = run(t);
            // Byte-identical histories: compare the raw bit patterns, not
            // just float equality.
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&h1.losses), bits(&ht.losses), "losses differ at t={}", t);
            let fbits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                fbits(&n1),
                fbits(&nt),
                "per-epoch V norms differ at t={}", t
            );
            prop_assert_eq!(
                bits(v1.as_slice()),
                bits(vt.as_slice()),
                "final V differs at t={}", t
            );
        }
    }

    /// A *defended* simulation — similarity detector gating a trimmed-mean
    /// aggregator, the stress case where flagged uploads are excluded
    /// mid-round — is byte-identical across 1, 2 and 8 worker threads:
    /// losses, final `V`, and every per-round `RoundDefense` record.
    #[test]
    fn defended_history_identical_for_1_2_8_threads(
        seed in 0u64..200,
        frac in 0.2f64..1.0,
    ) {
        use fedrec_defense::{DefensePipeline, SimilarityDetector, TrimmedMean};

        let data = tiny_data(seed ^ 0x3D);
        let run = |t: usize| {
            let cfg = FedConfig {
                threads: t,
                client_fraction: frac,
                ..tiny_cfg(seed)
            };
            let pipeline = DefensePipeline::gated(
                Box::new(SimilarityDetector { cosine_threshold: 0.9, min_pairs: 2 }),
                Box::new(TrimmedMean { trim_fraction: 0.1 }),
            );
            let mut sim = Simulation::with_defense(&data, cfg, Box::new(NoAttack), 4, pipeline);
            let h = sim.run();
            (h, sim.items().clone())
        };
        let (h1, v1) = run(1);
        prop_assert_eq!(h1.defense.len(), 4, "one defense record per round");
        for t in [2usize, 8] {
            let (ht, vt) = run(t);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&h1.losses), bits(&ht.losses), "losses differ at t={}", t);
            prop_assert_eq!(&h1.defense, &ht.defense, "defense records differ at t={}", t);
            prop_assert_eq!(
                bits(v1.as_slice()),
                bits(vt.as_slice()),
                "final V differs at t={}", t
            );
        }
    }

    /// Dense and sharded client stores are interchangeable: the complete
    /// observable output of a run — every loss, every per-round
    /// `RoundDefense`, the final `V` and the assembled user factors — is
    /// **byte-identical** between the two backends, for 1, 2 and 8 worker
    /// threads, with and without an in-loop defense pipeline, under
    /// partial participation (the case the sharded store exists for: most
    /// users never materialize).
    #[test]
    fn dense_and_sharded_stores_byte_identical_for_1_2_8_threads(
        seed in 0u64..150,
        frac in 0.1f64..0.9,
        shard_rows in 1usize..40,
        defended_bit in 0usize..2,
    ) {
        let defended = defended_bit == 1;
        use fedrec_defense::{DefensePipeline as Pipeline, NormDetector, TrimmedMean};
        use fedrec_federated::DefensePipeline;
        use fedrec_federated::server::SumAggregator;

        let data = tiny_data(seed ^ 0x51AB);
        let pipeline = || -> DefensePipeline {
            if defended {
                Pipeline::gated(
                    Box::new(NormDetector::new(2.0)),
                    Box::new(TrimmedMean { trim_fraction: 0.1 }),
                )
            } else {
                DefensePipeline::plain(Box::new(SumAggregator))
            }
        };
        let run = |backend: StoreBackend, threads: usize| {
            let cfg = FedConfig {
                threads,
                client_fraction: frac,
                ..tiny_cfg(seed)
            };
            let mut sim = Simulation::with_model(
                Arc::new(data.clone()),
                cfg,
                Box::new(MfClientModel),
                Box::new(NoAttack),
                3,
                pipeline(),
                backend,
            );
            let h = sim.run();
            let users = sim.user_factors();
            (h, sim.items().clone(), users, sim.rows_materialized())
        };
        let (h0, v0, u0, _) = run(StoreBackend::Dense, 1);
        // The legacy constructor and the dense backend must agree too.
        let mut legacy = Simulation::with_defense(
            &data,
            FedConfig { client_fraction: frac, ..tiny_cfg(seed) },
            Box::new(NoAttack),
            3,
            pipeline(),
        );
        let hl = legacy.run();
        prop_assert_eq!(&h0.losses, &hl.losses, "with_defense vs with_model(Dense)");

        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 2, 8] {
            let (ht, vt, ut, materialized) =
                run(StoreBackend::Sharded { shard_rows }, threads);
            prop_assert_eq!(
                bits(&h0.losses), bits(&ht.losses),
                "losses differ (sharded, t={})", threads
            );
            prop_assert_eq!(&h0.defense, &ht.defense, "defense records differ (t={})", threads);
            prop_assert_eq!(
                h0.defense.is_empty(), !defended,
                "defended runs must record one RoundDefense per round"
            );
            prop_assert_eq!(bits(v0.as_slice()), bits(vt.as_slice()), "final V differs (t={})", threads);
            prop_assert_eq!(
                bits(u0.as_slice()), bits(ut.as_slice()),
                "user factors differ (t={})", threads
            );
            prop_assert!(
                materialized <= data.num_users(),
                "sharded store over-materialized"
            );
        }
    }

    /// Losses are finite, non-negative and (weakly) improving from the
    /// first epoch to the last under clean training.
    #[test]
    fn losses_behave(seed in 0u64..200) {
        let data = tiny_data(seed);
        let cfg = FedConfig { epochs: 8, ..tiny_cfg(seed) };
        let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 0);
        let h = sim.run();
        for &l in &h.losses {
            prop_assert!(l.is_finite() && l >= 0.0);
        }
        prop_assert!(
            h.losses.last().unwrap() <= &(h.losses[0] * 1.05),
            "loss rose over training: {:?}", h.losses
        );
    }

    /// Partial participation and noise never crash and still yield a
    /// valid model matrix (finite entries).
    #[test]
    fn robustness_under_noise_and_partial_participation(
        seed in 0u64..200,
        frac in 0.1f64..1.0,
        noise in 0.0f32..0.3,
    ) {
        let data = tiny_data(seed);
        let cfg = FedConfig {
            client_fraction: frac,
            noise_scale: noise,
            ..tiny_cfg(seed)
        };
        let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 0);
        sim.run();
        for &x in sim.items().as_slice() {
            prop_assert!(x.is_finite());
        }
        for &x in sim.user_factors().as_slice() {
            prop_assert!(x.is_finite());
        }
    }

    /// Different seeds genuinely change the trajectory.
    #[test]
    fn seeds_matter(seed in 0u64..100) {
        let data = tiny_data(7);
        let run = |s: u64| {
            let mut sim = Simulation::new(&data, tiny_cfg(s), Box::new(NoAttack), 0);
            sim.run().losses
        };
        prop_assert_ne!(run(seed), run(seed + 10_000));
    }

    /// A *faulted* run — dropout, stragglers arriving rounds late,
    /// corrupted payloads quarantined at the gate — is byte-identical
    /// across 1, 2 and 8 worker threads and across dense/sharded
    /// backends: every loss, every per-round `RoundFaults` record, and
    /// the final `V`. Fault sampling is a pure function of
    /// `(fault_seed, round, client)`, so nothing about scheduling may
    /// leak into the result.
    #[test]
    fn faulted_runs_byte_identical_for_1_2_8_threads(
        seed in 0u64..150,
        frac in 0.2f64..1.0,
        fault_seed in 0u64..1000,
        shard_rows in 1usize..40,
    ) {
        use fedrec_federated::FaultPlan;

        let data = tiny_data(seed ^ 0xFA);
        let cfg0 = FedConfig { epochs: 6, client_fraction: frac, ..tiny_cfg(seed) };
        let plan = FaultPlan {
            dropout: 0.1,
            straggler: 0.15,
            corruption: 0.05,
            ..FaultPlan::smoke()
        };
        let run = |backend: StoreBackend, threads: usize| {
            let cfg = FedConfig { threads, ..cfg0 };
            let mut sim = Simulation::with_model(
                Arc::new(data.clone()),
                cfg,
                Box::new(MfClientModel),
                Box::new(NoAttack),
                3,
                fedrec_federated::DefensePipeline::plain(
                    Box::new(fedrec_federated::server::SumAggregator),
                ),
                backend,
            );
            sim.enable_faults(plan, fault_seed);
            let h = sim.run();
            (h, sim.items().clone())
        };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (h1, v1) = run(StoreBackend::Dense, 1);
        prop_assert_eq!(h1.faults.len(), 6, "one RoundFaults per round");
        for backend in [StoreBackend::Dense, StoreBackend::Sharded { shard_rows }] {
            for threads in [1usize, 2, 8] {
                let (ht, vt) = run(backend, threads);
                prop_assert_eq!(
                    bits(&h1.losses), bits(&ht.losses),
                    "faulted losses differ ({:?}, t={})", backend, threads
                );
                prop_assert_eq!(
                    &h1.faults, &ht.faults,
                    "fault counters differ ({:?}, t={})", backend, threads
                );
                prop_assert_eq!(
                    bits(v1.as_slice()), bits(vt.as_slice()),
                    "faulted V differs ({:?}, t={})", backend, threads
                );
            }
        }
    }

    /// Crash-resume identity: a faulted run killed after a random number
    /// of rounds and resumed from its checkpoint in a *fresh* simulation
    /// is byte-identical to a straight-through run — histories, final
    /// `V`, user factors, materialization counters, and even a second
    /// checkpoint taken at the end.
    #[test]
    fn resume_matches_straight_through(
        seed in 0u64..150,
        frac in 0.2f64..1.0,
        kill_after in 1usize..6,
        threads in 1usize..5,
        sharded_bit in 0usize..2,
    ) {
        use fedrec_federated::FaultPlan;
        use fedrec_federated::history::TrainingHistory;

        let data = tiny_data(seed ^ 0xC4A5);
        let backend = if sharded_bit == 1 {
            StoreBackend::Sharded { shard_rows: 8 }
        } else {
            StoreBackend::Dense
        };
        let cfg = FedConfig {
            epochs: 6,
            client_fraction: frac,
            threads,
            noise_scale: 0.05,
            ..tiny_cfg(seed)
        };
        let build = || {
            let mut sim = Simulation::with_model(
                Arc::new(data.clone()),
                cfg,
                Box::new(MfClientModel),
                Box::new(NoAttack),
                3,
                fedrec_federated::DefensePipeline::plain(
                    Box::new(fedrec_federated::server::SumAggregator),
                ),
                backend,
            );
            sim.enable_faults(FaultPlan::smoke(), seed ^ 0xFA17);
            sim
        };
        let mut straight = build();
        let h_straight = straight.run();

        let mut first = build();
        let mut h_part = TrainingHistory::new();
        first.run_segment(&mut h_part, kill_after);
        let blob = first.checkpoint(&h_part);
        drop(first);

        let mut resumed = build();
        let mut h_resumed = resumed.restore(&blob);
        resumed.run_segment(&mut h_resumed, cfg.epochs);

        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&h_straight.losses), bits(&h_resumed.losses));
        prop_assert_eq!(&h_straight.faults, &h_resumed.faults);
        prop_assert_eq!(
            bits(straight.items().as_slice()),
            bits(resumed.items().as_slice()),
            "resumed V differs from straight-through"
        );
        prop_assert_eq!(
            bits(straight.user_factors().as_slice()),
            bits(resumed.user_factors().as_slice()),
            "resumed user factors differ"
        );
        prop_assert_eq!(straight.rows_materialized(), resumed.rows_materialized());
        prop_assert_eq!(
            straight.checkpoint(&h_straight),
            resumed.checkpoint(&h_resumed),
            "end-state checkpoints differ"
        );
    }

    /// Quarantine regression: an adversary uploading NaN payloads never
    /// reaches the aggregator when the gate is active — under plain sum,
    /// Krum, and trimmed-mean alike `V` stays finite and every poisoned
    /// upload is counted as rejected.
    #[test]
    fn quarantined_nan_never_reaches_any_aggregator(
        seed in 0u64..100,
        agg_pick in 0usize..3,
    ) {
        use fedrec_defense::{Krum, TrimmedMean};
        use fedrec_federated::adversary::{Adversary, RoundCtx};
        use fedrec_federated::server::{Aggregator, SumAggregator};
        use fedrec_federated::{DefensePipeline, FaultPlan};
        use fedrec_linalg::{Matrix, SeededRng, SparseGrad};

        struct NanUploader;
        impl Adversary for NanUploader {
            fn poison(
                &mut self,
                items: &Matrix,
                ctx: &RoundCtx<'_>,
                _rng: &mut SeededRng,
            ) -> Vec<SparseGrad> {
                ctx.selected_malicious
                    .iter()
                    .map(|_| {
                        let mut g = SparseGrad::new(items.cols());
                        g.accumulate(1, 1.0, &vec![f32::NAN; items.cols()]);
                        g
                    })
                    .collect()
            }
            fn name(&self) -> &'static str { "nan-uploader" }
        }

        let data = tiny_data(seed ^ 0xBAD);
        let aggregator: Box<dyn Aggregator> = match agg_pick {
            0 => Box::new(SumAggregator),
            1 => Box::new(Krum { assumed_byzantine: 2 }),
            _ => Box::new(TrimmedMean { trim_fraction: 0.1 }),
        };
        let mut sim = Simulation::with_defense(
            &data,
            tiny_cfg(seed),
            Box::new(NanUploader),
            3,
            DefensePipeline::plain(aggregator),
        );
        sim.enable_faults(FaultPlan::gate_only(), 1);
        let h = sim.run();
        for &x in sim.items().as_slice() {
            prop_assert!(x.is_finite(), "NaN leaked into V past the gate");
        }
        let (_, _, rejected, _, _) = h.fault_totals();
        prop_assert_eq!(rejected, 3 * 4, "3 NaN uploads × 4 rounds quarantined");
    }
}

/// A wire value: finite most of the time, else NaN or ±∞.
fn wire_value() -> impl Strategy<Value = f32> {
    (-4.0f32..4.0, 0u32..16).prop_map(|(x, pick)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The upload gate on arbitrary wire parts. An accepted payload builds
    /// a `SparseGrad` that `validate_grad` accepts with the same ids and
    /// value bits; a rejected one names the first failing check in the
    /// documented order: length, ordering, range, finiteness. Half the
    /// cases sort their ids and three in four fit the value buffer to the
    /// ids, so every branch is reached.
    #[test]
    fn upload_gate_admits_exactly_the_well_formed_payloads(
        k in 1usize..5,
        num_items in 0usize..16,
        raw_items in collection::vec(0u32..20, 0..6),
        raw_values in collection::vec(wire_value(), 0..24),
        sort in 0u32..2,
        fit in 0u32..4,
    ) {
        use fedrec_federated::faults::{validate_grad, validate_upload};
        use fedrec_federated::RejectReason;
        use fedrec_linalg::SparseGrad;

        let mut items = raw_items;
        if sort == 1 {
            items.sort_unstable();
            items.dedup();
        }
        let mut values = raw_values;
        if fit > 0 {
            values.resize(items.len() * k, 0.25);
        }
        let want = if values.len() != items.len() * k {
            Err(RejectReason::LengthMismatch)
        } else if items.windows(2).any(|w| w[0] >= w[1]) {
            Err(RejectReason::UnsortedOrDuplicate)
        } else if items.iter().any(|&i| i as usize >= num_items) {
            Err(RejectReason::ItemOutOfRange)
        } else if values.iter().any(|v| !v.is_finite()) {
            Err(RejectReason::NonFinite)
        } else {
            Ok(())
        };
        let got = validate_upload(&items, &values, k, num_items);
        prop_assert_eq!(
            got, want,
            "got {:?}, want {:?} for items {:?} values {:?} k {} catalog {}",
            got, want, items, values, k, num_items
        );
        if got.is_ok() {
            let grad = SparseGrad::from_sorted_rows(k, items.clone(), values.clone());
            prop_assert_eq!(validate_grad(&grad, num_items), Ok(()));
            prop_assert_eq!(grad.items(), items.as_slice());
            let bits: Vec<u32> = grad.iter().flat_map(|(_, row)| row.iter().map(|v| v.to_bits())).collect();
            let want_bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits, want_bits);
        }
    }
}
