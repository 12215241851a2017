//! Serve-vs-offline byte-identity — determinism invariant 11.
//!
//! For a fixed (snapshot epoch, user, exclusion list), the served top-K
//! must be byte-identical to offline evaluation of that epoch's item
//! matrix: ids and score bits, cache hit or miss, inline or batched,
//! 1/2/8 serving threads, including cold users whose rows were never
//! materialized in the sharded store.

use fedrec_linalg::{Matrix, SeededGaussianInit, SeededRng, ShardedMatrix};
use fedrec_recsys::scorer::{PrunedItems, PrunedScores};
use fedrec_recsys::{topk, UserRowSource};
use fedrec_serve::{ServeConfig, ServedTopK, Service};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Offline reference: the exact ranked top-`k` the streamed evaluator
/// would compute for this user row on this item matrix.
fn offline_topk(items: &Matrix, row: &[f32], exclude: &[u32], k: usize) -> Vec<(u32, f32)> {
    let pruned = PrunedItems::build(items);
    let mut ps = PrunedScores::new(&pruned, items, row);
    let mut out = Vec::new();
    ps.top_ranked_excluding(exclude, k, &mut out);
    out
}

fn assert_bits_equal(served: &[(u32, f32)], offline: &[(u32, f32)], ctx: &str) {
    assert_eq!(served.len(), offline.len(), "{ctx}: length");
    for (i, (s, o)) in served.iter().zip(offline).enumerate() {
        assert_eq!(s.0, o.0, "{ctx}: id at rank {i}");
        assert_eq!(
            s.1.to_bits(),
            o.1.to_bits(),
            "{ctx}: score bits at rank {i} (item {})",
            s.0
        );
    }
}

fn lazy_users(seed: u64, n: usize, k: usize) -> ShardedMatrix {
    let mut parent = SeededRng::new(seed);
    let init = SeededGaussianInit::record(&mut parent, n, 64, 0.0, 0.3);
    ShardedMatrix::new(n, k, 64, Box::new(init))
}

fn exclusions_for(user: u32, m: usize) -> Vec<u32> {
    // A deterministic, user-varying exclusion list.
    let mut ex: Vec<u32> = (0..m as u32)
        .filter(|i| (i.wrapping_add(user)) % 17 == 0)
        .collect();
    ex.sort_unstable();
    ex
}

/// Submit every user once and drain with `threads`; returns responses
/// indexed by user.
fn drain_all(svc: &Service, users: &ShardedMatrix, threads: usize, m: usize) -> Vec<ServedTopK> {
    let n = users.num_users();
    let (tx, rx) = mpsc::channel();
    for u in 0..n as u32 {
        assert!(svc.submit(u, exclusions_for(u, m), tx.clone()));
    }
    drop(tx);
    let served = svc.drain_now(users, threads);
    assert_eq!(served, n);
    let mut responses: Vec<Option<ServedTopK>> = vec![None; n];
    for resp in rx {
        let u = resp.user as usize;
        assert!(responses[u].is_none(), "duplicate response for user {u}");
        responses[u] = Some(resp);
    }
    responses.into_iter().map(|r| r.expect("served")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Miss path, hit path (re-publish of the identical matrix ⇒ zero
    /// drift ⇒ provable hits; a ranking-preserving ×1.001 rescale ⇒ small
    /// non-zero drift ⇒ still provable hits), and invalidation (large
    /// drift ⇒ misses again) all serve offline-identical bytes at 1/2/8
    /// threads, with cold users staying cold.
    #[test]
    fn served_topk_is_byte_identical_to_offline(seed in 0u64..40) {
        let (n, m, kdim) = (97usize, 400usize, 8usize);
        let mut rng = SeededRng::new(seed.wrapping_mul(0x9E37).wrapping_add(1));
        let v0 = Matrix::random_normal(m, kdim, 0.0, 0.4, &mut rng);
        // Small, ranking-preserving drift for the third publish: caches
        // must keep hitting.
        let mut v1 = v0.clone();
        for i in 0..m {
            for x in v1.row_mut(i) {
                *x *= 1.001;
            }
        }
        // Strong drift for the fourth publish: caches must invalidate.
        let mut v2 = v0.clone();
        for i in 0..m {
            for x in v2.row_mut(i) {
                *x = -*x + 0.25;
            }
        }
        let users = lazy_users(seed.wrapping_mul(31).wrapping_add(7), n, kdim);

        for &threads in &[1usize, 2, 8] {
            // Fresh service per thread count: identical request history.
            let svc = Service::new(ServeConfig::default());
            let k = svc.config().k;
            svc.publish(0, &v0);

            let first = drain_all(&svc, &users, threads, m);
            let mut row = vec![0.0f32; kdim];
            for resp in &first {
                prop_assert_eq!(resp.epoch, 0);
                prop_assert!(!resp.cache_hit, "first pass must miss");
                users.write_user_row(resp.user as usize, &mut row);
                let offline = offline_topk(&v0, &row, &exclusions_for(resp.user, m), k);
                assert_bits_equal(&resp.top, &offline, &format!("t={threads} u={} v0", resp.user));
            }

            // Republish the identical matrix: drift step is exactly 0,
            // every cache provably valid ⇒ hits, still byte-identical.
            svc.publish(1, &v0);
            let second = drain_all(&svc, &users, threads, m);
            for resp in &second {
                prop_assert_eq!(resp.epoch, 1);
                prop_assert!(resp.cache_hit, "zero-drift republish must hit");
                users.write_user_row(resp.user as usize, &mut row);
                let offline = offline_topk(&v0, &row, &exclusions_for(resp.user, m), k);
                assert_bits_equal(&resp.top, &offline, &format!("t={threads} u={} hit", resp.user));
            }

            // Rescale by 1.001: the drift step is small but non-zero, the
            // ranking is unchanged, so every cache must still revalidate
            // and answer with the new matrix's bytes.
            svc.publish(2, &v1);
            let third = drain_all(&svc, &users, threads, m);
            for resp in &third {
                prop_assert_eq!(resp.epoch, 2);
                prop_assert!(resp.cache_hit, "small-drift publish must hit");
                users.write_user_row(resp.user as usize, &mut row);
                let offline = offline_topk(&v1, &row, &exclusions_for(resp.user, m), k);
                assert_bits_equal(&resp.top, &offline, &format!("t={threads} u={} v1", resp.user));
            }

            // Heavy drift: caches invalidate lazily, misses recompute.
            svc.publish(3, &v2);
            let fourth = drain_all(&svc, &users, threads, m);
            let mut miss_seen = false;
            for resp in &fourth {
                prop_assert_eq!(resp.epoch, 3);
                miss_seen |= !resp.cache_hit;
                users.write_user_row(resp.user as usize, &mut row);
                let offline = offline_topk(&v2, &row, &exclusions_for(resp.user, m), k);
                assert_bits_equal(&resp.top, &offline, &format!("t={threads} u={} v2", resp.user));
            }
            prop_assert!(miss_seen, "sign-flip drift should invalidate caches");

            // Inline path agrees with the batch path bytes.
            users.write_user_row(3, &mut row);
            let inline = svc.serve_inline(3, &exclusions_for(3, m), &users).unwrap();
            let offline = offline_topk(&v2, &row, &exclusions_for(3, m), k);
            assert_bits_equal(&inline.top, &offline, "inline");

            // Serving derives rows via peek: nothing materialized.
            prop_assert_eq!(users.materialized_rows(), 0, "serving materialized user rows");
        }
    }

    /// Dense cross-check: the served ranking's ids equal the dense
    /// top-k-excluding selection and its scores equal dense dot bits.
    #[test]
    fn served_topk_matches_dense_selection(seed in 0u64..40) {
        let (n, m, kdim) = (23usize, 150usize, 8usize);
        let mut rng = SeededRng::new(seed.wrapping_mul(0xC0FFEE).wrapping_add(5));
        let v = Matrix::random_normal(m, kdim, 0.0, 0.5, &mut rng);
        let users = Matrix::random_normal(n, kdim, 0.0, 0.5, &mut rng);
        let svc = Service::new(ServeConfig::default());
        let k = svc.config().k;
        svc.publish(0, &v);
        for u in 0..n as u32 {
            let exclude = exclusions_for(u, m);
            let resp = svc.serve_inline(u, &exclude, &users).unwrap();
            let row = users.row(u as usize);
            let dense: Vec<f32> = (0..m)
                .map(|i| fedrec_linalg::vector::dot(row, v.row(i)))
                .collect();
            let ids: Vec<u32> = resp.top.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(&ids, &topk::top_k_excluding(&dense, &exclude, k), "user {}", u);
            for &(item, score) in &resp.top {
                prop_assert_eq!(score.to_bits(), dense[item as usize].to_bits());
            }
        }
    }
}

/// Background workers racing a publisher: every response must be
/// internally consistent with the snapshot its epoch tag names (no torn
/// `V`), and epochs seen by any single requester are monotone.
#[test]
fn concurrent_publishes_never_tear_responses() {
    let (n, m, kdim) = (64usize, 300usize, 8usize);
    let mut rng = SeededRng::new(77);
    let base = Matrix::random_normal(m, kdim, 0.0, 0.4, &mut rng);
    let epochs = 40u64;
    // Epoch e's matrix is a deterministic function of e, precomputed so
    // responses can be verified after the fact.
    let mats: Vec<Matrix> = (0..epochs)
        .map(|e| {
            let mut v = base.clone();
            let scale = 1.0 + e as f32 * 0.03;
            for i in 0..m {
                for x in v.row_mut(i) {
                    *x *= scale;
                }
            }
            v
        })
        .collect();
    let users = lazy_users(9, n, kdim);
    let svc = Service::new(ServeConfig::default());
    svc.publish(0, &mats[0]);
    let published_up_to = AtomicU64::new(0);
    let (responses, sent) = std::thread::scope(|scope| {
        // Two workers batch and serve until the queue is closed and
        // drained.
        for _ in 0..2 {
            scope.spawn(|| svc.worker_loop(&users));
        }
        // Publisher: rolls through epochs while requests are in flight.
        scope.spawn(|| {
            for e in 1..epochs {
                svc.publish(e, &mats[e as usize]);
                published_up_to.store(e, Ordering::Release);
                std::thread::yield_now();
            }
        });
        let (tx, rx) = mpsc::channel();
        let mut sent = 0usize;
        for round in 0..12 {
            for u in 0..n as u32 {
                let user = (u + round) % n as u32;
                sent += usize::from(svc.submit(user, exclusions_for(user, m), tx.clone()));
            }
        }
        drop(tx);
        let collected: Vec<ServedTopK> = rx.iter().collect();
        // Close before any assert, so a failure cannot leave the scope
        // waiting on workers that never exit.
        svc.close();
        (collected, sent)
    });
    assert_eq!(sent, 12 * n, "the open service refused a request");
    assert_eq!(responses.len(), sent);
    // Verify every response against the matrix its epoch tag names: a
    // torn read (half old V, half new V) cannot match either epoch's
    // offline ranking exactly.
    let mut row = vec![0.0f32; kdim];
    for resp in &responses {
        let v = &mats[resp.epoch as usize];
        users.write_user_row(resp.user as usize, &mut row);
        let offline = offline_topk(v, &row, &exclusions_for(resp.user, m), 10);
        assert_bits_equal(
            &resp.top,
            &offline,
            &format!("epoch {} user {}", resp.epoch, resp.user),
        );
    }
    // Sequence tags are monotone in publish order.
    let max_seq = responses.iter().map(|r| r.seq).max().unwrap();
    assert!(max_seq <= epochs, "seq beyond publish count");
}
