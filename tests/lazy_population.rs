//! Laziness at the million-user preset: a cell generates only the users
//! it reads. The eval prefix and each round's participants fault in
//! 16-user blocks of the leave-one-out view, and the generator's own
//! 4096-user shards are never filled — one round over a million users
//! generates the 10 000-user eval prefix and at most 16 users per
//! participant.

use fedrecattack::baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrecattack::data::scalefree::{ScaleFreeConfig, ScaleFreeDataset};
use fedrecattack::data::{HoldoutView, InteractionSource};
use fedrecattack::federated::server::SumAggregator;
use fedrecattack::federated::store::StoreBackend;
use fedrecattack::federated::{DefensePipeline, FedConfig, MfClientModel, Simulation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Forwards to a scale-free population and counts the users whose rows
/// it generates through [`InteractionSource::append_user_items`].
struct Counting {
    inner: ScaleFreeDataset,
    generated: AtomicUsize,
}

impl InteractionSource for Counting {
    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn user_items(&self, u: usize) -> &[u32] {
        self.inner.user_items(u)
    }

    fn append_user_items(&self, u: usize, out: &mut Vec<u32>) {
        self.generated.fetch_add(1, Ordering::Relaxed);
        self.inner.append_user_items(u, out);
    }
}

#[test]
fn one_million_user_round_generates_only_the_blocks_it_reads() {
    let seed = 5;
    let view = Arc::new(HoldoutView::new(
        Counting {
            inner: ScaleFreeConfig::million().generate(seed ^ 0xDA7A),
            generated: AtomicUsize::new(0),
        },
        seed ^ 0x401D,
    ));
    let eval_users = 10_000;
    let test = view.test_set(eval_users);
    assert_eq!(test.len(), eval_users);

    let fed = FedConfig {
        k: 8,
        epochs: 1,
        client_fraction: 0.000_5,
        threads: 1,
        seed,
        ..FedConfig::default()
    };
    let num_malicious = view.num_users() / 1_000;
    let targets = vec![view.num_items() as u32 - 1];
    let env = AttackEnv::over(&*view, &targets)
        .malicious(num_malicious)
        .k(fed.k)
        .seed(seed ^ 0xA7);
    let adversary = build_adversary(AttackMethod::Random, &env);
    let pipeline = DefensePipeline::plain(Box::new(SumAggregator));
    let mut sim = Simulation::with_model(
        view.clone() as Arc<dyn InteractionSource + Send + Sync>,
        fed,
        Box::new(MfClientModel),
        adversary,
        num_malicious,
        pipeline,
        StoreBackend::sharded(),
    );
    sim.run();

    let touched = sim.participants_touched();
    assert!(touched > 0, "the round selected no benign client");
    let generated = view.inner().generated.load(Ordering::Relaxed);
    assert!(
        generated <= eval_users + 16 * touched,
        "generated {generated} users for {eval_users} eval users and {touched} participants"
    );
    assert_eq!(
        view.inner().inner.shards_generated(),
        0,
        "the generator's shard cache was filled"
    );
}
