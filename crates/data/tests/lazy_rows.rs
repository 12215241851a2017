//! Identity battery for the two read paths of a scale-free population.
//!
//! [`InteractionSource::user_items`] reads a row out of the generator's
//! cached CSR shard; [`InteractionSource::append_user_items`] generates it
//! straight into a caller's buffer, and the [`HoldoutView`] every
//! scale-free cell trains on reads only through the second path. Both
//! must yield the same rows, and the digests below pin those rows (and the
//! holdout's masked rows and held items) to the values the shard path
//! produced before the per-user path existed.

use fedrec_data::scalefree::{ScaleFreeConfig, ScaleFreeDataset};
use fedrec_data::{HoldoutView, InteractionSource};

/// FNV-1a 64 over little-endian `u32` words.
fn fnv64(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of users `0..n`: each row's length, then its items.
fn rows_digest(src: &impl InteractionSource, n: usize) -> u64 {
    fnv64((0..n).flat_map(|u| {
        let row = src.user_items(u);
        std::iter::once(row.len() as u32).chain(row.iter().copied())
    }))
}

/// Digest of users `0..n` through a holdout view: each held item
/// (`u32::MAX` for none), the masked row's length, then its items.
fn holdout_digest<S: InteractionSource>(view: &HoldoutView<S>, n: usize) -> u64 {
    fnv64((0..n).flat_map(|u| {
        let row = view.user_items(u);
        [view.held_item(u).unwrap_or(u32::MAX), row.len() as u32]
            .into_iter()
            .chain(row.iter().copied())
    }))
}

/// 1000 users spread over the whole population (a fixed odd stride).
fn scattered(n: usize) -> impl Iterator<Item = usize> {
    (0..1000u64).map(move |i| ((i * 0x9E37_79B9 + 12_345) % n as u64) as usize)
}

/// Appends every user of `users` into one growing buffer that starts
/// with a `u32::MAX` sentinel — so each row lands after words that do not
/// belong to it — and checks each appended span against the shard path
/// of `shards`.
fn assert_append_matches(append: &ScaleFreeDataset, shards: &ScaleFreeDataset, users: &[usize]) {
    let mut out = vec![u32::MAX];
    for &u in users {
        let base = out.len();
        let last = out[base - 1];
        append.append_user_items(u, &mut out);
        assert_eq!(out[base - 1], last, "user {u} wrote before its own base");
        assert_eq!(&out[base..], shards.user_items(u), "user {u}");
    }
    assert_eq!(append.shards_generated(), 0, "append filled a shard");
}

#[test]
fn append_user_items_equals_user_items_on_every_preset() {
    for seed in [7u64, 8] {
        let tiny = ScaleFreeConfig::tiny();
        let all: Vec<usize> = (0..tiny.num_users).collect();
        assert_append_matches(&tiny.generate(seed), &tiny.generate(seed), &all);

        for cfg in [ScaleFreeConfig::smoke_50k(), ScaleFreeConfig::million()] {
            let prefix: Vec<usize> = (0..4_096).collect();
            assert_append_matches(&cfg.generate(seed), &cfg.generate(seed), &prefix);
            // Scattered users touch a shard each; 64-user shards keep the
            // shard path cheap (rows do not depend on the shard size, which
            // the prefix check above pins against the preset's own).
            let small = ScaleFreeConfig {
                shard_rows: 64,
                ..cfg.clone()
            };
            let spread: Vec<usize> = scattered(cfg.num_users).collect();
            assert_append_matches(&cfg.generate(seed), &small.generate(seed), &spread);
            assert_eq!(
                rows_digest(&cfg.generate(seed), 4_096),
                rows_digest(&small.generate(seed), 4_096),
                "{} seed {seed}: shard size changed the rows",
                cfg.name
            );
        }
    }
}

/// Pinned digests of users `0..4096` of `million().generate(7)`: the rows,
/// and their masked rows and held items through `HoldoutView::new(.., 9)`.
/// Both constants were computed on the shard-path generator (1024-user
/// holdout blocks over 4096-user generator shards), before rows could be
/// generated one user at a time.
#[test]
fn million_prefix_digests_are_pinned() {
    let data = ScaleFreeConfig::million().generate(7);
    assert_eq!(rows_digest(&data, 4_096), 0x468a_ae66_a816_c502);
    let view = HoldoutView::new(ScaleFreeConfig::million().generate(7), 9);
    assert_eq!(holdout_digest(&view, 4_096), 0xad2e_72ed_7e24_131a);
    assert_eq!(
        view.inner().shards_generated(),
        0,
        "the view filled a shard"
    );
}
