//! Property-based tests for dataset structures, views and the file
//! loaders.

use fedrec_data::loader::{parse_movielens_100k, parse_movielens_1m, parse_steam_200k};
use fedrec_data::public::PublicView;
use fedrec_data::split::leave_one_out;
use fedrec_data::synthetic::SyntheticConfig;
use fedrec_data::Dataset;
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (10usize..80, 20usize..150, 0.2f64..1.4, 0.2f64..1.2)
        .prop_flat_map(|(users, items, zipf, activity)| {
            // Stay inside the generator's per-user degree cap (60 % of the
            // catalog), which is its documented domain.
            let max_degree = ((items as f64) * 0.6) as usize;
            let max_inter = (users * max_degree).max(users + 1);
            (
                Just(users),
                Just(items),
                users..max_inter,
                Just(zipf),
                Just(activity),
            )
        })
        .prop_map(|(users, items, inter, zipf, activity)| SyntheticConfig {
            name: "prop",
            num_users: users,
            num_items: items,
            num_interactions: inter,
            zipf_exponent: zipf,
            user_activity_exponent: activity,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The generator honors every configured count for arbitrary shapes.
    #[test]
    fn synthetic_counts_hold(cfg in config_strategy(), seed in 0u64..100) {
        let d = cfg.generate(seed);
        prop_assert_eq!(d.num_users(), cfg.num_users);
        prop_assert_eq!(d.num_items(), cfg.num_items);
        prop_assert_eq!(d.num_interactions(), cfg.num_interactions);
        for u in 0..d.num_users() {
            prop_assert!(d.user_degree(u) >= 1);
            prop_assert!(d.user_degree(u) < d.num_items(), "user {u} saturated");
            let items = d.user_items(u);
            prop_assert!(items.windows(2).all(|w| w[0] < w[1]), "unsorted/dup");
        }
    }

    /// Leave-one-out conserves interactions and never leaks.
    #[test]
    fn loo_split_invariants(cfg in config_strategy(), seed in 0u64..100) {
        let d = cfg.generate(seed);
        let (train, test) = leave_one_out(&d, seed ^ 0xBEEF);
        let held = test.iter().filter(|t| t.is_some()).count();
        prop_assert_eq!(train.num_interactions() + held, d.num_interactions());
        for (u, t) in test.iter().enumerate() {
            if let Some(item) = t {
                prop_assert!(d.contains(u, *item));
                prop_assert!(!train.contains(u, *item));
            } else {
                prop_assert!(d.user_degree(u) < 2);
            }
        }
    }

    /// Public views are subsets with per-user proportional sizes.
    #[test]
    fn public_view_invariants(
        cfg in config_strategy(),
        xi in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let d = cfg.generate(seed);
        let v = PublicView::sample(&d, xi, seed ^ 0xFACE);
        prop_assert!(v.num_interactions() <= d.num_interactions());
        for u in 0..d.num_users() {
            let expect = ((d.user_degree(u) as f64) * xi).round() as usize;
            prop_assert_eq!(v.user_items(u).len(), expect.min(d.user_degree(u)));
            for &item in v.user_items(u) {
                prop_assert!(d.contains(u, item));
            }
        }
    }

    /// Popularity totals match interaction totals and the ordering is
    /// consistent.
    #[test]
    fn popularity_is_consistent(cfg in config_strategy(), seed in 0u64..100) {
        let d = cfg.generate(seed);
        let pop = d.item_popularity();
        let total: u64 = pop.iter().map(|&x| x as u64).sum();
        prop_assert_eq!(total as usize, d.num_interactions());
        let order = d.items_by_popularity();
        for w in order.windows(2) {
            prop_assert!(pop[w[0] as usize] >= pop[w[1] as usize]);
        }
        let cold = d.coldest_items(3.min(d.num_items()));
        let max_cold: u32 = cold.iter().map(|&v| pop[v as usize]).max().unwrap();
        // Every cold item is at most as popular as every item NOT chosen
        // as cold... weaker but checkable: min over full catalog equals
        // min over cold picks.
        let global_min = pop.iter().copied().min().unwrap();
        prop_assert!(cold.iter().any(|&v| pop[v as usize] == global_min));
        let _ = max_cold;
    }

    /// Injecting fake users preserves the original block untouched.
    #[test]
    fn injected_users_are_appended(cfg in config_strategy(), seed in 0u64..50) {
        let d = cfg.generate(seed);
        let fake = vec![vec![0u32, 1], vec![2u32]];
        let d2 = d.with_injected_users(&fake);
        prop_assert_eq!(d2.num_users(), d.num_users() + 2);
        for u in 0..d.num_users() {
            prop_assert_eq!(d2.user_items(u), d.user_items(u));
        }
        prop_assert_eq!(d2.user_items(d.num_users()), &[0u32, 1][..]);
    }
}

/// Field-like tokens: digits, letters, the two Steam behaviors, a decimal,
/// an empty field and one with a space inside.
const FIELDS: &[&str] = &[
    "1", "7", "42", "0", "2.5", "a", "b c", "play", "purchase", "",
];

/// The formats' separators (`\t`, `::`, `,`), a lone `:` and a space.
const SEPS: &[&str] = &["\t", "::", ",", ":", " "];

/// Structured hostile content: up to 5 newline-separated lines of up to 6
/// fields, each line joined by one separator, so well-formed lines of
/// every format sit next to malformed ones (too few fields, non-numeric
/// ids, unknown behaviors, blank lines).
fn hostile_text() -> impl Strategy<Value = String> {
    collection::vec(
        (0..SEPS.len(), collection::vec(0..FIELDS.len(), 0..7)),
        0..6,
    )
    .prop_map(|lines| {
        lines
            .iter()
            .map(|(sep, fields)| {
                let fields: Vec<&str> = fields.iter().map(|&f| FIELDS[f]).collect();
                fields.join(SEPS[*sep])
            })
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// Digits, letters, the formats' separator characters, a space, a newline
/// and a multi-byte character.
const CHARS: &[char] = &[
    '0', '1', '7', '.', 'a', 'p', 'y', '\t', ':', ',', ' ', '\n', 'ρ',
];

/// Character-level garbage over [`CHARS`], as `tests/record_codec.rs`
/// builds it.
fn garbage() -> impl Strategy<Value = String> {
    collection::vec(0..CHARS.len(), 0..60).prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Each loader parser answers any file content with `Ok` or `Err`,
    /// never a panic, and an `Ok` dataset has no more users or items than
    /// the content has non-blank lines.
    #[test]
    fn loaders_never_panic_on_hostile_content(text in hostile_text(), noise in garbage()) {
        for text in [&text, &noise] {
            let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
            for (format, parsed) in [
                ("ml-100k", parse_movielens_100k(text)),
                ("ml-1m", parse_movielens_1m(text)),
                ("steam-200k", parse_steam_200k(text)),
            ] {
                if let Ok(d) = parsed {
                    prop_assert!(
                        d.num_users() <= lines && d.num_items() <= lines,
                        "{format}: {} users, {} items from {lines} lines: {text:?}",
                        d.num_users(),
                        d.num_items()
                    );
                }
            }
        }
    }
}

/// Deterministic regression: a dataset round-trips through tuples.
#[test]
fn dataset_tuple_roundtrip() {
    let d = SyntheticConfig::smoke().generate(5);
    let tuples: Vec<(u32, u32)> = d.iter().collect();
    let d2 = Dataset::from_tuples(d.num_users(), d.num_items(), tuples);
    assert_eq!(d, d2);
}
