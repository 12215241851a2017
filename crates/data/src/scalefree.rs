//! Scale-free synthetic populations, generated shard by shard.
//!
//! The Table II generators in [`crate::synthetic`] materialize the whole
//! interaction set up front — fine at MovieLens scale, hopeless for the
//! million-user populations the scaling roadmap targets. This module
//! generates a power-law population *lazily per user-shard*: each user's
//! degree and item set are a pure function of `(config, seed, user)`, so a
//! shard of CSR rows can be produced on first access (and dropped-in-place
//! never), and a 1M-user / 100k-item dataset never exists as one
//! allocation — untouched shards cost one empty [`OnceLock`].
//!
//! Statistically the population is scale-free on both sides, matching what
//! large platforms observe: user degrees follow a truncated Pareto law
//! (`P(d > x) ∝ x^{-(a-1)}`, i.e. density exponent `a`), item popularity
//! follows the same Zipf law the Table II generators use.
//!
//! Two read paths. [`InteractionSource::user_items`] hands out `&[u32]`
//! slices, which need contiguous backing, so faulting in one user
//! generates and keeps its whole CSR shard (`shard_rows` users); with
//! scattered readers that touches nearly every shard within a few rounds.
//! [`InteractionSource::append_user_items`] generates one user's row
//! straight into the caller's buffer and keeps nothing. The leave-one-out
//! [`crate::HoldoutView`] every scale-free cell trains on reads through
//! the second path and caches 16-user blocks itself, so under it the
//! shards stay empty and serve direct readers only (tests, benches).

use crate::dataset::InteractionSource;
use fedrec_linalg::rng::ZipfTable;
use fedrec_linalg::SeededRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Configuration of a scale-free population.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleFreeConfig {
    /// Human-readable name, used in reports.
    pub name: &'static str,
    /// Number of users `n`.
    pub num_users: usize,
    /// Number of items `m`.
    pub num_items: usize,
    /// Minimum interactions per user (the Pareto scale `x_m`).
    pub min_degree: usize,
    /// Degree-density exponent `a` (`p(d) ∝ d^{-a}`, `a > 2` keeps the
    /// mean finite; larger = lighter tail).
    pub degree_exponent: f64,
    /// Hard per-user degree cap (must leave negatives: `≤ m / 2`).
    pub max_degree: usize,
    /// Zipf exponent of item popularity.
    pub zipf_exponent: f64,
    /// Users per lazily-generated CSR shard.
    pub shard_rows: usize,
}

impl ScaleFreeConfig {
    /// The headline scale target: one million users over a 100k-item
    /// catalog (mean degree ≈ 3·`min_degree` at `a = 2.5`).
    pub fn million() -> Self {
        Self {
            name: "scalefree-1m",
            num_users: 1_000_000,
            num_items: 100_000,
            min_degree: 4,
            degree_exponent: 2.5,
            max_degree: 512,
            zipf_exponent: 1.05,
            shard_rows: 4_096,
        }
    }

    /// The CI-sized shrink of [`ScaleFreeConfig::million`]: 50k users,
    /// same shape, seconds instead of minutes.
    pub fn smoke_50k() -> Self {
        Self {
            name: "scalefree-50k",
            num_users: 50_000,
            num_items: 5_000,
            min_degree: 4,
            degree_exponent: 2.5,
            max_degree: 256,
            zipf_exponent: 1.05,
            shard_rows: 1_024,
        }
    }

    /// A miniature for unit tests.
    pub fn tiny() -> Self {
        Self {
            name: "scalefree-tiny",
            num_users: 600,
            num_items: 300,
            min_degree: 2,
            degree_exponent: 2.5,
            max_degree: 40,
            zipf_exponent: 1.0,
            shard_rows: 128,
        }
    }

    /// Validate ranges.
    pub fn validate(&self) {
        assert!(self.num_users > 0 && self.num_items > 0);
        assert!(self.min_degree >= 1, "min_degree must be at least 1");
        assert!(
            self.min_degree <= self.max_degree,
            "min_degree exceeds max_degree"
        );
        assert!(
            self.max_degree <= self.num_items / 2,
            "max_degree {} must leave negatives (≤ m/2 = {})",
            self.max_degree,
            self.num_items / 2
        );
        assert!(
            self.degree_exponent > 2.0,
            "degree_exponent must exceed 2 for a finite mean degree"
        );
        assert!(self.zipf_exponent >= 0.0 && self.zipf_exponent.is_finite());
        assert!(self.shard_rows > 0, "shard_rows must be positive");
    }

    /// Build the lazily-sharded dataset. Construction is `O(m)` (the Zipf
    /// table and rank permutation); no interaction is generated until a
    /// user is first read. Deterministic in `(config, seed)`.
    pub fn generate(&self, seed: u64) -> ScaleFreeDataset {
        self.validate();
        let mut rng = SeededRng::new(seed ^ 0x5CA1_EF0E);
        let mut rank_to_item: Vec<u32> = (0..self.num_items as u32).collect();
        rng.shuffle(&mut rank_to_item);
        let num_shards = self.num_users.div_ceil(self.shard_rows);
        ScaleFreeDataset {
            cfg: self.clone(),
            seed,
            zipf: ZipfTable::new(self.num_items, self.zipf_exponent),
            rank_to_item,
            shards: (0..num_shards).map(|_| OnceLock::new()).collect(),
            shards_generated: AtomicUsize::new(0),
        }
    }
}

/// One generated CSR block of `shard_rows` (or fewer, at the tail) users.
#[derive(Debug)]
struct DatasetShard {
    /// Local CSR offsets (`ptr[i]..ptr[i+1]` indexes local user `i`).
    ptr: Vec<usize>,
    /// Concatenated sorted item ids.
    items: Vec<u32>,
}

/// A scale-free population whose CSR shards are generated on first access.
///
/// Thread-safe: shards are raced through [`OnceLock`], so concurrent
/// evaluation workers can fault shards in without coordination.
#[derive(Debug)]
pub struct ScaleFreeDataset {
    cfg: ScaleFreeConfig,
    seed: u64,
    zipf: ZipfTable,
    rank_to_item: Vec<u32>,
    shards: Vec<OnceLock<DatasetShard>>,
    shards_generated: AtomicUsize,
}

impl ScaleFreeDataset {
    /// The generating configuration.
    pub fn config(&self) -> &ScaleFreeConfig {
        &self.cfg
    }

    /// Total number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards generated so far — the laziness counter.
    pub fn shards_generated(&self) -> usize {
        self.shards_generated.load(Ordering::Relaxed)
    }

    /// Interactions materialized so far (sum over generated shards).
    pub fn interactions_generated(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.get())
            .map(|s| s.items.len())
            .sum()
    }

    /// Force-generate every shard (tests and full-population stats).
    pub fn materialize_all(&self) {
        for si in 0..self.shards.len() {
            let _ = self.shard(si);
        }
    }

    fn shard(&self, si: usize) -> &DatasetShard {
        self.shards[si].get_or_init(|| {
            self.shards_generated.fetch_add(1, Ordering::Relaxed);
            self.build_shard(si)
        })
    }

    /// Degree of user `u`: truncated Pareto draw from the user's own
    /// stream (independent of every other user, hence shard-order-free).
    fn degree(&self, rng: &mut SeededRng) -> usize {
        let tail = self.cfg.degree_exponent - 1.0;
        let u01 = (1.0 - rng.uniform_f64()).max(1e-12);
        let d = self.cfg.min_degree as f64 * u01.powf(-1.0 / tail);
        (d as usize).clamp(self.cfg.min_degree, self.cfg.max_degree)
    }

    fn build_shard(&self, si: usize) -> DatasetShard {
        let start = si * self.cfg.shard_rows;
        let rows = (self.cfg.num_users - start).min(self.cfg.shard_rows);
        let mut ptr = Vec::with_capacity(rows + 1);
        ptr.push(0usize);
        let mut items: Vec<u32> = Vec::new();
        for u in start..start + rows {
            self.generate_user(u, &mut items);
            ptr.push(items.len());
        }
        DatasetShard { ptr, items }
    }

    /// Generate user `u`'s sorted row and append it to `out`, keeping
    /// `out[..base]` (`base = out.len()` on entry) untouched.
    fn generate_user(&self, u: usize, out: &mut Vec<u32>) {
        // Every user owns an independent stream derived from (seed, u),
        // so a row does not depend on generation order or granularity.
        let mut rng = SeededRng::new(self.seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let want = self.degree(&mut rng);
        let base = out.len();
        // Zipf-popular draws with rejection; the degree cap is ≤ m/2,
        // so collisions stay cheap. A bounded attempt budget keeps the
        // loop total even for adversarial configs, topping up from
        // uniform draws (still seeded, still deterministic).
        let mut attempts = 0usize;
        while out.len() - base < want {
            let v = if attempts < 50 * want {
                self.rank_to_item[self.zipf.sample(&mut rng)]
            } else {
                rng.below(self.cfg.num_items) as u32
            };
            attempts += 1;
            if let Err(pos) = out[base..].binary_search(&v) {
                out.insert(base + pos, v);
            }
        }
    }
}

impl InteractionSource for ScaleFreeDataset {
    fn num_users(&self) -> usize {
        self.cfg.num_users
    }

    fn num_items(&self) -> usize {
        self.cfg.num_items
    }

    fn user_items(&self, u: usize) -> &[u32] {
        assert!(u < self.cfg.num_users, "user {u} out of range");
        let shard = self.shard(u / self.cfg.shard_rows);
        let local = u % self.cfg.shard_rows;
        &shard.items[shard.ptr[local]..shard.ptr[local + 1]]
    }

    /// Generates the row straight into `out`; the shard cache is neither
    /// read nor filled.
    fn append_user_items(&self, u: usize, out: &mut Vec<u32>) {
        assert!(u < self.cfg.num_users, "user {u} out of range");
        self.generate_user(u, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_lazy_per_shard() {
        let d = ScaleFreeConfig::tiny().generate(1);
        assert_eq!(d.shards_generated(), 0);
        assert_eq!(d.interactions_generated(), 0);
        let _ = d.user_items(0);
        assert_eq!(d.shards_generated(), 1, "one shard faulted in");
        let _ = d.user_items(5); // same shard
        assert_eq!(d.shards_generated(), 1);
        let _ = d.user_items(d.num_users() - 1); // tail shard
        assert_eq!(d.shards_generated(), 2);
        assert!(d.interactions_generated() > 0);
        assert_eq!(d.num_shards(), 600usize.div_ceil(128));
    }

    #[test]
    fn users_are_deterministic_and_order_independent() {
        let cfg = ScaleFreeConfig::tiny();
        let a = cfg.generate(9);
        let b = cfg.generate(9);
        // Touch b's shards in reverse order; contents must not care.
        for u in (0..a.num_users()).rev() {
            let _ = b.user_items(u);
        }
        for u in 0..a.num_users() {
            assert_eq!(a.user_items(u), b.user_items(u), "user {u} diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ScaleFreeConfig::tiny();
        let a = cfg.generate(1);
        let b = cfg.generate(2);
        let diff = (0..cfg.num_users).any(|u| a.user_items(u) != b.user_items(u));
        assert!(diff, "seed must matter");
    }

    #[test]
    fn rows_are_sorted_distinct_in_range_and_degree_bounded() {
        let d = ScaleFreeConfig::tiny().generate(4);
        let cfg = d.config().clone();
        for u in 0..cfg.num_users {
            let row = d.user_items(u);
            assert!(row.len() >= cfg.min_degree && row.len() <= cfg.max_degree);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "user {u} unsorted");
            assert!(row.iter().all(|&v| (v as usize) < cfg.num_items));
            assert_eq!(d.user_degree(u), row.len());
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let d = ScaleFreeConfig::tiny().generate(7);
        d.materialize_all();
        let degrees: Vec<usize> = (0..d.num_users()).map(|u| d.user_degree(u)).collect();
        let at_min = degrees.iter().filter(|&&x| x == 2).count();
        let heavy = degrees.iter().filter(|&&x| x >= 10).count();
        // Pareto(a=2.5, xm=2): ~55% mass at the floor, ~9% beyond 5·xm.
        assert!(at_min > d.num_users() / 3, "floor mass too small: {at_min}");
        assert!(heavy > 0, "no heavy users at all");
        let max = *degrees.iter().max().expect("non-empty");
        assert!(max > 4 * 2, "tail never stretched: max degree {max}");
    }

    #[test]
    fn item_popularity_is_skewed() {
        let d = ScaleFreeConfig::tiny().generate(3);
        d.materialize_all();
        let mut pop = vec![0u32; d.num_items()];
        for u in 0..d.num_users() {
            for &v in d.user_items(u) {
                pop[v as usize] += 1;
            }
        }
        pop.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = pop.iter().map(|&x| x as u64).sum();
        let top_decile: u64 = pop[..pop.len() / 10].iter().map(|&x| x as u64).sum();
        assert!(
            top_decile as f64 > 0.3 * total as f64,
            "top 10% of items should hold >30% of interactions, got {}",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn million_config_validates_without_generating() {
        // Construction must be O(m), not O(n·degree): just build it.
        let d = ScaleFreeConfig::million().generate(42);
        assert_eq!(d.num_users(), 1_000_000);
        assert_eq!(d.num_items(), 100_000);
        assert_eq!(d.shards_generated(), 0);
        ScaleFreeConfig::smoke_50k().validate();
    }

    #[test]
    #[should_panic(expected = "max_degree")]
    fn rejects_degree_cap_beyond_half_catalog() {
        ScaleFreeConfig {
            max_degree: 200,
            num_items: 300,
            ..ScaleFreeConfig::tiny()
        }
        .validate();
    }
}
