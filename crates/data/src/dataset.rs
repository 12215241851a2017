//! Implicit-feedback interaction datasets.
//!
//! A [`Dataset`] is the training set `D ⊆ U × V` of §III-A, stored in CSR
//! layout: `user_ptr[i]..user_ptr[i+1]` indexes the sorted item ids user
//! `u_i` has interacted with (`V_i⁺`). All ratings/playtimes are collapsed
//! to implicit feedback and duplicates dropped, exactly as the paper's
//! preprocessing does.

/// Read access to a population of per-user interaction sets.
///
/// The federated layers only ever need three questions answered — how many
/// users, how many items, which items has user `u` interacted with — so
/// they are written against this trait instead of the concrete [`Dataset`].
/// That lets the same round loop run over an eager CSR matrix (small
/// datasets) or a sharded, lazily-generated population
/// ([`crate::scalefree::ScaleFreeDataset`]) where a million-user
/// interaction set never exists as one allocation.
pub trait InteractionSource {
    /// Number of users `n`.
    fn num_users(&self) -> usize;

    /// Number of items `m`.
    fn num_items(&self) -> usize;

    /// Sorted item ids user `u` has interacted with (`V_u⁺`).
    fn user_items(&self, u: usize) -> &[u32];

    /// Append user `u`'s sorted item ids to `out` — the same items as
    /// [`InteractionSource::user_items`]. A lazily generated source
    /// overrides it to generate the row straight into `out` without
    /// caching it, so a wrapper that keeps its own copy of each row
    /// ([`crate::HoldoutView`]) is the only cache.
    fn append_user_items(&self, u: usize, out: &mut Vec<u32>) {
        out.extend_from_slice(self.user_items(u));
    }

    /// Number of interactions of user `u` (`|V_u⁺|`).
    fn user_degree(&self, u: usize) -> usize {
        self.user_items(u).len()
    }

    /// Interaction count per item over the whole population.
    ///
    /// The default implementation sweeps every user, so on a lazily
    /// generated source ([`crate::scalefree::ScaleFreeDataset`]) it
    /// materializes the full population — `O(|D|)` work, the honest cost
    /// of population-wide side information. Attacks that assume item
    /// popularity as prior knowledge (Bandwagon, Popular, PipAttack) pay
    /// it once per construction through the lazy
    /// `AttackEnv` cache; everything else never triggers it.
    fn item_popularity(&self) -> Vec<u32> {
        let mut pop = vec![0u32; self.num_items()];
        for u in 0..self.num_users() {
            for &v in self.user_items(u) {
                pop[v as usize] += 1;
            }
        }
        pop
    }
}

impl InteractionSource for Dataset {
    fn num_users(&self) -> usize {
        Dataset::num_users(self)
    }

    fn num_items(&self) -> usize {
        Dataset::num_items(self)
    }

    fn user_items(&self, u: usize) -> &[u32] {
        Dataset::user_items(self, u)
    }

    fn user_degree(&self, u: usize) -> usize {
        Dataset::user_degree(self, u)
    }

    fn item_popularity(&self) -> Vec<u32> {
        Dataset::item_popularity(self)
    }
}

/// A deduplicated implicit-feedback dataset in CSR layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    num_users: usize,
    num_items: usize,
    user_ptr: Vec<usize>,
    item_ids: Vec<u32>,
}

/// Summary statistics for a dataset (the columns of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of users `n`.
    pub num_users: usize,
    /// Number of items `m`.
    pub num_items: usize,
    /// Number of unique user-item interactions `|D|`.
    pub num_interactions: usize,
    /// Average interactions per user (the paper's "Avg." column).
    pub avg_interactions_per_user: f64,
    /// `1 - |D| / (n·m)`, as a fraction in `[0, 1]`.
    pub sparsity: f64,
}

impl Dataset {
    /// Build a dataset from `(user, item)` tuples.
    ///
    /// Duplicates are dropped (the paper: "we drop the duplicate
    /// interactions") and per-user item lists are sorted. Panics if any id
    /// is out of range.
    pub fn from_tuples(
        num_users: usize,
        num_items: usize,
        tuples: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut per_user: Vec<Vec<u32>> = vec![Vec::new(); num_users];
        for (u, v) in tuples {
            assert!(
                (u as usize) < num_users,
                "user id {u} out of range {num_users}"
            );
            assert!(
                (v as usize) < num_items,
                "item id {v} out of range {num_items}"
            );
            per_user[u as usize].push(v);
        }
        let mut user_ptr = Vec::with_capacity(num_users + 1);
        let mut item_ids = Vec::new();
        user_ptr.push(0);
        for items in per_user.iter_mut() {
            items.sort_unstable();
            items.dedup();
            item_ids.extend_from_slice(items);
            user_ptr.push(item_ids.len());
        }
        Self {
            num_users,
            num_items,
            user_ptr,
            item_ids,
        }
    }

    /// Number of users `n`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items `m`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of unique interactions `|D|`.
    #[inline]
    pub fn num_interactions(&self) -> usize {
        self.item_ids.len()
    }

    /// Sorted item ids user `u` has interacted with (`V_u⁺`).
    #[inline]
    pub fn user_items(&self, u: usize) -> &[u32] {
        &self.item_ids[self.user_ptr[u]..self.user_ptr[u + 1]]
    }

    /// Number of interactions of user `u` (`|V_u⁺|`).
    #[inline]
    pub fn user_degree(&self, u: usize) -> usize {
        self.user_ptr[u + 1] - self.user_ptr[u]
    }

    /// Whether `(u, v) ∈ D`.
    #[inline]
    pub fn contains(&self, u: usize, v: u32) -> bool {
        self.user_items(u).binary_search(&v).is_ok()
    }

    /// Iterate all `(user, item)` interactions.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_users)
            .flat_map(move |u| self.user_items(u).iter().map(move |&v| (u as u32, v)))
    }

    /// Interaction count per item (item "popularity", used by the
    /// Bandwagon/Popular baselines and by PipAttack's side information).
    pub fn item_popularity(&self) -> Vec<u32> {
        let mut pop = vec![0u32; self.num_items];
        for &v in &self.item_ids {
            pop[v as usize] += 1;
        }
        pop
    }

    /// Item ids sorted by descending popularity (ties by ascending id, so
    /// the ordering is deterministic).
    pub fn items_by_popularity(&self) -> Vec<u32> {
        let pop = self.item_popularity();
        let mut ids: Vec<u32> = (0..self.num_items as u32).collect();
        ids.sort_by_key(|&v| (std::cmp::Reverse(pop[v as usize]), v));
        ids
    }

    /// The `count` least-popular items with zero or minimal interactions.
    ///
    /// The paper attacks "target items" that start unexposed (ER@K = 0 under
    /// no attack); picking cold items reproduces that starting condition.
    pub fn coldest_items(&self, count: usize) -> Vec<u32> {
        let mut ids = self.items_by_popularity();
        ids.reverse();
        ids.truncate(count);
        ids.sort_unstable();
        ids
    }

    /// Summary statistics (Table II columns).
    pub fn stats(&self) -> DatasetStats {
        let n = self.num_users;
        let m = self.num_items;
        let d = self.num_interactions();
        DatasetStats {
            num_users: n,
            num_items: m,
            num_interactions: d,
            avg_interactions_per_user: if n == 0 { 0.0 } else { d as f64 / n as f64 },
            sparsity: if n == 0 || m == 0 {
                1.0
            } else {
                1.0 - d as f64 / (n as f64 * m as f64)
            },
        }
    }

    /// Build a new dataset with extra users appended (each given the listed
    /// item set). Used by data-poisoning baselines that inject fake users
    /// into the training data.
    pub fn with_injected_users(&self, fake_profiles: &[Vec<u32>]) -> Dataset {
        let tuples = self
            .iter()
            .chain(fake_profiles.iter().enumerate().flat_map(|(i, items)| {
                let fake_u = (self.num_users + i) as u32;
                items.iter().map(move |&v| (fake_u, v))
            }))
            .collect::<Vec<_>>();
        Dataset::from_tuples(self.num_users + fake_profiles.len(), self.num_items, tuples)
    }

    /// Materialize a dense CSR snapshot of any interaction source.
    ///
    /// This is the bridge the *full-knowledge* data-poisoning baselines
    /// (P1/P2) use when an experiment runs on a lazily generated
    /// population: their threat model grants the attacker the entire
    /// interaction matrix, so the honest cost of that assumption at
    /// population scale is one `O(|D|)` sweep. Rows come back exactly as
    /// the source reports them (already sorted and deduplicated per the
    /// [`InteractionSource`] contract), so for a `Dataset` source this is
    /// an identity copy.
    pub fn from_source<D: InteractionSource + ?Sized>(source: &D) -> Dataset {
        let n = source.num_users();
        let mut user_ptr = Vec::with_capacity(n + 1);
        let mut item_ids = Vec::new();
        user_ptr.push(0);
        for u in 0..n {
            let row = source.user_items(u);
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "unsorted row {u}");
            item_ids.extend_from_slice(row);
            user_ptr.push(item_ids.len());
        }
        Self {
            num_users: n,
            num_items: source.num_items(),
            user_ptr,
            item_ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::from_tuples(3, 5, vec![(0, 1), (0, 3), (1, 0), (1, 1), (1, 1), (2, 4)])
    }

    #[test]
    fn dedup_and_sorted() {
        let d = tiny();
        assert_eq!(d.num_interactions(), 5, "duplicate (1,1) dropped");
        assert_eq!(d.user_items(0), &[1, 3]);
        assert_eq!(d.user_items(1), &[0, 1]);
        assert_eq!(d.user_items(2), &[4]);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let d = Dataset::from_tuples(1, 10, vec![(0, 7), (0, 2), (0, 5)]);
        assert_eq!(d.user_items(0), &[2, 5, 7]);
    }

    #[test]
    fn contains_and_degree() {
        let d = tiny();
        assert!(d.contains(0, 3));
        assert!(!d.contains(0, 0));
        assert_eq!(d.user_degree(1), 2);
        assert_eq!(d.user_degree(2), 1);
    }

    #[test]
    fn empty_user_allowed() {
        let d = Dataset::from_tuples(2, 3, vec![(0, 1)]);
        assert_eq!(d.user_items(1), &[] as &[u32]);
        assert_eq!(d.user_degree(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_user() {
        let _ = Dataset::from_tuples(1, 1, vec![(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_item() {
        let _ = Dataset::from_tuples(1, 1, vec![(0, 1)]);
    }

    #[test]
    fn iter_yields_everything_once() {
        let d = tiny();
        let all: Vec<_> = d.iter().collect();
        assert_eq!(all.len(), 5);
        assert!(all.contains(&(0, 1)));
        assert!(all.contains(&(2, 4)));
    }

    #[test]
    fn popularity_counts() {
        let d = tiny();
        let pop = d.item_popularity();
        assert_eq!(pop, vec![1, 2, 0, 1, 1]);
    }

    #[test]
    fn items_by_popularity_deterministic() {
        let d = tiny();
        let order = d.items_by_popularity();
        assert_eq!(order[0], 1, "item 1 has 2 interactions");
        // ties (pop 1): items 0, 3, 4 in ascending id order, then item 2.
        assert_eq!(&order[1..], &[0, 3, 4, 2]);
    }

    #[test]
    fn coldest_items_are_least_popular() {
        let d = tiny();
        assert_eq!(d.coldest_items(1), vec![2]);
        let two = d.coldest_items(2);
        assert_eq!(two.len(), 2);
        assert!(two.contains(&2));
    }

    #[test]
    fn stats_match_hand_computation() {
        let d = tiny();
        let s = d.stats();
        assert_eq!(s.num_users, 3);
        assert_eq!(s.num_items, 5);
        assert_eq!(s.num_interactions, 5);
        assert!((s.avg_interactions_per_user - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.sparsity - (1.0 - 5.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn from_source_is_an_identity_copy_for_datasets() {
        let d = tiny();
        let copy = Dataset::from_source(&d);
        assert_eq!(copy, d);
    }

    #[test]
    fn trait_item_popularity_matches_inherent() {
        let d = tiny();
        // The provided sweep and the CSR fast path must agree exactly.
        let via_trait = InteractionSource::item_popularity(&d);
        assert_eq!(via_trait, d.item_popularity());
        // A source using the default sweep agrees with a materialization.
        struct View<'a>(&'a Dataset);
        impl InteractionSource for View<'_> {
            fn num_users(&self) -> usize {
                self.0.num_users()
            }
            fn num_items(&self) -> usize {
                self.0.num_items()
            }
            fn user_items(&self, u: usize) -> &[u32] {
                self.0.user_items(u)
            }
        }
        let v = View(&d);
        assert_eq!(v.item_popularity(), d.item_popularity());
        assert_eq!(Dataset::from_source(&v), d);
    }

    #[test]
    fn inject_users_appends() {
        let d = tiny();
        let d2 = d.with_injected_users(&[vec![0, 2], vec![4]]);
        assert_eq!(d2.num_users(), 5);
        assert_eq!(d2.user_items(3), &[0, 2]);
        assert_eq!(d2.user_items(4), &[4]);
        assert_eq!(d2.user_items(0), d.user_items(0));
    }
}
