//! The Revenue Maximization (RM) problem instance and allocations.
//!
//! An instance bundles everything the algorithms need besides the influence
//! oracle itself: the advertisers (budget `B_i`, cost-per-engagement
//! `cpe(i)`), and the seed-incentive costs `c_i(u)` for every `(node, ad)`
//! pair. Definition 2.1 of the paper: maximise `Σ_i π_i(S_i)` subject to
//! `π_i(S_i) + c_i(S_i) ≤ B_i` for every advertiser and `S_i ∩ S_j = ∅`.

use crate::error::RmError;
use rmsa_diffusion::AdId;
use rmsa_graph::NodeId;

/// One advertiser's contract with the host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Advertiser {
    /// Total budget `B_i` covering both engagements and seed incentives.
    pub budget: f64,
    /// Cost-per-engagement `cpe(i)` the advertiser pays the host.
    pub cpe: f64,
}

impl Advertiser {
    /// Construct an advertiser, validating that budget and CPE are positive
    /// and finite.
    pub fn try_new(budget: f64, cpe: f64) -> Result<Self, RmError> {
        if !(budget > 0.0 && budget.is_finite()) {
            return Err(RmError::invalid_parameter("budget", budget, "(0, ∞)"));
        }
        if !(cpe > 0.0 && cpe.is_finite()) {
            return Err(RmError::invalid_parameter("cpe", cpe, "(0, ∞)"));
        }
        Ok(Advertiser { budget, cpe })
    }
}

/// Seed-incentive costs `c_i(u)`.
///
/// The scalability experiments use the same cost vector for every advertiser
/// (Weighted-Cascade probabilities are ad-independent, hence so are singleton
/// spreads); the TIC experiments use genuinely per-ad costs. The `Shared`
/// variant avoids an `h × n` blow-up in the former case.
#[derive(Clone, Debug)]
pub enum SeedCosts {
    /// One cost vector shared by every advertiser.
    Shared(Vec<f64>),
    /// One cost vector per advertiser (`h` rows of length `n`).
    PerAd(Vec<Vec<f64>>),
}

impl SeedCosts {
    /// Cost of seeding `node` for advertiser `ad`.
    #[inline]
    pub fn cost(&self, ad: AdId, node: NodeId) -> f64 {
        match self {
            SeedCosts::Shared(v) => v[node as usize],
            SeedCosts::PerAd(rows) => rows[ad][node as usize],
        }
    }

    /// Number of nodes covered by the cost table.
    pub fn num_nodes(&self) -> usize {
        match self {
            SeedCosts::Shared(v) => v.len(),
            SeedCosts::PerAd(rows) => rows.first().map_or(0, |r| r.len()),
        }
    }
}

/// A complete RM problem instance (graph and influence model live in the
/// oracle, which is passed to the algorithms separately).
#[derive(Clone, Debug)]
pub struct RmInstance {
    /// Number of nodes `n` in the underlying graph.
    pub num_nodes: usize,
    /// The advertisers `1..h`.
    pub advertisers: Vec<Advertiser>,
    /// Seed-incentive costs.
    pub costs: SeedCosts,
}

impl RmInstance {
    /// Create an instance, validating dimensions: the cost table must cover
    /// every node and, for [`SeedCosts::PerAd`], carry exactly one row per
    /// advertiser.
    pub fn try_new(
        num_nodes: usize,
        advertisers: Vec<Advertiser>,
        costs: SeedCosts,
    ) -> Result<Self, RmError> {
        if advertisers.is_empty() {
            return Err(RmError::NoAdvertisers);
        }
        if costs.num_nodes() != num_nodes {
            return Err(RmError::DimensionMismatch {
                what: "cost table nodes",
                expected: num_nodes,
                actual: costs.num_nodes(),
            });
        }
        if let SeedCosts::PerAd(rows) = &costs {
            if rows.len() != advertisers.len() {
                return Err(RmError::DimensionMismatch {
                    what: "per-ad cost rows",
                    expected: advertisers.len(),
                    actual: rows.len(),
                });
            }
            if let Some(row) = rows.iter().find(|row| row.len() != num_nodes) {
                return Err(RmError::DimensionMismatch {
                    what: "per-ad cost row nodes",
                    expected: num_nodes,
                    actual: row.len(),
                });
            }
        }
        Ok(RmInstance {
            num_nodes,
            advertisers,
            costs,
        })
    }

    /// Number of advertisers `h`.
    #[inline]
    pub fn num_ads(&self) -> usize {
        self.advertisers.len()
    }

    /// Budget `B_i`.
    #[inline]
    pub fn budget(&self, ad: AdId) -> f64 {
        self.advertisers[ad].budget
    }

    /// Cost-per-engagement `cpe(i)`.
    #[inline]
    pub fn cpe(&self, ad: AdId) -> f64 {
        self.advertisers[ad].cpe
    }

    /// Seed cost `c_i(u)`.
    #[inline]
    pub fn cost(&self, ad: AdId, node: NodeId) -> f64 {
        self.costs.cost(ad, node)
    }

    /// Total seed cost `c_i(S)` of a set.
    pub fn set_cost(&self, ad: AdId, seeds: &[NodeId]) -> f64 {
        seeds.iter().map(|&u| self.cost(ad, u)).sum()
    }

    /// `Γ = Σ_i cpe(i)`.
    pub fn gamma(&self) -> f64 {
        self.advertisers.iter().map(|a| a.cpe).sum()
    }

    /// Smallest advertiser budget `B_min`.
    pub fn min_budget(&self) -> f64 {
        self.advertisers
            .iter()
            .map(|a| a.budget)
            .fold(f64::INFINITY, f64::min)
    }

    /// All CPE values in advertiser order.
    pub fn cpe_values(&self) -> Vec<f64> {
        self.advertisers.iter().map(|a| a.cpe).collect()
    }

    /// Return a copy of the instance with every budget multiplied by
    /// `factor` (used by the sampling algorithms, which internally run the
    /// oracle algorithms with budgets `(1 + ϱ/2) B_i`).
    pub fn with_scaled_budgets(&self, factor: f64) -> Self {
        let mut clone = self.clone();
        for a in &mut clone.advertisers {
            a.budget *= factor;
        }
        clone
    }

    /// `μ_i`: the largest number of nodes advertiser `ad` could possibly
    /// seed without the *seed costs alone* exceeding `budget_cap`. Used by
    /// the sample-size bounds of Theorem 4.2.
    pub fn max_seeds_within(&self, ad: AdId, budget_cap: f64) -> usize {
        let mut costs: Vec<f64> = (0..self.num_nodes as NodeId)
            .map(|u| self.cost(ad, u))
            .collect();
        // The count is a prefix of the costs in ascending order, so only
        // that prefix is sorted: a block of the cheapest costs left is
        // selected, sorted and summed, and the next block, twice as long,
        // only when the whole of this one fitted. Costs are validated
        // finite at construction; total_cmp orders any float either way,
        // and equal costs add up alike in any order.
        let mut total = 0.0;
        let mut count = 0usize;
        let mut block = 64;
        while count < costs.len() {
            let rest = &mut costs[count..];
            let len = block.min(rest.len());
            if len < rest.len() {
                rest.select_nth_unstable_by(len, f64::total_cmp);
            }
            let cheapest = &mut rest[..len];
            cheapest.sort_unstable_by(f64::total_cmp);
            for &c in cheapest.iter() {
                total += c;
                if total > budget_cap {
                    return count.max(1);
                }
                count += 1;
            }
            block *= 2;
        }
        count.max(1)
    }
}

/// An allocation `S⃗ = (S_1, …, S_h)`: one seed set per advertiser.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Allocation {
    /// Seed set per advertiser, in advertiser order.
    pub seed_sets: Vec<Vec<NodeId>>,
}

impl Allocation {
    /// An empty allocation for `h` advertisers.
    pub fn empty(num_ads: usize) -> Self {
        Allocation {
            seed_sets: vec![Vec::new(); num_ads],
        }
    }

    /// Number of advertisers.
    pub fn num_ads(&self) -> usize {
        self.seed_sets.len()
    }

    /// Seed set of advertiser `ad`.
    pub fn seeds(&self, ad: AdId) -> &[NodeId] {
        &self.seed_sets[ad]
    }

    /// Total number of seeds across all advertisers.
    pub fn total_seeds(&self) -> usize {
        self.seed_sets.iter().map(|s| s.len()).sum()
    }

    /// True when no advertiser has any seed.
    pub fn is_empty(&self) -> bool {
        self.seed_sets.iter().all(|s| s.is_empty())
    }

    /// Total seed-incentive cost `Σ_i c_i(S_i)` under `instance`.
    pub fn total_cost(&self, instance: &RmInstance) -> f64 {
        self.seed_sets
            .iter()
            .enumerate()
            .map(|(i, s)| instance.set_cost(i, s))
            .sum()
    }

    /// Check the partition-matroid constraint: no node is seeded for two
    /// different advertisers and no seed set contains duplicates.
    pub fn is_disjoint(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        for set in &self.seed_sets {
            for &u in set {
                if !seen.insert(u) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64Mcg;

    fn small_instance() -> RmInstance {
        RmInstance::try_new(
            4,
            vec![
                Advertiser::try_new(10.0, 1.0).unwrap(),
                Advertiser::try_new(20.0, 2.0).unwrap(),
            ],
            SeedCosts::PerAd(vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.5, 0.5, 0.5, 0.5]]),
        )
        .unwrap()
    }

    #[test]
    fn accessors_return_expected_values() {
        let inst = small_instance();
        assert_eq!(inst.num_ads(), 2);
        assert_eq!(inst.budget(1), 20.0);
        assert_eq!(inst.cpe(0), 1.0);
        assert_eq!(inst.cost(0, 2), 3.0);
        assert_eq!(inst.cost(1, 2), 0.5);
        assert_eq!(inst.gamma(), 3.0);
        assert_eq!(inst.min_budget(), 10.0);
        assert_eq!(inst.set_cost(0, &[0, 3]), 5.0);
    }

    #[test]
    fn shared_costs_apply_to_every_ad() {
        let inst = RmInstance::try_new(
            3,
            vec![
                Advertiser::try_new(5.0, 1.0).unwrap(),
                Advertiser::try_new(5.0, 1.0).unwrap(),
            ],
            SeedCosts::Shared(vec![1.0, 2.0, 3.0]),
        )
        .unwrap();
        assert_eq!(inst.cost(0, 1), inst.cost(1, 1));
    }

    #[test]
    fn scaled_budgets_only_change_budgets() {
        let inst = small_instance();
        let scaled = inst.with_scaled_budgets(1.5);
        assert_eq!(scaled.budget(0), 15.0);
        assert_eq!(scaled.budget(1), 30.0);
        assert_eq!(scaled.cpe(0), inst.cpe(0));
        assert_eq!(scaled.cost(0, 1), inst.cost(0, 1));
    }

    #[test]
    fn max_seeds_within_counts_cheapest_prefix() {
        let inst = small_instance();
        // Ad 0 costs sorted: 1,2,3,4 — budget cap 6 allows {1,2,3}.
        assert_eq!(inst.max_seeds_within(0, 6.0), 3);
        // Ad 1: four nodes at 0.5 each fit in 20.
        assert_eq!(inst.max_seeds_within(1, 20.0), 4);
        // Even a zero cap reports at least one node.
        assert_eq!(inst.max_seeds_within(0, 0.0), 1);
    }

    /// The count the block-wise prefix gives is the full sort's, on random
    /// costs with many ties and on caps that fall exactly on a prefix sum.
    #[test]
    fn max_seeds_within_matches_the_full_sort() {
        fn sorted_count(costs: &[f64], budget_cap: f64) -> usize {
            let mut costs = costs.to_vec();
            costs.sort_unstable_by(|a, b| a.total_cmp(b));
            let mut total = 0.0;
            let mut count = 0usize;
            for c in costs {
                total += c;
                if total > budget_cap {
                    break;
                }
                count += 1;
            }
            count.max(1)
        }
        let mut rng = Pcg64Mcg::seed_from_u64(11);
        for trial in 0..150 {
            let n = rng.gen_range(1..700usize);
            let costs: Vec<f64> = (0..n)
                .map(|_| match trial % 3 {
                    0 => rng.gen_range(0.0..5.0),
                    1 => f64::from(rng.gen_range(0..6u32)) * 0.1,
                    _ => rng.gen_range(1e-3..1.0f64).powi(3) * 1e3,
                })
                .collect();
            let inst = RmInstance::try_new(
                n,
                vec![Advertiser::try_new(1.0, 1.0).unwrap()],
                SeedCosts::Shared(costs.clone()),
            )
            .unwrap();
            let mut sorted = costs.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let mut prefix = 0.0;
            let mut caps = vec![0.0, f64::INFINITY, sorted.iter().sum::<f64>()];
            for (i, &c) in sorted.iter().enumerate() {
                prefix += c;
                if i % 11 == 0 || i + 1 == n {
                    caps.extend([prefix, prefix - 1e-12, prefix + 1e-12]);
                }
            }
            for _ in 0..5 {
                caps.push(rng.gen_range(0.0..prefix.max(1.0)));
            }
            for cap in caps {
                assert_eq!(
                    inst.max_seeds_within(0, cap),
                    sorted_count(&costs, cap),
                    "trial {trial}, n = {n}, cap = {cap}"
                );
            }
        }
    }

    #[test]
    fn allocation_cost_and_disjointness() {
        let inst = small_instance();
        let mut alloc = Allocation::empty(2);
        alloc.seed_sets[0] = vec![0, 1];
        alloc.seed_sets[1] = vec![2];
        assert_eq!(alloc.total_seeds(), 3);
        assert!((alloc.total_cost(&inst) - 3.5).abs() < 1e-12);
        assert!(alloc.is_disjoint());
        alloc.seed_sets[1].push(0);
        assert!(!alloc.is_disjoint());
    }

    #[test]
    fn mismatched_cost_table_is_rejected() {
        let err = RmInstance::try_new(
            5,
            vec![Advertiser::try_new(1.0, 1.0).unwrap()],
            SeedCosts::Shared(vec![1.0, 1.0]),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RmError::DimensionMismatch {
                what: "cost table nodes",
                expected: 5,
                actual: 2,
            }
        );
    }

    #[test]
    fn nonpositive_budget_rejected() {
        assert!(matches!(
            Advertiser::try_new(0.0, 1.0),
            Err(RmError::InvalidParameter { name: "budget", .. })
        ));
        assert!(matches!(
            Advertiser::try_new(1.0, f64::NAN),
            Err(RmError::InvalidParameter { name: "cpe", .. })
        ));
    }

    #[test]
    fn per_ad_row_count_and_row_length_are_validated() {
        let ads = vec![
            Advertiser::try_new(1.0, 1.0).unwrap(),
            Advertiser::try_new(1.0, 1.0).unwrap(),
        ];
        let err = RmInstance::try_new(2, ads.clone(), SeedCosts::PerAd(vec![vec![1.0, 1.0]]))
            .unwrap_err();
        assert!(matches!(
            err,
            RmError::DimensionMismatch {
                what: "per-ad cost rows",
                ..
            }
        ));
        let err = RmInstance::try_new(2, ads, SeedCosts::PerAd(vec![vec![1.0, 1.0], vec![1.0]]))
            .unwrap_err();
        assert!(matches!(err, RmError::DimensionMismatch { .. }));
        assert!(matches!(
            RmInstance::try_new(0, Vec::new(), SeedCosts::Shared(Vec::new())),
            Err(RmError::NoAdvertisers)
        ));
    }
}
