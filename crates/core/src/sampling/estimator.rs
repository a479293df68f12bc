//! RR-set based revenue estimator (Section 4.2).
//!
//! Given a collection `R` of RR-sets generated by the uniform sampler
//! (advertiser ∝ CPE, root uniform), the unbiased estimators are
//!
//! * `π̃(S⃗, R) = nΓ · Σ_R Λ(S⃗, R) / |R|`
//! * `π̃_i(S_i, R) = nΓ · Σ_R Λ(S_i, R) / |R|` where only RR-sets generated
//!   *for advertiser i* count.
//!
//! The estimator implements [`RevenueOracle`] so every Section-3 algorithm
//! runs unchanged on top of it. It wraps a [`CoverageView`] — an immutable
//! snapshot of a shared, incrementally extended coverage index — so
//! constructing an estimator over a cached stream costs a few `Arc` bumps
//! instead of an index rebuild, and the per-`(ad, node)` singleton counts
//! are maintained once per index extension, never per estimator (as is
//! their sorted order, which `ThresholdGreedy` filters instead of sorting
//! the pairs per request). The
//! incremental state keeps a packed `u64` covered-bitmap over the RR-sets
//! so a marginal-gain query for advertiser `i` costs
//! `O(#RR-sets of i containing u)`: the index groups postings by
//! advertiser, so other advertisers' sets are never visited.

use crate::oracle::{RevenueOracle, SeedState};
use rmsa_diffusion::{AdId, CoverBitset, CoverageIndex, CoverageView, RateOrders, RrArena};
use rmsa_graph::NodeId;

/// Revenue estimator over a coverage-index snapshot of a uniform-sampler
/// RR-set collection.
pub struct RrRevenueEstimator {
    view: CoverageView,
    /// `nΓ / |R|`: revenue contributed by each covered RR-set.
    scale: f64,
    /// `Γ = Σ_i cpe(i)`.
    gamma: f64,
}

impl RrRevenueEstimator {
    /// Build an estimator from an RR-set arena, indexing it in one
    /// segment. Standalone path for tests and benchmarks; estimators over
    /// a shared [`rmsa_diffusion::RrCache`] stream use
    /// [`RrRevenueEstimator::from_view`] with the stream's incrementally
    /// maintained index instead.
    ///
    /// `gamma` is `Σ_i cpe(i)` and must match the sampler that produced the
    /// collection; `num_ads` is the number of advertisers.
    pub fn new(arena: &RrArena, num_ads: usize, gamma: f64) -> Self {
        assert!(num_ads > 0);
        let mut index = CoverageIndex::new(arena.num_nodes(), num_ads);
        index.extend_from(arena, 1);
        Self::from_view(index.view(), gamma)
    }

    /// Wrap an existing coverage-index snapshot (cheap: the view shares
    /// the index's storage via `Arc`).
    pub fn from_view(view: CoverageView, gamma: f64) -> Self {
        assert!(view.num_ads() > 0);
        assert!(gamma > 0.0);
        let num_rr = view.num_rr();
        let scale = if num_rr == 0 {
            0.0
        } else {
            view.num_nodes() as f64 * gamma / num_rr as f64
        };
        RrRevenueEstimator { view, scale, gamma }
    }

    /// Number of RR-sets backing the estimator.
    pub fn num_rr(&self) -> usize {
        self.view.num_rr()
    }

    /// `Γ = Σ_i cpe(i)`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// `nΓ / |R|`, i.e. the revenue value of one covered RR-set.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The underlying coverage-index snapshot.
    pub fn coverage(&self) -> &CoverageView {
        &self.view
    }

    /// Number of RR-sets of advertiser `ad` containing `u` (the coverage
    /// count behind [`RevenueOracle::singleton_revenue`]).
    pub fn singleton_count(&self, ad: AdId, u: NodeId) -> u32 {
        self.view.singleton_count(ad, u)
    }

    /// Estimated total revenue `π̃(S⃗, R)` of a full allocation.
    pub fn allocation_estimate(&self, allocation: &[Vec<NodeId>]) -> f64 {
        self.scale * self.view.allocation_coverage_count(allocation) as f64
    }

    /// Estimated revenue `π̃_i(S_i, R)` of every advertiser's seed set in
    /// `allocation`, each equal to [`RevenueOracle::revenue`] bit for bit.
    pub fn per_ad_estimates(&self, allocation: &[Vec<NodeId>]) -> Vec<f64> {
        (self.view.allocation_coverage_counts(allocation).into_iter())
            .map(|count| self.scale * count as f64)
            .collect()
    }

    /// Estimated per-ad spread `σ̃_i(S)` (revenue divided by the advertiser's
    /// CPE is up to the caller; spread here is `n · covered / |R_i|` with
    /// `|R_i|` approximated by `|R| · cpe_i / Γ`, which is exactly how the
    /// uniform sampler allocates sets). Exposed for seed-cost assignment.
    pub fn approx_singleton_spread(&self, ad: AdId, u: NodeId, cpe: f64) -> f64 {
        // π̃_i({u}) = scale * count; σ̃_i({u}) = π̃_i / cpe_i.
        self.scale * self.view.singleton_count(ad, u) as f64 / cpe
    }
}

/// Incremental coverage state for one advertiser's seed set.
#[derive(Clone, Debug)]
pub struct RrSeedState {
    ad: AdId,
    seeds: Vec<NodeId>,
    covered: CoverBitset,
    covered_count: usize,
    revenue: f64,
}

impl SeedState for RrSeedState {
    fn ad(&self) -> AdId {
        self.ad
    }
    fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }
    fn revenue(&self) -> f64 {
        self.revenue
    }
}

impl RrSeedState {
    /// Number of RR-sets (of this advertiser) covered so far.
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }
}

impl RevenueOracle for RrRevenueEstimator {
    type State = RrSeedState;

    fn num_ads(&self) -> usize {
        self.view.num_ads()
    }

    fn num_nodes(&self) -> usize {
        self.view.num_nodes()
    }

    fn revenue(&self, ad: AdId, seeds: &[NodeId]) -> f64 {
        self.scale * self.view.coverage_count(ad, seeds) as f64
    }

    fn singleton_revenue(&self, ad: AdId, u: NodeId) -> f64 {
        self.scale * self.view.singleton_count(ad, u) as f64
    }

    fn singleton_order(&self) -> Option<&[u32]> {
        // The view's count order is the order of `scale · count` when the
        // scale is normal and positive: counts are below 2³², so distinct
        // counts stay distinct revenues. With no RR-set the scale is 0.
        self.scale.is_normal().then(|| self.view.singleton_order())
    }

    fn rate_orders(&self) -> Option<&RateOrders> {
        Some(self.view.rate_orders())
    }

    fn private_revenue(&self, ad: AdId, u: NodeId) -> Option<f64> {
        // The sets `u` alone covers stay uncovered until `u` is a seed.
        Some(self.scale * self.view.private_count(ad, u) as f64)
    }

    /// [`RrRevenueEstimator::allocation_estimate`] of the states' seed
    /// sets, bit for bit: the total coverage, scaled once.
    fn estimate_of(&self, states: &[RrSeedState]) -> f64 {
        self.scale * states.iter().map(|s| s.covered_count).sum::<usize>() as f64
    }

    fn new_state(&self, ad: AdId) -> RrSeedState {
        RrSeedState {
            ad,
            seeds: Vec::new(),
            covered: CoverBitset::new(self.view.num_rr()),
            covered_count: 0,
            revenue: 0.0,
        }
    }

    fn marginal_gain(&self, state: &RrSeedState, u: NodeId) -> f64 {
        let mut newly = 0usize;
        self.view.for_each_rr_of(state.ad, u, |rr| {
            newly += usize::from(!state.covered.test(rr))
        });
        self.scale * newly as f64
    }

    fn add_seed(&self, state: &mut RrSeedState, u: NodeId) {
        self.view.for_each_rr_of(state.ad, u, |rr| {
            state.covered_count += usize::from(state.covered.set(rr))
        });
        state.seeds.push(u);
        state.revenue = self.scale * state.covered_count as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;
    use rmsa_diffusion::{RrStrategy, UniformIc, UniformRrSampler};
    use rmsa_graph::graph_from_edges;

    fn build_estimator(prob: f64, num_sets: usize) -> RrRevenueEstimator {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = UniformIc::new(2, prob);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        let mut rng = Pcg64Mcg::seed_from_u64(31);
        arena.generate(&g, &m, &sampler, num_sets, &mut rng);
        RrRevenueEstimator::new(&arena, 2, sampler.gamma())
    }

    #[test]
    fn estimator_is_consistent_with_closed_form_revenue() {
        // Chain with p = 1: σ({0}) = 4, so π_0({0}) = cpe_0 * 4 = 4 and
        // π_1({0}) = 8.
        let est = build_estimator(1.0, 30_000);
        let r0 = est.revenue(0, &[0]);
        let r1 = est.revenue(1, &[0]);
        assert!((r0 - 4.0).abs() < 0.25, "π_0({{0}}) estimate {r0}");
        assert!((r1 - 8.0).abs() < 0.4, "π_1({{0}}) estimate {r1}");
    }

    #[test]
    fn incremental_state_matches_scratch_queries() {
        let est = build_estimator(0.5, 20_000);
        let mut st = est.new_state(1);
        let nodes = [0u32, 2u32];
        for &u in &nodes {
            let gain = est.marginal_gain(&st, u);
            let before = st.revenue();
            est.add_seed(&mut st, u);
            assert!((st.revenue() - (before + gain)).abs() < 1e-9);
        }
        let scratch = est.revenue(1, &nodes);
        assert!((st.revenue() - scratch).abs() < 1e-9);
        assert_eq!(st.seeds(), &nodes);
    }

    #[test]
    fn singleton_revenue_matches_scratch() {
        let est = build_estimator(0.3, 10_000);
        for ad in 0..2 {
            for u in 0..4u32 {
                let a = est.singleton_revenue(ad, u);
                let b = est.revenue(ad, &[u]);
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn allocation_estimate_equals_sum_of_per_ad_estimates_when_disjoint() {
        let est = build_estimator(0.4, 20_000);
        let alloc = vec![vec![0u32], vec![3u32]];
        let total = est.allocation_estimate(&alloc);
        let by_parts = est.revenue(0, &[0]) + est.revenue(1, &[3]);
        assert!((total - by_parts).abs() < 1e-9);
    }

    #[test]
    fn marginal_gains_are_submodular_in_the_sample_space() {
        let est = build_estimator(0.6, 20_000);
        // gain of node 1 w.r.t. {} vs w.r.t. {0}: must not increase.
        let empty = est.new_state(0);
        let g_empty = est.marginal_gain(&empty, 1);
        let mut with0 = est.new_state(0);
        est.add_seed(&mut with0, 0);
        let g_after = est.marginal_gain(&with0, 1);
        assert!(g_after <= g_empty + 1e-9);
    }

    #[test]
    fn estimators_at_different_sizes_agree_over_the_shared_prefix() {
        // Two estimators over the same incrementally extended index: the
        // θ₂ estimator's queries must equal a fresh single-segment build.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = UniformIc::new(2, 0.5);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        let mut rng = Pcg64Mcg::seed_from_u64(31);
        arena.generate(&g, &m, &sampler, 5_000, &mut rng);
        let mut index = CoverageIndex::new(g.num_nodes(), 2);
        index.extend_from(&arena, 1);
        let est1 = RrRevenueEstimator::from_view(index.view(), sampler.gamma());
        arena.generate(&g, &m, &sampler, 5_000, &mut rng);
        index.extend_from(&arena, 1);
        let est2 = RrRevenueEstimator::from_view(index.view(), sampler.gamma());
        let fresh = RrRevenueEstimator::new(&arena, 2, sampler.gamma());
        assert_eq!(est1.num_rr(), 5_000);
        assert_eq!(est2.num_rr(), 10_000);
        for ad in 0..2 {
            for u in 0..4u32 {
                assert_eq!(est2.singleton_count(ad, u), fresh.singleton_count(ad, u));
                assert!((est2.revenue(ad, &[u, 3]) - fresh.revenue(ad, &[u, 3])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_collection_yields_zero_estimates() {
        let arena = RrArena::new(4, RrStrategy::Standard);
        let est = RrRevenueEstimator::new(&arena, 2, 3.0);
        assert_eq!(est.revenue(0, &[0, 1, 2]), 0.0);
        assert_eq!(est.num_rr(), 0);
    }
}
