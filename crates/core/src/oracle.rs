//! Revenue oracles.
//!
//! Section 3 of the paper assumes an oracle returning the exact influence
//! spread of any seed set; Section 4 replaces it with RR-set estimates. All
//! algorithms in this crate are generic over the [`RevenueOracle`] trait so
//! the same `Greedy` / `ThresholdGreedy` / `Search` code runs in both modes,
//! exactly as Algorithm 6 reuses `RM_with_Oracle` on the sampled estimator.
//!
//! The trait is *incremental*: greedy algorithms grow one seed set per
//! advertiser, so an oracle exposes a per-advertiser [`RevenueOracle::State`]
//! that caches whatever it needs (covered RR-sets, cached spread, …) to
//! answer marginal-gain queries quickly.

use crate::problem::RmInstance;
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;
use rmsa_diffusion::exact::ExactOracle;
use rmsa_diffusion::{estimate_spread, AdId, PropagationModel, RateOrders};
use rmsa_graph::{DirectedGraph, NodeId};

/// Incremental evaluation state for one advertiser's growing seed set.
pub trait SeedState: Clone {
    /// The advertiser this state belongs to.
    fn ad(&self) -> AdId;
    /// The seeds committed so far, in insertion order.
    fn seeds(&self) -> &[NodeId];
    /// Revenue `π_i(seeds)` of the committed seeds.
    fn revenue(&self) -> f64;
    /// Whether `u` is already committed.
    fn contains(&self, u: NodeId) -> bool {
        self.seeds().contains(&u)
    }
}

/// An oracle able to evaluate (estimates of) the revenue function
/// `π_i(·) = cpe(i) · σ_i(·)`.
///
/// The lazy greedy loops rely on two properties of an implementation:
///
/// * `singleton_revenue(ad, u)` equals `marginal_gain(&new_state(ad), u)`
///   bit for bit, so a fresh singleton key is used as the exact gain
///   without evaluating it;
/// * `marginal_gain` is deterministic, never negative, and never grows as
///   the state gains seeds (monotonicity and submodularity, exactly in
///   `f64`), so a stale key bounds the current gain from above and a pair
///   that overflows a budget never fits it again.
///
/// The RR-set estimator meets both exactly, as does the exact oracle on
/// graphs whose revenues are exact in `f64`. A Monte-Carlo oracle meets
/// the first only; over it the greedy loops stay budget-feasible, but
/// their selections may differ from an eager evaluation's.
pub trait RevenueOracle {
    /// Incremental per-advertiser state.
    type State: SeedState;

    /// Number of advertisers.
    fn num_ads(&self) -> usize;
    /// Number of nodes in the underlying graph.
    fn num_nodes(&self) -> usize;
    /// Revenue of an explicit seed set, evaluated from scratch.
    fn revenue(&self, ad: AdId, seeds: &[NodeId]) -> f64;
    /// Revenue of a single node; hot path for initialising greedy heaps.
    /// Must equal `marginal_gain(&new_state(ad), u)` bit for bit.
    fn singleton_revenue(&self, ad: AdId, u: NodeId) -> f64 {
        self.revenue(ad, &[u])
    }
    /// Every `(node, ad)` pair as its group `ad · num_nodes + u`, sorted by
    /// descending `singleton_revenue(ad, u)` with ties broken by descending
    /// node and then descending advertiser: the greedy queue's order of the
    /// singleton keys. An oracle that keeps this order cached lets a solve
    /// filter it instead of sorting all `n·h` pairs; `None`, the default,
    /// makes the solve sort.
    fn singleton_order(&self) -> Option<&[u32]> {
        None
    }
    /// Recent orders of all `(node, ad)` groups `ad · num_nodes + u` by
    /// singleton rate, for a solve to start its rate sort from. Any order
    /// gives the same sorted run, only faster or slower; `None`, the
    /// default, makes the solve sort from scratch.
    fn rate_orders(&self) -> Option<&RateOrders> {
        None
    }
    /// The part of `singleton_revenue(ad, u)` no seed but `u` earns: a
    /// lower bound on `marginal_gain(state, u)` for every state of `ad`
    /// that does not hold `u`. Where it equals a bound on the gain from
    /// above (such as the singleton revenue), it is the gain. `None`, the
    /// default, when the oracle does not know it.
    fn private_revenue(&self, _ad: AdId, _u: NodeId) -> Option<f64> {
        None
    }
    /// Fresh empty state for advertiser `ad`.
    fn new_state(&self, ad: AdId) -> Self::State;
    /// Marginal gain `π_i(u | state.seeds)`.
    fn marginal_gain(&self, state: &Self::State, u: NodeId) -> f64;
    /// Commit `u` into the state.
    fn add_seed(&self, state: &mut Self::State, u: NodeId);

    /// The oracle's estimate of the whole allocation that `states` hold,
    /// one state per advertiser in order, read off the states instead of
    /// walking the seed sets again: by default the sum of their revenues,
    /// [`Self::allocation_revenue`] of their seeds. An oracle that
    /// estimates a whole allocation otherwise overrides it.
    fn estimate_of(&self, states: &[Self::State]) -> f64 {
        states.iter().map(SeedState::revenue).sum()
    }

    /// Total revenue `π(S⃗)` of a full allocation.
    fn allocation_revenue(&self, allocation: &[Vec<NodeId>]) -> f64 {
        allocation
            .iter()
            .enumerate()
            .map(|(ad, s)| self.revenue(ad, s))
            .sum()
    }
}

/// Marginal rate `ζ_i(u | S_i)` (Eq. 2): marginal revenue over marginal
/// payment (seed cost plus the extra engagements the advertiser pays for).
pub fn marginal_rate(marginal_gain: f64, seed_cost: f64) -> f64 {
    let denom = seed_cost + marginal_gain;
    if denom <= 0.0 {
        0.0
    } else {
        marginal_gain / denom
    }
}

/// Generic seed-set state that caches the seeds and their revenue; used by
/// the exact and Monte-Carlo oracles which recompute revenue per query.
#[derive(Clone, Debug)]
pub struct CachedSeedState {
    ad: AdId,
    seeds: Vec<NodeId>,
    revenue: f64,
}

impl SeedState for CachedSeedState {
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

/// Exact oracle for tiny graphs, backed by possible-world enumeration.
///
/// Used to drive the Section-3 algorithms in tests/examples and to validate
/// the estimators; the interior mutex only guards the exact oracle's
/// probability cache.
pub struct ExactRevenueOracle<'g, M: PropagationModel> {
    inner: Mutex<ExactOracle<'g, M>>,
    cpe: Vec<f64>,
    num_nodes: usize,
}

impl<'g, M: PropagationModel> ExactRevenueOracle<'g, M> {
    /// Build an exact revenue oracle from a graph, a propagation model, and
    /// the instance whose CPE values convert spread into revenue.
    pub fn new(graph: &'g DirectedGraph, model: &'g M, instance: &RmInstance) -> Self {
        assert_eq!(instance.num_ads(), model.num_ads());
        ExactRevenueOracle {
            inner: Mutex::new(ExactOracle::new(graph, model)),
            cpe: instance.cpe_values(),
            num_nodes: graph.num_nodes(),
        }
    }
}

impl<'g, M: PropagationModel> RevenueOracle for ExactRevenueOracle<'g, M> {
    type State = CachedSeedState;

    fn num_ads(&self) -> usize {
        self.cpe.len()
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn revenue(&self, ad: AdId, seeds: &[NodeId]) -> f64 {
        self.cpe[ad] * self.inner.lock().spread(ad, seeds)
    }

    fn new_state(&self, ad: AdId) -> CachedSeedState {
        CachedSeedState {
            ad,
            seeds: Vec::new(),
            revenue: 0.0,
        }
    }

    fn marginal_gain(&self, state: &CachedSeedState, u: NodeId) -> f64 {
        let mut with = state.seeds.clone();
        with.push(u);
        (self.revenue(state.ad, &with) - state.revenue).max(0.0)
    }

    fn add_seed(&self, state: &mut CachedSeedState, u: NodeId) {
        state.seeds.push(u);
        state.revenue = self.revenue(state.ad, &state.seeds);
    }
}

/// Monte-Carlo revenue oracle: spreads are averaged over a fixed number of
/// independent cascades. Estimates are deterministic for a fixed
/// `(base_seed, ad, seed set)` because each query derives its RNG stream
/// from a hash of the query.
pub struct McRevenueOracle<'g, M: PropagationModel> {
    graph: &'g DirectedGraph,
    model: &'g M,
    cpe: Vec<f64>,
    num_simulations: usize,
    base_seed: u64,
}

impl<'g, M: PropagationModel> McRevenueOracle<'g, M> {
    /// Build a Monte-Carlo oracle performing `num_simulations` cascades per
    /// query.
    pub fn new(
        graph: &'g DirectedGraph,
        model: &'g M,
        instance: &RmInstance,
        num_simulations: usize,
        base_seed: u64,
    ) -> Self {
        assert!(num_simulations > 0);
        assert_eq!(instance.num_ads(), model.num_ads());
        McRevenueOracle {
            graph,
            model,
            cpe: instance.cpe_values(),
            num_simulations,
            base_seed,
        }
    }

    fn query_rng(&self, ad: AdId, seeds: &[NodeId]) -> Pcg64Mcg {
        // Cheap FNV-style mix so repeated queries of the same set agree.
        let mut h = self.base_seed ^ 0xcbf2_9ce4_8422_2325;
        h = h.wrapping_mul(0x1000_0000_01b3).wrapping_add(ad as u64);
        for &s in seeds {
            h ^= s as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Pcg64Mcg::seed_from_u64(h)
    }
}

impl<'g, M: PropagationModel> RevenueOracle for McRevenueOracle<'g, M> {
    type State = CachedSeedState;

    fn num_ads(&self) -> usize {
        self.cpe.len()
    }

    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn revenue(&self, ad: AdId, seeds: &[NodeId]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        let mut rng = self.query_rng(ad, seeds);
        self.cpe[ad]
            * estimate_spread(
                self.graph,
                self.model,
                ad,
                seeds,
                self.num_simulations,
                &mut rng,
            )
    }

    fn new_state(&self, ad: AdId) -> CachedSeedState {
        CachedSeedState {
            ad,
            seeds: Vec::new(),
            revenue: 0.0,
        }
    }

    fn marginal_gain(&self, state: &CachedSeedState, u: NodeId) -> f64 {
        let mut with = state.seeds.clone();
        with.push(u);
        (self.revenue(state.ad, &with) - state.revenue).max(0.0)
    }

    fn add_seed(&self, state: &mut CachedSeedState, u: NodeId) {
        state.seeds.push(u);
        state.revenue = self.revenue(state.ad, &state.seeds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Advertiser, SeedCosts};
    use rmsa_diffusion::UniformIc;
    use rmsa_graph::graph_from_edges;

    fn chain_instance() -> (DirectedGraph, UniformIc, RmInstance) {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let m = UniformIc::new(2, 0.5);
        let inst = RmInstance::try_new(
            3,
            vec![
                Advertiser::try_new(10.0, 1.0).unwrap(),
                Advertiser::try_new(10.0, 2.0).unwrap(),
            ],
            SeedCosts::Shared(vec![1.0; 3]),
        )
        .unwrap();
        (g, m, inst)
    }

    #[test]
    fn exact_oracle_scales_spread_by_cpe() {
        let (g, m, inst) = chain_instance();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        // σ({0}) = 1 + 0.5 + 0.25 = 1.75.
        assert!((o.revenue(0, &[0]) - 1.75).abs() < 1e-9);
        assert!((o.revenue(1, &[0]) - 3.5).abs() < 1e-9);
        assert!((o.singleton_revenue(0, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_oracle_incremental_state_tracks_revenue() {
        let (g, m, inst) = chain_instance();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let mut st = o.new_state(0);
        assert_eq!(st.revenue(), 0.0);
        let gain = o.marginal_gain(&st, 2);
        assert!((gain - 1.0).abs() < 1e-9);
        o.add_seed(&mut st, 2);
        assert!(st.contains(2));
        let gain0 = o.marginal_gain(&st, 0);
        // Adding 0 to {2}: spread({0,2}) = 1.75 + 1 - 0.25 (node 2 already
        // counted) = 2.5, so the marginal is 1.5.
        assert!((gain0 - 1.5).abs() < 1e-9, "gain0 = {gain0}");
        o.add_seed(&mut st, 0);
        assert!((st.revenue() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn mc_oracle_is_deterministic_and_close_to_exact() {
        let (g, m, inst) = chain_instance();
        let exact = ExactRevenueOracle::new(&g, &m, &inst);
        let mc = McRevenueOracle::new(&g, &m, &inst, 20_000, 11);
        let a = mc.revenue(0, &[0]);
        let b = mc.revenue(0, &[0]);
        assert_eq!(a, b, "repeated queries must agree");
        assert!((a - exact.revenue(0, &[0])).abs() < 0.05);
    }

    #[test]
    fn singleton_revenue_is_the_empty_state_marginal_gain_bit_for_bit() {
        fn check<O: RevenueOracle>(o: &O, label: &str) {
            for ad in 0..o.num_ads() {
                let empty = o.new_state(ad);
                for u in 0..o.num_nodes() as NodeId {
                    assert_eq!(
                        o.singleton_revenue(ad, u).to_bits(),
                        o.marginal_gain(&empty, u).to_bits(),
                        "{label}: ad {ad}, node {u}"
                    );
                }
            }
        }
        let (g, m, inst) = chain_instance();
        check(&ExactRevenueOracle::new(&g, &m, &inst), "exact");
        check(&McRevenueOracle::new(&g, &m, &inst, 200, 7), "monte carlo");
        let g = rmsa_graph::generators::celebrity_graph(4, 6);
        let m = UniformIc::new(2, 0.3);
        let sampler = rmsa_diffusion::UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena =
            rmsa_diffusion::RrArena::new(g.num_nodes(), rmsa_diffusion::RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 5_000, &mut Pcg64Mcg::seed_from_u64(3));
        let est = crate::sampling::RrRevenueEstimator::new(&arena, 2, sampler.gamma());
        check(&est, "rr estimator");
    }

    #[test]
    fn marginal_rate_matches_definition() {
        assert!((marginal_rate(3.0, 1.0) - 0.75).abs() < 1e-12);
        assert_eq!(marginal_rate(0.0, 0.0), 0.0);
    }

    #[test]
    fn allocation_revenue_sums_per_ad_revenue() {
        let (g, m, inst) = chain_instance();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let alloc = vec![vec![0], vec![2]];
        let expect = o.revenue(0, &[0]) + o.revenue(1, &[2]);
        assert!((o.allocation_revenue(&alloc) - expect).abs() < 1e-9);
    }
}
