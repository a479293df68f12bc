//! A counting [`RevenueOracle`]: wraps the paper's RR-set estimator and
//! counts the greedy core's work from outside the solver.
//!
//! Only the traced run uses it. Every call is forwarded unchanged, so a
//! solve over the wrapper returns the same allocation as one over the bare
//! estimator (asserted by the tests and checked again on every traced
//! solve).

use rmsa::core::oracle::RevenueOracle;
use rmsa::core::sampling::{RrRevenueEstimator, RrSeedState};
use rmsa::diffusion::AdId;
use rmsa::graph::NodeId;
use std::cell::Cell;
use std::time::Instant;

/// Work counters of one or more solves over a [`CountingOracle`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GreedyCounters {
    /// `marginal_gain` calls.
    pub gains: u64,
    /// Σ over gains of Σ_ad `singleton_count(ad, u)`: the RR-set postings
    /// of `u` a gain query walks.
    pub postings: u64,
    /// `singleton_revenue` calls.
    pub singletons: u64,
    /// Seconds spent inside `marginal_gain`.
    pub gain_secs: f64,
}

/// The estimator plus interior counters (the oracle trait takes `&self`).
pub struct CountingOracle<'a> {
    inner: &'a RrRevenueEstimator,
    gains: Cell<u64>,
    postings: Cell<u64>,
    singletons: Cell<u64>,
    gain_secs: Cell<f64>,
}

impl<'a> CountingOracle<'a> {
    pub fn new(inner: &'a RrRevenueEstimator) -> Self {
        CountingOracle {
            inner,
            gains: Cell::new(0),
            postings: Cell::new(0),
            singletons: Cell::new(0),
            gain_secs: Cell::new(0.0),
        }
    }

    pub fn counters(&self) -> GreedyCounters {
        GreedyCounters {
            gains: self.gains.get(),
            postings: self.postings.get(),
            singletons: self.singletons.get(),
            gain_secs: self.gain_secs.get(),
        }
    }
}

impl RevenueOracle for CountingOracle<'_> {
    type State = RrSeedState;

    fn num_ads(&self) -> usize {
        self.inner.num_ads()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn revenue(&self, ad: AdId, seeds: &[NodeId]) -> f64 {
        self.inner.revenue(ad, seeds)
    }

    fn singleton_revenue(&self, ad: AdId, u: NodeId) -> f64 {
        self.singletons.set(self.singletons.get() + 1);
        self.inner.singleton_revenue(ad, u)
    }

    fn new_state(&self, ad: AdId) -> RrSeedState {
        self.inner.new_state(ad)
    }

    fn marginal_gain(&self, state: &RrSeedState, u: NodeId) -> f64 {
        let postings: u64 = (0..self.inner.num_ads())
            .map(|ad| u64::from(self.inner.singleton_count(ad, u)))
            .sum();
        self.gains.set(self.gains.get() + 1);
        self.postings.set(self.postings.get() + postings);
        let started = Instant::now();
        let gain = self.inner.marginal_gain(state, u);
        self.gain_secs
            .set(self.gain_secs.get() + started.elapsed().as_secs_f64());
        gain
    }

    fn add_seed(&self, state: &mut RrSeedState, u: NodeId) {
        self.inner.add_seed(state, u)
    }

    fn allocation_revenue(&self, allocation: &[Vec<NodeId>]) -> f64 {
        self.inner.allocation_revenue(allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rmsa::core::problem::{Advertiser, RmInstance, SeedCosts};
    use rmsa::core::rm_with_oracle;
    use rmsa::diffusion::{RrArena, RrStrategy, UniformIc, UniformRrSampler};
    use rmsa::graph::generators::celebrity_graph;

    fn estimator_and_instance(h: usize) -> (RrRevenueEstimator, RmInstance) {
        let graph = celebrity_graph(6, 8);
        let n = graph.num_nodes();
        let model = UniformIc::new(h, 0.3);
        let cpes: Vec<f64> = (0..h).map(|i| 1.0 + i as f64 * 0.25).collect();
        let sampler = UniformRrSampler::new(&cpes);
        let mut arena = RrArena::new(n, RrStrategy::Standard);
        let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(5);
        arena.generate(&graph, &model, &sampler, 20_000, &mut rng);
        let estimator = RrRevenueEstimator::new(&arena, h, sampler.gamma());
        let advertisers = cpes
            .iter()
            .map(|&cpe| Advertiser::try_new(14.0, cpe).unwrap())
            .collect();
        let costs = SeedCosts::Shared((0..n).map(|u| 0.5 + (u % 3) as f64).collect());
        (
            estimator,
            RmInstance::try_new(n, advertisers, costs).unwrap(),
        )
    }

    #[test]
    fn counting_oracle_matches_the_bare_estimator_bit_for_bit() {
        for h in [1, 3, 5] {
            let (estimator, instance) = estimator_and_instance(h);
            let bare = rm_with_oracle(&instance, &estimator, 0.1);
            let counting = CountingOracle::new(&estimator);
            let counted = rm_with_oracle(&instance, &counting, 0.1);
            assert_eq!(bare.allocation, counted.allocation, "h = {h}");
            assert_eq!(bare.revenue.to_bits(), counted.revenue.to_bits());
            let c = counting.counters();
            assert!(c.gains > 0 && c.postings > 0, "{c:?}");
            if h > 1 {
                assert!(c.singletons > 0, "Search reads singleton revenues");
            }
        }
    }

    #[test]
    fn counters_repeat_exactly() {
        let (estimator, instance) = estimator_and_instance(4);
        let run = || {
            let counting = CountingOracle::new(&estimator);
            rm_with_oracle(&instance, &counting, 0.1);
            let c = counting.counters();
            (c.gains, c.postings, c.singletons)
        };
        assert_eq!(run(), run());
    }
}
