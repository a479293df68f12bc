//! Algorithm-independent evaluation of allocations.
//!
//! Following Section 5.1 of the paper, the revenue reported in every
//! experiment is measured on RR-sets generated *independently* of those the
//! algorithms used for optimisation (the paper uses 10⁷ sets; the count here
//! is configurable). This module also reports the derived quantities shown
//! in Fig. 6: budget usage and rate of return.

use crate::problem::{Allocation, RmInstance};
use crate::sampling::estimator::RrRevenueEstimator;
use rmsa_diffusion::{PropagationModel, RrArena, RrStrategy, UniformRrSampler};
use rmsa_graph::DirectedGraph;

/// Summary of an allocation's quality under an independent evaluation.
#[derive(Clone, Debug)]
pub struct EvaluationReport {
    /// Estimated total revenue `π(S⃗)`.
    pub revenue: f64,
    /// Total seed-incentive cost `Σ_i c_i(S_i)`.
    pub seeding_cost: f64,
    /// Total number of seeds.
    pub total_seeds: usize,
    /// Per-advertiser revenue.
    pub per_ad_revenue: Vec<f64>,
    /// Per-advertiser seeding cost.
    pub per_ad_cost: Vec<f64>,
    /// Budget usage `(π(S⃗) + Σ_i c_i(S_i)) / Σ_i B_i` as a percentage.
    pub budget_usage_pct: f64,
    /// Rate of return `π(S⃗) / (π(S⃗) + Σ_i c_i(S_i))` as a percentage.
    pub rate_of_return_pct: f64,
}

/// An independent evaluator: a dedicated RR-set collection (uniform
/// advertiser-proportional sampling) that is never shown to the algorithms.
pub struct IndependentEvaluator {
    estimator: RrRevenueEstimator,
}

impl IndependentEvaluator {
    /// Build an evaluator with `num_rr_sets` independent RR-sets.
    pub fn build<M: PropagationModel>(
        graph: &DirectedGraph,
        model: &M,
        instance: &RmInstance,
        num_rr_sets: usize,
        num_threads: usize,
        seed: u64,
    ) -> Self {
        let sampler = UniformRrSampler::new(&instance.cpe_values());
        let mut arena = RrArena::new(instance.num_nodes, RrStrategy::Standard);
        arena.generate_parallel(graph, model, &sampler, num_rr_sets, num_threads, seed);
        IndependentEvaluator {
            estimator: RrRevenueEstimator::new(&arena, instance.num_ads(), instance.gamma()),
        }
    }

    /// Wrap an existing estimator (e.g. built over a shared cache's
    /// evaluation stream, which no solver ever reads for optimisation).
    pub fn from_estimator(estimator: RrRevenueEstimator) -> Self {
        IndependentEvaluator { estimator }
    }

    /// Estimated total revenue of an allocation.
    pub fn revenue(&self, allocation: &Allocation) -> f64 {
        self.estimator.allocation_estimate(&allocation.seed_sets)
    }

    /// Full evaluation report for an allocation under `instance`.
    pub fn report(&self, instance: &RmInstance, allocation: &Allocation) -> EvaluationReport {
        let per_ad_revenue = self.estimator.per_ad_estimates(&allocation.seed_sets);
        let per_ad_cost: Vec<f64> = allocation
            .seed_sets
            .iter()
            .enumerate()
            .map(|(ad, s)| instance.set_cost(ad, s))
            .collect();
        let revenue: f64 = per_ad_revenue.iter().sum();
        let seeding_cost: f64 = per_ad_cost.iter().sum();
        let total_budget: f64 = (0..instance.num_ads()).map(|i| instance.budget(i)).sum();
        let spend = revenue + seeding_cost;
        EvaluationReport {
            revenue,
            seeding_cost,
            total_seeds: allocation.total_seeds(),
            per_ad_revenue,
            per_ad_cost,
            budget_usage_pct: if total_budget > 0.0 {
                100.0 * spend / total_budget
            } else {
                0.0
            },
            rate_of_return_pct: if spend > 0.0 {
                100.0 * revenue / spend
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Advertiser, SeedCosts};
    use rmsa_diffusion::UniformIc;
    use rmsa_graph::graph_from_edges;

    fn setup() -> (DirectedGraph, UniformIc, RmInstance) {
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (3, 4), (3, 5)]);
        let m = UniformIc::new(2, 1.0);
        let inst = RmInstance::try_new(
            6,
            vec![
                Advertiser::try_new(10.0, 1.0).unwrap(),
                Advertiser::try_new(10.0, 2.0).unwrap(),
            ],
            SeedCosts::Shared(vec![1.0; 6]),
        )
        .unwrap();
        (g, m, inst)
    }

    #[test]
    fn report_contains_consistent_aggregates() {
        let (g, m, inst) = setup();
        let ev = IndependentEvaluator::build(&g, &m, &inst, 20_000, 1, 3);
        let mut alloc = Allocation::empty(2);
        alloc.seed_sets[0] = vec![0];
        alloc.seed_sets[1] = vec![3];
        let rep = ev.report(&inst, &alloc);
        assert_eq!(rep.total_seeds, 2);
        assert!((rep.revenue - rep.per_ad_revenue.iter().sum::<f64>()).abs() < 1e-9);
        assert!((rep.seeding_cost - 2.0).abs() < 1e-9);
        // Deterministic spreads: σ_0({0}) = 3, σ_1({3}) = 3 so revenue ≈ 3 + 6.
        assert!((rep.revenue - 9.0).abs() < 0.5, "revenue {}", rep.revenue);
        let spend = rep.revenue + rep.seeding_cost;
        assert!((rep.budget_usage_pct - 100.0 * spend / 20.0).abs() < 1e-9);
        assert!((rep.rate_of_return_pct - 100.0 * rep.revenue / spend).abs() < 1e-9);
    }

    /// The one-bitset report matches per-advertiser revenue queries bit
    /// for bit, seeds shared across advertisers included.
    #[test]
    fn report_revenues_match_per_ad_queries_bit_for_bit() {
        use crate::oracle::RevenueOracle;
        let (g, m, inst) = setup();
        let ev = IndependentEvaluator::build(&g, &m, &inst, 20_000, 2, 5);
        for seed_sets in [
            vec![vec![0, 4], vec![3, 1]],
            vec![vec![0, 3], vec![0, 3, 5]],
            vec![vec![], vec![2]],
        ] {
            let alloc = Allocation { seed_sets };
            let rep = ev.report(&inst, &alloc);
            let expected: Vec<u64> = (alloc.seed_sets.iter().enumerate())
                .map(|(ad, s)| ev.estimator.revenue(ad, s).to_bits())
                .collect();
            let got: Vec<u64> = rep.per_ad_revenue.iter().map(|r| r.to_bits()).collect();
            assert_eq!(got, expected, "{:?}", alloc.seed_sets);
            let sum: f64 = rep.per_ad_revenue.iter().sum();
            assert_eq!(rep.revenue.to_bits(), sum.to_bits());
        }
    }

    #[test]
    fn empty_allocation_reports_zero() {
        let (g, m, inst) = setup();
        let ev = IndependentEvaluator::build(&g, &m, &inst, 1_000, 1, 3);
        let rep = ev.report(&inst, &Allocation::empty(2));
        assert_eq!(rep.revenue, 0.0);
        assert_eq!(rep.rate_of_return_pct, 0.0);
        assert_eq!(rep.budget_usage_pct, 0.0);
    }

    #[test]
    fn evaluator_is_independent_of_the_seed_used_by_algorithms() {
        let (g, m, inst) = setup();
        let a = IndependentEvaluator::build(&g, &m, &inst, 30_000, 1, 1);
        let b = IndependentEvaluator::build(&g, &m, &inst, 30_000, 1, 2);
        let mut alloc = Allocation::empty(2);
        alloc.seed_sets[0] = vec![0];
        let ra = a.revenue(&alloc);
        let rb = b.revenue(&alloc);
        assert!((ra - rb).abs() / ra.max(1.0) < 0.1);
    }
}
