//! Algorithm 5: `RM_with_Oracle(τ)` — dispatch on the number of advertisers.
//!
//! * `h = 1`  → `Greedy(V, 1)` (Theorem 3.1, ratio 1/3);
//! * `h ∈ {2,3}` → `Search(τ, 1)` (Theorem 3.4, ratio `1/(2(h+1)(1+τ))`);
//! * `h ≥ 4`  → `Search(τ, 2)` (Theorem 3.3, ratio `1/((h+6)(1+τ))`).

use crate::algorithms::greedy::greedy_single;
use crate::algorithms::search::{search, SearchOutcome};
use crate::approx::{b_min_for, lambda};
use crate::oracle::RevenueOracle;
use crate::problem::{Allocation, RmInstance};
use rmsa_graph::NodeId;

/// Output of `RM_with_Oracle`: the allocation plus, when `Search` was used,
/// its endpoint diagnostics (needed by `SeekUB` in the sampling setting).
#[derive(Clone, Debug)]
pub struct OracleSolution {
    /// The selected allocation `S⃗*`.
    pub allocation: Allocation,
    /// Revenue of the allocation under the oracle used for optimisation.
    pub revenue: f64,
    /// The `Search` diagnostics, absent when `h = 1`.
    pub search: Option<SearchOutcome>,
    /// The `b_min` parameter implied by `h` (meaningless for `h = 1`).
    pub b_min: usize,
    /// The approximation ratio λ of Theorem 3.5 for this `h` and `τ`.
    pub lambda: f64,
}

/// Run `RM_with_Oracle(τ)` (Algorithm 5).
pub fn rm_with_oracle<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    tau: f64,
) -> OracleSolution {
    let h = instance.num_ads();
    assert_eq!(oracle.num_ads(), h, "oracle/advertiser count mismatch");
    let lam = lambda(h, tau);
    let b_min = b_min_for(h);
    if h == 1 {
        let candidates: Vec<NodeId> = (0..instance.num_nodes as NodeId).collect();
        let out = greedy_single(instance, oracle, 0, &candidates);
        let allocation = Allocation {
            seed_sets: vec![out.best()],
        };
        let revenue = out.best_revenue();
        return OracleSolution {
            allocation,
            revenue,
            search: None,
            b_min,
            lambda: lam,
        };
    }
    let outcome = search(instance, oracle, tau, b_min);
    OracleSolution {
        allocation: outcome.best.clone(),
        revenue: outcome.best_revenue,
        search: Some(outcome),
        b_min,
        lambda: lam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ExactRevenueOracle, RevenueOracle};
    use crate::problem::{Advertiser, SeedCosts};
    use crate::sampling::RrRevenueEstimator;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;
    use rmsa_diffusion::{RrArena, RrStrategy, UniformIc, UniformRrSampler};
    use rmsa_graph::generators::celebrity_graph;
    use rmsa_graph::graph_from_edges;

    fn star_instance(h: usize, budget: f64) -> (rmsa_graph::DirectedGraph, UniformIc, RmInstance) {
        let g = graph_from_edges(10, &[(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (7, 8)]);
        let m = UniformIc::new(h, 1.0);
        let inst = RmInstance::try_new(
            10,
            (0..h)
                .map(|_| Advertiser::try_new(budget, 1.0).unwrap())
                .collect(),
            SeedCosts::Shared(vec![1.0; 10]),
        )
        .unwrap();
        (g, m, inst)
    }

    /// Seeded RR-set estimator over a celebrity graph with `h` advertisers.
    fn rr_instance(h: usize) -> (RrRevenueEstimator, RmInstance) {
        let graph = celebrity_graph(6, 8);
        let n = graph.num_nodes();
        let model = UniformIc::new(h, 0.3);
        let cpes: Vec<f64> = (0..h).map(|i| 1.0 + i as f64 * 0.25).collect();
        let sampler = UniformRrSampler::new(&cpes);
        let mut arena = RrArena::new(n, RrStrategy::Standard);
        let mut rng = Pcg64Mcg::seed_from_u64(5);
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

    /// Selections and revenue bits recorded when the CELF queue was a
    /// single binary heap. The sorted-run queue must pop in the same order,
    /// so none of them may change.
    #[test]
    fn seeded_solutions_are_pinned_bit_for_bit() {
        let pinned: [(usize, Vec<Vec<NodeId>>, u64); 3] = [
            (1, vec![vec![18, 0]], 0x40229d21ff2e48e9),
            (
                3,
                vec![vec![9, 36, 3, 48], vec![27, 0, 33], vec![18, 45]],
                0x4042468f5c28f5c2,
            ),
            (
                10,
                vec![
                    vec![46, 40, 7, 34, 22],
                    vec![3, 31, 25, 49],
                    vec![15, 12, 24, 33, 16],
                    vec![0, 42, 51],
                    vec![9, 21],
                    vec![36, 30],
                    vec![27],
                    vec![18],
                    vec![39, 48, 6],
                    vec![45],
                ],
                0x405a6826e978d4fe,
            ),
        ];
        for (h, seeds, bits) in pinned {
            let (estimator, instance) = rr_instance(h);
            let sol = rm_with_oracle(&instance, &estimator, 0.1);
            assert_eq!(sol.allocation.seed_sets, seeds, "h = {h}");
            assert_eq!(sol.revenue.to_bits(), bits, "h = {h}");
        }

        let g = graph_from_edges(
            10,
            &[(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (7, 8), (8, 9)],
        );
        let m = UniformIc::new(3, 0.5);
        let inst = RmInstance::try_new(
            10,
            vec![
                Advertiser::try_new(6.0, 1.0).unwrap(),
                Advertiser::try_new(5.0, 1.5).unwrap(),
                Advertiser::try_new(7.0, 0.8).unwrap(),
            ],
            SeedCosts::Shared((0..10).map(|u| 0.5 + (u % 3) as f64 * 0.5).collect()),
        )
        .unwrap();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let sol = rm_with_oracle(&inst, &o, 0.1);
        assert_eq!(
            sol.allocation.seed_sets,
            vec![vec![1, 9, 3], vec![0], vec![7, 6, 4]]
        );
        assert_eq!(sol.revenue.to_bits(), 0x4025800000000000);
    }

    #[test]
    fn single_advertiser_runs_plain_greedy() {
        let (g, m, inst) = star_instance(1, 12.0);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let sol = rm_with_oracle(&inst, &o, 0.1);
        assert!(sol.search.is_none());
        assert!((sol.lambda - 1.0 / 3.0).abs() < 1e-12);
        assert!(!sol.allocation.seed_sets[0].is_empty());
        assert!(sol.revenue > 0.0);
    }

    #[test]
    fn two_advertisers_use_search_with_bmin_one() {
        let (g, m, inst) = star_instance(2, 8.0);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let sol = rm_with_oracle(&inst, &o, 0.1);
        assert!(sol.search.is_some());
        assert_eq!(sol.b_min, 1);
        assert!(sol.allocation.is_disjoint());
    }

    #[test]
    fn many_advertisers_use_search_with_bmin_two() {
        let (g, m, inst) = star_instance(5, 6.0);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let sol = rm_with_oracle(&inst, &o, 0.1);
        assert_eq!(sol.b_min, 2);
        assert!((sol.lambda - 1.0 / (11.0 * 1.1)).abs() < 1e-12);
        assert!(sol.allocation.is_disjoint());
        for ad in 0..5 {
            let seeds = sol.allocation.seeds(ad);
            let spent = o.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(spent <= inst.budget(ad) + 1e-9);
        }
    }

    #[test]
    fn reported_revenue_matches_the_allocation() {
        let (g, m, inst) = star_instance(3, 7.0);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let sol = rm_with_oracle(&inst, &o, 0.15);
        let recomputed = o.allocation_revenue(&sol.allocation.seed_sets);
        assert!((sol.revenue - recomputed).abs() < 1e-9);
    }

    #[test]
    fn oracle_solution_respects_theoretical_ratio_on_a_brute_forced_instance() {
        // Tiny instance where the optimum can be found by brute force over
        // all (node → advertiser | unassigned) assignments.
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let m = UniformIc::new(2, 1.0);
        let inst = RmInstance::try_new(
            4,
            vec![
                Advertiser::try_new(5.0, 1.0).unwrap(),
                Advertiser::try_new(5.0, 1.0).unwrap(),
            ],
            SeedCosts::Shared(vec![1.0; 4]),
        )
        .unwrap();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let sol = rm_with_oracle(&inst, &o, 0.1);

        // Brute force: each node gets advertiser 0, advertiser 1, or none.
        let mut opt = 0.0f64;
        for mask in 0..3usize.pow(4) {
            let mut sets = vec![Vec::new(), Vec::new()];
            let mut code = mask;
            for node in 0..4u32 {
                match code % 3 {
                    0 => {}
                    1 => sets[0].push(node),
                    2 => sets[1].push(node),
                    _ => unreachable!(),
                }
                code /= 3;
            }
            let feasible = (0..2).all(|ad| {
                o.revenue(ad, &sets[ad]) + inst.set_cost(ad, &sets[ad]) <= inst.budget(ad)
            });
            if feasible {
                opt = opt.max(o.allocation_revenue(&sets));
            }
        }
        assert!(
            sol.revenue >= sol.lambda * opt - 1e-9,
            "revenue {} below λ·OPT = {}",
            sol.revenue,
            sol.lambda * opt
        );
    }
}
