//! Randomised property tests over the core data structures and algorithm
//! invariants. Each property is checked over a deterministic family of
//! randomly sampled cases (seeded PCG streams), mirroring a property-testing
//! harness without the external dependency.

use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;
use rmsa::prelude::*;
use rmsa_core::{greedy_single, rm_with_oracle, threshold_greedy, ExactRevenueOracle};
use rmsa_diffusion::{RrArena, UniformRrSampler};
use rmsa_graph::{graph_from_edges, traversal};

/// Number of sampled cases per property.
const CASES: u64 = 48;

/// A small random edge list over `4..=8` nodes with at most 10 edges (so
/// the exact oracle stays cheap).
fn small_graph(rng: &mut Pcg64Mcg) -> (usize, Vec<(u32, u32)>) {
    let n = rng.gen_range(4usize..=8);
    let num_edges = rng.gen_range(0usize..=10);
    let edges = (0..num_edges)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    (n, edges)
}

fn shared_unit_instance(n: usize, advertisers: Vec<Advertiser>) -> RmInstance {
    RmInstance::try_new(n, advertisers, SeedCosts::Shared(vec![1.0; n])).expect("valid instance")
}

#[test]
fn csr_graph_construction_preserves_edge_multiset() {
    for case in 0..CASES {
        let mut rng = Pcg64Mcg::seed_from_u64(0x1000 + case);
        let (n, edges) = small_graph(&mut rng);
        let g = graph_from_edges(n, &edges);
        assert!(g.validate().is_ok());
        let expected: usize = edges.iter().filter(|(u, v)| u != v).count();
        assert_eq!(g.num_edges(), expected);
        // Degree sums match the edge count in both directions.
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        assert_eq!(out_sum, expected);
        assert_eq!(in_sum, expected);
    }
}

#[test]
fn rr_sets_only_contain_reverse_reachable_nodes() {
    for case in 0..CASES {
        let mut rng = Pcg64Mcg::seed_from_u64(0x2000 + case);
        let (n, edges) = small_graph(&mut rng);
        let g = graph_from_edges(n, &edges);
        let m = UniformIc::new(1, 0.7);
        let mut arena = RrArena::new(n, RrStrategy::Standard);
        arena.generate_for(&g, &m, 0, 1, 1, &mut rng);
        let rr = arena.set(0);
        // Every member must reverse-reach the root in the *deterministic*
        // graph (a superset of any sampled world).
        let reachable = traversal::reverse_reachable(&g, rr.root());
        for u in rr.nodes {
            assert!(
                reachable.contains(u),
                "node {} not reverse-reachable from {}",
                u,
                rr.root()
            );
        }
        assert!(rr.nodes.contains(&rr.root()));
        // No duplicates.
        let mut sorted = rr.nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rr.nodes.len());
    }
}

#[test]
fn exact_spread_is_monotone_and_submodular() {
    for case in 0..CASES {
        let mut rng = Pcg64Mcg::seed_from_u64(0x3000 + case);
        let (n, edges) = small_graph(&mut rng);
        let p = rng.gen_range(0.1f64..0.9);
        let g = graph_from_edges(n, &edges);
        let m = UniformIc::new(1, p);
        let inst = shared_unit_instance(n, vec![Advertiser::try_new(1000.0, 1.0).unwrap()]);
        let oracle = ExactRevenueOracle::new(&g, &m, &inst);
        // Monotone: π({0}) ≤ π({0,1}) ≤ π({0,1,2}).
        let f0 = oracle.revenue(0, &[0]);
        let f01 = oracle.revenue(0, &[0, 1]);
        let f012 = oracle.revenue(0, &[0, 1, 2]);
        assert!(f0 <= f01 + 1e-9);
        assert!(f01 <= f012 + 1e-9);
        // Submodular: gain of node 2 w.r.t. {0} ≥ gain w.r.t. {0,1}.
        let g_small = oracle.revenue(0, &[0, 2]) - f0;
        let g_large = f012 - f01;
        assert!(g_large <= g_small + 1e-9);
    }
}

#[test]
fn greedy_solutions_are_always_budget_feasible() {
    for case in 0..CASES {
        let mut rng = Pcg64Mcg::seed_from_u64(0x4000 + case);
        let (n, edges) = small_graph(&mut rng);
        let budget = rng.gen_range(1.5f64..8.0);
        let p = rng.gen_range(0.1f64..0.9);
        let cost = rng.gen_range(0.5f64..2.0);
        let g = graph_from_edges(n, &edges);
        let m = UniformIc::new(1, p);
        let inst = RmInstance::try_new(
            n,
            vec![Advertiser::try_new(budget, 1.0).unwrap()],
            SeedCosts::Shared(vec![cost; n]),
        )
        .unwrap();
        let oracle = ExactRevenueOracle::new(&g, &m, &inst);
        let out = greedy_single(&inst, &oracle, 0, &(0..n as u32).collect::<Vec<_>>());
        // The grown set S_i (not the stopple) must satisfy the constraint.
        let spend = oracle.revenue(0, &out.selected) + inst.set_cost(0, &out.selected);
        assert!(spend <= budget + 1e-9);
        // The returned best solution never contains duplicates.
        let best = out.best();
        let mut sorted = best.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), best.len());
    }
}

#[test]
fn threshold_greedy_respects_partition_and_budgets() {
    for case in 0..CASES {
        let mut rng = Pcg64Mcg::seed_from_u64(0x5000 + case);
        let (n, edges) = small_graph(&mut rng);
        let budget = rng.gen_range(2.0f64..8.0);
        let gamma = rng.gen_range(0.0f64..4.0);
        let p = rng.gen_range(0.2f64..0.9);
        let g = graph_from_edges(n, &edges);
        let m = UniformIc::new(2, p);
        let inst = shared_unit_instance(
            n,
            vec![
                Advertiser::try_new(budget, 1.0).unwrap(),
                Advertiser::try_new(budget * 1.5, 1.2).unwrap(),
            ],
        );
        let oracle = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &oracle, gamma);
        assert!(out.allocation.is_disjoint());
        for ad in 0..2 {
            let seeds = out.allocation.seeds(ad);
            let spend = oracle.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(
                spend <= inst.budget(ad) + 1e-9,
                "ad {} spends {} of {}",
                ad,
                spend,
                inst.budget(ad)
            );
        }
        assert!(out.b <= 2);
    }
}

#[test]
fn rm_with_oracle_never_violates_constraints() {
    for case in 0..CASES {
        let mut rng = Pcg64Mcg::seed_from_u64(0x6000 + case);
        let (n, edges) = small_graph(&mut rng);
        let budget = rng.gen_range(2.0f64..6.0);
        let p = rng.gen_range(0.2f64..0.8);
        let h = rng.gen_range(1usize..=3);
        let g = graph_from_edges(n, &edges);
        let m = UniformIc::new(h, p);
        let inst = shared_unit_instance(
            n,
            (0..h)
                .map(|i| Advertiser::try_new(budget + i as f64, 1.0).unwrap())
                .collect(),
        );
        let oracle = ExactRevenueOracle::new(&g, &m, &inst);
        let sol = rm_with_oracle(&inst, &oracle, 0.1);
        assert!(sol.allocation.is_disjoint());
        for ad in 0..h {
            let seeds = sol.allocation.seeds(ad);
            let spend = oracle.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(spend <= inst.budget(ad) + 1e-9);
        }
        assert!(sol.revenue >= -1e-9);
    }
}

#[test]
fn uniform_sampler_unbiasedness_lemma_4_1() {
    for case in 0..12 {
        let mut rng = Pcg64Mcg::seed_from_u64(0x7000 + case);
        let p = rng.gen_range(0.1f64..0.9);
        let cpe0 = rng.gen_range(0.5f64..3.0);
        let cpe1 = rng.gen_range(0.5f64..3.0);
        // Fixed 4-node chain; verify nΓ·E[Λ] ≈ π for a fixed allocation.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = UniformIc::new(2, p);
        let inst = RmInstance::try_new(
            4,
            vec![
                Advertiser::try_new(100.0, cpe0).unwrap(),
                Advertiser::try_new(100.0, cpe1).unwrap(),
            ],
            SeedCosts::Shared(vec![1.0; 4]),
        )
        .unwrap();
        let exact = ExactRevenueOracle::new(&g, &m, &inst);
        let alloc = vec![vec![0u32], vec![1u32]];
        let truth = exact.allocation_revenue(&alloc);

        let sampler = UniformRrSampler::new(&inst.cpe_values());
        let mut arena = RrArena::new(4, RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 60_000, &mut rng);
        let est = rmsa_core::RrRevenueEstimator::new(&arena, 2, inst.gamma());
        let estimate = est.allocation_estimate(&alloc);
        assert!(
            (estimate - truth).abs() < 0.15 * truth.max(1.0),
            "estimate {} vs truth {}",
            estimate,
            truth
        );
    }
}

#[test]
fn incentive_costs_are_monotone_in_spread() {
    for case in 0..CASES {
        let mut rng = Pcg64Mcg::seed_from_u64(0x8000 + case);
        let alpha = rng.gen_range(0.05f64..1.0);
        let s1 = rng.gen_range(1.0f64..50.0);
        let delta = rng.gen_range(0.0f64..10.0);
        for model in IncentiveModel::all() {
            let lo = model.cost(alpha, s1);
            let hi = model.cost(alpha, s1 + delta);
            assert!(hi >= lo - 1e-12);
        }
    }
}
