//! Solver-trait coverage for per-advertiser seed costs
//! (`SeedCosts::PerAd`): budget feasibility and allocation disjointness
//! must hold through the unified `Solver` API on both the oracle and the
//! sampling paths.

use rmsa::prelude::*;

/// A small two-community world with genuinely per-ad costs: advertiser 0
/// finds the first community cheap and the second expensive; advertiser 1
/// the other way around.
fn per_ad_world(h: usize) -> (DirectedGraph, UniformIc, RmInstance) {
    let graph = rmsa_graph::generators::celebrity_graph(4, 8); // 36 nodes
    let n = graph.num_nodes();
    let model = UniformIc::new(h, 0.4);
    let rows: Vec<Vec<f64>> = (0..h)
        .map(|ad| {
            (0..n)
                .map(|u| if (u + ad) % 2 == 0 { 0.8 } else { 2.5 })
                .collect()
        })
        .collect();
    let instance = RmInstance::try_new(
        n,
        (0..h)
            .map(|i| Advertiser::try_new(14.0 + i as f64, 1.0 + 0.25 * i as f64).unwrap())
            .collect(),
        SeedCosts::PerAd(rows),
    )
    .expect("dimensions are consistent");
    (graph, model, instance)
}

fn workbench(graph: &DirectedGraph, model: &UniformIc) -> Workbench {
    Workbench::builder()
        .graph(graph.clone())
        .model(model.clone())
        .threads(1)
        .seed(20_240_101)
        .build()
        .unwrap()
}

fn check_feasibility(report: &SolveReport, instance: &RmInstance, budget_slack: f64) {
    assert!(
        report.allocation.is_disjoint(),
        "{}: allocation must be a partition",
        report.solver
    );
    assert_eq!(report.allocation.num_ads(), instance.num_ads());
    for ad in 0..instance.num_ads() {
        let seeds = report.allocation.seeds(ad);
        let seed_cost = instance.set_cost(ad, seeds);
        assert!(
            seed_cost <= budget_slack * instance.budget(ad) + 1e-9,
            "{}: advertiser {ad} pays {seed_cost} in per-ad seed costs against budget {}",
            report.solver,
            instance.budget(ad)
        );
    }
}

#[test]
fn sampling_solvers_respect_per_ad_costs() {
    let (graph, model, instance) = per_ad_world(3);
    let wb = workbench(&graph, &model);
    let cfg = RmaConfig {
        epsilon: 0.1,
        rho: 0.2,
        max_rr_per_collection: 30_000,
        ..RmaConfig::default()
    };
    let rma = wb.run_solver(&Rma::new(cfg.clone()), &instance).unwrap();
    // Bicriteria guarantee: seed costs alone stay within (1 + ϱ)·B_i.
    check_feasibility(&rma, &instance, 1.0 + cfg.rho);
    assert!(rma.allocation.total_seeds() > 0);

    let one_batch = wb
        .run_solver(&OneBatch::new(cfg.clone(), 10_000), &instance)
        .unwrap();
    check_feasibility(&one_batch, &instance, 1.0 + cfg.rho);

    let sampled_greedy = wb
        .run_solver(
            &CsGreedy::new(OracleMode::Sampled {
                num_rr_sets: 10_000,
            }),
            &instance,
        )
        .unwrap();
    // The plain greedy baselines enforce the exact budget, no relaxation.
    check_feasibility(&sampled_greedy, &instance, 1.0);
}

#[test]
fn oracle_solvers_respect_per_ad_costs() {
    // Tiny graph so the exact oracle stays cheap.
    let graph = rmsa_graph::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let model = UniformIc::new(2, 0.7);
    let instance = RmInstance::try_new(
        6,
        vec![
            Advertiser::try_new(4.0, 1.0).unwrap(),
            Advertiser::try_new(5.0, 1.5).unwrap(),
        ],
        SeedCosts::PerAd(vec![
            vec![0.5, 2.0, 0.5, 2.0, 0.5, 2.0],
            vec![2.0, 0.5, 2.0, 0.5, 2.0, 0.5],
        ]),
    )
    .unwrap();
    let wb = workbench(&graph, &model);

    let oracle = ExactRevenueOracle::new(&graph, &model, &instance);
    for solver in [
        Box::new(OracleGreedy::exact(0.1)) as Box<dyn Solver>,
        Box::new(OracleGreedy::monte_carlo(0.1, 2_000, 9)),
        Box::new(CaGreedy::new(OracleMode::Exact)),
        Box::new(CsGreedy::new(OracleMode::Exact)),
    ] {
        let report = wb.run_solver(solver.as_ref(), &instance).unwrap();
        check_feasibility(&report, &instance, 1.0);
        // Full budget constraint (revenue + per-ad seed cost ≤ B_i) under
        // the exact oracle.
        for ad in 0..2 {
            let seeds = report.allocation.seeds(ad);
            let spend = oracle.revenue(ad, seeds) + instance.set_cost(ad, seeds);
            assert!(
                spend <= instance.budget(ad) + 0.05 * instance.budget(ad),
                "{}: advertiser {ad} spend {spend} vs budget {}",
                report.solver,
                instance.budget(ad)
            );
        }
    }
}

#[test]
fn per_ad_costs_steer_different_ads_to_different_nodes() {
    // With mirrored per-ad costs, the cost-sensitive solver should give
    // each advertiser mostly its cheap community.
    let (graph, model, instance) = per_ad_world(2);
    let wb = workbench(&graph, &model);
    let report = wb
        .run_solver(
            &CsGreedy::new(OracleMode::Sampled {
                num_rr_sets: 20_000,
            }),
            &instance,
        )
        .unwrap();
    let cheap_fraction = |ad: usize| {
        let seeds = report.allocation.seeds(ad);
        if seeds.is_empty() {
            return 1.0;
        }
        let cheap = seeds
            .iter()
            .filter(|&&u| instance.cost(ad, u) < 1.0)
            .count();
        cheap as f64 / seeds.len() as f64
    };
    assert!(
        cheap_fraction(0) >= 0.5 && cheap_fraction(1) >= 0.5,
        "cost-sensitive selection should prefer each ad's cheap nodes"
    );
}
