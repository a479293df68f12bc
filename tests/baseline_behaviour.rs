//! Behavioural contrasts between RMA and the baselines that the paper's
//! figures hinge on: the cost-agnostic baseline's collapse under super-linear
//! incentives, the cost-sensitive baseline's budget under-utilisation, and
//! RMA's higher rate of return.

use rmsa::prelude::*;

fn dataset_and_spreads() -> (Dataset, Vec<Vec<f64>>) {
    let dataset = Dataset::build(DatasetKind::LastfmSyn, 3, 0.3, 2024);
    let spreads = dataset.singleton_spreads(8_000, 55);
    (dataset, spreads)
}

fn workbench(dataset: &Dataset, seed: u64) -> Workbench {
    Workbench::builder()
        .graph(dataset.graph.clone())
        .model(dataset.model.clone())
        .threads(1)
        .seed(seed)
        .build()
        .expect("graph and model provided")
}

fn ti_config() -> TiConfig {
    TiConfig {
        epsilon: 0.3,
        pilot_sets: 1_024,
        max_rr_per_ad: 10_000,
        ..TiConfig::default()
    }
}

fn rma_config() -> RmaConfig {
    RmaConfig {
        epsilon: 0.1, // < λ(3, 0.1) ≈ 0.114
        rho: 0.1,
        max_rr_per_collection: 50_000,
        ..RmaConfig::default()
    }
}

#[test]
fn cost_agnostic_baseline_collapses_under_superlinear_costs() {
    let (dataset, spreads) = dataset_and_spreads();
    let ads: Vec<Advertiser> = (0..3)
        .map(|_| Advertiser::try_new(150.0, 1.0).unwrap())
        .collect();
    let instance =
        dataset.build_instance_from_spreads(ads, &spreads, IncentiveModel::SuperLinear, 0.3);
    let wb = workbench(&dataset, 1);
    let carm = wb.run_solver(&TiCarm::new(ti_config()), &instance).unwrap();
    let csrm = wb.run_solver(&TiCsrm::new(ti_config()), &instance).unwrap();
    // Fig. 1 bottom row / Fig. 3: the cost-agnostic rule saturates after the
    // first violating hub, so it ends up with far fewer seeds than the
    // cost-sensitive rule.
    assert!(
        carm.allocation.total_seeds() <= csrm.allocation.total_seeds(),
        "CARM seeds {} vs CSRM seeds {}",
        carm.allocation.total_seeds(),
        csrm.allocation.total_seeds()
    );
}

#[test]
fn ti_baselines_underutilize_budget_relative_to_rma() {
    let (dataset, spreads) = dataset_and_spreads();
    let ads: Vec<Advertiser> = (0..3)
        .map(|_| Advertiser::try_new(120.0, 1.0).unwrap())
        .collect();
    let instance = dataset.build_instance_from_spreads(ads, &spreads, IncentiveModel::Linear, 0.1);
    let wb = workbench(&dataset, 9);

    let rma = wb.run_solver(&Rma::new(rma_config()), &instance).unwrap();
    let csrm = wb
        .run_solver(&TiCsrm::with_budget_scale(ti_config(), 1.1), &instance)
        .unwrap();
    let evaluator = wb.evaluator(&instance, 120_000);
    let rma_rep = evaluator.report(&instance, &rma.allocation);
    let csrm_rep = evaluator.report(&instance, &csrm.allocation);
    // The conservative upper-bound feasibility check of TI-CSRM leaves
    // budget on the table; RMA's bicriteria design spends closer to (or
    // slightly past) the nominal budget and earns at least as much revenue.
    assert!(
        rma_rep.revenue >= 0.9 * csrm_rep.revenue,
        "RMA revenue {} vs TI-CSRM {}",
        rma_rep.revenue,
        csrm_rep.revenue
    );
}

#[test]
fn oracle_baselines_and_our_oracle_algorithm_agree_for_a_single_advertiser() {
    // For h = 1 with ample budget, Greedy, CA-Greedy and CS-Greedy must all
    // find allocations of similar quality (the instance is easy).
    let g = rmsa_graph::generators::celebrity_graph(4, 5);
    let m = UniformIc::new(1, 1.0);
    let n = g.num_nodes();
    let inst = RmInstance::try_new(
        n,
        vec![Advertiser::try_new(60.0, 1.0).unwrap()],
        SeedCosts::Shared(vec![1.0; n]),
    )
    .unwrap();
    let wb = Workbench::builder()
        .graph(g)
        .model(m)
        .threads(1)
        .seed(3)
        .build()
        .unwrap();
    // Deterministic propagation (p = 1): one cascade per query is exact.
    let mc = OracleMode::MonteCarlo {
        simulations: 1,
        seed: 0,
    };
    let ours = wb
        .run_solver(
            &OracleGreedy {
                mode: mc.clone(),
                tau: 0.1,
            },
            &inst,
        )
        .unwrap();
    let ca = wb.run_solver(&CaGreedy::new(mc.clone()), &inst).unwrap();
    let cs = wb.run_solver(&CsGreedy::new(mc), &inst).unwrap();
    assert!(ours.revenue_estimate >= 0.99 * ca.revenue_estimate.max(cs.revenue_estimate));
}

#[test]
fn rma_rate_of_return_is_at_least_the_baselines() {
    let (dataset, spreads) = dataset_and_spreads();
    let ads: Vec<Advertiser> = (0..3)
        .map(|_| Advertiser::try_new(100.0, 1.0).unwrap())
        .collect();
    let instance = dataset.build_instance_from_spreads(ads, &spreads, IncentiveModel::Linear, 0.2);
    let wb = workbench(&dataset, 31);
    let rma = wb.run_solver(&Rma::new(rma_config()), &instance).unwrap();
    let csrm = wb
        .run_solver(&TiCsrm::with_budget_scale(ti_config(), 1.1), &instance)
        .unwrap();
    let evaluator = wb.evaluator(&instance, 120_000);
    let rma_rep = evaluator.report(&instance, &rma.allocation);
    let csrm_rep = evaluator.report(&instance, &csrm.allocation);
    if csrm_rep.total_seeds > 0 && rma_rep.total_seeds > 0 {
        assert!(
            rma_rep.rate_of_return_pct >= 0.85 * csrm_rep.rate_of_return_pct,
            "RMA RoR {} vs TI-CSRM RoR {}",
            rma_rep.rate_of_return_pct,
            csrm_rep.rate_of_return_pct
        );
    }
}
