//! End-to-end integration tests: dataset construction → instance assembly →
//! Workbench with RMA / baselines → independent evaluation.

use rmsa::prelude::*;

fn small_dataset(h: usize) -> (Dataset, RmInstance) {
    let dataset = Dataset::build(DatasetKind::LastfmSyn, h, 0.25, 99);
    let advertisers: Vec<Advertiser> = (0..h)
        .map(|i| Advertiser::try_new(80.0 + 20.0 * i as f64, 1.0 + 0.1 * i as f64).unwrap())
        .collect();
    let instance = dataset.build_instance(advertisers, IncentiveModel::Linear, 0.1, 5_000, 1);
    (dataset, instance)
}

fn workbench(dataset: &Dataset, strategy: RrStrategy, seed: u64) -> Workbench {
    Workbench::builder()
        .graph(dataset.graph.clone())
        .model(dataset.model.clone())
        .strategy(strategy)
        .threads(2)
        .seed(seed)
        .build()
        .expect("graph and model provided")
}

fn rma_config() -> RmaConfig {
    RmaConfig {
        // Valid for every h used below: λ(5, 0.1) ≈ 0.083 > 0.08.
        epsilon: 0.08,
        delta: 0.05,
        rho: 0.1,
        tau: 0.1,
        max_rr_per_collection: 60_000,
    }
}

fn ti_config() -> TiConfig {
    TiConfig {
        epsilon: 0.2,
        max_rr_per_ad: 20_000,
        ..TiConfig::default()
    }
}

#[test]
fn rma_produces_feasible_disjoint_allocations_end_to_end() {
    let (dataset, instance) = small_dataset(4);
    let wb = workbench(&dataset, RrStrategy::Standard, 1);
    let report = wb.run_solver(&Rma::new(rma_config()), &instance).unwrap();

    assert!(
        report.allocation.is_disjoint(),
        "partition constraint violated"
    );
    assert!(report.allocation.total_seeds() > 0, "no seeds selected");

    // Bicriteria budget guarantee: spend (revenue estimate + seed cost) per
    // advertiser stays within (1 + ϱ)·B_i up to estimation noise.
    let evaluator = wb.evaluator(&instance, 100_000);
    let eval = evaluator.report(&instance, &report.allocation);
    for ad in 0..instance.num_ads() {
        let spend = eval.per_ad_revenue[ad] + eval.per_ad_cost[ad];
        let cap = (1.0 + 0.1) * instance.budget(ad);
        assert!(
            spend <= cap * 1.15,
            "advertiser {ad} spends {spend} against relaxed budget {cap}"
        );
    }
    assert!(eval.revenue > 0.0);
}

#[test]
fn rma_beats_or_matches_the_ti_baselines_on_revenue() {
    let (dataset, instance) = small_dataset(5);
    let mut wb = workbench(&dataset, RrStrategy::Standard, 321);
    wb.register(Rma::new(rma_config()));
    wb.register(TiCarm::with_budget_scale(ti_config(), 1.1));
    wb.register(TiCsrm::with_budget_scale(ti_config(), 1.1));
    let reports = wb.run(&instance).unwrap();
    let evaluator = wb.evaluator(&instance, 150_000);

    let r_rma = evaluator.revenue(&reports[0].allocation);
    let r_carm = evaluator.revenue(&reports[1].allocation);
    let r_csrm = evaluator.revenue(&reports[2].allocation);

    // The paper's headline: RMA achieves at least comparable revenue. Allow
    // a 15% slack because these are small stochastic instances.
    assert!(
        r_rma >= 0.85 * r_carm.max(r_csrm),
        "RMA revenue {r_rma} vs CARM {r_carm}, CSRM {r_csrm}"
    );
}

#[test]
fn single_advertiser_pipeline_works() {
    let (dataset, instance) = small_dataset(1);
    let wb = workbench(&dataset, RrStrategy::Standard, 2);
    let report = wb.run_solver(&Rma::new(rma_config()), &instance).unwrap();
    assert!((report.lambda.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    assert!(!report.allocation.seed_sets[0].is_empty());
}

#[test]
fn subsim_strategy_produces_comparable_revenue_on_weighted_cascade() {
    // The SUBSIM fast path applies to the Weighted-Cascade datasets; each
    // strategy gets its own workbench (the cache fixes the strategy).
    let dataset = Dataset::build(DatasetKind::DblpSyn, 3, 0.004, 7);
    let advertisers: Vec<Advertiser> = (0..3)
        .map(|_| Advertiser::try_new(200.0, 1.0).unwrap())
        .collect();
    let instance = dataset.build_instance(advertisers, IncentiveModel::Linear, 0.2, 4_000, 2);

    let wb_std = workbench(&dataset, RrStrategy::Standard, 99);
    let wb_sub = workbench(&dataset, RrStrategy::Subsim, 99);
    let standard = wb_std
        .run_solver(&Rma::new(rma_config()), &instance)
        .unwrap();
    let subsim = wb_sub
        .run_solver(&Rma::new(rma_config()), &instance)
        .unwrap();

    let evaluator = wb_std.evaluator(&instance, 80_000);
    let r_std = evaluator.revenue(&standard.allocation);
    let r_sub = evaluator.revenue(&subsim.allocation);
    assert!(r_std > 0.0 && r_sub > 0.0);
    let rel = (r_std - r_sub).abs() / r_std.max(r_sub);
    assert!(rel < 0.25, "standard {r_std} vs subsim {r_sub}");
}

#[test]
fn evaluation_report_is_consistent_with_the_oracle_estimates() {
    let (dataset, instance) = small_dataset(2);
    let wb = workbench(&dataset, RrStrategy::Standard, 12);
    let report = wb.run_solver(&Rma::new(rma_config()), &instance).unwrap();
    let evaluator = wb.evaluator(&instance, 200_000);
    let eval = evaluator.report(&instance, &report.allocation);
    // The RMA-internal estimate (validation collection R2) and the
    // independent evaluation should be within sampling error of each other.
    let rel = (eval.revenue - report.revenue_estimate).abs() / eval.revenue.max(1.0);
    assert!(
        rel < 0.25,
        "independent {} vs internal {}",
        eval.revenue,
        report.revenue_estimate
    );
}

#[test]
fn larger_budgets_never_hurt_revenue() {
    let dataset = Dataset::build(DatasetKind::LastfmSyn, 3, 0.25, 5);
    let spreads = dataset.singleton_spreads(5_000, 8);
    let wb = workbench(&dataset, RrStrategy::Standard, 1000);
    let mut revenues = Vec::new();
    for budget in [40.0, 120.0, 360.0] {
        let ads: Vec<Advertiser> = (0..3)
            .map(|_| Advertiser::try_new(budget, 1.0).unwrap())
            .collect();
        let instance =
            dataset.build_instance_from_spreads(ads, &spreads, IncentiveModel::Linear, 0.1);
        let report = wb.run_solver(&Rma::new(rma_config()), &instance).unwrap();
        let evaluator = wb.evaluator(&instance, 100_000);
        revenues.push(evaluator.revenue(&report.allocation));
    }
    assert!(
        revenues[2] >= revenues[0] * 0.9,
        "revenue with 9x budget ({}) should not fall below the small-budget revenue ({})",
        revenues[2],
        revenues[0]
    );
}

#[test]
fn one_batch_solver_is_usable_directly_by_downstream_code() {
    // Downstream users can run any solver by hand through a SolveContext;
    // verify the public API composes.
    let (dataset, instance) = small_dataset(2);
    let wb = workbench(&dataset, RrStrategy::Standard, 77);
    let report = wb
        .run_solver(&OneBatch::new(rma_config(), 30_000), &instance)
        .unwrap();
    assert!(report.allocation.is_disjoint());
    assert!(report.revenue_estimate > 0.0);
    assert_eq!(report.iterations, 1);
    assert!(report.rr.used >= 30_000);
}
