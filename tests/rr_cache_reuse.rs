//! The RR-cache contract behind the `Workbench`: collections extend
//! monotonically, and a parameter sweep through one workbench generates
//! strictly fewer RR-sets than the same runs performed independently.

use rmsa::prelude::*;

fn dataset() -> Dataset {
    Dataset::build(DatasetKind::LastfmSyn, 3, 0.2, 77)
}

fn rma_config() -> RmaConfig {
    RmaConfig {
        epsilon: 0.1, // < λ(3, 0.1) ≈ 0.114
        rho: 0.15,
        max_rr_per_collection: 30_000,
        ..RmaConfig::default()
    }
}

fn instance_for_alpha(dataset: &Dataset, spreads: &[Vec<f64>], alpha: f64) -> RmInstance {
    let ads: Vec<Advertiser> = (0..3)
        .map(|_| Advertiser::try_new(90.0, 1.0).unwrap())
        .collect();
    dataset.build_instance_from_spreads(ads, spreads, IncentiveModel::Linear, alpha)
}

fn workbench(dataset: &Dataset) -> Workbench {
    Workbench::builder()
        .graph(dataset.graph.clone())
        .model(dataset.model.clone())
        .threads(1)
        .seed(4711)
        .build()
        .unwrap()
}

#[test]
fn cache_extends_monotonically_across_a_sweep() {
    let dataset = dataset();
    let spreads = dataset.singleton_spreads(2_000, 5);
    let mut wb = workbench(&dataset);
    wb.register(Rma::new(rma_config()));

    let points: Vec<(f64, RmInstance)> = [0.1, 0.3]
        .iter()
        .map(|&a| (a, instance_for_alpha(&dataset, &spreads, a)))
        .collect();
    let mut sizes = Vec::new();
    for (key, instance) in points {
        let reports = wb.run(&instance).unwrap();
        assert!(reports[0].allocation.is_disjoint(), "α = {key}");
        sizes.push(wb.cache().len(RrStream::Optimize));
    }
    // The optimisation collection never shrinks and is never rebuilt.
    assert!(sizes[1] >= sizes[0], "collection shrank: {sizes:?}");
    let stats = wb.cache_stats();
    assert_eq!(stats.invalidations, 0, "CPEs unchanged → no invalidation");
    assert_eq!(
        stats.generated,
        wb.cache().len(RrStream::Optimize)
            + wb.cache().len(RrStream::Validate)
            + wb.cache().len(RrStream::Evaluate),
        "every generated RR-set is still cached (extension, not regeneration)"
    );
}

#[test]
fn two_point_sweep_generates_fewer_rr_sets_than_independent_runs() {
    let dataset = dataset();
    let spreads = dataset.singleton_spreads(2_000, 5);
    let alphas = [0.1, 0.3];

    // Independent runs: a fresh workbench (fresh cache) per point.
    let mut independent_total = 0usize;
    for &alpha in &alphas {
        let wb = workbench(&dataset);
        let instance = instance_for_alpha(&dataset, &spreads, alpha);
        wb.run_solver(&Rma::new(rma_config()), &instance).unwrap();
        independent_total += wb.cache_stats().generated;
    }

    // Shared workbench: one cache across both points.
    let mut wb = workbench(&dataset);
    wb.register(Rma::new(rma_config()));
    let points: Vec<(f64, RmInstance)> = alphas
        .iter()
        .map(|&a| (a, instance_for_alpha(&dataset, &spreads, a)))
        .collect();
    wb.sweep(points).unwrap();
    let shared_total = wb.cache_stats().generated;

    assert!(
        shared_total < independent_total,
        "shared cache must generate strictly fewer RR-sets: {shared_total} vs {independent_total}"
    );
    assert!(
        wb.cache_stats().served_from_cache > 0,
        "the second sweep point must be served (at least partly) from cache"
    );
}

#[test]
fn changing_cpes_invalidates_but_changing_budgets_does_not() {
    let dataset = dataset();
    let spreads = dataset.singleton_spreads(2_000, 5);
    let wb = workbench(&dataset);
    let base = instance_for_alpha(&dataset, &spreads, 0.1);
    wb.run_solver(&Rma::new(rma_config()), &base).unwrap();
    assert_eq!(wb.cache_stats().invalidations, 0);

    // Budgets change → same advertiser distribution → cache kept.
    let richer = base.with_scaled_budgets(1.5);
    wb.run_solver(&Rma::new(rma_config()), &richer).unwrap();
    assert_eq!(wb.cache_stats().invalidations, 0);

    // CPEs change → RR-set distribution changes → cache must invalidate.
    let ads: Vec<Advertiser> = (0..3)
        .map(|i| Advertiser::try_new(90.0, 1.0 + i as f64).unwrap())
        .collect();
    let different = dataset.build_instance_from_spreads(ads, &spreads, IncentiveModel::Linear, 0.1);
    wb.run_solver(&Rma::new(rma_config()), &different).unwrap();
    assert_eq!(wb.cache_stats().invalidations, 1);
}
