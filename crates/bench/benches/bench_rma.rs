//! End-to-end benchmark: RMA versus the TI baselines on a miniature
//! lastfm-syn instance (the per-algorithm cost behind Table 3), plus the
//! same solve on a warm workbench cache (the cost a sweep actually pays).
//! The `_large_k` point runs TI-CSRM on a full-size lastfm-syn graph with
//! budgets that buy every node, so each pilot greedy runs `k_i = n` steps.
//! The `ti_carm_` pair times TI-CARM on a new workbench per solve (`_cold`:
//! a fresh sample arena every time) and on one workbench whose spare arena
//! an earlier solve left (`_warm_workspace`); both generate every set.
//!
//! Set `RMSA_BENCH_QUICK=1` to shrink the workload for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rmsa::prelude::*;
use rmsa_datasets::{Dataset, DatasetKind};

fn workbench(dataset: &Dataset) -> Workbench {
    Workbench::builder()
        .graph(dataset.graph.clone())
        .model(dataset.model.clone())
        .threads(1)
        .seed(11)
        .build()
        .unwrap()
}

fn bench_rma(c: &mut Criterion) {
    let quick = std::env::var("RMSA_BENCH_QUICK").is_ok();
    let (scale, large_scale, max_rr) = if quick {
        (0.1, 0.25, 5_000)
    } else {
        (0.25, 1.0, 15_000)
    };
    let h = 3;
    let advertisers = |budget: f64| -> Vec<Advertiser> {
        (0..h)
            .map(|_| Advertiser::try_new(budget, 1.0).unwrap())
            .collect()
    };
    let dataset = Dataset::build(DatasetKind::LastfmSyn, h, scale, 11);
    let instance = dataset.build_instance(advertisers(80.0), IncentiveModel::Linear, 0.1, 5_000, 3);
    let large = Dataset::build(DatasetKind::LastfmSyn, h, large_scale, 11);
    let large_k = large.build_instance(advertisers(1e6), IncentiveModel::Linear, 0.1, 5_000, 3);
    assert_eq!(
        large_k.max_seeds_within(0, large_k.budget(0)),
        large.graph.num_nodes()
    );

    let rma_cfg = RmaConfig {
        epsilon: 0.1,
        rho: 0.1,
        max_rr_per_collection: 40_000,
        ..RmaConfig::default()
    };
    let ti_cfg = TiConfig {
        epsilon: 0.3,
        pilot_sets: 1_024,
        max_rr_per_ad: max_rr,
        strategy: RrStrategy::Standard,
        ..TiConfig::default()
    };

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("rma_lastfm_mini_cold", |b| {
        b.iter(|| {
            let wb = workbench(&dataset);
            wb.run_solver(&Rma::new(rma_cfg.clone()), &instance)
                .unwrap()
                .allocation
                .total_seeds()
        });
    });
    let warm = workbench(&dataset);
    warm.run_solver(&Rma::new(rma_cfg.clone()), &instance)
        .unwrap();
    group.bench_function("rma_lastfm_mini_warm_cache", |b| {
        b.iter(|| {
            warm.run_solver(&Rma::new(rma_cfg.clone()), &instance)
                .unwrap()
                .allocation
                .total_seeds()
        });
    });
    group.bench_function("ti_carm_lastfm_mini_cold", |b| {
        b.iter(|| {
            let wb = workbench(&dataset);
            wb.run_solver(&TiCarm::new(ti_cfg.clone()), &instance)
                .unwrap()
                .allocation
                .total_seeds()
        });
    });
    let warm = workbench(&dataset);
    warm.run_solver(&TiCarm::new(ti_cfg.clone()), &instance)
        .unwrap();
    group.bench_function("ti_carm_lastfm_mini_warm_workspace", |b| {
        b.iter(|| {
            warm.run_solver(&TiCarm::new(ti_cfg.clone()), &instance)
                .unwrap()
                .allocation
                .total_seeds()
        });
    });
    for (name, dataset, instance) in [
        ("ti_csrm_lastfm_mini", &dataset, &instance),
        ("ti_csrm_lastfm_large_k", &large, &large_k),
    ] {
        group.bench_function(name, |b| {
            let wb = workbench(dataset);
            b.iter(|| {
                wb.run_solver(&TiCsrm::new(ti_cfg.clone()), instance)
                    .unwrap()
                    .allocation
                    .total_seeds()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rma);
criterion_main!(benches);
