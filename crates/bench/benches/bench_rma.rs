//! End-to-end benchmark: RMA versus the TI baselines on a miniature
//! lastfm-syn instance (the per-algorithm cost behind Table 3), plus the
//! same solve on a warm workbench cache (the cost a sweep actually pays).

use criterion::{criterion_group, criterion_main, Criterion};
use rmsa::prelude::*;
use rmsa_datasets::{Dataset, DatasetKind};

fn bench_rma(c: &mut Criterion) {
    let h = 3;
    let dataset = Dataset::build(DatasetKind::LastfmSyn, h, 0.25, 11);
    let advertisers: Vec<Advertiser> = (0..h)
        .map(|_| Advertiser::try_new(80.0, 1.0).unwrap())
        .collect();
    let instance = dataset.build_instance(advertisers, IncentiveModel::Linear, 0.1, 5_000, 3);

    let rma_cfg = RmaConfig {
        epsilon: 0.1,
        rho: 0.1,
        max_rr_per_collection: 40_000,
        ..RmaConfig::default()
    };
    let ti_cfg = TiConfig {
        epsilon: 0.3,
        pilot_sets: 1_024,
        max_rr_per_ad: 15_000,
        strategy: RrStrategy::Standard,
        ..TiConfig::default()
    };

    let workbench = || {
        Workbench::builder()
            .graph(dataset.graph.clone())
            .model(dataset.model.clone())
            .threads(1)
            .seed(11)
            .build()
            .unwrap()
    };

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("rma_lastfm_mini_cold", |b| {
        b.iter(|| {
            let wb = workbench();
            wb.run_solver(&Rma::new(rma_cfg.clone()), &instance)
                .unwrap()
                .allocation
                .total_seeds()
        });
    });
    let warm = workbench();
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
    group.bench_function("ti_csrm_lastfm_mini", |b| {
        let wb = workbench();
        b.iter(|| {
            wb.run_solver(&TiCsrm::new(ti_cfg.clone()), &instance)
                .unwrap()
                .allocation
                .total_seeds()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_rma);
criterion_main!(benches);
