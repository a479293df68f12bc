//! Micro-benchmark: coverage-index construction, incremental extension,
//! and marginal-gain queries on the RR-set revenue estimator (the inner
//! loop of every greedy pass).
//!
//! The headline comparison is `extend_theta1_to_theta2` versus
//! `rebuild_at_theta2`: growing a warm index from θ₁ to θ₂ only indexes
//! the new sets (plus a copy-on-write of the singleton column), while a
//! from-scratch build re-walks every member entry. The `_h10` points run
//! the per-advertiser queries at the serving advertiser count, where the
//! advertiser-major postings skip the other nine advertisers' sets.
//!
//! `extend/{1t,2t}` index the TI baselines' collection on flixster-syn
//! (ten advertisers' TIC sets, one contiguous range each) in one
//! extension, on one and on two threads: the parallel counting sort,
//! byte-equal to the serial one.
//!
//! Set `RMSA_BENCH_QUICK=1` to shrink the workload for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;
use rmsa_core::{RevenueOracle, RrRevenueEstimator};
use rmsa_datasets::{Dataset, DatasetKind};
use rmsa_diffusion::{CoverageIndex, RrArena, RrStrategy, UniformIc, UniformRrSampler};
use rmsa_graph::generators::barabasi_albert;

fn bench_coverage(c: &mut Criterion) {
    let quick = std::env::var("RMSA_BENCH_QUICK").is_ok();
    let (num_nodes, theta2, ti_sets) = if quick {
        (2_000, 8_000, 5_000)
    } else {
        (10_000, 50_000, 100_000)
    };
    let theta1 = theta2 / 2;
    let mut rng = Pcg64Mcg::seed_from_u64(3);
    let graph = barabasi_albert(num_nodes, 6, &mut rng);
    let model = UniformIc::new(4, 0.05);
    let sampler = UniformRrSampler::new(&[1.0, 1.5, 2.0, 1.0]);
    let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
    arena.generate(&graph, &model, &sampler, theta2, &mut rng);

    // A warm index over the θ₁ prefix, cloned per iteration below.
    let mut warm = CoverageIndex::new(graph.num_nodes(), 4);
    warm.extend_to(&arena, theta1, 1);

    let mut group = c.benchmark_group("coverage");
    group.sample_size(20);
    group.bench_function("rebuild_at_theta2", |b| {
        b.iter(|| {
            let mut index = CoverageIndex::new(graph.num_nodes(), 4);
            index.extend_from(&arena, 1);
            index.num_rr()
        });
    });
    group.bench_function("extend_theta1_to_theta2", |b| {
        b.iter(|| {
            // The clone shares the θ₁ segment; extending indexes only the
            // new θ₂ − θ₁ sets (copy-on-write on the shared columns).
            let mut index = warm.clone();
            index.extend_from(&arena, 1);
            index.num_rr()
        });
    });
    let h = 10;
    let dataset = Dataset::build(DatasetKind::FlixsterSyn, h, 0.05, 7);
    let mut ti_arena = RrArena::new(dataset.graph.num_nodes(), RrStrategy::Standard);
    let mut ti_rng = Pcg64Mcg::seed_from_u64(4);
    for ad in 0..h {
        ti_arena.generate_for(&dataset.graph, &dataset.model, ad, ti_sets, 2, &mut ti_rng);
    }
    for threads in [1, 2] {
        group.bench_function(format!("extend/{threads}t"), |b| {
            b.iter(|| {
                let mut index = CoverageIndex::new(ti_arena.num_nodes(), h);
                index.extend_from(&ti_arena, threads);
                index.num_rr()
            });
        });
    }
    group.bench_function("estimator_snapshot_from_warm_index", |b| {
        let mut index = CoverageIndex::new(graph.num_nodes(), 4);
        index.extend_from(&arena, 1);
        b.iter(|| RrRevenueEstimator::from_view(index.view(), 5.5).num_rr());
    });
    group.bench_function("build_estimator_from_scratch", |b| {
        b.iter(|| RrRevenueEstimator::new(&arena, 4, 5.5).num_rr());
    });

    let est = RrRevenueEstimator::new(&arena, 4, 5.5);
    group.bench_function("greedy_marginal_gains_1000_nodes", |b| {
        b.iter(|| max_gain(&est, 0));
    });

    // The same queries at h = 10, the advertiser count the service runs.
    let model = UniformIc::new(10, 0.05);
    let cpes: Vec<f64> = (0..10).map(|ad| 1.0 + 0.25 * f64::from(ad)).collect();
    let sampler = UniformRrSampler::new(&cpes);
    let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
    arena.generate(&graph, &model, &sampler, theta2, &mut rng);
    let gamma = sampler.gamma();
    let est = RrRevenueEstimator::new(&arena, 10, gamma);
    group.bench_function("greedy_marginal_gains_1000_nodes_h10", |b| {
        b.iter(|| max_gain(&est, 3));
    });
    // Ten disjoint 20-seed sets, one per advertiser.
    let allocation: Vec<Vec<u32>> = (0..10u32)
        .map(|ad| (ad * 20..ad * 20 + 20).collect())
        .collect();
    group.bench_function("allocation_coverage_count_h10", |b| {
        b.iter(|| est.coverage().allocation_coverage_count(&allocation));
    });
    group.finish();
}

/// Largest marginal gain of nodes `0..1000` for a fresh seed set of `ad`.
fn max_gain(est: &RrRevenueEstimator, ad: usize) -> f64 {
    let state = est.new_state(ad);
    (0..1_000u32)
        .map(|u| est.marginal_gain(&state, u))
        .fold(0.0f64, f64::max)
}

criterion_group!(benches, bench_coverage);
criterion_main!(benches);
