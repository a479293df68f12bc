//! Micro-benchmark: the Section-3 oracle algorithms running on an RR-set
//! estimator (Greedy, ThresholdGreedy, Fill, and the full Search solve),
//! and the served solve: `RM_with_Oracle` on a warm lastfm-syn R1.
//!
//! Set `RMSA_BENCH_QUICK=1` to shrink the workload for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;
use rmsa_bench::{default_rma_config, ExperimentContext};
use rmsa_core::algorithms::gamma_max;
use rmsa_core::{
    fill, greedy_single, rm_with_oracle, threshold_greedy, Advertiser, RmInstance,
    RrRevenueEstimator, SeedCosts,
};
use rmsa_datasets::{DatasetKind, IncentiveModel};
use rmsa_diffusion::{RrArena, RrStrategy, RrStream, UniformIc, UniformRrSampler};
use rmsa_graph::generators::barabasi_albert;
use rmsa_graph::NodeId;

fn setup(h: usize, num_nodes: usize, theta: usize) -> (RmInstance, RrRevenueEstimator) {
    let mut rng = Pcg64Mcg::seed_from_u64(5);
    let graph = barabasi_albert(num_nodes, 6, &mut rng);
    let model = UniformIc::new(h, 0.05);
    let cpes = vec![1.0; h];
    let sampler = UniformRrSampler::new(&cpes);
    let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
    arena.generate(&graph, &model, &sampler, theta, &mut rng);
    let estimator = RrRevenueEstimator::new(&arena, h, h as f64);
    let instance = RmInstance::try_new(
        graph.num_nodes(),
        (0..h)
            .map(|_| Advertiser::try_new(60.0, 1.0).unwrap())
            .collect(),
        SeedCosts::Shared(vec![1.0; graph.num_nodes()]),
    )
    .unwrap();
    (instance, estimator)
}

fn bench_greedy(c: &mut Criterion) {
    let quick = std::env::var("RMSA_BENCH_QUICK").is_ok();
    let (num_nodes, theta) = if quick {
        (1_000, 6_000)
    } else {
        (5_000, 30_000)
    };
    let (instance, estimator) = setup(5, num_nodes, theta);
    let mut group = c.benchmark_group("oracle_algorithms");
    group.sample_size(10);
    let candidates: Vec<NodeId> = (0..instance.num_nodes as NodeId).collect();
    group.bench_function("greedy_single_advertiser", |b| {
        b.iter(|| greedy_single(&instance, &estimator, 0, &candidates).best_revenue());
    });
    group.bench_function("threshold_greedy_gamma_zero", |b| {
        b.iter(|| threshold_greedy(&instance, &estimator, 0.0).b);
    });
    group.bench_function("rm_with_oracle_h5", |b| {
        b.iter(|| rm_with_oracle(&instance, &estimator, 0.1).revenue);
    });
    // h = 10 is the serving line-up: each Search probe starts from n·h
    // singleton candidates.
    let (instance, estimator) = setup(10, num_nodes, theta);
    group.bench_function("rm_with_oracle_h10", |b| {
        b.iter(|| rm_with_oracle(&instance, &estimator, 0.1).revenue);
    });
    // The once-per-solve singleton scan behind Eq. 6's γ_max, over the
    // warm h = 10 estimator: it filters the view's cached singleton order
    // (sorted by the first solve above) and sorts only the rate run.
    group.bench_function("gamma_max_h10", |b| {
        b.iter(|| gamma_max(&instance, &estimator));
    });
    // Fill from a non-empty allocation, as every Search probe runs it: the
    // first half of each advertiser's seeds in the h = 10 solution.
    let mut start = rm_with_oracle(&instance, &estimator, 0.1).allocation;
    for seeds in &mut start.seed_sets {
        seeds.truncate(seeds.len().div_ceil(2));
    }
    assert!(start.total_seeds() > 0, "Fill must start from seeds");
    group.bench_function("fill_h10", |b| {
        b.iter(|| fill(&instance, &estimator, start.clone()).total_seeds());
    });
    group.finish();
}

/// The solve `rmsa serve` runs for every RMA or one-batch request over a
/// warm session: `RM_with_Oracle` on the session's 20,000-set lastfm-syn
/// R1 under `(1 + ϱ/2)`-relaxed budgets, with the serving seed, line-up
/// and singleton spreads. Each iteration solves the next of 8 distinct α
/// of one incentive model, as a stream of requests would; `mixed`
/// interleaves the three models.
fn bench_served_lastfm(c: &mut Criterion) {
    let mut ctx = ExperimentContext::from_env();
    ctx.seed = 20_210_620;
    ctx.scale = 1.0;
    ctx.threads = 2;
    ctx.rma_max_rr = 20_000;
    let kind = DatasetKind::LastfmSyn;
    let dataset = ctx.dataset(kind);
    let workbench = ctx.workbench(&dataset, RrStrategy::Standard);
    let advertisers = rmsa_bench::sweeps::advertisers_for(&ctx, kind, ctx.seed ^ 0xAD5);
    let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
    let config = default_rma_config(&ctx);
    let instances = |model: IncentiveModel, offset: f64| -> Vec<RmInstance> {
        (0..8)
            .map(|k| {
                let alpha = 0.1 + 0.05 * (f64::from(k) + offset);
                dataset
                    .build_instance_from_spreads(advertisers.clone(), &spreads, model, alpha)
                    .with_scaled_budgets(1.0 + config.rho / 2.0)
            })
            .collect()
    };
    let first = instances(IncentiveModel::Linear, 0.0).remove(0);
    let sampler = UniformRrSampler::new(&first.cpe_values());
    let (estimator, _) = workbench.cache().with_at_least(
        workbench.graph(),
        workbench.model(),
        &sampler,
        RrStream::Optimize,
        ctx.rma_max_rr,
        |v| RrRevenueEstimator::from_view(v.coverage(), first.gamma()),
    );
    let mut group = c.benchmark_group("served_lastfm");
    group.sample_size(10);
    let mut mixed = Vec::new();
    for (i, model) in IncentiveModel::all().into_iter().enumerate() {
        let points = instances(model, i as f64 / 3.0);
        let mut next = 0;
        group.bench_function(model.label(), |b| {
            b.iter(|| {
                next = (next + 1) % points.len();
                rm_with_oracle(&points[next], &estimator, config.tau).revenue
            });
        });
        mixed.extend(points);
    }
    let mut next = 0;
    group.bench_function("mixed", |b| {
        b.iter(|| {
            // Steps of 8 + 1 visit every model in turn at a new α.
            next = (next + 9) % mixed.len();
            rm_with_oracle(&mixed[next], &estimator, config.tau).revenue
        });
    });
    group.finish();
}

criterion_group!(benches, bench_greedy, bench_served_lastfm);
criterion_main!(benches);
