//! Micro-benchmark: RR-set generation cost, standard reverse BFS vs the
//! SUBSIM geometric-skip fast path (Table 6's underlying speed-up).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;
use rmsa_diffusion::{RrArena, RrStrategy, WeightedCascade};
use rmsa_graph::generators::barabasi_albert;

fn bench_rr_generation(c: &mut Criterion) {
    let mut rng = Pcg64Mcg::seed_from_u64(1);
    let graph = barabasi_albert(20_000, 8, &mut rng);
    let model = WeightedCascade::new(&graph, 1);
    let mut group = c.benchmark_group("rr_generation");
    group.sample_size(20);
    for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
        group.bench_with_input(
            BenchmarkId::new("weighted_cascade", format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                let mut rng = Pcg64Mcg::seed_from_u64(2);
                b.iter(|| {
                    let mut arena = RrArena::new(graph.num_nodes(), strategy);
                    arena.generate_for(&graph, &model, 0, 200, &mut rng);
                    arena.total_entries()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rr_generation);
criterion_main!(benches);
