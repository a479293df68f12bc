//! Micro-benchmark: RR-set generation cost.
//!
//! * `weighted_cascade` — standard reverse BFS vs the SUBSIM geometric-skip
//!   fast path (Table 6's underlying speed-up).
//! * `tic_flixster` — flixster-syn at scale 0.05 (n = 1,500, m = 20,805,
//!   h = 10) under its materialised TIC model with the standard strategy:
//!   the regime of the Table-3 sweep, where sets average ~1.2 members and
//!   the cost is the root's in-edge coin flips. Measured through
//!   `generate_for` (one advertiser, the TI baselines' path) and
//!   `generate_parallel` on one thread (every advertiser, the shared
//!   cache's path). `generate_for_subsim` runs the same advertiser under
//!   SUBSIM, which flips every in-edge of a TIC model one by one (the
//!   Fig. 10 sweeps).
//! * `tic_flixster/gate` — one advertiser's `k` sets just below (`n / 4`)
//!   and at (`n / 2`) the resolve gate, on both kernels: `rows` resolves
//!   the row for the call and includes that pass, `per_edge` reads the
//!   model per edge. Below the gate the per-edge path should not lose, at
//!   it the row kernel should win.
//! * `tic_flixster/ti_phase1/{1t,2t}` — the TI baselines' Phase 1: every
//!   advertiser's pilot (2,048 sets) and then the rest of its `tic_sets`,
//!   one after the other from one RNG, through `generate_for` on one and
//!   on two threads (the spliced parallel parse; identical sets).
//! * `tic_flixster/splice_gate/{1t,2t}` — one `generate_for` call of
//!   `MIN_SPLICED_SETS` sets, the smallest it splits, on one and on two
//!   threads: at the gate two threads should already win.
//!
//! Set `RMSA_BENCH_QUICK=1` to shrink the workload for CI smoke runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;
use rmsa_datasets::{Dataset, DatasetKind};
use rmsa_diffusion::arena::MIN_SPLICED_SETS;
use rmsa_diffusion::{
    ResolvedModel, RrArena, RrGenerator, RrStrategy, UniformRrSampler, WeightedCascade,
};
use rmsa_graph::generators::barabasi_albert;
use rmsa_graph::NodeId;

fn bench_rr_generation(c: &mut Criterion) {
    let quick = std::env::var("RMSA_BENCH_QUICK").is_ok();
    let (wc_nodes, tic_sets) = if quick {
        (2_000, 5_000)
    } else {
        (20_000, 100_000)
    };
    let mut rng = Pcg64Mcg::seed_from_u64(1);
    let graph = barabasi_albert(wc_nodes, 8, &mut rng);
    let model = WeightedCascade::new(&graph, 1);
    let mut group = c.benchmark_group("rr_generation");
    group.sample_size(if quick { 10 } else { 20 });
    for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
        group.bench_with_input(
            BenchmarkId::new("weighted_cascade", format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                let mut rng = Pcg64Mcg::seed_from_u64(2);
                b.iter(|| {
                    let mut arena = RrArena::new(graph.num_nodes(), strategy);
                    arena.generate_for(&graph, &model, 0, 200, 1, &mut rng);
                    arena.total_entries()
                });
            },
        );
    }

    let h = 10;
    let dataset = Dataset::build(DatasetKind::FlixsterSyn, h, 0.05, 7);
    let (graph, model) = (&dataset.graph, &dataset.model);
    let cpes: Vec<f64> = (0..h).map(|ad| 1.0 + 0.25 * ad as f64).collect();
    let sampler = UniformRrSampler::new(&cpes);
    for (name, strategy) in [
        ("generate_for", RrStrategy::Standard),
        ("generate_for_subsim", RrStrategy::Subsim),
    ] {
        group.bench_function(format!("tic_flixster/{name}/{tic_sets}"), |b| {
            let mut rng = Pcg64Mcg::seed_from_u64(3);
            b.iter(|| {
                let mut arena = RrArena::new(graph.num_nodes(), strategy);
                arena.generate_for(graph, model, 0, tic_sets, 1, &mut rng);
                arena.total_entries()
            });
        });
    }
    let n = graph.num_nodes();
    for k in [n / 4, n / 2] {
        // `ResolvedModel::new` resolves the row for `n` sets, never for 0.
        for (kernel, prepared_for) in [("rows", n), ("per_edge", 0)] {
            group.bench_function(format!("tic_flixster/gate/{kernel}/{k}"), |b| {
                let mut rng = Pcg64Mcg::seed_from_u64(4);
                let mut gen = RrGenerator::new(n, RrStrategy::Standard);
                let mut members = Vec::new();
                b.iter(|| {
                    let source =
                        ResolvedModel::new(graph, model, RrStrategy::Standard, [0], prepared_for);
                    members.clear();
                    for _ in 0..k {
                        let root = rng.gen_range(0..n as NodeId);
                        gen.generate_rooted_into(&source, 0, root, &mut rng, &mut members);
                    }
                    members.len()
                });
            });
        }
    }
    for threads in [1, 2] {
        group.bench_function(format!("tic_flixster/ti_phase1/{threads}t"), |b| {
            let mut rng = Pcg64Mcg::seed_from_u64(5);
            b.iter(|| {
                let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
                for ad in 0..h {
                    arena.generate_for(graph, model, ad, 2_048, threads, &mut rng);
                    arena.generate_for(graph, model, ad, tic_sets - 2_048, threads, &mut rng);
                }
                arena.total_entries()
            });
        });
    }
    for threads in [1, 2] {
        group.bench_function(format!("tic_flixster/splice_gate/{threads}t"), |b| {
            let mut rng = Pcg64Mcg::seed_from_u64(6);
            b.iter(|| {
                let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
                arena.generate_for(graph, model, 0, MIN_SPLICED_SETS, threads, &mut rng);
                arena.total_entries()
            });
        });
    }
    group.bench_function(
        format!("tic_flixster/generate_parallel_1t/{tic_sets}"),
        |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
                arena.generate_parallel(graph, model, &sampler, tic_sets, 1, seed);
                arena.total_entries()
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_rr_generation);
criterion_main!(benches);
