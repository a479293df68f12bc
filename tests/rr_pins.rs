//! Seeded pins of RR-set generation, and the equivalence of the in-edge
//! row kernel with the per-edge reference path.
//!
//! Each pin is a digest of every set an arena holds (advertiser, length
//! and members, in order) plus, for the sequential paths, the caller's
//! RNG's next draw. A change to how the reverse BFS reads probabilities
//! or tracks its frontier must leave every pin unchanged: the same
//! draws must be consumed in the same order.

use rand::{Rng, RngCore, SeedableRng};
use rand_pcg::Pcg64Mcg;
use rmsa::diffusion::{
    AdId, MaterializedModel, PropagationModel, RrArena, RrSetRef, RrStrategy, UniformRrSampler,
    WeightedCascade,
};
use rmsa::graph::generators::barabasi_albert;
use rmsa::graph::{DirectedGraph, EdgeId, NodeId};
use rmsa::prelude::*;

/// 64-bit FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of every set in generation order: advertiser, member count (so
/// set boundaries count) and members, root first.
fn arena_digest(arena: &RrArena) -> u64 {
    fnv(arena.iter().flat_map(|set: RrSetRef<'_>| {
        [set.ad as u64, set.len() as u64]
            .into_iter()
            .chain(set.nodes.iter().map(|&u| u64::from(u)))
    }))
}

/// CPE line-up of `h` advertisers with unequal sampling weights.
fn sampler(h: usize) -> UniformRrSampler {
    let cpe: Vec<f64> = (0..h).map(|ad| 1.0 + 0.5 * (ad % 3) as f64).collect();
    UniformRrSampler::new(&cpe)
}

/// `(digest, next draw)` of `count` sets for `ad` through `generate_for`,
/// the same on 1, 2 and 5 threads.
fn for_pin<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    strategy: RrStrategy,
    ad: AdId,
    count: usize,
    seed: u64,
) -> (u64, u64) {
    let pins: Vec<(u64, u64)> = [1, 2, 5]
        .into_iter()
        .map(|threads| {
            let mut rng = Pcg64Mcg::seed_from_u64(seed);
            let mut arena = RrArena::new(graph.num_nodes(), strategy);
            arena.generate_for(graph, model, ad, count, threads, &mut rng);
            assert_eq!(arena.len(), count);
            (arena_digest(&arena), rng.next_u64())
        })
        .collect();
    assert!(
        pins.iter().all(|&pin| pin == pins[0]),
        "generate_for depends on the thread count: {pins:x?}"
    );
    pins[0]
}

/// Digest of `count` sets through `generate_parallel` on `threads` workers.
fn parallel_pin<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    strategy: RrStrategy,
    count: usize,
    threads: usize,
    seed: u64,
) -> u64 {
    let mut arena = RrArena::new(graph.num_nodes(), strategy);
    arena.generate_parallel(
        graph,
        model,
        &sampler(model.num_ads()),
        count,
        threads,
        seed,
    );
    assert_eq!(arena.len(), count);
    arena_digest(&arena)
}

/// Compare `(label, actual)` pins with their expected values, listing
/// every mismatch at once.
fn check_pins(actual: &[(&str, u64)], expected: &[u64]) {
    assert_eq!(actual.len(), expected.len());
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected)
        .filter(|((_, a), e)| a != *e)
        .map(|((label, a), _)| format!("{label}: {a:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "RR pins moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn tic_generation_matches_its_seeded_pins() {
    // flixster-syn at scale 0.05: n = 1,500, m = 20,805, h = 10.
    let dataset = Dataset::build(DatasetKind::FlixsterSyn, 10, 0.05, 21);
    let (g, m) = (&dataset.graph, &dataset.model);
    assert_eq!((g.num_nodes(), g.num_edges()), (1_500, 20_805));
    let (standard, standard_next) = for_pin(g, m, RrStrategy::Standard, 3, 20_000, 5);
    // Subsim over TIC rows finds no uniform node and walks every edge.
    let (subsim, subsim_next) = for_pin(g, m, RrStrategy::Subsim, 7, 5_000, 8);
    let actual = [
        ("generate_for", standard),
        ("generate_for next draw", standard_next),
        (
            "generate_parallel, 1 thread",
            parallel_pin(g, m, RrStrategy::Standard, 20_000, 1, 6),
        ),
        (
            "generate_parallel, 2 threads",
            parallel_pin(g, m, RrStrategy::Standard, 20_000, 2, 6),
        ),
        ("subsim generate_for", subsim),
        ("subsim generate_for next draw", subsim_next),
    ];
    check_pins(
        &actual,
        &[
            0x80e59021734865b6,
            0x166d203a141446b3,
            0xc97c841c19634c5d,
            0xc97c841c19634c5d,
            0xd43feb7087a8f8ba,
            0x8b1234a34564f2f3,
        ],
    );
}

#[test]
fn weighted_cascade_generation_matches_its_seeded_pins() {
    let dataset = Dataset::build(DatasetKind::DblpSyn, 3, 0.01, 22);
    let (g, m) = (&dataset.graph, &dataset.model);
    let (standard, standard_next) = for_pin(g, m, RrStrategy::Standard, 1, 20_000, 9);
    let (subsim, subsim_next) = for_pin(g, m, RrStrategy::Subsim, 2, 20_000, 11);
    let actual = [
        ("standard generate_for", standard),
        ("standard generate_for next draw", standard_next),
        (
            "standard generate_parallel",
            parallel_pin(g, m, RrStrategy::Standard, 20_000, 2, 10),
        ),
        ("subsim generate_for", subsim),
        ("subsim generate_for next draw", subsim_next),
        (
            "subsim generate_parallel",
            parallel_pin(g, m, RrStrategy::Subsim, 20_000, 2, 12),
        ),
    ];
    check_pins(
        &actual,
        &[
            0x63a8eb3615eba85a,
            0x3c342ec03732ab64,
            0xeb2b55b92810aed8,
            0x4f014feb4511e24d,
            0x35209983e1014754,
            0x43b88f18e293e1c1,
        ],
    );
}

/// Delegates every probability query to the wrapped model but keeps the
/// trait's defaults for everything else, so RR generation over it takes
/// the per-edge reference path whatever the wrapped model exposes.
struct PerEdge<'a, M: PropagationModel>(&'a M);

impl<M: PropagationModel> PropagationModel for PerEdge<'_, M> {
    fn num_ads(&self) -> usize {
        self.0.num_ads()
    }

    fn edge_prob(&self, ad: AdId, edge: EdgeId) -> f64 {
        self.0.edge_prob(ad, edge)
    }

    fn uniform_in_prob(&self, ad: AdId, node: NodeId) -> Option<f64> {
        self.0.uniform_in_prob(ad, node)
    }
}

/// A seeded preferential-attachment graph with `h` probability rows in
/// which about a fifth of the edges have p = 0, a fifth p = 1 and the rest
/// a uniform draw.
fn mixed_world(n: usize, h: usize, seed: u64) -> (DirectedGraph, MaterializedModel) {
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let g = barabasi_albert(n, 4, &mut rng);
    let rows = (0..h)
        .map(|_| {
            (0..g.num_edges())
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.0f32..0.3),
                })
                .collect()
        })
        .collect();
    (g, MaterializedModel::from_rows(rows))
}

/// Assert two arenas hold the same sets, reporting the first difference.
fn assert_same_sets(fast: &RrArena, reference: &RrArena, what: &str) {
    assert_eq!(fast.len(), reference.len(), "{what}: set count");
    for (i, (a, b)) in fast.iter().zip(reference.iter()).enumerate() {
        assert_eq!(a, b, "{what}: set {i} differs");
    }
}

#[test]
fn row_kernel_matches_the_per_edge_reference_set_for_set() {
    // Every call draws at least n = 400 sets per probability row, so the
    // fast side resolves the mixed rows under both strategies (no node of
    // them is uniform, so SUBSIM flips every in-edge too). Weighted-
    // Cascade's row is resolved under Standard only: SUBSIM takes its
    // geometric jumps at every WC node and reads no row.
    for seed in [1u64, 2, 3] {
        let (g, model) = mixed_world(400, 3, seed);
        let wc = WeightedCascade::new(&g, 2);
        for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
            let what = format!("seed {seed}, {strategy:?}");
            for ad in 0..3 {
                let mut fast_rng = Pcg64Mcg::seed_from_u64(seed * 100 + ad as u64);
                let mut ref_rng = fast_rng.clone();
                let mut fast = RrArena::new(g.num_nodes(), strategy);
                let mut reference = RrArena::new(g.num_nodes(), strategy);
                fast.generate_for(&g, &model, ad, 3_000, 1, &mut fast_rng);
                reference.generate_for(&g, &PerEdge(&model), ad, 3_000, 1, &mut ref_rng);
                assert_same_sets(&fast, &reference, &what);
                assert_eq!(fast_rng.next_u64(), ref_rng.next_u64(), "{what}: next draw");
            }
            for threads in [1, 2] {
                let mut fast = RrArena::new(g.num_nodes(), strategy);
                let mut reference = RrArena::new(g.num_nodes(), strategy);
                fast.generate_parallel(&g, &model, &sampler(3), 5_000, threads, seed);
                reference.generate_parallel(
                    &g,
                    &PerEdge(&model),
                    &sampler(3),
                    5_000,
                    threads,
                    seed,
                );
                assert_same_sets(&fast, &reference, &what);
            }
            let mut fast_rng = Pcg64Mcg::seed_from_u64(seed);
            let mut ref_rng = fast_rng.clone();
            let mut fast = RrArena::new(g.num_nodes(), strategy);
            let mut reference = RrArena::new(g.num_nodes(), strategy);
            fast.generate(&g, &wc, &sampler(2), 3_000, &mut fast_rng);
            reference.generate(&g, &PerEdge(&wc), &sampler(2), 3_000, &mut ref_rng);
            assert_same_sets(&fast, &reference, &format!("{what}, weighted cascade"));
            assert_eq!(fast_rng.next_u64(), ref_rng.next_u64(), "{what}: next draw");
        }
    }
}
