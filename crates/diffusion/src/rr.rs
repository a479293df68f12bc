//! Reverse-reachable (RR) set generation.
//!
//! An RR-set for ad `i` rooted at node `v` is the set of nodes that can
//! reach `v` in a random possible world where each edge `(u, w)` is live
//! independently with probability `p^i_{u,w}` (Borgs et al., Sec. 4.1). The
//! fundamental identity is `σ_i(A) = n · E[ 1{A ∩ R ≠ ∅} ]`.
//!
//! Two generation strategies are provided:
//!
//! * [`RrStrategy::Standard`] — reverse BFS flipping one coin per incoming
//!   edge.
//! * [`RrStrategy::Subsim`] — when every incoming edge of the current node
//!   shares one probability `p` (Weighted-Cascade, uniform IC), the indices
//!   of successful in-neighbours are sampled directly with geometric jumps,
//!   skipping the failed coin flips entirely. This reproduces the SUBSIM
//!   acceleration discussed in Sec. 5.2 / Appendix D.2 of the paper; for
//!   models without the uniform structure it falls back to per-edge flips.
//!
//! # The per-edge kernel
//!
//! Per-edge flips read the model through a [`ResolvedModel`], built once
//! per generation call. A model that stores an advertiser's probabilities
//! as one forward-ordered row ([`PropagationModel::probability_row`]) has
//! that row regrouped, on the calling thread, into in-edge order: per
//! node, the incoming edges with `p > 0` and their probabilities as `f32`.
//! The BFS then flips `v`'s coins over two contiguous slices, with no
//! virtual call, no gather by forward edge id and no branch on `p = 0`
//! (such an edge never draws a coin, so leaving it out keeps every draw).
//! Both strategies read the rows: SUBSIM falls back to per-edge flips on
//! every node of a TIC model (the Fig. 10 sweeps). Models without stored
//! rows (the lazily mixed `TicModel`, uniform IC), and calls too small to
//! repay resolving a row, take the per-edge `edge_prob` loop, which is
//! also the reference the row kernel is tested against: both consume the
//! same draws in the same order, so they produce the same sets.
//!
//! The BFS keeps no queue of its own: the output buffer is the FIFO (a
//! `head` cursor walks the members appended so far) and, once the set is
//! complete, the list of `visited` flags to clear.

use crate::models::{AdId, PropagationModel};
use rand::Rng;
use rmsa_graph::{DirectedGraph, NodeId};

/// Which RR-set generation algorithm to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RrStrategy {
    /// One Bernoulli trial per incoming edge.
    Standard,
    /// Geometric-jump sampling over incoming edges with uniform probability
    /// (SUBSIM-style); falls back to per-edge trials otherwise.
    Subsim,
}

/// A propagation model resolved against one graph for the duration of one
/// generation call.
///
/// Each stored probability row the call can draw and will read is
/// regrouped up front, on the calling thread, into a [`LiveRow`]: per
/// node, its incoming edges with a positive probability, in in-edge
/// order. Advertisers sharing one stored row (Weighted-Cascade) share one
/// resolved row. Every worker of
/// the call borrows the same table; it is dropped with the call and never
/// stored in the model, a cache or a snapshot.
pub struct ResolvedModel<'a, M: ?Sized> {
    graph: &'a DirectedGraph,
    model: &'a M,
    /// Index into `rows` per advertiser; `None` sends the advertiser down
    /// the per-edge `edge_prob` path.
    slot_of_ad: Vec<Option<usize>>,
    /// Distinct stored rows the call draws from, resolved where the
    /// kernel reads them.
    rows: Vec<Option<LiveRow>>,
}

/// One advertiser's live incoming edges, CSR by target node: node `v`'s
/// edges with `p > 0`, in in-edge order, are `sources[offsets[v]..
/// offsets[v + 1]]` with their probabilities at the same positions of
/// `probs`. An edge with `p = 0` never draws a coin, so leaving it out
/// keeps every draw while taking a data-dependent branch out of the
/// coin loop.
struct LiveRow {
    offsets: Vec<u32>,
    sources: Vec<NodeId>,
    probs: Vec<f32>,
}

impl LiveRow {
    fn new(graph: &DirectedGraph, row: &[f32]) -> Self {
        let live = row.iter().filter(|&&p| p > 0.0).count();
        let mut offsets = Vec::with_capacity(graph.num_nodes() + 1);
        // Every edge is written at `len`, which advances past live ones
        // only: no data-dependent branch on the edge's probability. The
        // spare slot takes the writes after the last live edge.
        let (mut sources, mut probs) = (vec![0; live + 1], vec![0.0; live + 1]);
        let mut len = 0;
        offsets.push(0);
        for v in graph.nodes() {
            for (u, e) in graph.in_edges(v) {
                let p = row[e as usize];
                sources[len] = u;
                probs[len] = p;
                len += usize::from(p > 0.0);
            }
            // At most `m` entries, and the graph's own CSR offsets are u32.
            offsets.push(len as u32);
        }
        sources.truncate(len);
        probs.truncate(len);
        LiveRow {
            offsets,
            sources,
            probs,
        }
    }

    /// `v`'s live in-neighbours and their probabilities.
    #[inline]
    fn edges_into(&self, v: NodeId) -> (&[NodeId], &[f32]) {
        let range = self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize;
        (&self.sources[range.clone()], &self.probs[range])
    }
}

impl<'a, M: PropagationModel + ?Sized> ResolvedModel<'a, M> {
    /// Prepare a call that generates `num_sets` sets with `strategy` for
    /// advertisers drawn from `ads`.
    ///
    /// Rows are resolved only where the kernel reads them. Under SUBSIM
    /// the rows serve the nodes whose in-edges do not share one
    /// probability (every node of a TIC model), so a row on which the
    /// first advertiser drawing it is uniform at every node
    /// (Weighted-Cascade) is left unresolved; any advertiser sharing it
    /// then takes the per-edge path, which is always correct.
    ///
    /// Rows are resolved only where they pay. Resolving a row is one pass
    /// over the graph's `m` edges, while the sets' roots alone read about
    /// `num_sets · m / n` in-edges, each a few nanoseconds cheaper on the
    /// row kernel; on flixster-syn the two kernels break even between
    /// `n / 4` and `n / 2` sets (`bench_rr_generation`'s
    /// `tic_flixster/gate` points time both on each side). So a call
    /// resolves rows when it generates at least `n / 2` sets per row it
    /// reads; a smaller call takes the per-edge path, which draws the
    /// same sets. Panics when a stored row does not have one entry per
    /// edge of `graph`.
    pub fn new(
        graph: &'a DirectedGraph,
        model: &'a M,
        strategy: RrStrategy,
        ads: impl IntoIterator<Item = AdId>,
        num_sets: usize,
    ) -> Self {
        let mut slot_of_ad = Vec::new();
        // Distinct stored rows, each with whether the kernel reads it.
        let mut stored: Vec<(&'a [f32], bool)> = Vec::new();
        for ad in ads.into_iter().filter(|&ad| ad < model.num_ads()) {
            let Some(row) = model.probability_row(ad) else {
                continue;
            };
            assert_eq!(
                row.len(),
                graph.num_edges(),
                "advertiser {ad}'s probability row does not match the graph's edge count"
            );
            let slot = match stored.iter().position(|&(seen, _)| std::ptr::eq(seen, row)) {
                Some(slot) => slot,
                None => {
                    let read = strategy == RrStrategy::Standard
                        || graph
                            .nodes()
                            .any(|v| model.uniform_in_prob(ad, v).is_none());
                    stored.push((row, read));
                    stored.len() - 1
                }
            };
            if stored[slot].1 {
                if slot_of_ad.len() <= ad {
                    slot_of_ad.resize(ad + 1, None);
                }
                slot_of_ad[ad] = Some(slot);
            }
        }
        let read = stored.iter().filter(|&&(_, read)| read).count();
        if num_sets.saturating_mul(2) < read.saturating_mul(graph.num_nodes()) {
            slot_of_ad.clear();
            stored.clear();
        }
        ResolvedModel {
            graph,
            model,
            slot_of_ad,
            rows: stored
                .iter()
                .map(|&(row, read)| read.then(|| LiveRow::new(graph, row)))
                .collect(),
        }
    }

    /// The graph the rows are resolved for.
    pub(crate) fn graph(&self) -> &'a DirectedGraph {
        self.graph
    }

    /// `ad`'s resolved row, or `None` for the per-edge path.
    fn live_row(&self, ad: AdId) -> Option<&LiveRow> {
        let slot = self.slot_of_ad.get(ad).copied().flatten()?;
        self.rows[slot].as_ref()
    }
}

/// Reusable RR-set generator holding the BFS's `visited` flags.
///
/// Keeping the bitmap across calls avoids an `O(n)` allocation per
/// RR-set, which dominates the cost on large sparse graphs; each call
/// clears exactly the flags it set.
pub struct RrGenerator {
    strategy: RrStrategy,
    visited: Vec<bool>,
}

impl RrGenerator {
    /// Create a generator for graphs with `num_nodes` nodes.
    pub fn new(num_nodes: usize, strategy: RrStrategy) -> Self {
        RrGenerator {
            strategy,
            visited: vec![false; num_nodes],
        }
    }

    /// The configured generation strategy.
    pub fn strategy(&self) -> RrStrategy {
        self.strategy
    }

    /// Generate one RR-set for `ad` rooted at `root`, appending the member
    /// nodes (root first, then in BFS order) to `out` instead of
    /// allocating a fresh vector. Returns the number of appended members.
    ///
    /// This is the emission path of the columnar [`crate::arena::RrArena`]:
    /// sets are written back to back into one flat buffer, so generation
    /// performs no per-set allocation at all.
    pub fn generate_rooted_into<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        source: &ResolvedModel<'_, M>,
        ad: AdId,
        root: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> usize {
        let (graph, model) = (source.graph, source.model);
        debug_assert_eq!(self.visited.len(), graph.num_nodes());
        let live_row = source.live_row(ad);
        let start = out.len();
        self.visited[root as usize] = true;
        out.push(root);
        // `out[start..]` is the FIFO: members before `head` are expanded.
        let mut head = start;
        while let Some(&v) = out.get(head) {
            head += 1;
            let uniform = match self.strategy {
                RrStrategy::Subsim => model.uniform_in_prob(ad, v),
                RrStrategy::Standard => None,
            };
            match uniform {
                Some(p) if p <= 0.0 => {}
                Some(p) if p >= 1.0 => {
                    for &u in graph.in_neighbors(v) {
                        self.try_visit(u, out);
                    }
                }
                Some(p) => {
                    // SUBSIM: jump directly to the next successful incoming
                    // edge with geometric skips of mean 1/p.
                    let d = graph.in_degree(v);
                    let in_neighbors = graph.in_neighbors(v);
                    let log_q = (1.0 - p).ln();
                    let mut idx: i64 = -1;
                    loop {
                        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                        idx += (r.ln() / log_q).floor() as i64 + 1;
                        if idx >= d as i64 {
                            break;
                        }
                        self.try_visit(in_neighbors[idx as usize], out);
                    }
                }
                None => match live_row {
                    // Live rows hold only p in (0, 1], where this is
                    // exactly `rng.gen_bool(p)`; the per-edge path skips
                    // p = 0 edges without a draw, as the rows omit them.
                    Some(live) => {
                        let (sources, probs) = live.edges_into(v);
                        for (&u, &p) in sources.iter().zip(probs) {
                            if rng.gen() < f64::from(p) {
                                self.try_visit(u, out);
                            }
                        }
                    }
                    None => {
                        for (u, e) in graph.in_edges(v) {
                            let p = model.edge_prob(ad, e);
                            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                                self.try_visit(u, out);
                            }
                        }
                    }
                },
            }
        }
        for &u in &out[start..] {
            self.visited[u as usize] = false;
        }
        out.len() - start
    }

    /// Draw a uniform root from `rng`, then its set, appending the members
    /// to `out` as [`Self::generate_rooted_into`] does: one set of a
    /// stream parsed into sets.
    pub(crate) fn draw_into<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        source: &ResolvedModel<'_, M>,
        ad: AdId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        let root = rng.gen_range(0..source.graph.num_nodes() as NodeId);
        self.generate_rooted_into(source, ad, root, rng, out);
    }

    #[inline]
    fn try_visit(&mut self, u: NodeId, out: &mut Vec<NodeId>) {
        let seen = &mut self.visited[u as usize];
        if !*seen {
            *seen = true;
            out.push(u);
        }
    }
}

/// Estimate `σ_ad(seeds)` from `num_sets` RR-sets generated on the fly:
/// `n · (covered sets) / num_sets`. Convenience helper used by tests and the
/// seed-cost assignment; large-scale estimation goes through
/// [`crate::arena::RrArena`] and the [`crate::cache::RrCache`].
pub fn rr_spread_estimate<M: PropagationModel, R: Rng>(
    graph: &DirectedGraph,
    model: &M,
    ad: AdId,
    seeds: &[NodeId],
    num_sets: usize,
    strategy: RrStrategy,
    rng: &mut R,
) -> f64 {
    if seeds.is_empty() || num_sets == 0 {
        return 0.0;
    }
    let mut is_seed = vec![false; graph.num_nodes()];
    for &s in seeds {
        is_seed[s as usize] = true;
    }
    let source = ResolvedModel::new(graph, model, strategy, [ad], num_sets);
    let mut gen = RrGenerator::new(graph.num_nodes(), strategy);
    let mut members = Vec::new();
    let mut covered = 0usize;
    for _ in 0..num_sets {
        members.clear();
        let root = rng.gen_range(0..graph.num_nodes() as NodeId);
        gen.generate_rooted_into(&source, ad, root, rng, &mut members);
        if members.iter().any(|&u| is_seed[u as usize]) {
            covered += 1;
        }
    }
    graph.num_nodes() as f64 * covered as f64 / num_sets as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactOracle;
    use crate::models::{MaterializedModel, UniformIc, WeightedCascade};
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;
    use rmsa_graph::generators::barabasi_albert;
    use rmsa_graph::graph_from_edges;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(2024)
    }

    /// Members of one RR-set for advertiser 0 rooted at `root`, root first.
    fn rooted<M: PropagationModel>(
        gen: &mut RrGenerator,
        g: &DirectedGraph,
        m: &M,
        root: NodeId,
    ) -> Vec<NodeId> {
        let mut members = Vec::new();
        let source = ResolvedModel::new(g, m, gen.strategy(), [0], 1);
        let len = gen.generate_rooted_into(&source, 0, root, &mut rng(), &mut members);
        assert_eq!(len, members.len());
        members
    }

    #[test]
    fn rr_set_contains_root_and_only_reverse_reachable_nodes() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = UniformIc::new(1, 1.0);
        let mut gen = RrGenerator::new(4, RrStrategy::Standard);
        let mut nodes = rooted(&mut gen, &g, &m, 3);
        assert_eq!(nodes[0], 3);
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        assert_eq!(rooted(&mut gen, &g, &m, 0), vec![0]);
    }

    #[test]
    fn zero_probability_yields_singleton_rr_sets() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = UniformIc::new(1, 0.0);
        let mut gen = RrGenerator::new(4, RrStrategy::Standard);
        for root in 0..4u32 {
            assert_eq!(rooted(&mut gen, &g, &m, root), vec![root]);
        }
    }

    #[test]
    fn rr_estimate_matches_exact_spread() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4), (1, 4)]);
        let m = UniformIc::new(1, 0.4);
        let mut oracle = ExactOracle::new(&g, &m);
        let exact = oracle.spread(0, &[0]);
        let est = rr_spread_estimate(&g, &m, 0, &[0], 60_000, RrStrategy::Standard, &mut rng());
        assert!((exact - est).abs() < 0.06, "exact {exact}, estimate {est}");
    }

    #[test]
    fn subsim_and_standard_agree_statistically_on_weighted_cascade() {
        let g = barabasi_albert(400, 3, &mut rng());
        let wc = WeightedCascade::new(&g, 1);
        let seeds: Vec<NodeId> = (0..10).collect();
        let a = rr_spread_estimate(&g, &wc, 0, &seeds, 20_000, RrStrategy::Standard, &mut rng());
        let b = rr_spread_estimate(&g, &wc, 0, &seeds, 20_000, RrStrategy::Subsim, &mut rng());
        let rel = (a - b).abs() / a.max(1.0);
        assert!(rel < 0.1, "standard {a} vs subsim {b}");
    }

    #[test]
    fn subsim_falls_back_for_non_uniform_models() {
        // UniformIc advertises a uniform probability, but a TIC-like model
        // does not; exercise the fallback path by wrapping a model that
        // refuses the fast path.
        struct NoFastPath(UniformIc);
        impl PropagationModel for NoFastPath {
            fn num_ads(&self) -> usize {
                self.0.num_ads()
            }
            fn edge_prob(&self, ad: AdId, e: rmsa_graph::EdgeId) -> f64 {
                self.0.edge_prob(ad, e)
            }
        }
        let g = graph_from_edges(3, &[(0, 2), (1, 2)]);
        let m = NoFastPath(UniformIc::new(1, 1.0));
        let mut gen = RrGenerator::new(3, RrStrategy::Subsim);
        assert_eq!(rooted(&mut gen, &g, &m, 2).len(), 3);
    }

    #[test]
    fn resolved_rows_hold_the_live_in_edges_shared_and_sized_to_the_call() {
        let g = barabasi_albert(50, 3, &mut rng());
        let m = g.num_edges();
        // Every third edge has p = 0.
        let rows: Vec<Vec<f32>> = (0..3)
            .map(|ad| (0..m).map(|e| ((e * 7 + ad) % 3) as f32 / 2.0).collect())
            .collect();
        let tic = MaterializedModel::from_rows(rows);
        let (standard, subsim) = (RrStrategy::Standard, RrStrategy::Subsim);
        // SUBSIM reads TIC rows too: no node's in-edges share one value.
        for strategy in [standard, subsim] {
            let source = ResolvedModel::new(&g, &tic, strategy, 0..3, 3 * 25);
            for ad in 0..3 {
                let live = source.live_row(ad).unwrap();
                for v in g.nodes() {
                    let expected: Vec<(NodeId, f64)> = g
                        .in_edges(v)
                        .map(|(u, e)| (u, tic.edge_prob(ad, e)))
                        .filter(|&(_, p)| p > 0.0)
                        .collect();
                    let (sources, probs) = live.edges_into(v);
                    let got: Vec<(NodeId, f64)> = sources
                        .iter()
                        .zip(probs)
                        .map(|(&u, &p)| (u, f64::from(p)))
                        .collect();
                    assert_eq!(got, expected);
                }
            }
        }
        // Only the advertisers the call can draw are resolved.
        let one = ResolvedModel::new(&g, &tic, standard, [1], 50);
        assert_eq!(one.rows.len(), 1);
        assert!(one.live_row(0).is_none() && one.live_row(1).is_some());
        // Weighted-Cascade's advertisers share one stored row: one slot.
        // SUBSIM jumps over every WC node, so it resolves none.
        let wc = WeightedCascade::new(&g, 4);
        let shared = ResolvedModel::new(&g, &wc, standard, 0..4, 50);
        assert_eq!(shared.rows.len(), 1);
        assert!((0..4).all(|ad| shared.live_row(ad).is_some()));
        let jumps = ResolvedModel::new(&g, &wc, subsim, 0..4, 1_000);
        assert!((0..4).all(|ad| jumps.live_row(ad).is_none()));
        // Fewer than n / 2 sets per distinct row, or a model without
        // stored rows: the per-edge path.
        let small = ResolvedModel::new(&g, &tic, standard, 0..3, 3 * 25 - 1);
        let uniform = UniformIc::new(3, 0.5);
        let lazy = ResolvedModel::new(&g, &uniform, standard, 0..3, 1_000);
        for ad in 0..3 {
            assert!(small.live_row(ad).is_none());
            assert!(lazy.live_row(ad).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "edge count")]
    fn resolving_a_row_of_the_wrong_length_panics() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let model = MaterializedModel::from_rows(vec![vec![0.5; 3]]);
        ResolvedModel::new(&g, &model, RrStrategy::Standard, [0], 10);
    }

    #[test]
    fn generator_scratch_state_is_reset_between_calls() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let m = UniformIc::new(1, 1.0);
        let mut gen = RrGenerator::new(3, RrStrategy::Standard);
        assert_eq!(rooted(&mut gen, &g, &m, 2).len(), 3);
        assert_eq!(rooted(&mut gen, &g, &m, 0), vec![0]);
        // Appending to a non-empty buffer reports only the new members.
        let mut out = vec![7];
        assert_eq!(
            gen.generate_rooted_into(
                &ResolvedModel::new(&g, &m, RrStrategy::Standard, [0], 1),
                0,
                1,
                &mut rng(),
                &mut out
            ),
            2
        );
        assert_eq!(out[..2], [7, 1]);
    }
}
