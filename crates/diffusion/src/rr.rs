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

/// Reusable RR-set generator holding scratch buffers.
///
/// Keeping the `visited` bitmap across calls avoids an `O(n)` allocation per
/// RR-set, which dominates the cost on large sparse graphs.
pub struct RrGenerator {
    strategy: RrStrategy,
    visited: Vec<bool>,
    touched: Vec<NodeId>,
    queue: std::collections::VecDeque<NodeId>,
}

impl RrGenerator {
    /// Create a generator for graphs with `num_nodes` nodes.
    pub fn new(num_nodes: usize, strategy: RrStrategy) -> Self {
        RrGenerator {
            strategy,
            visited: vec![false; num_nodes],
            touched: Vec::new(),
            queue: std::collections::VecDeque::new(),
        }
    }

    /// The configured generation strategy.
    pub fn strategy(&self) -> RrStrategy {
        self.strategy
    }

    /// Generate one RR-set for `ad` rooted at `root`, appending the member
    /// nodes (root first) to `out` instead of allocating a fresh vector.
    /// Returns the number of appended members.
    ///
    /// This is the emission path of the columnar [`crate::arena::RrArena`]:
    /// sets are written back to back into one flat buffer, so generation
    /// performs no per-set allocation at all.
    pub fn generate_rooted_into<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        ad: AdId,
        root: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> usize {
        debug_assert_eq!(self.visited.len(), graph.num_nodes());
        let start = out.len();
        // Reset scratch state from the previous call.
        for &t in &self.touched {
            self.visited[t as usize] = false;
        }
        self.touched.clear();
        self.queue.clear();

        self.visited[root as usize] = true;
        self.touched.push(root);
        self.queue.push_back(root);
        let nodes = out;
        nodes.push(root);

        while let Some(v) = self.queue.pop_front() {
            let uniform = match self.strategy {
                RrStrategy::Subsim => model.uniform_in_prob(ad, v),
                RrStrategy::Standard => None,
            };
            match uniform {
                Some(p) if p <= 0.0 => {}
                Some(p) if p >= 1.0 => {
                    for (u, _) in graph.in_edges(v) {
                        self.try_visit(u, nodes);
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
                        self.try_visit(in_neighbors[idx as usize], nodes);
                    }
                }
                None => {
                    for (u, e) in graph.in_edges(v) {
                        let p = model.edge_prob(ad, e);
                        if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                            self.try_visit(u, nodes);
                        }
                    }
                }
            }
        }
        nodes.len() - start
    }

    #[inline]
    fn try_visit(&mut self, u: NodeId, nodes: &mut Vec<NodeId>) {
        if !self.visited[u as usize] {
            self.visited[u as usize] = true;
            self.touched.push(u);
            self.queue.push_back(u);
            nodes.push(u);
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
    let mut gen = RrGenerator::new(graph.num_nodes(), strategy);
    let mut members = Vec::new();
    let mut covered = 0usize;
    for _ in 0..num_sets {
        members.clear();
        let root = rng.gen_range(0..graph.num_nodes() as NodeId);
        gen.generate_rooted_into(graph, model, ad, root, rng, &mut members);
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
    use crate::models::{UniformIc, WeightedCascade};
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
        let len = gen.generate_rooted_into(g, m, 0, root, &mut rng(), &mut members);
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
    fn generator_scratch_state_is_reset_between_calls() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let m = UniformIc::new(1, 1.0);
        let mut gen = RrGenerator::new(3, RrStrategy::Standard);
        assert_eq!(rooted(&mut gen, &g, &m, 2).len(), 3);
        assert_eq!(rooted(&mut gen, &g, &m, 0), vec![0]);
        // Appending to a non-empty buffer reports only the new members.
        let mut out = vec![7];
        assert_eq!(
            gen.generate_rooted_into(&g, &m, 0, 1, &mut rng(), &mut out),
            2
        );
        assert_eq!(out[..2], [7, 1]);
    }
}
