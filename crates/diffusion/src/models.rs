//! Edge-probability models.
//!
//! Every model answers one question: with what probability does the edge
//! `u -> v` activate when ad `i` is propagating? The paper's primary model
//! is the Topic-aware Independent Cascade (TIC) model, in which an ad is a
//! mixture over `L` latent topics and each edge carries one probability per
//! topic; the scalability experiments use the Weighted-Cascade model
//! (`p = 1 / indeg(v)`, identical for all ads).

use rmsa_graph::{DirectedGraph, EdgeId, NodeId};

/// Advertiser identifier, `0..h`.
pub type AdId = usize;

/// Per-ad, per-edge activation probabilities.
///
/// Implementations must be cheap to query in the hot RR-generation loop.
/// Two optional fast paths exist:
///
/// * `uniform_in_prob` — when every incoming edge of a node has the same
///   probability under an ad (true for Weighted-Cascade and uniform IC),
///   SUBSIM-style geometric skipping can be used instead of per-edge coin
///   flips.
/// * `probability_row` — a model that stores an ad's probabilities as one
///   forward-ordered array lends it out; RR generation then regroups it
///   into in-edge order once per call and flips its coins over contiguous
///   slices instead of one `edge_prob` call per edge.
pub trait PropagationModel: Send + Sync {
    /// Number of advertisers `h` this model is parameterised for.
    fn num_ads(&self) -> usize;

    /// Activation probability of forward edge `edge` under ad `ad`.
    fn edge_prob(&self, ad: AdId, edge: EdgeId) -> f64;

    /// If all incoming edges of `node` share one probability under `ad`,
    /// return it; otherwise `None`.
    fn uniform_in_prob(&self, _ad: AdId, _node: NodeId) -> Option<f64> {
        None
    }

    /// The stored probability row of `ad`, indexed by forward edge id, if
    /// the model keeps one. Contract: `row[e] as f64 == edge_prob(ad, e)`
    /// for every edge, and the row has one entry per graph edge. Models
    /// that compute probabilities on the fly return `None` (the default).
    fn probability_row(&self, _ad: AdId) -> Option<&[f32]> {
        None
    }
}

// Delegating impls so trait objects (`&dyn PropagationModel`,
// `Box<dyn PropagationModel>`) flow through the generic sampling functions
// unchanged — the `Solver` API stores models type-erased.

impl<M: PropagationModel + ?Sized> PropagationModel for &M {
    fn num_ads(&self) -> usize {
        (**self).num_ads()
    }

    fn edge_prob(&self, ad: AdId, edge: EdgeId) -> f64 {
        (**self).edge_prob(ad, edge)
    }

    fn uniform_in_prob(&self, ad: AdId, node: NodeId) -> Option<f64> {
        (**self).uniform_in_prob(ad, node)
    }

    fn probability_row(&self, ad: AdId) -> Option<&[f32]> {
        (**self).probability_row(ad)
    }
}

impl<M: PropagationModel + ?Sized> PropagationModel for Box<M> {
    fn num_ads(&self) -> usize {
        (**self).num_ads()
    }

    fn edge_prob(&self, ad: AdId, edge: EdgeId) -> f64 {
        (**self).edge_prob(ad, edge)
    }

    fn uniform_in_prob(&self, ad: AdId, node: NodeId) -> Option<f64> {
        (**self).uniform_in_prob(ad, node)
    }

    fn probability_row(&self, ad: AdId) -> Option<&[f32]> {
        (**self).probability_row(ad)
    }
}

/// The Topic-aware Independent Cascade model.
///
/// `topic_edge_probs[z][e]` is the probability that the edge with forward id
/// `e` activates under latent topic `z`; `ad_mixtures[i][z]` is advertiser
/// `i`'s distribution over topics (`Σ_z φ_i(z) = 1`). The per-ad edge
/// probability is the mixture `p^i_e = Σ_z φ_i(z) · p̂^z_e` (Sec. 2.1).
#[derive(Clone, Debug)]
pub struct TicModel {
    num_edges: usize,
    /// `L x m` per-topic edge probabilities.
    topic_edge_probs: Vec<Vec<f32>>,
    /// `h x L` per-ad topic mixtures.
    ad_mixtures: Vec<Vec<f32>>,
}

impl TicModel {
    /// Create a TIC model. Panics if dimensions are inconsistent or any
    /// probability / mixture weight is outside `[0, 1]`.
    pub fn new(
        num_edges: usize,
        topic_edge_probs: Vec<Vec<f32>>,
        ad_mixtures: Vec<Vec<f32>>,
    ) -> Self {
        let num_topics = topic_edge_probs.len();
        assert!(num_topics > 0, "at least one topic required");
        for (z, row) in topic_edge_probs.iter().enumerate() {
            assert_eq!(row.len(), num_edges, "topic {z} probability row length");
            assert!(
                row.iter().all(|p| (0.0..=1.0).contains(p)),
                "topic {z} has a probability outside [0,1]"
            );
        }
        for (i, mix) in ad_mixtures.iter().enumerate() {
            assert_eq!(mix.len(), num_topics, "ad {i} mixture length");
            let sum: f32 = mix.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-3,
                "ad {i} topic mixture sums to {sum}, expected 1"
            );
        }
        TicModel {
            num_edges,
            topic_edge_probs,
            ad_mixtures,
        }
    }

    /// Number of latent topics `L`.
    pub fn num_topics(&self) -> usize {
        self.topic_edge_probs.len()
    }

    /// Number of edges `m` the model covers.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Advertiser `i`'s topic mixture.
    pub fn ad_mixture(&self, ad: AdId) -> &[f32] {
        &self.ad_mixtures[ad]
    }

    /// Per-topic probability of a single edge.
    pub fn topic_edge_prob(&self, topic: usize, edge: EdgeId) -> f64 {
        self.topic_edge_probs[topic][edge as usize] as f64
    }

    /// Materialise per-ad per-edge probabilities into flat arrays for fast
    /// lookup (`h x m` `f32`s). This is the representation used by the
    /// experiment harness; the lazily-mixing [`TicModel`] itself is also a
    /// valid [`PropagationModel`] and is used when memory is tight.
    pub fn materialize(&self) -> MaterializedModel {
        let h = self.ad_mixtures.len();
        let mut per_ad = Vec::with_capacity(h);
        for i in 0..h {
            let mut probs = vec![0.0f32; self.num_edges];
            for (z, row) in self.topic_edge_probs.iter().enumerate() {
                let w = self.ad_mixtures[i][z];
                if w == 0.0 {
                    continue;
                }
                for (e, &p) in row.iter().enumerate() {
                    probs[e] += w * p;
                }
            }
            for p in &mut probs {
                *p = p.min(1.0);
            }
            per_ad.push(probs);
        }
        MaterializedModel { per_ad }
    }
}

impl PropagationModel for TicModel {
    fn num_ads(&self) -> usize {
        self.ad_mixtures.len()
    }

    fn edge_prob(&self, ad: AdId, edge: EdgeId) -> f64 {
        let mix = &self.ad_mixtures[ad];
        let mut p = 0.0f64;
        for (z, &w) in mix.iter().enumerate() {
            if w > 0.0 {
                p += w as f64 * self.topic_edge_probs[z][edge as usize] as f64;
            }
        }
        p.min(1.0)
    }
}

/// Fully materialised per-ad per-edge probabilities (`h x m`).
#[derive(Clone, Debug)]
pub struct MaterializedModel {
    pub(crate) per_ad: Vec<Vec<f32>>,
}

impl MaterializedModel {
    /// Build directly from per-ad probability rows.
    pub fn from_rows(per_ad: Vec<Vec<f32>>) -> Self {
        assert!(!per_ad.is_empty(), "at least one advertiser required");
        let m = per_ad[0].len();
        for (i, row) in per_ad.iter().enumerate() {
            assert_eq!(row.len(), m, "ad {i} probability row length");
            assert!(
                row.iter().all(|p| (0.0..=1.0).contains(p)),
                "ad {i} has a probability outside [0,1]"
            );
        }
        MaterializedModel { per_ad }
    }

    /// Probability row for one advertiser.
    pub fn row(&self, ad: AdId) -> &[f32] {
        &self.per_ad[ad]
    }

    /// Heap footprint in bytes (memory-proxy reporting).
    pub fn memory_bytes(&self) -> usize {
        self.per_ad
            .iter()
            .map(|r| r.capacity() * std::mem::size_of::<f32>())
            .sum()
    }
}

impl PropagationModel for MaterializedModel {
    fn num_ads(&self) -> usize {
        self.per_ad.len()
    }

    #[inline]
    fn edge_prob(&self, ad: AdId, edge: EdgeId) -> f64 {
        self.per_ad[ad][edge as usize] as f64
    }

    fn probability_row(&self, ad: AdId) -> Option<&[f32]> {
        Some(&self.per_ad[ad])
    }
}

/// The Weighted-Cascade model: `p^i_{u,v} = 1 / indeg(v)` for every ad
/// (Sec. 5.2.3). Because the probability depends only on the target node and
/// is identical across ads, RR-set generation can use the SUBSIM geometric
/// fast path.
#[derive(Clone, Debug)]
pub struct WeightedCascade {
    pub(crate) num_ads: usize,
    /// Probability per forward edge id (`1 / indeg(target)`).
    pub(crate) edge_probs: Vec<f32>,
    /// Probability per node (`1 / indeg(node)`, 0 for indeg 0).
    pub(crate) node_probs: Vec<f32>,
}

impl WeightedCascade {
    /// Derive the model from the graph structure.
    pub fn new(graph: &DirectedGraph, num_ads: usize) -> Self {
        assert!(num_ads > 0);
        let mut node_probs = vec![0.0f32; graph.num_nodes()];
        for v in graph.nodes() {
            let d = graph.in_degree(v);
            if d > 0 {
                node_probs[v as usize] = 1.0 / d as f32;
            }
        }
        let mut edge_probs = vec![0.0f32; graph.num_edges()];
        for (_, v, e) in graph.edges() {
            edge_probs[e as usize] = node_probs[v as usize];
        }
        WeightedCascade {
            num_ads,
            edge_probs,
            node_probs,
        }
    }
}

impl PropagationModel for WeightedCascade {
    fn num_ads(&self) -> usize {
        self.num_ads
    }

    #[inline]
    fn edge_prob(&self, _ad: AdId, edge: EdgeId) -> f64 {
        self.edge_probs[edge as usize] as f64
    }

    #[inline]
    fn uniform_in_prob(&self, _ad: AdId, node: NodeId) -> Option<f64> {
        Some(self.node_probs[node as usize] as f64)
    }

    /// Every ad shares the one row, so RR generation resolves it once.
    fn probability_row(&self, _ad: AdId) -> Option<&[f32]> {
        Some(&self.edge_probs)
    }
}

/// Uniform Independent Cascade: one constant probability on every edge and
/// ad. Mostly used by tests, examples, and micro-benchmarks.
#[derive(Clone, Debug)]
pub struct UniformIc {
    pub(crate) num_ads: usize,
    pub(crate) prob: f64,
}

impl UniformIc {
    /// Create a uniform IC model with probability `prob` on every edge.
    pub fn new(num_ads: usize, prob: f64) -> Self {
        assert!(num_ads > 0);
        assert!((0.0..=1.0).contains(&prob));
        UniformIc { num_ads, prob }
    }
}

impl PropagationModel for UniformIc {
    fn num_ads(&self) -> usize {
        self.num_ads
    }

    #[inline]
    fn edge_prob(&self, _ad: AdId, _edge: EdgeId) -> f64 {
        self.prob
    }

    #[inline]
    fn uniform_in_prob(&self, _ad: AdId, _node: NodeId) -> Option<f64> {
        Some(self.prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmsa_graph::graph_from_edges;

    fn tiny_tic() -> TicModel {
        // 2 topics, 3 edges, 2 ads.
        TicModel::new(
            3,
            vec![vec![0.1, 0.2, 0.3], vec![0.9, 0.8, 0.7]],
            vec![vec![1.0, 0.0], vec![0.5, 0.5]],
        )
    }

    #[test]
    fn tic_edge_prob_is_topic_mixture() {
        let m = tiny_tic();
        assert!((m.edge_prob(0, 0) - 0.1).abs() < 1e-6);
        assert!((m.edge_prob(1, 0) - 0.5).abs() < 1e-6);
        assert!((m.edge_prob(1, 2) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn materialized_matches_lazy_mixing() {
        let m = tiny_tic();
        let mat = m.materialize();
        for ad in 0..2 {
            for e in 0..3u32 {
                assert!((m.edge_prob(ad, e) - mat.edge_prob(ad, e)).abs() < 1e-6);
            }
        }
        assert!(mat.memory_bytes() >= 3 * 2 * 4);
    }

    #[test]
    #[should_panic(expected = "mixture sums")]
    fn tic_rejects_non_normalized_mixture() {
        TicModel::new(1, vec![vec![0.5]], vec![vec![0.3]]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn tic_rejects_invalid_probability() {
        TicModel::new(1, vec![vec![1.5]], vec![vec![1.0]]);
    }

    #[test]
    fn weighted_cascade_uses_reciprocal_in_degree() {
        let g = graph_from_edges(3, &[(0, 2), (1, 2), (0, 1)]);
        let wc = WeightedCascade::new(&g, 2);
        // Node 2 has in-degree 2, node 1 has in-degree 1.
        for (_, v, e) in g.edges() {
            let expect = 1.0 / g.in_degree(v) as f64;
            assert!((wc.edge_prob(0, e) - expect).abs() < 1e-6);
            assert!((wc.edge_prob(1, e) - expect).abs() < 1e-6);
        }
        assert_eq!(wc.uniform_in_prob(0, 2), Some(0.5));
        assert_eq!(wc.uniform_in_prob(0, 0), Some(0.0));
    }

    #[test]
    fn probability_rows_agree_with_edge_prob() {
        let g = graph_from_edges(3, &[(0, 2), (1, 2), (0, 1)]);
        let wc = WeightedCascade::new(&g, 2);
        let mat = tiny_tic().materialize();
        for ad in 0..2 {
            for e in 0..3u32 {
                let wc_row = wc.probability_row(ad).unwrap();
                assert_eq!(f64::from(wc_row[e as usize]), wc.edge_prob(ad, e));
                let mat_row = mat.probability_row(ad).unwrap();
                assert_eq!(f64::from(mat_row[e as usize]), mat.edge_prob(ad, e));
            }
        }
        // Lazily mixed and constant models keep no rows.
        assert!(tiny_tic().probability_row(0).is_none());
        assert!(UniformIc::new(1, 0.5).probability_row(0).is_none());
    }

    #[test]
    fn uniform_ic_constant_everywhere() {
        let m = UniformIc::new(3, 0.25);
        assert_eq!(m.num_ads(), 3);
        assert_eq!(m.edge_prob(2, 17), 0.25);
        assert_eq!(m.uniform_in_prob(1, 5), Some(0.25));
    }

    #[test]
    fn materialized_from_rows_validates() {
        let m = MaterializedModel::from_rows(vec![vec![0.1, 0.9], vec![0.2, 0.3]]);
        assert_eq!(m.num_ads(), 2);
        assert!((m.edge_prob(1, 1) - 0.3).abs() < 1e-6);
    }
}
