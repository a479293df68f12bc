//! Compressed-sparse-row directed graph with forward and reverse adjacency.

use rmsa_store::Column;

/// Dense node identifier in `0..n`.
pub type NodeId = u32;

/// Stable edge identifier: the edge's position in the forward CSR.
pub type EdgeId = u32;

/// An immutable directed graph in CSR form.
///
/// Both forward (out-going) and reverse (in-coming) adjacency are
/// materialised. The reverse adjacency additionally stores, for each slot,
/// the forward [`EdgeId`] of the corresponding edge so that per-edge
/// attributes indexed by forward edge id can be looked up while walking
/// incoming edges (the hot path of RR-set generation).
///
/// The columns are [`Column`]s rather than `Vec`s: a graph built in
/// memory owns its arrays, while one loaded from an `mmap`'d v2
/// snapshot borrows them zero-copy from the file mapping (see
/// `rmsa_store::mapping`). Every accessor works identically on both.
#[derive(Clone, Debug)]
pub struct DirectedGraph {
    pub(crate) num_nodes: usize,
    /// Forward CSR offsets, length `n + 1`.
    pub(crate) out_offsets: Column<u32>,
    /// Forward CSR targets, length `m`.
    pub(crate) out_targets: Column<NodeId>,
    /// Reverse CSR offsets, length `n + 1`.
    pub(crate) in_offsets: Column<u32>,
    /// Reverse CSR sources, length `m`.
    pub(crate) in_sources: Column<NodeId>,
    /// For each reverse slot, the forward edge id of that edge.
    pub(crate) in_edge_ids: Column<EdgeId>,
}

impl DirectedGraph {
    /// Build a graph from a sorted forward edge list.
    ///
    /// `edges` must already be free of self-loops. Ordering does not matter;
    /// the constructor counting-sorts by source (forward) and target
    /// (reverse).
    pub(crate) fn from_edge_list(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let m = edges.len();
        assert!(
            num_nodes <= u32::MAX as usize,
            "node count exceeds u32 id space"
        );

        // Forward CSR via counting sort on source.
        let mut out_offsets = vec![0u32; num_nodes + 1];
        for &(u, _) in edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0 as NodeId; m];
        let mut cursor = out_offsets.clone();
        // Forward edge ids are assigned by this placement order.
        let mut fwd_id_of_input = vec![0 as EdgeId; m];
        for (idx, &(u, v)) in edges.iter().enumerate() {
            let pos = cursor[u as usize];
            out_targets[pos as usize] = v;
            fwd_id_of_input[idx] = pos;
            cursor[u as usize] += 1;
        }

        // Reverse CSR via counting sort on target, remembering forward ids.
        let mut in_offsets = vec![0u32; num_nodes + 1];
        for &(_, v) in edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_edge_ids = vec![0 as EdgeId; m];
        let mut cursor = in_offsets.clone();
        for (idx, &(u, v)) in edges.iter().enumerate() {
            let pos = cursor[v as usize] as usize;
            in_sources[pos] = u;
            in_edge_ids[pos] = fwd_id_of_input[idx];
            cursor[v as usize] += 1;
        }

        DirectedGraph {
            num_nodes,
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
            in_edge_ids: in_edge_ids.into(),
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all node ids.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes as NodeId
    }

    /// Out-neighbours of `u` (targets of edges leaving `u`).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbours of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Incoming edges of `v` as `(source, forward edge id)` pairs.
    ///
    /// This is the access pattern of reverse-reachable-set generation: the
    /// forward edge id indexes per-edge propagation probabilities.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        self.in_sources[lo..hi]
            .iter()
            .copied()
            .zip(self.in_edge_ids[lo..hi].iter().copied())
    }

    /// Outgoing edges of `u` as `(target, forward edge id)` pairs.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        self.out_targets[lo..hi]
            .iter()
            .copied()
            .enumerate()
            .map(move |(i, v)| (v, (lo + i) as EdgeId))
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Iterate over every edge as `(source, target, edge id)` in forward
    /// edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeId)> + '_ {
        (0..self.num_nodes).flat_map(move |u| {
            let lo = self.out_offsets[u] as usize;
            let hi = self.out_offsets[u + 1] as usize;
            self.out_targets[lo..hi]
                .iter()
                .enumerate()
                .map(move |(i, &v)| (u as NodeId, v, (lo + i) as EdgeId))
        })
    }

    /// Source and target of the edge with forward id `e`.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let v = self.out_targets[e as usize];
        // Binary search over offsets to recover the source.
        let u = match self.out_offsets.binary_search(&e) {
            Ok(mut i) => {
                // Several empty adjacency lists may share the same offset;
                // walk forward to the last node whose range starts at `e`
                // and actually contains it.
                while i + 1 < self.out_offsets.len() && self.out_offsets[i + 1] == e {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (u as NodeId, v)
    }

    /// Total footprint of the CSR arrays, in bytes (used by the
    /// memory-proxy measurements of the Fig. 4 experiment): owned heap
    /// plus file-mapped bytes.
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes() + self.mapped_bytes()
    }

    /// Heap bytes owned by the CSR columns (0 for the parts of a graph
    /// borrowed from a snapshot mapping).
    pub fn resident_bytes(&self) -> usize {
        self.columns().iter().map(|c| c.resident_bytes()).sum()
    }

    /// Bytes borrowed from an `mmap`'d snapshot (0 for an in-memory
    /// graph).
    pub fn mapped_bytes(&self) -> usize {
        self.columns().iter().map(|c| c.mapped_bytes()).sum()
    }

    fn columns(&self) -> [&Column<u32>; 5] {
        [
            &self.out_offsets,
            &self.out_targets,
            &self.in_offsets,
            &self.in_sources,
            &self.in_edge_ids,
        ]
    }

    /// Consistency check used by tests and `debug_assert!`s: the forward and
    /// reverse CSR must describe the same multiset of edges and every
    /// reverse slot must point back at a forward edge with matching
    /// endpoints.
    pub fn validate(&self) -> Result<(), String> {
        if self.out_offsets.len() != self.num_nodes + 1 {
            return Err("forward offset array has wrong length".into());
        }
        if self.in_offsets.len() != self.num_nodes + 1 {
            return Err("reverse offset array has wrong length".into());
        }
        if self.out_offsets.last().map(|&v| v as usize) != Some(self.out_targets.len()) {
            return Err("forward offsets do not cover target array".into());
        }
        if self.in_offsets.last().map(|&v| v as usize) != Some(self.in_sources.len()) {
            return Err("reverse offsets do not cover source array".into());
        }
        if self.out_targets.len() != self.in_sources.len() {
            return Err("forward/reverse edge counts differ".into());
        }
        for v in self.nodes() {
            for (u, e) in self.in_edges(v) {
                let (eu, ev) = self.edge_endpoints(e);
                if eu != u || ev != v {
                    return Err(format!(
                        "reverse slot ({u}->{v}) maps to forward edge {e} = ({eu}->{ev})"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> DirectedGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_adjacency() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn edge_ids_are_consistent_between_directions() {
        let g = diamond();
        g.validate().unwrap();
        for (u, v, e) in g.edges() {
            assert_eq!(g.edge_endpoints(e), (u, v));
        }
    }

    #[test]
    fn in_edges_enumerates_sources_with_ids() {
        let g = diamond();
        let got: Vec<_> = g.in_edges(3).collect();
        assert_eq!(got.len(), 2);
        for (u, e) in got {
            assert_eq!(g.edge_endpoints(e), (u, 3));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let g = GraphBuilder::new(5).build();
        for u in g.nodes() {
            assert!(g.out_neighbors(u).is_empty());
            assert!(g.in_neighbors(u).is_empty());
        }
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
        g.validate().unwrap();
    }

    #[test]
    fn memory_bytes_nonzero_for_nonempty_graph() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }
}
