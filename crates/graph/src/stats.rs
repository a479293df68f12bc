//! Degree statistics and dataset summaries (Table 1 of the paper).

use crate::csr::DirectedGraph;

/// Summary statistics of a graph's degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Mean out-degree (equals mean in-degree).
    pub mean_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of nodes with no outgoing edges.
    pub sinks: usize,
    /// Number of nodes with no incoming edges.
    pub sources: usize,
}

impl DegreeStats {
    /// Compute statistics for `graph`.
    pub fn compute(graph: &DirectedGraph) -> Self {
        let n = graph.num_nodes();
        let m = graph.num_edges();
        let mut max_out = 0;
        let mut max_in = 0;
        let mut sinks = 0;
        let mut sources = 0;
        for u in graph.nodes() {
            let od = graph.out_degree(u);
            let id = graph.in_degree(u);
            max_out = max_out.max(od);
            max_in = max_in.max(id);
            if od == 0 {
                sinks += 1;
            }
            if id == 0 {
                sources += 1;
            }
        }
        DegreeStats {
            num_nodes: n,
            num_edges: m,
            mean_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            max_out_degree: max_out,
            max_in_degree: max_in,
            sinks,
            sources,
        }
    }
}

/// Histogram of in-degrees in logarithmic buckets (`[1,2), [2,4), [4,8)…`),
/// used to eyeball whether a synthetic dataset is heavy-tailed like its
/// real-world counterpart.
pub fn in_degree_log_histogram(graph: &DirectedGraph) -> Vec<(usize, usize)> {
    let mut buckets: Vec<usize> = Vec::new();
    for v in graph.nodes() {
        let d = graph.in_degree(v);
        if d == 0 {
            continue;
        }
        let bucket = (usize::BITS - 1 - d.leading_zeros()) as usize;
        if buckets.len() <= bucket {
            buckets.resize(bucket + 1, 0);
        }
        buckets[bucket] += 1;
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(b, count)| (1usize << b, count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::celebrity_graph;

    #[test]
    fn stats_on_celebrity_graph() {
        let g = celebrity_graph(2, 3);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_nodes, 8);
        assert_eq!(s.num_edges, 7);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.max_in_degree, 1);
        // The leaves plus the final hub's leaves have out-degree 0.
        assert_eq!(s.sinks, 6);
        // Only the first hub has in-degree 0.
        assert_eq!(s.sources, 1);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let g = crate::generators::celebrity_graph(4, 5);
        let hist = in_degree_log_histogram(&g);
        for (lo, _) in &hist {
            assert!(lo.is_power_of_two());
        }
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        // Every node with in-degree >= 1 is counted exactly once.
        let nonzero = g.nodes().filter(|&v| g.in_degree(v) > 0).count();
        assert_eq!(total, nonzero);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = crate::GraphBuilder::new(0).build();
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
    }
}
