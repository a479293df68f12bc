//! # rmsa — Revenue Maximization in Social Advertising
//!
//! Facade crate for the reproduction of *"Efficient and Effective Algorithms
//! for Revenue Maximization in Social Advertising"* (SIGMOD 2021). It
//! re-exports the workspace crates under stable module names and adds the
//! [`Workbench`] session API:
//!
//! * [`graph`] — CSR directed graphs, generators, IO ([`rmsa_graph`]).
//! * [`diffusion`] — TIC / Weighted-Cascade models, Monte-Carlo simulation,
//!   RR-set sampling and the shared [`diffusion::RrCache`]
//!   ([`rmsa_diffusion`]).
//! * [`core`] — the RM problem, the paper's algorithms (oracle + sampling),
//!   the baselines, and the unified [`core::solver::Solver`] trait
//!   ([`rmsa_core`]).
//! * [`datasets`] — synthetic dataset stand-ins and experiment configuration
//!   ([`rmsa_datasets`]).
//!
//! ## The solving session
//!
//! Algorithms are [`core::solver::Solver`]s invoked through a
//! [`core::solver::SolveContext`]; the [`Workbench`] owns graph, model, and
//! a shared RR-set cache, and drives registered solvers across parameter
//! sweeps so sampling work is amortised instead of repeated. See `DESIGN.md`
//! for the paper-algorithm → module map and the migration table from the
//! pre-0.2 free-function API, and `examples/quickstart.rs` for a
//! five-minute tour.

pub use rmsa_core as core;
pub use rmsa_datasets as datasets;
pub use rmsa_diffusion as diffusion;
pub use rmsa_graph as graph;

mod workbench;

pub use workbench::{SweepPoint, WarmStats, Workbench, WorkbenchBuilder};

/// Commonly used items, re-exported flat for convenience.
pub mod prelude {
    pub use crate::workbench::{SweepPoint, WarmStats, Workbench, WorkbenchBuilder};
    pub use rmsa_core::baselines::{TiConfig, TiResult};
    pub use rmsa_core::solver::{
        CaGreedy, CsGreedy, OneBatch, OracleGreedy, OracleMode, Rma, RrAccounting, SolveContext,
        SolveReport, Solver, TiCarm, TiCsrm,
    };
    pub use rmsa_core::{
        Advertiser, Allocation, ExactRevenueOracle, IndependentEvaluator, McRevenueOracle,
        RevenueOracle, RmError, RmInstance, RmaConfig, RmaResult, SeedCosts,
    };
    pub use rmsa_datasets::{Dataset, DatasetKind, IncentiveModel};
    pub use rmsa_diffusion::{
        PropagationModel, RrCache, RrCacheStats, RrStrategy, RrStream, TicModel, UniformIc,
        WeightedCascade,
    };
    pub use rmsa_graph::{DirectedGraph, GraphBuilder, NodeId};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let graph = rmsa_graph::generators::celebrity_graph(3, 5);
        let n = graph.num_nodes();
        let mut wb = Workbench::builder()
            .graph(graph)
            .model(UniformIc::new(1, 0.5))
            .threads(1)
            .seed(1)
            .build()
            .expect("graph and model provided");
        wb.register(Rma::new(RmaConfig {
            epsilon: 0.1,
            max_rr_per_collection: 5_000,
            ..RmaConfig::default()
        }));
        let instance = RmInstance::try_new(
            n,
            vec![Advertiser::try_new(10.0, 1.0).unwrap()],
            SeedCosts::Shared(vec![1.0; n]),
        )
        .unwrap();
        let reports = wb.run(&instance).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].allocation.is_disjoint());
    }
}
