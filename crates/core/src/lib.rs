//! # rmsa-core
//!
//! Reference implementation of the revenue-maximization algorithms of
//! *"Efficient and Effective Algorithms for Revenue Maximization in Social
//! Advertising"* (SIGMOD 2021).
//!
//! The crate is organised around the paper's two settings:
//!
//! * **Oracle setting** ([`algorithms`]): `Greedy`, `ThresholdGreedy` +
//!   `Fill`, the binary-search driver `Search`, and the dispatcher
//!   `RM_with_Oracle`, all generic over the [`oracle::RevenueOracle`] trait.
//! * **Sampling setting** ([`sampling`]): the uniform RR-set revenue
//!   estimator, the Theorem-4.2 sample-size bounds, the one-batch algorithm
//!   and the progressive-sampling algorithm **RMA** (`RM_without_Oracle`)
//!   with `SeekUB`.
//!
//! [`baselines`] re-implements the competitors of Aslay et al. (CA-/CS-Greedy,
//! TI-CARM, TI-CSRM); [`evaluation`] measures final allocations on RR-sets
//! independent of any algorithm; [`problem`] holds the instance/allocation
//! types; [`approx`] exposes the paper's approximation ratios; [`error`]
//! the unified [`RmError`].
//!
//! Every algorithm is exposed through the unified [`solver::Solver`] trait:
//! a [`solver::SolveContext`] bundles graph, model, instance, and a shared
//! [`rmsa_diffusion::RrCache`], and each solve returns a
//! [`solver::SolveReport`]. See `DESIGN.md` for the paper → module map.
//!
//! ## Quick example
//!
//! ```
//! use rmsa_core::problem::{Advertiser, RmInstance, SeedCosts};
//! use rmsa_core::solver::{Rma, SolveContext, Solver};
//! use rmsa_core::RmaConfig;
//! use rmsa_diffusion::{RrCache, RrStrategy, UniformIc};
//! use rmsa_graph::generators::celebrity_graph;
//!
//! let graph = celebrity_graph(4, 10);
//! let model = UniformIc::new(2, 0.3);
//! let instance = RmInstance::try_new(
//!     graph.num_nodes(),
//!     vec![Advertiser::try_new(15.0, 1.0).unwrap(), Advertiser::try_new(15.0, 1.5).unwrap()],
//!     SeedCosts::Shared(vec![1.0; graph.num_nodes()]),
//! ).unwrap();
//! let cache = RrCache::new(graph.num_nodes(), RrStrategy::Standard, 1, 7);
//! let ctx = SolveContext::new(&graph, &model, &instance, &cache).unwrap();
//! let config = RmaConfig { epsilon: 0.1, max_rr_per_collection: 20_000, ..RmaConfig::default() };
//! let report = Rma::new(config).solve(&ctx).unwrap();
//! assert!(report.allocation.is_disjoint());
//! ```

pub mod algorithms;
pub mod approx;
pub mod baselines;
pub mod error;
pub mod evaluation;
pub mod oracle;
pub mod problem;
pub mod sampling;
pub mod solver;
pub mod threads;
mod util;

pub use algorithms::{fill, greedy_single, rm_with_oracle, search, threshold_greedy};
pub use approx::{b_min_for, lambda};
pub use error::RmError;
pub use evaluation::{EvaluationReport, IndependentEvaluator};
pub use oracle::{marginal_rate, ExactRevenueOracle, McRevenueOracle, RevenueOracle, SeedState};
pub use problem::{Advertiser, Allocation, RmInstance, SeedCosts};
pub use sampling::{RmaConfig, RmaResult, RrRevenueEstimator};
pub use solver::{
    CaGreedy, CsGreedy, OneBatch, OracleGreedy, OracleMode, Rma, RrAccounting, SolveContext,
    SolveReport, Solver, TiCarm, TiCsrm,
};
pub use threads::default_num_threads;
