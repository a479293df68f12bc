//! # rmsa-diffusion
//!
//! Influence-propagation substrate for the revenue-maximization
//! reproduction:
//!
//! * [`models`] — edge-probability models: the Topic-aware Independent
//!   Cascade (TIC) model of Barbieri et al. used by the paper, the
//!   Weighted-Cascade model used for the scalability datasets, and a uniform
//!   IC model for tests.
//! * [`simulate`] — forward Monte-Carlo simulation of the cascade process
//!   and spread estimation (the "influence oracle" of Section 3).
//! * [`exact`] — exact expected-spread computation by possible-world
//!   enumeration, feasible only for tiny graphs and used to validate both
//!   the simulator and the RR-set estimators in tests.
//! * [`rr`] — reverse-reachable (RR) set generation: the standard reverse
//!   BFS of Borgs et al. and a SUBSIM-style generator that uses geometric
//!   skipping when a node's incoming probabilities are uniform.
//! * [`sampler`] — the paper's uniform sampling method (Section 4.2): each
//!   RR-set first samples an advertiser proportional to its CPE and then a
//!   uniform root.
//! * [`arena`] — the columnar [`RrArena`] RR-set store (flat CSR member
//!   buffer + advertiser column) and the incrementally extendable
//!   [`CoverageIndex`] with its immutable [`CoverageView`] snapshots; all
//!   fast marginal-gain machinery in `rmsa-core` runs on these.
//! * [`cache`] — the shared, lazily-extendable [`RrCache`] behind the
//!   `Solver`/`Workbench` API: parameter sweeps extend one progressively
//!   growing set of arenas (and their coverage indexes) instead of
//!   regenerating them per run.

pub mod arena;
pub mod cache;
pub mod exact;
pub mod models;
pub mod rr;
pub mod sampler;
pub mod simulate;
pub mod snapshot;
mod splice;

pub use arena::{
    shard_plan, CoverBitset, CoverageIndex, CoverageSegment, CoverageView, FreshFootprint,
    RateOrders, RrArena, RrSetRef, ShardSpan, RATE_ORDERS,
};
pub use cache::{
    distribution_fingerprint, RrCache, RrCacheStats, RrRequestStats, RrStream, RrStreamView,
};
// Re-export the store types that appear in this crate's public loading
// API, so downstream callers don't need a direct `rmsa-store` edge.
pub use models::{AdId, MaterializedModel, PropagationModel, TicModel, UniformIc, WeightedCascade};
pub use rmsa_store::{MappedSnapshot, VerifyMode, ZERO_COPY_TARGET};
pub use rr::{ResolvedModel, RrGenerator, RrStrategy};
pub use sampler::UniformRrSampler;
pub use simulate::{estimate_spread, simulate_once};
pub use snapshot::ModelSnapshot;
