//! # rmsa-service — the online serving subsystem
//!
//! Everything behind the `rmsa serve` / `rmsa query` / `rmsa loadgen`
//! subcommands: a long-running daemon that keeps [`Workbench`] sessions
//! warm and answers a stream of revenue-maximization queries over a
//! newline-delimited JSON protocol on plain TCP.
//!
//! * [`wire`] — the versioned request/response schema (v2 with typed
//!   error codes, v1 still answered in kind; golden filed like
//!   `BENCH_*.json`).
//! * [`session`] — warm sessions keyed by `(dataset, strategy)`
//!   fingerprint, an LRU-bounded [`session::SessionRegistry`], and the
//!   warm invariant that makes serving deterministic.
//! * [`net`] — the readiness poller (hand-rolled epoll on Linux, a
//!   portable scan fallback elsewhere) and its cross-thread waker.
//! * [`server`] — event-loop front end, admission/batching queue,
//!   worker pool.
//! * [`client`] — blocking NDJSON client.
//! * [`loadgen`] — seeded closed-loop / open-loop load generator
//!   emitting `BENCH_service.json` / `BENCH_service_open.json`.
//!
//! Each daemon owns one [`rmsa_obs::Obs`]: its metrics, traces and
//! flight events are its own, even with several daemons in one process.
//!
//! See `DESIGN.md`, sections "Serving architecture" and "Event-loop
//! serving", for the batching invariant, the determinism guarantee, and
//! the pipelining ordering invariant.
//!
//! [`Workbench`]: rmsa::Workbench

pub mod client;
mod event_loop;
pub mod loadgen;
pub mod net;
pub(crate) mod obs_report;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod wire;

pub use client::ServiceClient;
pub use loadgen::{LoadMix, LoadgenOutcome, LoadgenPlan, Mode};
pub use server::{start, ServerConfig, ServiceHandle};
pub use session::{Session, SessionKey, SessionRegistry};
pub use snapshot::{SnapshotInfo, SESSION_SNAPSHOT_VERSION};
pub use wire::{
    Request, Response, SolveRequest, WarmRequest, WIRE_MIN_SCHEMA_VERSION, WIRE_SCHEMA_VERSION,
};

/// Lock a mutex, recovering the guarded data if a previous holder
/// panicked: the serving invariant (R1 panic-discipline) is that a fault
/// degrades to an error response, never takes the whole daemon down with
/// a poisoned-lock panic cascade. Guarded state is only ever replaced
/// wholesale (queues drained, counters bumped), so a poisoned value is
/// still structurally sound.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`Mutex::into_inner`] with the same poison recovery as
/// [`lock_unpoisoned`].
///
/// [`Mutex::into_inner`]: std::sync::Mutex::into_inner
pub(crate) fn into_inner_unpoisoned<T>(m: std::sync::Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A tiny [`rmsa_bench::ExperimentContext`] for smoke-scale serving:
/// miniature datasets and sample sizes, single-threaded generation,
/// deterministic seed. Used by the CI smoke profile and the integration
/// tests.
pub fn tiny_serve_ctx(seed: u64) -> rmsa_bench::ExperimentContext {
    let mut ctx = rmsa_bench::ExperimentContext::smoke();
    ctx.seed = seed;
    ctx.spread_rr = 500;
    ctx.eval_rr = 5_000;
    ctx.rma_max_rr = 5_000;
    ctx.ti_max_rr = 1_500;
    ctx
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::wire::{Algorithm, SolveRequest};
    use rmsa_bench::ExperimentContext;
    use rmsa_datasets::{DatasetKind, IncentiveModel};
    use rmsa_diffusion::RrStrategy;

    pub fn tiny_ctx() -> ExperimentContext {
        crate::tiny_serve_ctx(7)
    }

    pub fn solve_request(id: u64, algorithm: Algorithm, alpha: f64) -> SolveRequest {
        SolveRequest {
            id,
            dataset: DatasetKind::LastfmSyn,
            strategy: RrStrategy::Standard,
            algorithm,
            incentive: IncentiveModel::Linear,
            alpha,
            evaluate: true,
        }
    }
}
