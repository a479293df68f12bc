//! In-process replays through the layers' public functions: the correctness
//! check of served runs and the per-layer numbers of traced runs.

use crate::counting::{CountingOracle, GreedyCounters};
use crate::daemon::{CORES, EVAL_RR, SERVE_SEED, WARM_RR};
use crate::mix::{mix64, DATASET};
use rmsa::core::{rm_with_oracle, RrRevenueEstimator};
use rmsa::diffusion::{RrCacheStats, RrStream, UniformRrSampler};
use rmsa::prelude::*;
use rmsa_bench::ExperimentContext;
use rmsa_service::wire::{Request, Response, SolveRequest, SolveResponse, SolveTiming};
use rmsa_service::{Session, SessionKey};
use std::time::Instant;

/// The context `rmsa serve` builds its sessions under, given the flags
/// [`crate::daemon::Daemon::spawn`] passes. Every field the environment
/// could set is overridden.
pub fn serve_ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::from_env();
    ctx.seed = SERVE_SEED;
    ctx.scale = 1.0;
    ctx.threads = CORES;
    ctx.rma_max_rr = WARM_RR;
    ctx.eval_rr = EVAL_RR;
    ctx
}

pub fn session_key() -> SessionKey {
    SessionKey {
        dataset: DATASET,
        strategy: RrStrategy::Standard,
    }
}

/// The bytes of a solve response that must not depend on how it was
/// served: everything but the timing block.
pub fn canonical(response: &SolveResponse) -> String {
    response.canonical_json().render_compact()
}

/// The response an in-process [`Session::solve`] gives for `request`.
pub fn solve_in_process(
    session: &Session,
    request: &SolveRequest,
) -> Result<SolveResponse, String> {
    let result = session.solve(request).map_err(|e| e.to_string())?;
    Ok(SolveResponse {
        id: request.id,
        session: session.key().label(),
        result,
        timing: SolveTiming::default(),
    })
}

/// `k` distinct indices below `n`, drawn from `seed`.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    let mut state = mix64(seed ^ 0x005A_3F1E);
    while picked.len() < k.min(n) {
        state = mix64(state);
        let i = (state % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Time spent in and work done by the diffusion layer between two cache
/// snapshots.
pub struct CacheDelta {
    pub generated: usize,
    pub requested: usize,
    pub served_from_cache: usize,
    pub index_secs: f64,
}

impl CacheDelta {
    pub fn between(before: &RrCacheStats, after: &RrCacheStats) -> CacheDelta {
        CacheDelta {
            generated: after.generated - before.generated,
            requested: after.requested - before.requested,
            served_from_cache: after.served_from_cache - before.served_from_cache,
            index_secs: (after.index_extend_time - before.index_extend_time).as_secs_f64(),
        }
    }

    /// Share of requested RR-sets served from the cache (1 when nothing
    /// was requested: nothing had to be generated).
    pub fn reuse_frac(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.served_from_cache as f64 / self.requested as f64
        }
    }
}

/// Greedy-core accounting over replayed solves: each solve runs
/// `RM_with_Oracle` on R1 under relaxed budgets twice, over the bare
/// estimator and over the counting wrapper, and the two allocations must
/// be bit-identical.
#[derive(Default)]
pub struct GreedyReplay {
    pub solves: usize,
    pub probes: u64,
    pub counters: GreedyCounters,
    pub bare_secs: f64,
    pub counted_secs: f64,
    pub mismatches: usize,
}

impl GreedyReplay {
    /// Replay the greedy core of one solve on the first `theta` RR-sets of
    /// the optimisation stream (the whole stream when it holds more).
    pub fn solve(
        &mut self,
        workbench: &Workbench,
        instance: &RmInstance,
        theta: usize,
        config: &RmaConfig,
    ) -> Allocation {
        let sampler = UniformRrSampler::new(&instance.cpe_values());
        let (estimator, _) = workbench.cache().with_at_least(
            workbench.graph(),
            workbench.model(),
            &sampler,
            RrStream::Optimize,
            theta,
            |v| RrRevenueEstimator::from_view(v.coverage(), instance.gamma()),
        );
        let relaxed = instance.with_scaled_budgets(1.0 + config.rho / 2.0);
        let started = Instant::now();
        let bare = rm_with_oracle(&relaxed, &estimator, config.tau);
        self.bare_secs += started.elapsed().as_secs_f64();
        let counting = CountingOracle::new(&estimator);
        let started = Instant::now();
        let counted = rm_with_oracle(&relaxed, &counting, config.tau);
        self.counted_secs += started.elapsed().as_secs_f64();
        if bare.allocation != counted.allocation
            || bare.revenue.to_bits() != counted.revenue.to_bits()
        {
            self.mismatches += 1;
        }
        let c = counting.counters();
        self.counters.gains += c.gains;
        self.counters.postings += c.postings;
        self.counters.singletons += c.singletons;
        self.counters.gain_secs += c.gain_secs;
        self.probes += counted.search.map_or(0, |s| s.iterations as u64);
        self.solves += 1;
        bare.allocation
    }

    /// Per-solve means, by per-layer metric name.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let per = |x: f64| {
            if self.solves == 0 {
                0.0
            } else {
                x / self.solves as f64
            }
        };
        vec![
            ("search.probes", per(self.probes as f64)),
            ("greedy.gains", per(self.counters.gains as f64)),
            ("greedy.postings", per(self.counters.postings as f64)),
            ("greedy.singletons", per(self.counters.singletons as f64)),
            ("greedy.gain_s", per(self.counters.gain_secs)),
            ("greedy.oracle_solve_ms", per(self.bare_secs) * 1e3),
            (
                "trace.overhead_frac",
                if self.bare_secs > 0.0 {
                    self.counted_secs / self.bare_secs - 1.0
                } else {
                    0.0
                },
            ),
        ]
    }
}

/// Mean microseconds of `Request::parse` and `Response::render_for` over
/// the given request/response pairs, repeated until each side has run for
/// at least 50 ms.
pub fn wire_timing(pairs: &[(SolveRequest, SolveResponse)]) -> (f64, f64) {
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    let lines: Vec<String> = pairs
        .iter()
        .map(|(request, _)| Request::Solve(request.clone()).render())
        .collect();
    let responses: Vec<Response> = pairs
        .iter()
        .map(|(_, response)| Response::Solve(response.clone()))
        .collect();
    let time = |f: &mut dyn FnMut() -> usize| {
        let started = Instant::now();
        let mut calls = 0usize;
        while started.elapsed().as_secs_f64() < 0.05 {
            calls += std::hint::black_box(f());
        }
        started.elapsed().as_secs_f64() * 1e6 / calls as f64
    };
    let parse_us = time(&mut || {
        for line in &lines {
            std::hint::black_box(Request::parse(std::hint::black_box(line)).is_ok());
        }
        lines.len()
    });
    let render_us = time(&mut || {
        for response in &responses {
            std::hint::black_box(std::hint::black_box(response).render_for(2).len());
        }
        responses.len()
    });
    (parse_us, render_us)
}

/// Wall seconds of `f`, with its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}
