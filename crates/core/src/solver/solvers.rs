//! [`Solver`] implementations for every algorithm in the crate.

use super::{RrAccounting, SolveContext, SolveReport, Solver};
use crate::algorithms::rm_oracle::rm_with_oracle;
use crate::baselines::{baseline_greedy, ti_baseline_in, BaselineRule, TiConfig, TiRule};
use crate::error::RmError;
use crate::oracle::{ExactRevenueOracle, McRevenueOracle, RevenueOracle};
use crate::problem::Allocation;
use crate::sampling::estimator::RrRevenueEstimator;
use crate::sampling::rma::{one_batch_with_cache, rma_with_cache, RmaConfig};
use rmsa_diffusion::{RrRequestStats, RrStream};
use std::time::{Duration, Instant};

fn accounting(used: usize, request: RrRequestStats) -> RrAccounting {
    RrAccounting {
        used,
        generated: request.generated,
        reused: request.served_from_cache,
        index_extended: request.index_extended,
        index_reused: request.index_reused,
    }
}

/// The paper's headline algorithm: progressive-sampling
/// `RM_without_Oracle` (Algorithm 6) on the shared cache.
#[derive(Clone, Debug, Default)]
pub struct Rma {
    /// Algorithm parameters (ε, δ, τ, ϱ, practical cap).
    pub config: RmaConfig,
}

impl Rma {
    /// An RMA solver with the given configuration.
    pub fn new(config: RmaConfig) -> Self {
        Rma { config }
    }
}

impl Solver for Rma {
    fn name(&self) -> String {
        "RMA".to_string()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolveReport, RmError> {
        let result = rma_with_cache(ctx.graph, &ctx.model, ctx.instance, &self.config, ctx.cache)?;
        Ok(SolveReport {
            solver: self.name(),
            seeding_cost: result.allocation.total_cost(ctx.instance),
            revenue_estimate: result.revenue_estimate,
            revenue_lower_bound: Some(result.revenue_lower_bound),
            beta: Some(result.beta),
            lambda: Some(result.lambda),
            feasible: result.feasible,
            capped: result.capped,
            iterations: result.iterations,
            rr: RrAccounting {
                used: result.total_rr_sets,
                generated: result.rr_generated,
                reused: result.rr_reused,
                index_extended: result.index_extended,
                index_reused: result.index_reused,
            },
            memory_bytes: result.memory_bytes,
            mapped_bytes: result.mapped_bytes,
            index_time: result.index_time,
            loaded_from_snapshot: 0,
            snapshot_load_time: Duration::ZERO,
            elapsed: result.elapsed,
            allocation: result.allocation,
        })
    }
}

/// The one-batch variant of Section 4.3: a single RR-set collection sized
/// up front, one `RM_with_Oracle` pass under relaxed budgets.
///
/// On a warm cache the shared collection may already exceed the requested
/// size; the solve then uses all available RR-sets (a strictly better
/// estimate) and `rr.used` reports the actual count.
#[derive(Clone, Debug)]
pub struct OneBatch {
    /// Shared sampling parameters (ϱ, τ and the practical cap are used).
    pub config: RmaConfig,
    /// Collection size; `None` sizes it at the Theorem-4.2 cap `θ_max`
    /// (clipped by `config.max_rr_per_collection`).
    pub num_rr_sets: Option<usize>,
}

impl OneBatch {
    /// A one-batch solver with an explicit collection size.
    pub fn new(config: RmaConfig, num_rr_sets: usize) -> Self {
        OneBatch {
            config,
            num_rr_sets: Some(num_rr_sets),
        }
    }

    /// A one-batch solver sized at the theoretical cap.
    pub fn at_theta_max(config: RmaConfig) -> Self {
        OneBatch {
            config,
            num_rr_sets: None,
        }
    }
}

impl Solver for OneBatch {
    fn name(&self) -> String {
        "OneBatch".to_string()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolveReport, RmError> {
        use crate::approx::lambda;
        use crate::sampling::bounds::{theta_max, BoundParams};
        let start = Instant::now();
        let requested = match self.num_rr_sets {
            Some(n) => n,
            None => {
                self.config.validate(ctx.num_ads())?;
                let params = BoundParams::from_instance(ctx.instance, self.config.rho);
                let lam = lambda(ctx.num_ads(), self.config.tau);
                let cap = theta_max(
                    &params,
                    self.config.epsilon,
                    self.config.delta / 4.0,
                    lam,
                    self.config.rho,
                );
                cap.ceil() as usize
            }
        };
        // The practical memory cap applies to explicit sizes too; `capped`
        // is set only when the request was actually truncated.
        let num_rr = requested.min(self.config.max_rr_per_collection);
        let (allocation, revenue_estimate, est, request) = one_batch_with_cache(
            ctx.graph,
            &ctx.model,
            ctx.instance,
            num_rr,
            &self.config,
            ctx.cache,
        )?;
        Ok(SolveReport {
            solver: self.name(),
            seeding_cost: allocation.total_cost(ctx.instance),
            revenue_estimate,
            revenue_lower_bound: None,
            beta: None,
            lambda: Some(crate::approx::lambda(ctx.num_ads(), self.config.tau)),
            feasible: true,
            capped: requested > num_rr,
            iterations: 1,
            rr: accounting(est.num_rr(), request),
            memory_bytes: est.coverage().memory_bytes(),
            mapped_bytes: est.coverage().mapped_bytes(),
            index_time: request.index_extend_time,
            loaded_from_snapshot: 0,
            snapshot_load_time: Duration::ZERO,
            elapsed: start.elapsed(),
            allocation,
        })
    }
}

/// How an oracle-setting solver evaluates revenue.
#[derive(Clone, Debug)]
pub enum OracleMode {
    /// Exact possible-world enumeration — exponential in the edge count,
    /// for tiny graphs only.
    Exact,
    /// Monte-Carlo forward simulation with a fixed cascade count.
    MonteCarlo {
        /// Cascades per revenue query.
        simulations: usize,
        /// Base RNG seed (queries derive deterministic streams from it).
        seed: u64,
    },
    /// The Section-4.2 RR-set estimator drawn from the shared cache.
    Sampled {
        /// RR-sets to request from the cache's optimize stream.
        num_rr_sets: usize,
    },
}

/// Which Section-3 style algorithm an oracle-mode solver runs.
enum OracleAlgo {
    /// `RM_with_Oracle(τ)` (Algorithm 5).
    RmOracle {
        /// Binary-search accuracy τ of `Search`.
        tau: f64,
    },
    /// CA-/CS-Greedy of Aslay et al.
    Baseline(BaselineRule),
}

/// Run one oracle-mode algorithm under one [`OracleMode`], reporting
/// `(allocation, revenue estimate, λ if any, rr accounting, memory bytes,
/// index-extension time)`.
#[allow(clippy::type_complexity)]
fn run_oracle_algo(
    ctx: &SolveContext<'_>,
    mode: &OracleMode,
    algo: &OracleAlgo,
) -> Result<
    (
        Allocation,
        f64,
        Option<f64>,
        RrAccounting,
        (usize, usize),
        Duration,
    ),
    RmError,
> {
    fn finish<O: RevenueOracle>(
        ctx: &SolveContext<'_>,
        oracle: &O,
        algo: &OracleAlgo,
    ) -> (Allocation, f64, Option<f64>) {
        match algo {
            OracleAlgo::RmOracle { tau } => {
                let sol = rm_with_oracle(ctx.instance, oracle, *tau);
                (sol.allocation, sol.revenue, Some(sol.lambda))
            }
            OracleAlgo::Baseline(rule) => {
                let alloc = baseline_greedy(ctx.instance, oracle, *rule);
                let revenue = oracle.allocation_revenue(&alloc.seed_sets);
                (alloc, revenue, None)
            }
        }
    }

    if let OracleAlgo::RmOracle { tau } = algo {
        if !(*tau > 0.0 && *tau < 1.0) {
            return Err(RmError::invalid_parameter("tau", *tau, "(0, 1)"));
        }
    }
    match mode {
        OracleMode::Exact => {
            let model = ctx.model;
            let oracle = ExactRevenueOracle::new(ctx.graph, &model, ctx.instance);
            let (alloc, revenue, lam) = finish(ctx, &oracle, algo);
            Ok((
                alloc,
                revenue,
                lam,
                RrAccounting::default(),
                (0, 0),
                Duration::ZERO,
            ))
        }
        OracleMode::MonteCarlo { simulations, seed } => {
            if *simulations == 0 {
                return Err(RmError::invalid_parameter("simulations", 0.0, "[1, ∞)"));
            }
            let model = ctx.model;
            let oracle = McRevenueOracle::new(ctx.graph, &model, ctx.instance, *simulations, *seed);
            let (alloc, revenue, lam) = finish(ctx, &oracle, algo);
            Ok((
                alloc,
                revenue,
                lam,
                RrAccounting::default(),
                (0, 0),
                Duration::ZERO,
            ))
        }
        OracleMode::Sampled { num_rr_sets } => {
            if *num_rr_sets == 0 {
                return Err(RmError::invalid_parameter("num_rr_sets", 0.0, "[1, ∞)"));
            }
            let sampler = ctx.sampler();
            let (est, request) = ctx.cache.with_at_least(
                ctx.graph,
                &ctx.model,
                &sampler,
                RrStream::Optimize,
                *num_rr_sets,
                |v| RrRevenueEstimator::from_view(v.coverage(), ctx.instance.gamma()),
            );
            let (alloc, revenue, lam) = finish(ctx, &est, algo);
            let memory = (est.coverage().memory_bytes(), est.coverage().mapped_bytes());
            Ok((
                alloc,
                revenue,
                lam,
                accounting(est.num_rr(), request),
                memory,
                request.index_extend_time,
            ))
        }
    }
}

fn oracle_report(
    name: String,
    ctx: &SolveContext<'_>,
    outcome: (
        Allocation,
        f64,
        Option<f64>,
        RrAccounting,
        (usize, usize),
        Duration,
    ),
    start: Instant,
) -> SolveReport {
    let (allocation, revenue_estimate, lambda, rr, (memory_bytes, mapped_bytes), index_time) =
        outcome;
    SolveReport {
        solver: name,
        seeding_cost: allocation.total_cost(ctx.instance),
        revenue_estimate,
        revenue_lower_bound: None,
        beta: None,
        lambda,
        feasible: true,
        capped: false,
        iterations: 1,
        rr,
        memory_bytes,
        mapped_bytes,
        index_time,
        loaded_from_snapshot: 0,
        snapshot_load_time: Duration::ZERO,
        elapsed: start.elapsed(),
        allocation,
    }
}

/// `RM_with_Oracle(τ)` (Algorithm 5) under an exact, Monte-Carlo, or
/// RR-sampled revenue oracle.
#[derive(Clone, Debug)]
pub struct OracleGreedy {
    /// Revenue-oracle backend.
    pub mode: OracleMode,
    /// Binary-search accuracy τ ∈ (0, 1) of `Search`.
    pub tau: f64,
}

impl OracleGreedy {
    /// Algorithm 5 with the exact possible-world oracle (tiny graphs only).
    pub fn exact(tau: f64) -> Self {
        OracleGreedy {
            mode: OracleMode::Exact,
            tau,
        }
    }

    /// Algorithm 5 with a Monte-Carlo oracle.
    pub fn monte_carlo(tau: f64, simulations: usize, seed: u64) -> Self {
        OracleGreedy {
            mode: OracleMode::MonteCarlo { simulations, seed },
            tau,
        }
    }

    /// Algorithm 5 with the RR-set estimator from the shared cache.
    pub fn sampled(tau: f64, num_rr_sets: usize) -> Self {
        OracleGreedy {
            mode: OracleMode::Sampled { num_rr_sets },
            tau,
        }
    }
}

impl Solver for OracleGreedy {
    fn name(&self) -> String {
        match &self.mode {
            OracleMode::Exact => "RM-Oracle(exact)".to_string(),
            OracleMode::MonteCarlo { .. } => "RM-Oracle(mc)".to_string(),
            OracleMode::Sampled { .. } => "RM-Oracle(rr)".to_string(),
        }
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolveReport, RmError> {
        let start = Instant::now();
        let outcome = run_oracle_algo(ctx, &self.mode, &OracleAlgo::RmOracle { tau: self.tau })?;
        Ok(oracle_report(self.name(), ctx, outcome, start))
    }
}

/// Cost-Agnostic Greedy of Aslay et al. (selects by marginal gain;
/// saturates an advertiser at its first budget violation).
#[derive(Clone, Debug)]
pub struct CaGreedy {
    /// Revenue-oracle backend.
    pub mode: OracleMode,
}

impl CaGreedy {
    /// CA-Greedy under the given oracle backend.
    pub fn new(mode: OracleMode) -> Self {
        CaGreedy { mode }
    }
}

impl Solver for CaGreedy {
    fn name(&self) -> String {
        "CA-Greedy".to_string()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolveReport, RmError> {
        let start = Instant::now();
        let outcome = run_oracle_algo(
            ctx,
            &self.mode,
            &OracleAlgo::Baseline(BaselineRule::CostAgnostic),
        )?;
        Ok(oracle_report(self.name(), ctx, outcome, start))
    }
}

/// Cost-Sensitive Greedy of Aslay et al. (selects by marginal rate; skips
/// infeasible elements).
#[derive(Clone, Debug)]
pub struct CsGreedy {
    /// Revenue-oracle backend.
    pub mode: OracleMode,
}

impl CsGreedy {
    /// CS-Greedy under the given oracle backend.
    pub fn new(mode: OracleMode) -> Self {
        CsGreedy { mode }
    }
}

impl Solver for CsGreedy {
    fn name(&self) -> String {
        "CS-Greedy".to_string()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolveReport, RmError> {
        let start = Instant::now();
        let outcome = run_oracle_algo(
            ctx,
            &self.mode,
            &OracleAlgo::Baseline(BaselineRule::CostSensitive),
        )?;
        Ok(oracle_report(self.name(), ctx, outcome, start))
    }
}

fn ti_report(
    name: String,
    ctx: &SolveContext<'_>,
    result: crate::baselines::TiResult,
) -> SolveReport {
    SolveReport {
        solver: name,
        seeding_cost: result.allocation.total_cost(ctx.instance),
        revenue_estimate: result.revenue_estimate,
        revenue_lower_bound: None,
        beta: None,
        lambda: None,
        feasible: true,
        capped: result.capped,
        iterations: 1,
        rr: RrAccounting {
            used: result.total_rr_sets,
            generated: result.total_rr_sets,
            reused: 0,
            // The TI baselines index a private arena — nothing goes
            // through the shared cache, so there is no shared-index work
            // to report.
            index_extended: 0,
            index_reused: 0,
        },
        memory_bytes: result.memory_bytes,
        // The TI baselines own all their sample structures on the heap —
        // nothing is borrowed from a mapped snapshot.
        mapped_bytes: 0,
        index_time: result.index_time,
        loaded_from_snapshot: 0,
        snapshot_load_time: Duration::ZERO,
        elapsed: result.elapsed,
        allocation: result.allocation,
    }
}

/// TI-CARM of Aslay et al.: per-advertiser TIM-style collections, cost-
/// agnostic selection, conservative upper-bound feasibility.
///
/// Per the paper's comparison protocol the baselines may receive budgets
/// scaled by `(1 + ϱ)` relative to RMA's; set `budget_scale` accordingly.
/// The per-ad collections cannot reuse the uniform-sampler cache — their
/// generation cost is part of what the experiments measure — so every
/// solve regenerates all of its sets. Only the buffers are reused: the
/// sample is drawn into the context cache's spare arena
/// ([`rmsa_diffusion::RrCache::take_workspace`]), and the report's
/// `memory_bytes` is still a fresh run's footprint.
#[derive(Clone, Debug)]
pub struct TiCarm {
    /// TIM-style sampling parameters.
    pub config: TiConfig,
    /// Budget multiplier applied before solving (1.0 = none).
    pub budget_scale: f64,
}

impl TiCarm {
    /// TI-CARM with unscaled budgets.
    pub fn new(config: TiConfig) -> Self {
        TiCarm {
            config,
            budget_scale: 1.0,
        }
    }

    /// TI-CARM with budgets scaled by `scale` (the paper uses `1 + ϱ`).
    pub fn with_budget_scale(config: TiConfig, scale: f64) -> Self {
        TiCarm {
            config,
            budget_scale: scale,
        }
    }
}

impl Solver for TiCarm {
    fn name(&self) -> String {
        "TI-CARM".to_string()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolveReport, RmError> {
        let instance = scaled(ctx, self.budget_scale)?;
        let result = ti_baseline_in(
            ctx.graph,
            &ctx.model,
            &instance,
            &self.config,
            TiRule::CostAgnostic,
            ctx.cache,
        )?;
        Ok(ti_report(self.name(), ctx, result))
    }
}

/// TI-CSRM of Aslay et al. (cost-sensitive variant of [`TiCarm`]).
#[derive(Clone, Debug)]
pub struct TiCsrm {
    /// TIM-style sampling parameters.
    pub config: TiConfig,
    /// Budget multiplier applied before solving (1.0 = none).
    pub budget_scale: f64,
}

impl TiCsrm {
    /// TI-CSRM with unscaled budgets.
    pub fn new(config: TiConfig) -> Self {
        TiCsrm {
            config,
            budget_scale: 1.0,
        }
    }

    /// TI-CSRM with budgets scaled by `scale` (the paper uses `1 + ϱ`).
    pub fn with_budget_scale(config: TiConfig, scale: f64) -> Self {
        TiCsrm {
            config,
            budget_scale: scale,
        }
    }
}

impl Solver for TiCsrm {
    fn name(&self) -> String {
        "TI-CSRM".to_string()
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolveReport, RmError> {
        let instance = scaled(ctx, self.budget_scale)?;
        let result = ti_baseline_in(
            ctx.graph,
            &ctx.model,
            &instance,
            &self.config,
            TiRule::CostSensitive,
            ctx.cache,
        )?;
        Ok(ti_report(self.name(), ctx, result))
    }
}

fn scaled(ctx: &SolveContext<'_>, scale: f64) -> Result<crate::problem::RmInstance, RmError> {
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(RmError::invalid_parameter("budget_scale", scale, "(0, ∞)"));
    }
    Ok(if scale == 1.0 {
        ctx.instance.clone()
    } else {
        ctx.instance.with_scaled_budgets(scale)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Advertiser, RmInstance, SeedCosts};
    use rmsa_diffusion::{RrCache, RrStrategy, UniformIc};
    use rmsa_graph::generators::celebrity_graph;
    use rmsa_graph::DirectedGraph;

    struct World {
        graph: DirectedGraph,
        model: UniformIc,
        instance: RmInstance,
        cache: RrCache,
    }

    impl World {
        fn new(h: usize) -> Self {
            let graph = celebrity_graph(5, 7);
            let model = UniformIc::new(h, 0.4);
            let n = graph.num_nodes();
            let instance = RmInstance::try_new(
                n,
                (0..h)
                    .map(|_| Advertiser::try_new(12.0, 1.0).unwrap())
                    .collect(),
                SeedCosts::Shared(vec![1.0; n]),
            )
            .unwrap();
            let cache = RrCache::new(n, RrStrategy::Standard, 1, 99);
            World {
                graph,
                model,
                instance,
                cache,
            }
        }

        fn ctx(&self) -> SolveContext<'_> {
            SolveContext::new(&self.graph, &self.model, &self.instance, &self.cache).unwrap()
        }
    }

    fn quick_rma() -> RmaConfig {
        RmaConfig {
            epsilon: 0.1,
            delta: 0.1,
            rho: 0.2,
            max_rr_per_collection: 30_000,
            ..RmaConfig::default()
        }
    }

    #[test]
    fn every_solver_returns_a_disjoint_allocation() {
        let world = World::new(3);
        let ti_cfg = TiConfig {
            pilot_sets: 256,
            max_rr_per_ad: 3_000,
            epsilon: 0.3,
            ..TiConfig::default()
        };
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(Rma::new(quick_rma())),
            Box::new(OneBatch::new(quick_rma(), 8_000)),
            Box::new(OracleGreedy::sampled(0.1, 8_000)),
            Box::new(OracleGreedy::monte_carlo(0.1, 64, 5)),
            Box::new(CaGreedy::new(OracleMode::Sampled { num_rr_sets: 8_000 })),
            Box::new(CsGreedy::new(OracleMode::Sampled { num_rr_sets: 8_000 })),
            Box::new(TiCarm::with_budget_scale(ti_cfg.clone(), 1.2)),
            Box::new(TiCsrm::with_budget_scale(ti_cfg, 1.2)),
        ];
        let ctx = world.ctx();
        for solver in &solvers {
            let report = solver.solve(&ctx).unwrap_or_else(|e| {
                panic!("solver {} failed: {e}", solver.name());
            });
            assert!(
                report.allocation.is_disjoint(),
                "{} violated the partition constraint",
                report.solver
            );
            assert_eq!(report.solver, solver.name());
            assert!(report.seeding_cost >= 0.0);
            assert!(!report.summary().is_empty());
            if report.solver.starts_with("TI-") {
                // The private index over every generated set took time.
                assert!(report.index_time > Duration::ZERO, "{}", report.solver);
            }
        }
        // The sampled solvers shared the cache's optimize stream: total
        // generation is bounded by the largest request, not the sum.
        let stats = world.cache.stats();
        assert!(stats.served_from_cache > 0, "cache reuse expected");
    }

    #[test]
    fn exact_oracle_greedy_works_on_a_tiny_graph() {
        let graph = rmsa_graph::graph_from_edges(6, &[(0, 1), (0, 2), (3, 4)]);
        let model = UniformIc::new(2, 0.6);
        let instance = RmInstance::try_new(
            6,
            vec![
                Advertiser::try_new(4.0, 1.0).unwrap(),
                Advertiser::try_new(4.0, 1.0).unwrap(),
            ],
            SeedCosts::Shared(vec![1.0; 6]),
        )
        .unwrap();
        let cache = RrCache::new(6, RrStrategy::Standard, 1, 3);
        let ctx = SolveContext::new(&graph, &model, &instance, &cache).unwrap();
        let report = OracleGreedy::exact(0.1).solve(&ctx).unwrap();
        assert!(report.allocation.is_disjoint());
        assert_eq!(report.rr.used, 0, "exact mode generates no RR-sets");
        assert!(report.lambda.is_some());
    }

    #[test]
    fn rma_solver_reports_certificate_fields() {
        let world = World::new(2);
        let report = Rma::new(quick_rma()).solve(&world.ctx()).unwrap();
        assert!(report.beta.is_some());
        assert!(report.lambda.is_some());
        assert!(report.revenue_lower_bound.is_some());
        assert!(report.rr.used > 0);
        assert!(report.iterations >= 1);
    }

    #[test]
    fn invalid_parameters_surface_as_errors() {
        let world = World::new(2);
        let ctx = world.ctx();
        let mut bad = quick_rma();
        bad.epsilon = 0.9;
        assert!(Rma::new(bad).solve(&ctx).is_err());
        assert!(OracleGreedy::sampled(0.0, 1_000).solve(&ctx).is_err());
        assert!(OracleGreedy::monte_carlo(0.1, 0, 1).solve(&ctx).is_err());
        assert!(CaGreedy::new(OracleMode::Sampled { num_rr_sets: 0 })
            .solve(&ctx)
            .is_err());
        let mut ti = TiCarm::new(TiConfig::default());
        ti.budget_scale = -1.0;
        assert!(ti.solve(&ctx).is_err());
    }

    #[test]
    fn budget_scale_relaxes_the_ti_baselines() {
        let world = World::new(2);
        let ctx = world.ctx();
        let cfg = TiConfig {
            pilot_sets: 256,
            max_rr_per_ad: 2_000,
            epsilon: 0.3,
            ..TiConfig::default()
        };
        let tight = TiCsrm::new(cfg.clone()).solve(&ctx).unwrap();
        let loose = TiCsrm::with_budget_scale(cfg, 4.0).solve(&ctx).unwrap();
        assert!(
            loose.allocation.total_seeds() >= tight.allocation.total_seeds(),
            "larger budgets cannot shrink the TI seed set"
        );
    }
}
