//! The `Workbench`: a session owning graph + propagation model + RR-set
//! cache, running registered [`Solver`]s across instances and parameter
//! sweeps.
//!
//! The paper's experiments all have the shape "run `h` solvers × `k`
//! parameter points over one graph/model". The workbench makes that the
//! cheap, first-class operation: every sampling solver draws from the
//! workbench's shared [`RrCache`], so RR-set collections are *extended*
//! across runs instead of regenerated, and the independent evaluation
//! collection is likewise built once per advertiser line-up.

use rmsa_core::sampling::RrRevenueEstimator;
use rmsa_core::solver::{SolveContext, SolveReport, Solver};
use rmsa_core::{IndependentEvaluator, RmError, RmInstance};
use rmsa_diffusion::{
    PropagationModel, RrCache, RrCacheStats, RrRequestStats, RrStrategy, RrStream, UniformRrSampler,
};
use rmsa_graph::DirectedGraph;

/// Builder for [`Workbench`]; see [`Workbench::builder`].
pub struct WorkbenchBuilder {
    graph: Option<DirectedGraph>,
    model: Option<Box<dyn PropagationModel>>,
    strategy: RrStrategy,
    threads: usize,
    seed: u64,
    cache: Option<RrCache>,
}

impl WorkbenchBuilder {
    /// The social graph (owned by the workbench).
    pub fn graph(mut self, graph: DirectedGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The propagation model (boxed and owned by the workbench).
    pub fn model<M: PropagationModel + 'static>(mut self, model: M) -> Self {
        self.model = Some(Box::new(model));
        self
    }

    /// A pre-boxed propagation model.
    pub fn boxed_model(mut self, model: Box<dyn PropagationModel>) -> Self {
        self.model = Some(model);
        self
    }

    /// RR-set generation strategy of the shared cache (default:
    /// [`RrStrategy::Standard`]).
    pub fn strategy(mut self, strategy: RrStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Worker threads for RR-set generation (default: `RMSA_THREADS` via
    /// [`rmsa_core::default_num_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Base RNG seed of the shared cache (default `0xC0FFEE`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use an existing [`RrCache`] — typically one restored with
    /// [`RrCache::load_from`] — instead of creating an empty one. The
    /// cache's own strategy/seed take precedence over the builder's; its
    /// node count must match the graph. A stale cache (saved under a
    /// different graph/model/CPE line-up) is safe to pass: the cache's
    /// fingerprint revalidation rejects its collections on first use
    /// instead of serving them.
    pub fn preloaded_cache(mut self, cache: RrCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Assemble the workbench; fails when graph or model is missing or
    /// their dimensions are inconsistent (a stored probability row without
    /// one entry per edge, a preloaded cache for another node count).
    pub fn build(self) -> Result<Workbench, RmError> {
        let graph = self
            .graph
            .ok_or_else(|| RmError::InvalidContext("workbench needs a graph".to_string()))?;
        let model = self.model.ok_or_else(|| {
            RmError::InvalidContext("workbench needs a propagation model".to_string())
        })?;
        if model.num_ads() == 0 {
            return Err(RmError::NoAdvertisers);
        }
        let m = graph.num_edges();
        for ad in 0..model.num_ads() {
            if let Some(row) = model.probability_row(ad).filter(|row| row.len() != m) {
                return Err(RmError::InvalidContext(format!(
                    "advertiser {ad}'s probability row has {} entries but the graph has {m} edges",
                    row.len()
                )));
            }
        }
        let cache = match self.cache {
            Some(cache) => {
                if cache.num_nodes() != graph.num_nodes() {
                    return Err(RmError::InvalidContext(format!(
                        "preloaded cache covers {} nodes but the graph has {}",
                        cache.num_nodes(),
                        graph.num_nodes()
                    )));
                }
                cache
            }
            None => RrCache::new(graph.num_nodes(), self.strategy, self.threads, self.seed),
        };
        Ok(Workbench {
            graph,
            model,
            cache,
            solvers: Vec::new(),
        })
    }
}

/// Accounting of one [`Workbench::warm`] call: the per-stream request
/// stats of the pre-extension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Pre-extension of the [`RrStream::Optimize`] stream.
    pub optimize: RrRequestStats,
    /// Pre-extension of the [`RrStream::Validate`] stream.
    pub validate: RrRequestStats,
}

impl WarmStats {
    /// RR-sets freshly generated by the warm-up across both streams.
    pub fn generated(&self) -> usize {
        self.optimize.generated + self.validate.generated
    }

    /// True when the warm-up found both streams already at (or above) the
    /// requested size — the workbench was already warm.
    pub fn already_warm(&self) -> bool {
        self.generated() == 0
    }
}

/// One point of a parameter sweep: the sweep key plus one report per
/// registered solver.
#[derive(Clone, Debug)]
pub struct SweepPoint<K> {
    /// The swept parameter value (α, ε, a budget, …).
    pub key: K,
    /// Reports of every registered solver, in registration order.
    pub reports: Vec<SolveReport>,
}

/// A solving session over one graph + propagation model.
///
/// ```
/// use rmsa::prelude::*;
///
/// let graph = rmsa_graph::generators::celebrity_graph(3, 5);
/// let n = graph.num_nodes();
/// let mut wb = Workbench::builder()
///     .graph(graph)
///     .model(UniformIc::new(1, 0.5))
///     .threads(1)
///     .seed(7)
///     .build()
///     .unwrap();
/// wb.register(Rma::new(RmaConfig {
///     epsilon: 0.1,
///     max_rr_per_collection: 5_000,
///     ..RmaConfig::default()
/// }));
/// let instance = RmInstance::try_new(
///     n,
///     vec![Advertiser::try_new(10.0, 1.0).unwrap()],
///     SeedCosts::Shared(vec![1.0; n]),
/// )
/// .unwrap();
/// let reports = wb.run(&instance).unwrap();
/// assert!(reports[0].allocation.is_disjoint());
/// ```
pub struct Workbench {
    graph: DirectedGraph,
    model: Box<dyn PropagationModel>,
    cache: RrCache,
    solvers: Vec<Box<dyn Solver>>,
}

impl Workbench {
    /// Start building a workbench.
    pub fn builder() -> WorkbenchBuilder {
        WorkbenchBuilder {
            graph: None,
            model: None,
            strategy: RrStrategy::Standard,
            threads: rmsa_core::default_num_threads(),
            seed: 0xC0FFEE,
            cache: None,
        }
    }

    /// The owned graph.
    pub fn graph(&self) -> &DirectedGraph {
        &self.graph
    }

    /// The owned propagation model.
    pub fn model(&self) -> &dyn PropagationModel {
        self.model.as_ref()
    }

    /// The shared RR-set cache.
    pub fn cache(&self) -> &RrCache {
        &self.cache
    }

    /// Snapshot of the cache's reuse accounting.
    pub fn cache_stats(&self) -> RrCacheStats {
        self.cache.stats()
    }

    /// Register a solver; it participates in every subsequent [`run`]
    /// and [`sweep`] call, in registration order.
    ///
    /// [`run`]: Workbench::run
    /// [`sweep`]: Workbench::sweep
    pub fn register<S: Solver + 'static>(&mut self, solver: S) -> &mut Self {
        self.solvers.push(Box::new(solver));
        self
    }

    /// Names of the registered solvers, in registration order.
    pub fn solver_names(&self) -> Vec<String> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Remove all registered solvers (the cache is untouched).
    pub fn clear_solvers(&mut self) {
        self.solvers.clear();
    }

    /// Assemble a [`SolveContext`] for `instance`, for driving a solver
    /// by hand.
    pub fn context<'a>(&'a self, instance: &'a RmInstance) -> Result<SolveContext<'a>, RmError> {
        SolveContext::new(&self.graph, self.model.as_ref(), instance, &self.cache)
    }

    /// Run one solver on one instance.
    pub fn run_solver(
        &self,
        solver: &dyn Solver,
        instance: &RmInstance,
    ) -> Result<SolveReport, RmError> {
        let ctx = self.context(instance)?;
        solver.solve(&ctx).map(|r| self.stamp_snapshot(r))
    }

    /// Run every registered solver on one instance.
    pub fn run(&self, instance: &RmInstance) -> Result<Vec<SolveReport>, RmError> {
        let ctx = self.context(instance)?;
        self.solvers
            .iter()
            .map(|s| s.solve(&ctx).map(|r| self.stamp_snapshot(r)))
            .collect()
    }

    /// Propagate the shared cache's snapshot accounting into a report:
    /// how many of the RR-sets behind this solve were restored from a
    /// persisted snapshot rather than generated in-process, and what that
    /// restore cost. Zero/zero on workbenches that never loaded one.
    fn stamp_snapshot(&self, mut report: SolveReport) -> SolveReport {
        let stats = self.cache.stats();
        report.loaded_from_snapshot = stats.loaded_from_snapshot;
        report.snapshot_load_time = stats.snapshot_load_time;
        report
    }

    /// Run every registered solver at every sweep point. RR-set collections
    /// are shared across points, so later points extend — never regenerate —
    /// the samples of earlier ones (as long as the advertiser CPE line-up is
    /// unchanged).
    pub fn sweep<K, I>(&self, points: I) -> Result<Vec<SweepPoint<K>>, RmError>
    where
        I: IntoIterator<Item = (K, RmInstance)>,
    {
        points
            .into_iter()
            .map(|(key, instance)| {
                let reports = self.run(&instance)?;
                Ok(SweepPoint { key, reports })
            })
            .collect()
    }

    /// Pre-extend the shared cache to at least `num_rr_sets` RR-sets on
    /// both solver-facing streams ([`RrStream::Optimize`] and
    /// [`RrStream::Validate`]) for `instance`'s advertiser line-up.
    ///
    /// A warmed workbench answers subsequent [`run_solver`] calls whose
    /// sample requirement stays within `num_rr_sets` entirely from cache:
    /// the solve generates nothing, extends no coverage index
    /// (`rr.index_extended == 0`, `index_time == 0`), and — because the
    /// cached collections are a pure function of the cache seed and the
    /// request sizes — returns the same report no matter how many other
    /// solves ran before it. Long-lived services use this to pay the
    /// sampling cost once per session instead of on the first query
    /// (see `rmsa serve`). Warming the independent evaluation stream is
    /// [`evaluator`]'s job: request it once with the target size.
    ///
    /// Returns the per-stream extension accounting.
    ///
    /// [`run_solver`]: Workbench::run_solver
    /// [`evaluator`]: Workbench::evaluator
    pub fn warm(&self, instance: &RmInstance, num_rr_sets: usize) -> WarmStats {
        let sampler = UniformRrSampler::new(&instance.cpe_values());
        let warm_stream = |stream: RrStream| {
            let ((), stats) = self.cache.with_at_least(
                &self.graph,
                self.model.as_ref(),
                &sampler,
                stream,
                num_rr_sets,
                |_| (),
            );
            stats
        };
        WarmStats {
            optimize: warm_stream(RrStream::Optimize),
            validate: warm_stream(RrStream::Validate),
        }
    }

    /// An independent evaluator over the cache's [`RrStream::Evaluate`]
    /// stream — RR-sets no solver ever optimises against. Re-requesting an
    /// evaluator across a sweep reuses the same collection *and* the same
    /// incrementally maintained coverage index (the estimator snapshot is
    /// a few `Arc` bumps, not a rebuild).
    pub fn evaluator(&self, instance: &RmInstance, num_rr_sets: usize) -> IndependentEvaluator {
        let sampler = UniformRrSampler::new(&instance.cpe_values());
        let (evaluator, _) = self.cache.with_at_least(
            &self.graph,
            self.model.as_ref(),
            &sampler,
            RrStream::Evaluate,
            num_rr_sets,
            |v| {
                IndependentEvaluator::from_estimator(RrRevenueEstimator::from_view(
                    v.coverage(),
                    instance.gamma(),
                ))
            },
        );
        evaluator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmsa_core::problem::{Advertiser, SeedCosts};
    use rmsa_core::solver::Rma;
    use rmsa_core::RmaConfig;
    use rmsa_diffusion::{MaterializedModel, UniformIc};
    use rmsa_graph::generators::celebrity_graph;

    fn quick_rma() -> RmaConfig {
        RmaConfig {
            epsilon: 0.1,
            delta: 0.1,
            rho: 0.2,
            max_rr_per_collection: 20_000,
            ..RmaConfig::default()
        }
    }

    fn bench_world(h: usize) -> (Workbench, RmInstance) {
        let graph = celebrity_graph(4, 8);
        let n = graph.num_nodes();
        let model = UniformIc::new(h, 0.4);
        let wb = Workbench::builder()
            .graph(graph)
            .model(model)
            .threads(1)
            .seed(11)
            .build()
            .unwrap();
        let instance = RmInstance::try_new(
            n,
            (0..h)
                .map(|_| Advertiser::try_new(10.0, 1.0).unwrap())
                .collect(),
            SeedCosts::Shared(vec![1.0; n]),
        )
        .unwrap();
        (wb, instance)
    }

    #[test]
    fn builder_requires_graph_and_model() {
        assert!(Workbench::builder().build().is_err());
        assert!(Workbench::builder()
            .graph(celebrity_graph(2, 3))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_models_that_do_not_fit_the_graph() {
        let graph = celebrity_graph(2, 3);
        let m = graph.num_edges();
        let build = |rows: Vec<Vec<f32>>| {
            Workbench::builder()
                .graph(graph.clone())
                .model(MaterializedModel::from_rows(rows))
                .build()
        };
        assert!(build(vec![vec![0.5; m]; 2]).is_ok());
        for width in [m - 1, m + 1] {
            let err = build(vec![vec![0.5; width]; 2]).map(|_| ()).unwrap_err();
            assert!(matches!(err, RmError::InvalidContext(_)), "{err:?}");
        }
        // A Weighted-Cascade model derived from another graph.
        let other = rmsa_graph::graph_from_edges(graph.num_nodes(), &[(0, 1)]);
        let err = Workbench::builder()
            .graph(other)
            .model(rmsa_diffusion::WeightedCascade::new(&graph, 2))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, RmError::InvalidContext(_)), "{err:?}");
    }

    #[test]
    fn registered_solvers_run_in_order() {
        let (mut wb, instance) = bench_world(2);
        wb.register(Rma::new(quick_rma()));
        assert_eq!(wb.solver_names(), vec!["RMA".to_string()]);
        let reports = wb.run(&instance).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].allocation.is_disjoint());
        wb.clear_solvers();
        assert!(wb.run(&instance).unwrap().is_empty());
    }

    #[test]
    fn sweep_extends_rather_than_regenerates() {
        let (mut wb, instance) = bench_world(2);
        wb.register(Rma::new(quick_rma()));
        // Two-point sweep over budgets (same CPEs → cache stays valid).
        let points: Vec<(f64, RmInstance)> = [10.0, 14.0]
            .iter()
            .map(|&b| {
                let ads = (0..2)
                    .map(|_| Advertiser::try_new(b, 1.0).unwrap())
                    .collect();
                (
                    b,
                    RmInstance::try_new(
                        instance.num_nodes,
                        ads,
                        SeedCosts::Shared(vec![1.0; instance.num_nodes]),
                    )
                    .unwrap(),
                )
            })
            .collect();
        let rows = wb.sweep(points).unwrap();
        assert_eq!(rows.len(), 2);
        let stats = wb.cache_stats();
        assert!(
            stats.generated < stats.requested,
            "sweep must reuse RR-sets: generated {} of {} requested",
            stats.generated,
            stats.requested
        );
    }

    #[test]
    fn reports_expose_index_reuse_accounting() {
        let (mut wb, instance) = bench_world(2);
        wb.register(Rma::new(quick_rma()));
        let first = wb.run(&instance).unwrap();
        assert!(first[0].rr.index_extended > 0, "cold cache must index");
        // Same instance again: collections and coverage index are warm, so
        // the second solve does zero index work and reports pure reuse.
        let second = wb.run(&instance).unwrap();
        assert_eq!(
            second[0].rr.index_extended, 0,
            "warm index must be reused, not rebuilt"
        );
        assert!(second[0].rr.index_reused >= second[0].rr.used);
        let stats = wb.cache_stats();
        assert_eq!(
            stats.index_extended, stats.generated,
            "every generated RR-set is indexed exactly once"
        );
    }

    #[test]
    fn warmed_bench_solves_without_extension_work() {
        let (mut wb, instance) = bench_world(2);
        let config = quick_rma();
        let warm = wb.warm(&instance, config.max_rr_per_collection);
        assert!(warm.generated() > 0, "cold bench must generate on warm-up");
        assert!(!warm.already_warm());
        assert_eq!(warm.optimize.index_extended, warm.optimize.generated);

        wb.register(Rma::new(config));
        let report = &wb.run(&instance).unwrap()[0];
        assert_eq!(
            report.rr.generated, 0,
            "warmed bench must serve the solve entirely from cache"
        );
        assert_eq!(report.rr.index_extended, 0, "no index work after warm-up");
        assert_eq!(report.index_time, std::time::Duration::ZERO);
        assert!(report.rr.index_reused >= report.rr.used);

        // Warming again is a no-op.
        let again = wb.warm(&instance, 1_000);
        assert!(again.already_warm());
    }

    #[test]
    fn evaluator_collection_is_cached() {
        let (wb, instance) = bench_world(2);
        let _e1 = wb.evaluator(&instance, 5_000);
        let generated_once = wb.cache_stats().generated;
        let _e2 = wb.evaluator(&instance, 5_000);
        assert_eq!(wb.cache_stats().generated, generated_once);
    }
}
