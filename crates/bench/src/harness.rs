//! Experiment plumbing: contexts, workbench construction, algorithm
//! outcomes, CSV output.
//!
//! All experiments run through the [`Workbench`]: one workbench per
//! dataset/strategy owns the graph, the propagation model, and the shared
//! RR-set cache, so a sweep over α, ε, τ, ϱ, budgets, or demand extends one
//! set of RR-collections instead of regenerating them at every point.

use rmsa::prelude::*;
use rmsa_datasets::{Dataset, DatasetKind};
use std::io::Write;
use std::path::Path;

/// Experiment-wide knobs shared by every figure/table binary.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Global scale factor (`RMSA_SCALE`), applied to dataset sizes and
    /// budgets.
    pub scale: f64,
    /// Number of advertisers `h` (paper default 10 for TIC datasets).
    pub num_ads: usize,
    /// RR-sets per advertiser used to estimate singleton spreads for the
    /// incentive cost models.
    pub spread_rr: usize,
    /// RR-sets in the independent evaluation collection (the paper uses
    /// 10⁷; scaled instances need far fewer).
    pub eval_rr: usize,
    /// Worker threads.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Practical cap on RMA's RR-sets per collection.
    pub rma_max_rr: usize,
    /// Practical cap on the TI baselines' RR-sets per advertiser.
    pub ti_max_rr: usize,
    /// RMA accuracy ε (paper default 0.02; must satisfy ε < λ(h, τ)).
    pub rma_epsilon: f64,
    /// Baseline accuracy ε (paper default 0.1 on TIC datasets).
    pub ti_epsilon: f64,
}

impl ExperimentContext {
    /// Build a context from the environment (`RMSA_SCALE`, `RMSA_THREADS`,
    /// `RMSA_SEED`, `RMSA_EVAL_RR`).
    pub fn from_env() -> Self {
        let scale = std::env::var("RMSA_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let threads = rmsa_core::default_num_threads();
        let seed = std::env::var("RMSA_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(20_210_620);
        let eval_rr = std::env::var("RMSA_EVAL_RR")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(400_000);
        ExperimentContext {
            scale,
            num_ads: 10,
            spread_rr: 20_000,
            eval_rr,
            threads,
            seed,
            rma_max_rr: 1_500_000,
            ti_max_rr: 400_000,
            rma_epsilon: 0.02,
            ti_epsilon: 0.1,
        }
    }

    /// A small context for smoke tests and CI.
    pub fn smoke() -> Self {
        ExperimentContext {
            scale: 0.05,
            num_ads: 3,
            spread_rr: 2_000,
            eval_rr: 20_000,
            threads: 1,
            seed: 7,
            rma_max_rr: 10_000,
            ti_max_rr: 3_000,
            rma_epsilon: 0.1,
            ti_epsilon: 0.3,
        }
    }

    /// Build one of the four datasets at this context's scale.
    pub fn dataset(&self, kind: DatasetKind) -> Dataset {
        Dataset::build(
            kind,
            self.num_ads,
            kind.default_scale() * self.scale,
            self.seed,
        )
    }

    /// Build a [`Workbench`] over a dataset (cloning its graph and model
    /// into the session) with the given RR-set generation strategy.
    pub fn workbench(&self, dataset: &Dataset, strategy: RrStrategy) -> Workbench {
        Workbench::builder()
            .graph(dataset.graph.clone())
            .model(dataset.model.clone())
            .strategy(strategy)
            .threads(self.threads)
            .seed(self.seed)
            .build()
            .expect("dataset provides graph and model")
    }
}

/// One algorithm's outcome on one configuration: the row format shared by
/// every figure and table.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgoOutcome {
    /// Algorithm name (`RMA`, `TI-CARM`, `TI-CSRM`, …).
    pub algorithm: String,
    /// Total revenue measured on the independent evaluator.
    pub revenue: f64,
    /// Certified revenue lower bound where the solver provides one (RMA).
    pub revenue_lower_bound: Option<f64>,
    /// Total seed-incentive cost.
    pub seeding_cost: f64,
    /// Total number of selected seeds.
    pub seeds: usize,
    /// Wall-clock running time in seconds.
    pub time_secs: f64,
    /// RR-sets backing the algorithm's final answer.
    pub rr_sets: usize,
    /// RR-sets freshly generated for this run (below `rr_sets` when the
    /// shared cache served part of the request).
    pub rr_generated: usize,
    /// Wall-clock seconds spent building/extending the coverage index in
    /// this run (zero when the shared index was fully reused).
    pub index_secs: f64,
    /// RR-sets behind this run that were restored from a persisted
    /// snapshot instead of being generated in-process (0 without
    /// `--snapshot-dir` / `rmsa snapshot`).
    pub loaded_from_snapshot: usize,
    /// Wall-clock seconds the shared cache spent loading that snapshot.
    pub snapshot_load_secs: f64,
    /// Approximate memory footprint of the algorithm's sample structures,
    /// in bytes (exact `memory_bytes()` accounting): resident heap plus
    /// snapshot-mapped pages.
    pub memory_bytes: usize,
    /// Heap-owned portion of `memory_bytes`.
    pub resident_bytes: usize,
    /// Portion of `memory_bytes` borrowed zero-copy from a memory-mapped
    /// snapshot (0 for cold-built caches and owned snapshot loads).
    pub mapped_bytes: usize,
    /// The same footprint in MiB (the historical CSV column).
    pub memory_mib: f64,
    /// Budget usage percentage (Fig. 6).
    pub budget_usage_pct: f64,
    /// Rate of return percentage (Fig. 6).
    pub rate_of_return_pct: f64,
    /// Per-phase latency breakdown, seconds at this row's quantile
    /// (loadgen latency rows only: queue / batch_wait / warm_check /
    /// solve / serialize / flush, plus send_lag in open loop). Empty —
    /// and absent from the report JSON — everywhere else.
    pub phases: Vec<(String, f64)>,
}

impl AlgoOutcome {
    /// Convert a [`SolveReport`] into the experiment row format, measuring
    /// revenue on the independent evaluator.
    pub fn from_report(
        report: &SolveReport,
        instance: &RmInstance,
        evaluator: &IndependentEvaluator,
    ) -> Self {
        let eval = evaluator.report(instance, &report.allocation);
        AlgoOutcome {
            algorithm: report.solver.clone(),
            revenue: eval.revenue,
            revenue_lower_bound: report.revenue_lower_bound,
            seeding_cost: eval.seeding_cost,
            seeds: eval.total_seeds,
            time_secs: report.elapsed.as_secs_f64(),
            rr_sets: report.rr.used,
            rr_generated: report.rr.generated,
            index_secs: report.index_time.as_secs_f64(),
            loaded_from_snapshot: report.loaded_from_snapshot,
            snapshot_load_secs: report.snapshot_load_time.as_secs_f64(),
            memory_bytes: report.memory_bytes,
            resident_bytes: report.memory_bytes.saturating_sub(report.mapped_bytes),
            mapped_bytes: report.mapped_bytes,
            memory_mib: report.memory_bytes as f64 / (1024.0 * 1024.0),
            budget_usage_pct: eval.budget_usage_pct,
            rate_of_return_pct: eval.rate_of_return_pct,
            phases: Vec::new(),
        }
    }
}

/// Default RMA configuration used by the experiments (Sec. 5.1 parameters:
/// ε = 0.02, ϱ = 0.1, τ = 0.1; δ is a fixed small value).
pub fn default_rma_config(ctx: &ExperimentContext) -> RmaConfig {
    RmaConfig {
        epsilon: ctx.rma_epsilon,
        delta: 0.001,
        tau: 0.1,
        rho: 0.1,
        max_rr_per_collection: ctx.rma_max_rr,
    }
}

/// Default TI-CARM / TI-CSRM configuration (the paper sets their ε to 0.1 on
/// the TIC datasets and 0.3 on the scalability datasets because smaller
/// values exhaust memory).
pub fn default_ti_config(ctx: &ExperimentContext) -> TiConfig {
    TiConfig {
        epsilon: ctx.ti_epsilon,
        delta: 0.001,
        strategy: RrStrategy::Standard,
        pilot_sets: 2_048,
        max_rr_per_ad: ctx.ti_max_rr,
        seed: ctx.seed ^ 0xBA5E,
    }
}

/// Run RMA on a workbench and convert to an [`AlgoOutcome`].
pub fn run_rma(
    wb: &Workbench,
    instance: &RmInstance,
    evaluator: &IndependentEvaluator,
    config: &RmaConfig,
) -> (AlgoOutcome, SolveReport) {
    let report = wb
        .run_solver(&Rma::new(config.clone()), instance)
        .expect("RMA configuration is valid");
    (
        AlgoOutcome::from_report(&report, instance, evaluator),
        report,
    )
}

/// Run one of the TI baselines. Per the paper's protocol the baselines
/// receive budgets `(1 + ϱ)` times RMA's; pass that factor as
/// `budget_scale`.
pub fn run_ti(
    wb: &Workbench,
    instance: &RmInstance,
    evaluator: &IndependentEvaluator,
    config: &TiConfig,
    cost_sensitive: bool,
    budget_scale: f64,
) -> (AlgoOutcome, SolveReport) {
    let solver: Box<dyn Solver> = if cost_sensitive {
        Box::new(TiCsrm::with_budget_scale(config.clone(), budget_scale))
    } else {
        Box::new(TiCarm::with_budget_scale(config.clone(), budget_scale))
    };
    let report = wb
        .run_solver(solver.as_ref(), instance)
        .expect("TI configuration is valid");
    (
        AlgoOutcome::from_report(&report, instance, evaluator),
        report,
    )
}

/// Write CSV rows under `results/<name>.csv` (the directory is created if
/// missing). Returns the path written.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{header}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    Ok(path)
}

/// The standard "who wins" comparison on one instance — RMA against both TI
/// baselines with the paper's budget convention, all through one workbench.
pub fn compare_algorithms(
    ctx: &ExperimentContext,
    wb: &Workbench,
    instance: &RmInstance,
    rma_config: &RmaConfig,
    ti_config: &TiConfig,
) -> Vec<AlgoOutcome> {
    let evaluator = wb.evaluator(instance, ctx.eval_rr);
    let budget_scale = 1.0 + rma_config.rho;
    let (rma, _) = run_rma(wb, instance, &evaluator, rma_config);
    let (carm, _) = run_ti(wb, instance, &evaluator, ti_config, false, budget_scale);
    let (csrm, _) = run_ti(wb, instance, &evaluator, ti_config, true, budget_scale);
    vec![rma, carm, csrm]
}

/// Build the incentive-model instance used across the Fig. 1–3 / Table 3
/// sweeps, reusing precomputed singleton spreads.
pub fn instance_for_alpha(
    dataset: &Dataset,
    advertisers: &[Advertiser],
    spreads: &[Vec<f64>],
    incentive: IncentiveModel,
    alpha: f64,
) -> RmInstance {
    dataset.build_instance_from_spreads(advertisers.to_vec(), spreads, incentive, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_context_runs_a_full_comparison() {
        let ctx = ExperimentContext::smoke();
        let dataset = ctx.dataset(DatasetKind::LastfmSyn);
        let advertisers: Vec<Advertiser> = (0..ctx.num_ads)
            .map(|_| Advertiser::try_new(30.0, 1.0).unwrap())
            .collect();
        let instance = dataset.build_instance(
            advertisers,
            IncentiveModel::Linear,
            0.1,
            ctx.spread_rr,
            ctx.seed,
        );
        let wb = ctx.workbench(&dataset, RrStrategy::Standard);
        let mut rma_cfg = default_rma_config(&ctx);
        rma_cfg.epsilon = 0.1; // < λ(3, 0.1) ≈ 0.1136
        rma_cfg.max_rr_per_collection = 20_000;
        let mut ti_cfg = default_ti_config(&ctx);
        ti_cfg.epsilon = 0.3;
        ti_cfg.max_rr_per_ad = 5_000;
        let outcomes = compare_algorithms(&ctx, &wb, &instance, &rma_cfg, &ti_cfg);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].algorithm, "RMA");
        assert_eq!(outcomes[1].algorithm, "TI-CARM");
        assert_eq!(outcomes[2].algorithm, "TI-CSRM");
        for o in &outcomes {
            assert!(o.time_secs >= 0.0);
            assert!(o.rr_sets > 0);
        }
    }

    #[test]
    fn csv_writer_creates_the_results_file() {
        let path = write_csv(
            "unit_test_output",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n1,2\n3,4"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn env_context_has_sane_defaults() {
        let ctx = ExperimentContext::from_env();
        assert!(ctx.scale > 0.0);
        assert!(ctx.num_ads >= 1);
        assert!(ctx.eval_rr > 0);
        // The default ε must be admissible for the default h under τ = 0.1.
        assert!(default_rma_config(&ctx).validate(ctx.num_ads).is_ok());
    }
}
