//! `paper_sweep`: the paper's Table-3 protocol through the library. One
//! cold `Workbench` per sweep runs RMA, TI-CARM and TI-CSRM at
//! α ∈ {0.1, …, 0.5} under linear incentives.
//!
//! The protocol fixes every input, the solvers' sampling seeds included,
//! so every workload seed runs the same sweep: run-to-run spread is the
//! machine's alone, and the revenues are a constant the run checks.

use crate::daemon::{peak_rss_mib, CORES, SERVE_SEED};
use crate::replay::{timed, CacheDelta, GreedyReplay};
use crate::stats::{mean, median};
use crate::{Args, Outcome};
use rmsa::prelude::*;
use rmsa_bench::{default_rma_config, default_ti_config, ExperimentContext};
use std::time::Instant;

/// `flixster-syn` scale of the sweep.
const SWEEP_SCALE: f64 = 0.05;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Sweeps per run at the least: the per-solve median needs ten solves
/// beyond it.
const MIN_SWEEPS: usize = 2;

/// The sweep's fixed instance and sampling seeds.
struct Setup {
    ctx: ExperimentContext,
    dataset: Dataset,
    advertisers: Vec<Advertiser>,
    spreads: Vec<Vec<f64>>,
    rma: RmaConfig,
    ti: TiConfig,
}

impl Setup {
    /// The dataset, its Table-2 advertisers, singleton spreads and solver
    /// configurations, as the experiment harness builds them.
    fn build() -> Setup {
        let mut ctx = ExperimentContext::from_env();
        ctx.scale = SWEEP_SCALE;
        ctx.threads = CORES;
        ctx.seed = SERVE_SEED;
        ctx.eval_rr = 100_000;
        let dataset = ctx.dataset(DatasetKind::FlixsterSyn);
        let advertisers =
            rmsa_bench::sweeps::advertisers_for(&ctx, DatasetKind::FlixsterSyn, ctx.seed ^ 0xAD5);
        let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
        let rma = default_rma_config(&ctx);
        let mut ti = default_ti_config(&ctx);
        ti.max_rr_per_ad = 100_000;
        Setup {
            ctx,
            dataset,
            advertisers,
            spreads,
            rma,
            ti,
        }
    }

    fn workbench(&self) -> Workbench {
        Workbench::builder()
            .graph(self.dataset.graph.clone())
            .model(self.dataset.model.clone())
            .threads(CORES)
            .seed(self.ctx.seed)
            .build()
            .expect("the dataset provides a graph and a model")
    }

    fn instance(&self, alpha: f64) -> RmInstance {
        self.dataset.build_instance_from_spreads(
            self.advertisers.clone(),
            &self.spreads,
            IncentiveModel::Linear,
            alpha,
        )
    }

    /// RMA, then the baselines with the paper's `(1 + ϱ)` budgets.
    fn solvers(&self) -> [Box<dyn Solver>; 3] {
        let scale = 1.0 + self.rma.rho;
        [
            Box::new(Rma::new(self.rma.clone())),
            Box::new(TiCarm::with_budget_scale(self.ti.clone(), scale)),
            Box::new(TiCsrm::with_budget_scale(self.ti.clone(), scale)),
        ]
    }
}

/// One solve of a sweep.
struct Solve {
    secs: f64,
    revenue: f64,
    /// Milliseconds of `IndependentEvaluator::report` on the allocation.
    report_ms: f64,
    report: SolveReport,
}

/// Run one cold sweep; `each` sees every solve right after it ran.
fn sweep(
    setup: &Setup,
    wb: &Workbench,
    out: &mut Outcome,
    mut each: impl FnMut(&RmInstance, &Solve),
) -> Vec<Solve> {
    let mut solves = Vec::new();
    for alpha in rmsa_bench::sweeps::ALPHAS {
        let instance = setup.instance(alpha);
        let evaluator = wb.evaluator(&instance, setup.ctx.eval_rr);
        for solver in setup.solvers() {
            out.attempted += 1;
            let (report, secs) = timed(|| wb.run_solver(solver.as_ref(), &instance));
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    out.fail(format!("{} at α = {alpha}: {e}", solver.name()));
                    continue;
                }
            };
            if !report.allocation.is_disjoint() {
                out.fail(format!(
                    "{} at α = {alpha}: allocation not disjoint",
                    report.solver
                ));
            }
            let (evaluation, report_secs) =
                timed(|| evaluator.report(&instance, &report.allocation));
            let solve = Solve {
                secs,
                revenue: evaluation.revenue,
                report_ms: report_secs * 1e3,
                report,
            };
            each(&instance, &solve);
            solves.push(solve);
        }
    }
    solves
}

pub fn paper_sweep(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut setup = None;
    for _ in 0..(if args.trace { 1 } else { SETUPS }) {
        let (built, secs) = timed(Setup::build);
        setups.push(secs);
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up ran");
    if args.trace {
        return traced(&setup, out);
    }
    let started = Instant::now();
    let mut sweep_secs = Vec::new();
    let mut slowest = Vec::new();
    let mut solve_ms = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    while sweep_secs.len() < MIN_SWEEPS || started.elapsed().as_secs_f64() < args.seconds {
        let wb = setup.workbench();
        let (solves, secs) = timed(|| sweep(&setup, &wb, out, |_, _| {}));
        sweep_secs.push(secs);
        let times: Vec<f64> = solves.iter().map(|s| s.secs * 1e3).collect();
        slowest.push(times.iter().copied().fold(0.0, f64::max));
        solve_ms.extend(times);
        // Every sweep starts cold with the same seeds: revenues repeat
        // bit for bit.
        let revenues: Vec<u64> = solves.iter().map(|s| s.revenue.to_bits()).collect();
        match &first {
            None => {
                out.set(
                    "revenue_mean",
                    mean(&solves.iter().map(|s| s.revenue).collect::<Vec<_>>()),
                    solves.len(),
                );
                first = Some(revenues);
            }
            Some(expected) if *expected != revenues => {
                out.fail("a repeated cold sweep changed its revenues".to_string())
            }
            Some(_) => {}
        }
    }
    let per_sweep = 3 * rmsa_bench::sweeps::ALPHAS.len();
    out.set("setup_s", median(&setups), setups.len());
    out.set(
        "throughput_rps",
        per_sweep as f64 / median(&sweep_secs),
        sweep_secs.len(),
    );
    out.set("latency_p50_ms", median(&solve_ms), solve_ms.len());
    // A sweep has 15 solves, too few for a p95 with ten solves beyond it:
    // the tail reported is the slowest solve of each sweep, median over
    // sweeps.
    out.set("latency_p95_ms", median(&slowest), slowest.len());
    out.set("peak_rss_mib", peak_rss_mib("/proc/self/status"), 1);
    Ok(())
}

/// One sweep with the per-layer accounting.
fn traced(setup: &Setup, out: &mut Outcome) -> Result<(), String> {
    let wb = setup.workbench();
    let before = wb.cache_stats();
    let mut greedy = GreedyReplay::default();
    let (mut rounds, mut ti_secs, mut ti_generated, mut report_ms) =
        (vec![], vec![], vec![], vec![]);
    let solves = sweep(setup, &wb, out, |instance, solve| {
        let report = &solve.report;
        if report.solver == "RMA" {
            rounds.push(report.iterations as f64);
            // The greedy core of RMA's last round: R1 is the whole
            // optimisation stream the solve left behind.
            greedy.solve(&wb, instance, 1, &setup.rma);
        } else {
            ti_secs.push(solve.secs);
            ti_generated.push(report.rr.generated as f64);
        }
        report_ms.push(solve.report_ms);
    });
    if greedy.mismatches > 0 {
        out.fail(format!(
            "{} counted greedy solve(s) differ from the bare estimator",
            greedy.mismatches
        ));
    }
    let delta = CacheDelta::between(&before, &wb.cache_stats());
    // Generation time at the sweep's volume, at the rate one
    // `Workbench::warm` of a fresh workbench achieves.
    let fresh = setup.workbench();
    let probe = setup.instance(rmsa_bench::sweeps::ALPHAS[0]);
    let fresh_before = fresh.cache_stats();
    let (warm, warm_secs) = timed(|| fresh.warm(&probe, (delta.generated / 2).max(1)));
    let warm_delta = CacheDelta::between(&fresh_before, &fresh.cache_stats());
    let per_set = (warm_secs - warm_delta.index_secs).max(0.0) / warm.generated().max(1) as f64;
    let n = solves.len();
    out.set("diffusion.rr_generated", delta.generated as f64, n);
    out.set("diffusion.generate_s", per_set * delta.generated as f64, n);
    out.set("diffusion.index_extend_s", delta.index_secs, n);
    out.set("diffusion.cache_reuse_frac", delta.reuse_frac(), n);
    out.set(
        "diffusion.cache_mib",
        wb.cache().memory_bytes() as f64 / (1024.0 * 1024.0),
        1,
    );
    out.set("rma.rounds", mean(&rounds), rounds.len());
    out.set("ti.solve_s", mean(&ti_secs), ti_secs.len());
    out.set("ti.rr_generated", mean(&ti_generated), ti_generated.len());
    out.set("evaluation.report_ms", mean(&report_ms), report_ms.len());
    for (name, value) in greedy.rows() {
        out.set(name, value, greedy.solves);
    }
    Ok(())
}
