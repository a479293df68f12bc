//! The shared scenario runner behind the `rmsa` CLI and the thin
//! figure/table binaries.
//!
//! A scenario's `[[job]]`s are independent *workbench groups*: every job
//! owns one `Workbench` (graph + model + RR-set cache) and runs its sweep
//! points sequentially through it, so collections extend deterministically
//! and the cache-reuse accounting matches the paper's protocol. Distinct
//! jobs share nothing, so the runner executes them in parallel with
//! [`std::thread::scope`]; every seed is derived from the manifest/context
//! master seed, which makes the output bit-identical for any `--jobs`
//! value (and to the historical sequential binaries).

use crate::harness::ExperimentContext;
use crate::manifest::{metric_value, Scenario, ScenarioJob, SweepSpec};
use crate::report::{BenchPoint, BenchReport, RunManifest};
use crate::sweeps::{
    advertisers_for, alpha_sweep_values, demand_sweep, epsilon_sweep, genscale_sweep,
    rma_parameter_sweep, scalability_sweep, sweep_metric_table, SweepRow, ALPHAS,
    SWEEP_CSV_COLUMNS,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutput {
    /// CSV header line.
    pub csv_header: String,
    /// CSV data rows, in job order.
    pub csv_rows: Vec<String>,
    /// The machine-readable bench report.
    pub report: BenchReport,
    /// Human-readable tables, in job order.
    pub console: String,
}

/// Result of one job.
struct JobResult {
    csv_lines: Vec<String>,
    points: Vec<BenchPoint>,
    console: String,
}

/// Execute a scenario. `quick` applies the manifest's quick profile;
/// `parallel_jobs` caps the number of concurrently running jobs (any value
/// produces identical output).
pub fn run_scenario(
    scenario: &Scenario,
    base_ctx: &ExperimentContext,
    quick: bool,
    parallel_jobs: usize,
) -> Result<ScenarioOutput, String> {
    run_scenario_with_overrides(
        scenario,
        base_ctx,
        quick,
        &crate::manifest::CtxOverrides::default(),
        parallel_jobs,
    )
}

/// [`run_scenario`] with a final layer of explicit context overrides (CLI
/// flags) that win over the manifest's `[defaults]`/`[quick]` sections.
pub fn run_scenario_with_overrides(
    scenario: &Scenario,
    base_ctx: &ExperimentContext,
    quick: bool,
    overrides: &crate::manifest::CtxOverrides,
    parallel_jobs: usize,
) -> Result<ScenarioOutput, String> {
    let ctx = scenario.context_with_overrides(base_ctx, quick, overrides);
    let started = Instant::now();
    let results = run_jobs(&ctx, scenario, parallel_jobs.max(1))?;
    let total_wall_secs = started.elapsed().as_secs_f64();

    let mut csv_rows = Vec::new();
    let mut points = Vec::new();
    let mut console = String::new();
    for result in results {
        csv_rows.extend(result.csv_lines);
        points.extend(result.points);
        console.push_str(&result.console);
    }
    let report = BenchReport {
        scenario: scenario.name.clone(),
        title: scenario.title.clone(),
        points,
        total_wall_secs,
        run: RunManifest::collect(ctx.seed, ctx.threads, ctx.scale, quick),
    };
    Ok(ScenarioOutput {
        csv_header: csv_header(scenario),
        csv_rows,
        report,
        console,
    })
}

/// The CSV header of a scenario: the fixed layouts of the table scenarios,
/// or `key_columns` followed by the standard per-algorithm columns.
fn csv_header(scenario: &Scenario) -> String {
    match scenario.jobs.first().map(|j| &j.sweep) {
        Some(SweepSpec::Datasets) => {
            "dataset,nodes,edges,max_in_degree,mean_degree,model".to_string()
        }
        Some(SweepSpec::Settings { .. }) => {
            "dataset,budget_mean,budget_max,budget_min,cpe_mean,cpe_max,cpe_min".to_string()
        }
        _ => format!("{},{SWEEP_CSV_COLUMNS}", scenario.key_columns),
    }
}

fn run_jobs(
    ctx: &ExperimentContext,
    scenario: &Scenario,
    parallel_jobs: usize,
) -> Result<Vec<JobResult>, String> {
    let jobs = &scenario.jobs;
    let workers = parallel_jobs.min(jobs.len()).max(1);
    if workers == 1 {
        return jobs.iter().map(|j| run_job(ctx, scenario, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<JobResult, String>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let result = run_job(ctx, scenario, &jobs[i]);
                slots.lock().expect("runner mutex poisoned")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("runner mutex poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed"))
        .collect()
}

fn run_job(
    ctx: &ExperimentContext,
    scenario: &Scenario,
    job: &ScenarioJob,
) -> Result<JobResult, String> {
    Ok(match &job.sweep {
        SweepSpec::Alpha {
            dataset,
            incentive,
            strategy,
            values,
        } => {
            let alphas: &[f64] = values.as_deref().unwrap_or(&ALPHAS);
            let rows = alpha_sweep_values(ctx, *dataset, *incentive, *strategy, alphas);
            sweep_result(scenario, job, rows)
        }
        SweepSpec::Epsilon { dataset } => {
            let rows = epsilon_sweep(ctx, *dataset);
            sweep_result(scenario, job, rows)
        }
        SweepSpec::Scalability { dataset, sweep } => {
            let rows = scalability_sweep(ctx, *dataset, sweep.clone());
            sweep_result(scenario, job, rows)
        }
        SweepSpec::GenScale {
            family,
            nodes,
            rr_per_node,
            shards,
        } => {
            let rows = genscale_sweep(ctx, family, nodes, *rr_per_node, *shards)?;
            sweep_result(scenario, job, rows)
        }
        SweepSpec::Demand { dataset, values } => {
            let rows = demand_sweep(ctx, *dataset, values);
            sweep_result(scenario, job, rows)
        }
        SweepSpec::Rma {
            dataset,
            parameter,
            values,
        } => {
            let rows: Vec<SweepRow> = rma_parameter_sweep(ctx, *dataset, *parameter, values)
                .into_iter()
                .map(|(key, outcome)| (key, vec![outcome]))
                .collect();
            sweep_result(scenario, job, rows)
        }
        SweepSpec::Datasets => datasets_result(ctx),
        SweepSpec::Settings { datasets } => settings_result(ctx, datasets),
    })
}

/// CSV lines, bench points and console tables of a standard sweep job.
fn sweep_result(scenario: &Scenario, job: &ScenarioJob, rows: Vec<SweepRow>) -> JobResult {
    let csv_lines = crate::sweeps::sweep_csv_lines(&job.prefix, &rows);
    let points = rows
        .iter()
        .flat_map(|(key, outcomes)| {
            outcomes.iter().map(|o| BenchPoint {
                job: job.prefix.clone(),
                key: *key,
                outcome: o.clone(),
            })
        })
        .collect();
    let mut console = String::new();
    let title_base = job
        .title
        .clone()
        .unwrap_or_else(|| format!("{} — {}", scenario.title, job.prefix.trim_end_matches(',')));
    for metric in &job.metrics {
        console.push_str(&sweep_metric_table(
            &format!("{title_base} [{metric}]"),
            scenario.key_label(),
            &rows,
            |o| metric_value(o, metric),
        ));
    }
    JobResult {
        csv_lines,
        points,
        console,
    }
}

/// Table 1: dataset statistics (no solver runs, no bench points).
fn datasets_result(ctx: &ExperimentContext) -> JobResult {
    use rmsa_datasets::DatasetKind;
    let mut console = format!(
        "Table 1 — datasets (scale {} on top of per-dataset defaults)\n\n",
        ctx.scale
    );
    let _ = writeln!(
        console,
        "{:<18} {:>10} {:>12} {:>10} {:>12} {:>8}",
        "dataset", "|V|", "|E|", "max indeg", "mean deg", "model"
    );
    let mut csv_lines = Vec::new();
    for kind in DatasetKind::all() {
        let dataset = ctx.dataset(kind);
        let s = dataset.stats();
        let model = if kind.uses_tic() { "TIC" } else { "WC" };
        let _ = writeln!(
            console,
            "{:<18} {:>10} {:>12} {:>10} {:>12.2} {:>8}",
            kind.name(),
            s.num_nodes,
            s.num_edges,
            s.max_in_degree,
            s.mean_degree,
            model
        );
        csv_lines.push(format!(
            "{},{},{},{},{:.3},{}",
            kind.name(),
            s.num_nodes,
            s.num_edges,
            s.max_in_degree,
            s.mean_degree,
            model
        ));
    }
    JobResult {
        csv_lines,
        points: Vec::new(),
        console,
    }
}

/// Table 2: advertiser budget/CPE settings (no solver runs).
fn settings_result(ctx: &ExperimentContext, datasets: &[rmsa_datasets::DatasetKind]) -> JobResult {
    let mut console = format!(
        "Table 2 — advertiser budgets and CPEs (h = {}, scale {})\n\n",
        ctx.num_ads, ctx.scale
    );
    let _ = writeln!(
        console,
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "dataset", "budget mean", "budget max", "budget min", "cpe mean", "cpe max", "cpe min"
    );
    let mut csv_lines = Vec::new();
    for &kind in datasets {
        let ads = advertisers_for(ctx, kind, ctx.seed ^ 0xAD5);
        let budgets: Vec<f64> = ads.iter().map(|a| a.budget).collect();
        let cpes: Vec<f64> = ads.iter().map(|a| a.cpe).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
        let min = |v: &[f64]| v.iter().cloned().fold(f64::MAX, f64::min);
        let _ = writeln!(
            console,
            "{:<14} {:>12.1} {:>12.1} {:>12.1} {:>8.2} {:>8.2} {:>8.2}",
            kind.name(),
            mean(&budgets),
            max(&budgets),
            min(&budgets),
            mean(&cpes),
            max(&cpes),
            min(&cpes)
        );
        csv_lines.push(format!(
            "{},{:.2},{:.2},{:.2},{:.3},{:.3},{:.3}",
            kind.name(),
            mean(&budgets),
            max(&budgets),
            min(&budgets),
            mean(&cpes),
            max(&cpes),
            min(&cpes)
        ));
    }
    JobResult {
        csv_lines,
        points: Vec::new(),
        console,
    }
}

/// Write the CSV (`results/<scenario>.csv`) and bench report
/// (`<json_dir>/BENCH_<scenario>.json`). Returns both paths.
pub fn write_outputs(
    scenario: &Scenario,
    output: &ScenarioOutput,
    json_dir: &Path,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let csv_path = crate::harness::write_csv(&scenario.name, &output.csv_header, &output.csv_rows)?;
    let json_path = json_dir.join(format!("BENCH_{}.json", scenario.name));
    if let Some(parent) = json_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&json_path, output.report.render())?;
    Ok((csv_path, json_path))
}

/// Locate `scenarios/<stem>.toml` from the current directory or relative to
/// the workspace root (so `rmsa sweep fig1` works from anywhere inside the
/// repository).
pub fn find_scenario(stem: &str) -> Option<PathBuf> {
    let file = format!("{stem}.toml");
    let candidates = [
        PathBuf::from("scenarios").join(&file),
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios")
            .join(&file),
    ];
    candidates.into_iter().find(|p| p.is_file())
}

/// Whether a boolean environment flag is enabled: set to anything other
/// than the empty string, `0`, `false`, or `off`. (`RMSA_BENCH_QUICK=0`
/// must mean *off*, not quick mode.)
pub fn env_flag(name: &str) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "" | "0" | "false" | "off"
        ),
        Err(_) => false,
    }
}

/// Default job-level parallelism: `RMSA_JOBS` when set, otherwise the
/// available cores divided by the per-job RR-generation threads.
pub fn default_parallel_jobs(ctx: &ExperimentContext) -> usize {
    if let Some(jobs) = std::env::var("RMSA_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return jobs.max(1);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores / ctx.threads.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Scenario;

    fn tiny_scenario() -> Scenario {
        Scenario::parse(
            r#"
schema = 1
name = "tiny"
title = "tiny scenario"
key_columns = "dataset,incentive,alpha"

[[job]]
sweep = "alpha"
dataset = "lastfm-syn"
incentive = "linear"
strategy = "standard"
prefix = "lastfm-syn,linear,"
values = [0.1, 0.3]
metrics = ["revenue"]

[[job]]
sweep = "alpha"
dataset = "lastfm-syn"
incentive = "superlinear"
strategy = "standard"
prefix = "lastfm-syn,superlinear,"
values = [0.1]
"#,
        )
        .unwrap()
    }

    fn tiny_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::smoke();
        ctx.eval_rr = 5_000;
        ctx.spread_rr = 1_000;
        ctx
    }

    use crate::sweeps::deterministic_csv_fields as deterministic_row;

    #[test]
    fn runner_output_is_independent_of_job_parallelism() {
        let scenario = tiny_scenario();
        let ctx = tiny_ctx();
        let seq = run_scenario(&scenario, &ctx, false, 1).unwrap();
        let par = run_scenario(&scenario, &ctx, false, 4).unwrap();
        assert_eq!(seq.csv_header, par.csv_header);
        let deterministic = |out: &ScenarioOutput| {
            out.csv_rows
                .iter()
                .map(|r| deterministic_row(r))
                .collect::<Vec<_>>()
        };
        assert_eq!(deterministic(&seq), deterministic(&par));
        assert!(!seq.console.is_empty());
        assert_eq!(
            seq.report.points.len(),
            3 * 3,
            "3 sweep points x 3 algorithms"
        );
        assert!(seq.report.peak_memory_bytes() > 0);
    }

    #[test]
    fn runner_reproduces_the_direct_sweep_rows() {
        // The manifest path must produce exactly the rows the historical
        // binaries got from calling the sweep functions directly (modulo
        // the wall-clock columns).
        let scenario = tiny_scenario();
        let ctx = tiny_ctx();
        let output = run_scenario(&scenario, &ctx, false, 2).unwrap();
        let mut direct = Vec::new();
        for (incentive, values) in [
            (rmsa_datasets::IncentiveModel::Linear, &[0.1, 0.3][..]),
            (rmsa_datasets::IncentiveModel::SuperLinear, &[0.1][..]),
        ] {
            let rows = crate::sweeps::alpha_sweep_values(
                &ctx,
                rmsa_datasets::DatasetKind::LastfmSyn,
                incentive,
                rmsa_diffusion::RrStrategy::Standard,
                values,
            );
            direct.extend(crate::sweeps::sweep_csv_lines(
                &format!("lastfm-syn,{},", incentive.label()),
                &rows,
            ));
        }
        assert_eq!(
            output
                .csv_rows
                .iter()
                .map(|r| deterministic_row(r))
                .collect::<Vec<_>>(),
            direct
                .iter()
                .map(|r| deterministic_row(r))
                .collect::<Vec<_>>(),
        );
    }
}
