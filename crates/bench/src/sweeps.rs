//! Parameter sweeps shared by the figure/table binaries.
//!
//! Every sweep builds one [`Workbench`] per dataset/strategy and runs all
//! of its points through it, so the RR-set collections (optimisation,
//! validation, and evaluation) are extended across points instead of
//! regenerated — sweeping α, ε, τ, ϱ, budgets, or demand leaves the
//! advertiser CPE line-up unchanged, which is all the shared cache needs.

use crate::harness::{
    compare_algorithms, default_rma_config, default_ti_config, instance_for_alpha, run_rma,
    AlgoOutcome, ExperimentContext,
};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;
use rmsa::prelude::*;
use rmsa_datasets::config::{table2_advertisers, FLIXSTER_PROFILE, LASTFM_PROFILE};
use rmsa_datasets::DatasetKind;

/// The α values of Figs. 1–3 and Table 3.
pub const ALPHAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// Table 2 advertisers for a TIC dataset, with budgets scaled by the
/// experiment context's global scale.
pub fn advertisers_for(ctx: &ExperimentContext, kind: DatasetKind, seed: u64) -> Vec<Advertiser> {
    let profile = match kind {
        DatasetKind::LastfmSyn => &LASTFM_PROFILE,
        _ => &FLIXSTER_PROFILE,
    };
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let mut ads = table2_advertisers(profile, ctx.num_ads, &mut rng);
    for a in &mut ads {
        a.budget = (a.budget * ctx.scale).max(10.0);
    }
    ads
}

/// One row of a sweep: the swept value and the algorithms' outcomes.
pub type SweepRow = (f64, Vec<AlgoOutcome>);

/// The α sweep behind Figs. 1–3 and Table 3: a TIC dataset, one incentive
/// model, α ∈ [`ALPHAS`], comparing RMA / TI-CARM / TI-CSRM. One workbench
/// serves all five α points.
pub fn alpha_sweep(
    ctx: &ExperimentContext,
    kind: DatasetKind,
    incentive: IncentiveModel,
    strategy: RrStrategy,
) -> Vec<SweepRow> {
    alpha_sweep_values(ctx, kind, incentive, strategy, &ALPHAS)
}

/// [`alpha_sweep`] over an explicit α grid (manifest-driven scenarios can
/// override the paper's five points).
pub fn alpha_sweep_values(
    ctx: &ExperimentContext,
    kind: DatasetKind,
    incentive: IncentiveModel,
    strategy: RrStrategy,
    alphas: &[f64],
) -> Vec<SweepRow> {
    let dataset = ctx.dataset(kind);
    let wb = ctx.workbench(&dataset, strategy);
    let advertisers = advertisers_for(ctx, kind, ctx.seed ^ 0xAD5);
    let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
    let rma_cfg = default_rma_config(ctx);
    let mut ti_cfg = default_ti_config(ctx);
    ti_cfg.strategy = strategy;
    alphas
        .iter()
        .map(|&alpha| {
            let instance = instance_for_alpha(&dataset, &advertisers, &spreads, incentive, alpha);
            let outcomes = compare_algorithms(ctx, &wb, &instance, &rma_cfg, &ti_cfg);
            (alpha, outcomes)
        })
        .collect()
}

/// Fig. 4: the accuracy sweep. RMA's ε is swept over fractions of its
/// admissible range (0, λ(h, τ)); the baselines' ε is swept over the
/// paper's 0.05–0.3 band at matching fractions. Revenue and the memory
/// proxy (RR-set footprint) are reported.
///
/// Points run from the loosest ε (smallest sample requirement) to the
/// tightest, so the shared collections *extend* point over point and each
/// point's memory/`rr_sets` figure still reflects its own ε — preserving
/// the paper's memory-vs-ε trend under the cache. Per-point generation
/// cost is in `rr_generated`.
pub fn epsilon_sweep(ctx: &ExperimentContext, kind: DatasetKind) -> Vec<SweepRow> {
    let dataset = ctx.dataset(kind);
    let wb = ctx.workbench(&dataset, RrStrategy::Standard);
    let advertisers = advertisers_for(ctx, kind, ctx.seed ^ 0xAD5);
    let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
    let instance = instance_for_alpha(
        &dataset,
        &advertisers,
        &spreads,
        IncentiveModel::Linear,
        0.1,
    );
    let lam = rmsa_core::lambda(ctx.num_ads, 0.1);
    [0.95, 0.8, 0.65, 0.5, 0.35, 0.2]
        .iter()
        .map(|&frac| {
            let mut rma_cfg = default_rma_config(ctx);
            rma_cfg.epsilon = frac * lam;
            let mut ti_cfg = default_ti_config(ctx);
            ti_cfg.epsilon = 0.05 + frac * 0.25;
            let outcomes = compare_algorithms(ctx, &wb, &instance, &rma_cfg, &ti_cfg);
            (rma_cfg.epsilon, outcomes)
        })
        .collect()
}

/// Fig. 5 sweeps: either the number of advertisers `h` (with a fixed budget
/// per advertiser) or the per-advertiser budget (with fixed `h = 5`) on a
/// Weighted-Cascade scalability dataset.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalabilitySweep {
    /// Vary the number of advertisers.
    Advertisers {
        /// Budget shared by every advertiser.
        budget: f64,
        /// The `h` values to sweep.
        values: Vec<usize>,
    },
    /// Vary the per-advertiser budget.
    Budgets {
        /// Fixed number of advertisers.
        num_ads: usize,
        /// The budget values to sweep.
        values: Vec<f64>,
    },
}

/// Run a Fig. 5 scalability sweep; the `f64` key of each row is `h` or the
/// budget, depending on the sweep. Budget sweeps share one workbench;
/// advertiser sweeps rebuild the model (and thus the workbench) per `h`.
pub fn scalability_sweep(
    ctx: &ExperimentContext,
    kind: DatasetKind,
    sweep: ScalabilitySweep,
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    let configs: Vec<(usize, f64)> = match &sweep {
        ScalabilitySweep::Advertisers { budget, values } => {
            values.iter().map(|&h| (h, *budget)).collect()
        }
        ScalabilitySweep::Budgets { num_ads, values } => {
            values.iter().map(|&b| (*num_ads, b)).collect()
        }
    };
    // Budget sweeps keep `h` fixed, so one dataset + workbench serves every
    // point; advertiser sweeps change the model arity per point.
    let mut current: Option<(usize, rmsa_datasets::Dataset, Workbench)> = None;
    for (h, budget) in configs {
        let mut sub_ctx = ctx.clone();
        sub_ctx.num_ads = h;
        if current.as_ref().map(|(ch, _, _)| *ch) != Some(h) {
            let dataset = sub_ctx.dataset(kind);
            let wb = sub_ctx.workbench(&dataset, RrStrategy::Subsim);
            current = Some((h, dataset, wb));
        }
        let (_, dataset, wb) = current.as_ref().expect("workbench just built");
        let budget = (budget * ctx.scale).max(10.0);
        let advertisers = rmsa_datasets::scalability_advertisers(h, budget);
        // The scalability experiments use the linear incentive model with
        // α = 0.2 (Sec. 5.2.3); WC spreads are shared across advertisers.
        let instance = dataset.build_instance(
            advertisers,
            IncentiveModel::Linear,
            0.2,
            sub_ctx.spread_rr,
            sub_ctx.seed ^ 0x5EED,
        );
        let mut rma_cfg = default_rma_config(&sub_ctx);
        // ε must stay inside (0, λ(h, τ)), which shrinks as h grows.
        rma_cfg.epsilon = rma_cfg.epsilon.min(0.9 * rmsa_core::lambda(h, rma_cfg.tau));
        let mut ti_cfg = default_ti_config(&sub_ctx);
        ti_cfg.epsilon = 0.3;
        ti_cfg.strategy = RrStrategy::Subsim;
        let outcomes = compare_algorithms(&sub_ctx, wb, &instance, &rma_cfg, &ti_cfg);
        let key = match &sweep {
            ScalabilitySweep::Advertisers { .. } => h as f64,
            ScalabilitySweep::Budgets { .. } => budget,
        };
        rows.push((key, outcomes));
    }
    rows
}

/// The generator families swept by the fig5-style scalability scenario.
pub const GENERATOR_FAMILIES: [&str; 5] = [
    "barabasi_albert",
    "erdos_renyi",
    "power_law_configuration",
    "watts_strogatz",
    "celebrity_graph",
];

/// Build a ~`n`-node graph of one generator family, deterministic in
/// `seed`. The random families share a mean degree of ~8 so the sweep's
/// points are comparable across families; `celebrity_graph` (the one
/// deterministic family) rounds `n` up to whole hub blocks.
pub fn family_graph(
    family: &str,
    n: usize,
    seed: u64,
) -> Result<rmsa_graph::DirectedGraph, String> {
    use rmsa_graph::generators as g;
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    Ok(match family {
        "barabasi_albert" => g::barabasi_albert(n, 8, &mut rng),
        "erdos_renyi" => g::erdos_renyi(n, (8.0 / n.max(2) as f64).min(1.0), &mut rng),
        "power_law_configuration" => {
            g::power_law_configuration(n, 2.3, 8.0, (n / 10).max(8), &mut rng)
        }
        "watts_strogatz" => g::watts_strogatz(n, 8, 0.1, &mut rng),
        "celebrity_graph" => g::celebrity_graph(n.div_ceil(100).max(1), 99),
        other => {
            return Err(format!(
                "unknown generator family {other:?} (expected one of {GENERATOR_FAMILIES:?})"
            ))
        }
    })
}

/// Decode a genscale snapshot back from either source (owned bytes or a
/// zero-copy mapping).
fn genscale_decode<S: rmsa_store::SectionSource>(
    src: &S,
) -> Result<
    (
        rmsa_graph::DirectedGraph,
        rmsa_diffusion::RrArena,
        rmsa_diffusion::CoverageIndex,
    ),
    rmsa_store::StoreError,
> {
    use rmsa_store::section;
    let graph = rmsa_graph::snapshot::read_graph(&mut src.require(section::GRAPH)?)?;
    let arena =
        rmsa_diffusion::snapshot::read_arena(&mut src.require(section::CACHE_STREAM_BASE)?)?;
    let index = rmsa_diffusion::snapshot::read_index(
        &mut src.require(section::CACHE_STREAM_BASE + 1)?,
        &arena,
    )?;
    Ok((graph, arena, index))
}

/// The tentpole scalability sweep: for each target node count, build one
/// generator-family graph, generate a sharded RR batch over it, persist a
/// v2 snapshot, and race the owned decode against the zero-copy mmap load.
///
/// Each point emits three rows keyed by the (scaled) node count:
///
/// * `generate` — sharded generation + coverage indexing wall-clock;
///   `revenue` carries the total RR entry count, which is bit-identical
///   for any shard/thread count, so the compare gate catches a
///   distribution regression.
/// * `load-owned` — full eager decode of the snapshot (every column
///   copied to the heap, per-element validation on).
/// * `load-mapped` — lazy zero-copy load (`mapped_bytes` > 0 on eligible
///   targets; validation deferred to the checksum layer).
///
/// Node counts scale with `ctx.scale`, so the quick CI profile runs
/// miniatures of the very sweep the full profile drives past 10^6 nodes.
pub fn genscale_sweep(
    ctx: &ExperimentContext,
    family: &str,
    nodes: &[usize],
    rr_per_node: f64,
    num_shards: usize,
) -> Result<Vec<SweepRow>, String> {
    use rmsa_diffusion::{CoverageIndex, MappedSnapshot, RrArena, UniformRrSampler, VerifyMode};
    use rmsa_store::{section, SnapshotReader, SnapshotWriter};
    use std::time::Instant;
    let mut rows = Vec::new();
    for &target in nodes {
        let n = ((target as f64 * ctx.scale).round() as usize).max(64);
        let graph = family_graph(family, n, ctx.seed ^ target as u64)?;
        let model = rmsa_diffusion::WeightedCascade::new(&graph, ctx.num_ads);
        let cpes = vec![1.0; ctx.num_ads];
        let sampler = UniformRrSampler::new(&cpes);
        let count = ((n as f64 * rr_per_node).round() as usize).max(1);

        let gen_start = Instant::now();
        let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Subsim);
        arena.generate_sharded(
            &graph,
            &model,
            &sampler,
            count,
            num_shards,
            ctx.threads,
            ctx.seed ^ 0x6E5C,
        );
        let gen_secs = gen_start.elapsed().as_secs_f64();
        let index_start = Instant::now();
        let mut index = CoverageIndex::new(graph.num_nodes(), ctx.num_ads);
        // One segment for the whole sharded batch: a segment per shard
        // would pay the `h · n` group offsets once per shard.
        index.extend_from(&arena, ctx.threads);
        let index_secs = index_start.elapsed().as_secs_f64();
        let entries = arena.total_entries();

        // Persist the point as an aligned v2 snapshot, then race the two
        // load paths against the same file.
        let mut w = SnapshotWriter::new();
        rmsa_graph::snapshot::write_graph(&graph, w.section(section::GRAPH));
        rmsa_diffusion::snapshot::write_arena(&arena, w.section(section::CACHE_STREAM_BASE));
        rmsa_diffusion::snapshot::write_index(&index, w.section(section::CACHE_STREAM_BASE + 1));
        let bytes = w.finish();
        let path = std::env::temp_dir().join(format!(
            "rmsa_genscale_{family}_{n}_{:x}.rmsnap",
            ctx.seed ^ std::process::id() as u64
        ));
        rmsa_store::write_file(&path, &bytes)
            .map_err(|e| format!("genscale: write {}: {e}", path.display()))?;

        let owned_start = Instant::now();
        let file_bytes = rmsa_store::read_file(&path)
            .map_err(|e| format!("genscale: reread {}: {e}", path.display()))?;
        let reader = SnapshotReader::parse(&file_bytes)
            .map_err(|e| format!("genscale: parse {}: {e}", path.display()))?;
        let (_, arena_o, index_o) = genscale_decode(&reader)
            .map_err(|e| format!("genscale: owned decode {}: {e}", path.display()))?;
        let owned_secs = owned_start.elapsed().as_secs_f64();

        let mapped_start = Instant::now();
        let snap = MappedSnapshot::open(&path, VerifyMode::Lazy)
            .map_err(|e| format!("genscale: mmap {}: {e}", path.display()))?;
        let (_, arena_m, index_m) = genscale_decode(&snap)
            .map_err(|e| format!("genscale: mapped decode {}: {e}", path.display()))?;
        let mapped_secs = mapped_start.elapsed().as_secs_f64();
        std::fs::remove_file(&path).ok();

        // Cheap identity spine (the exhaustive mapped ≡ owned equivalence
        // lives in the diffusion test suite).
        if arena_o.len() != arena_m.len()
            || arena_o.total_entries() != arena_m.total_entries()
            || arena_o.len() != count
        {
            return Err(format!(
                "genscale: load paths disagree for {family} at n = {n}: owned {}x{}, mapped {}x{}",
                arena_o.len(),
                arena_o.total_entries(),
                arena_m.len(),
                arena_m.total_entries()
            ));
        }

        let outcome = |algorithm: &str,
                       time_secs: f64,
                       rr_generated: usize,
                       idx_secs: f64,
                       loaded: usize,
                       load_secs: f64,
                       resident: usize,
                       mapped: usize| AlgoOutcome {
            algorithm: algorithm.to_string(),
            revenue: entries as f64,
            revenue_lower_bound: None,
            seeding_cost: 0.0,
            seeds: 0,
            time_secs,
            rr_sets: count,
            rr_generated,
            index_secs: idx_secs,
            loaded_from_snapshot: loaded,
            snapshot_load_secs: load_secs,
            memory_bytes: resident + mapped,
            resident_bytes: resident,
            mapped_bytes: mapped,
            memory_mib: (resident + mapped) as f64 / (1024.0 * 1024.0),
            budget_usage_pct: 0.0,
            rate_of_return_pct: 0.0,
            phases: Vec::new(),
        };
        let key = n as f64;
        rows.push((
            key,
            vec![
                outcome(
                    "generate",
                    gen_secs,
                    count,
                    index_secs,
                    0,
                    0.0,
                    arena.resident_bytes() + index.resident_bytes(),
                    arena.mapped_bytes() + index.mapped_bytes(),
                ),
                outcome(
                    "load-owned",
                    owned_secs,
                    0,
                    0.0,
                    arena_o.len(),
                    owned_secs,
                    arena_o.resident_bytes() + index_o.resident_bytes(),
                    arena_o.mapped_bytes() + index_o.mapped_bytes(),
                ),
                outcome(
                    "load-mapped",
                    mapped_secs,
                    0,
                    0.0,
                    arena_m.len(),
                    mapped_secs,
                    arena_m.resident_bytes() + index_m.resident_bytes(),
                    arena_m.mapped_bytes() + index_m.mapped_bytes(),
                ),
            ],
        ));
    }
    Ok(rows)
}

/// Fig. 7: the holistic-demand sweep. Total demand `M = Σ_i B_i / (n·cpe_i)`
/// is split randomly across advertisers with `cpe = 1`. One workbench
/// serves every demand point (budgets change, CPEs do not).
pub fn demand_sweep(ctx: &ExperimentContext, kind: DatasetKind, demands: &[f64]) -> Vec<SweepRow> {
    let dataset = ctx.dataset(kind);
    let wb = ctx.workbench(&dataset, RrStrategy::Standard);
    let n = dataset.graph.num_nodes() as f64;
    let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
    let mut rng = Pcg64Mcg::seed_from_u64(ctx.seed ^ 0xDE3A);
    demands
        .iter()
        .map(|&m_total| {
            // Random positive shares summing to the total demand.
            let raw: Vec<f64> = (0..ctx.num_ads).map(|_| rng.gen_range(0.5..1.5)).collect();
            let sum: f64 = raw.iter().sum();
            let advertisers: Vec<Advertiser> = raw
                .iter()
                .map(|r| {
                    let share = r / sum * m_total;
                    Advertiser::try_new((share * n).max(10.0), 1.0).unwrap()
                })
                .collect();
            let instance = dataset.build_instance_from_spreads(
                advertisers,
                &spreads,
                IncentiveModel::Linear,
                0.1,
            );
            let outcomes = compare_algorithms(
                ctx,
                &wb,
                &instance,
                &default_rma_config(ctx),
                &default_ti_config(ctx),
            );
            (m_total, outcomes)
        })
        .collect()
}

/// Which RMA parameter [`rma_parameter_sweep`] varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmaParameter {
    /// The binary-search accuracy τ (Fig. 8 / Table 5).
    Tau,
    /// The budget-overshoot ϱ (Fig. 9).
    Rho,
}

/// Fig. 8 / Table 5 (τ sweep) and Fig. 9 (ϱ sweep): RMA-only parameter
/// sensitivity on a fixed linear-cost instance, all through one workbench.
pub fn rma_parameter_sweep(
    ctx: &ExperimentContext,
    kind: DatasetKind,
    parameter: RmaParameter,
    values: &[f64],
) -> Vec<(f64, AlgoOutcome)> {
    let dataset = ctx.dataset(kind);
    let wb = ctx.workbench(&dataset, RrStrategy::Standard);
    let advertisers = advertisers_for(ctx, kind, ctx.seed ^ 0xAD5);
    let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
    let instance = instance_for_alpha(
        &dataset,
        &advertisers,
        &spreads,
        IncentiveModel::Linear,
        0.1,
    );
    let evaluator = wb.evaluator(&instance, ctx.eval_rr);
    values
        .iter()
        .map(|&v| {
            let mut cfg = default_rma_config(ctx);
            match parameter {
                RmaParameter::Tau => {
                    cfg.tau = v.clamp(0.001, 0.999);
                    // ε must stay inside (0, λ(h, τ)) as τ grows.
                    cfg.epsilon = cfg
                        .epsilon
                        .min(0.9 * rmsa_core::lambda(ctx.num_ads, cfg.tau));
                }
                RmaParameter::Rho => cfg.rho = v.min(0.999),
            }
            let (outcome, _) = run_rma(&wb, &instance, &evaluator, &cfg);
            (v, outcome)
        })
        .collect()
}

/// Turn sweep rows into CSV lines, each prefixed with `row_prefix` (which
/// may carry extra configuration columns such as the dataset and incentive
/// model; it must end with a comma when non-empty).
pub fn sweep_csv_lines(row_prefix: &str, rows: &[SweepRow]) -> Vec<String> {
    let mut lines = Vec::new();
    for (key, outcomes) in rows {
        for o in outcomes {
            lines.push(format!(
                "{row_prefix}{key},{},{:.3},{:.3},{},{:.3},{},{},{:.4},{},{:.3},{},{},{:.2},{:.2}",
                o.algorithm,
                o.revenue,
                o.seeding_cost,
                o.seeds,
                o.time_secs,
                o.rr_sets,
                o.rr_generated,
                o.index_secs,
                o.loaded_from_snapshot,
                o.memory_mib,
                o.resident_bytes,
                o.mapped_bytes,
                o.budget_usage_pct,
                o.rate_of_return_pct
            ));
        }
    }
    lines
}

/// The CSV column list appended after any configuration columns and the
/// sweep key.
pub const SWEEP_CSV_COLUMNS: &str = "algorithm,revenue,seeding_cost,seeds,time_secs,rr_sets,\
rr_generated,index_secs,loaded_from_snapshot,memory_mib,resident_bytes,mapped_bytes,\
budget_usage_pct,rate_of_return_pct";

/// The deterministic projection of a standard sweep CSV row: every column
/// except the wall-clock ones (`time_secs`, `index_secs`), which differ
/// between otherwise-identical executions. Column positions are derived
/// from [`SWEEP_CSV_COLUMNS`] (counted from the row's end, so any number
/// of leading configuration columns is tolerated). Used by tests and
/// tooling that compare rows across runs.
pub fn deterministic_csv_fields(row: &str) -> Vec<String> {
    let metrics: Vec<&str> = SWEEP_CSV_COLUMNS.split(',').collect();
    let from_end = |name: &str| {
        metrics.len()
            - metrics
                .iter()
                .position(|m| *m == name)
                .expect("metric is in SWEEP_CSV_COLUMNS")
    };
    let fields: Vec<&str> = row.split(',').collect();
    let skip = [
        fields.len() - from_end("time_secs"),
        fields.len() - from_end("index_secs"),
    ];
    fields
        .iter()
        .enumerate()
        .filter(|(i, _)| !skip.contains(i))
        .map(|(_, f)| f.to_string())
        .collect()
}

/// Print one metric of a sweep as the table the paper's figure plots.
pub fn print_sweep_metric<F: Fn(&AlgoOutcome) -> String>(
    title: &str,
    key_label: &str,
    rows: &[SweepRow],
    metric: F,
) {
    print!("{}", sweep_metric_table(title, key_label, rows, metric));
}

/// Render one metric of a sweep as the table the paper's figure plots; the
/// algorithm columns are taken from the first row's outcomes.
pub fn sweep_metric_table<F: Fn(&AlgoOutcome) -> String>(
    title: &str,
    key_label: &str,
    rows: &[SweepRow],
    metric: F,
) -> String {
    use std::fmt::Write;
    let algorithms: Vec<String> = rows
        .first()
        .map(|(_, outcomes)| outcomes.iter().map(|o| o.algorithm.clone()).collect())
        .unwrap_or_default();
    let mut out = format!("\n{title}\n");
    let _ = write!(out, "{key_label:<12}");
    for name in &algorithms {
        let _ = write!(out, " {name:>14}");
    }
    out.push('\n');
    for (key, outcomes) in rows {
        let _ = write!(out, "{key:<12.4}");
        for name in &algorithms {
            let cell = outcomes
                .iter()
                .find(|o| &o.algorithm == name)
                .map(&metric)
                .unwrap_or_else(|| "-".to_string());
            let _ = write!(out, " {cell:>14}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_sweep_produces_one_row_per_alpha() {
        let mut ctx = ExperimentContext::smoke();
        ctx.eval_rr = 5_000;
        ctx.spread_rr = 1_000;
        let rows = alpha_sweep(
            &ctx,
            DatasetKind::LastfmSyn,
            IncentiveModel::Linear,
            RrStrategy::Standard,
        );
        assert_eq!(rows.len(), ALPHAS.len());
        for (alpha, outcomes) in &rows {
            assert!(ALPHAS.contains(alpha));
            assert_eq!(outcomes.len(), 3);
        }
        // Later α points reuse earlier points' RR-sets: the total fresh
        // generation must undercut what five independent runs would pay.
        let total_used: usize = rows
            .iter()
            .flat_map(|(_, outcomes)| outcomes.iter())
            .map(|o| o.rr_sets)
            .sum();
        let total_generated: usize = rows
            .iter()
            .flat_map(|(_, outcomes)| outcomes.iter())
            .map(|o| o.rr_generated)
            .sum();
        assert!(
            total_generated < total_used,
            "sweep reuse expected: generated {total_generated} of {total_used} used"
        );
    }

    #[test]
    fn scalability_sweep_varies_the_requested_dimension() {
        let mut ctx = ExperimentContext::smoke();
        ctx.eval_rr = 5_000;
        ctx.spread_rr = 500;
        let rows = scalability_sweep(
            &ctx,
            DatasetKind::DblpSyn,
            ScalabilitySweep::Advertisers {
                budget: 100.0,
                values: vec![1, 3],
            },
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 1.0);
        assert_eq!(rows[1].0, 3.0);
    }

    #[test]
    fn rma_parameter_sweep_reports_one_outcome_per_value() {
        let mut ctx = ExperimentContext::smoke();
        ctx.eval_rr = 5_000;
        ctx.spread_rr = 500;
        let rows =
            rma_parameter_sweep(&ctx, DatasetKind::LastfmSyn, RmaParameter::Tau, &[0.1, 0.3]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1.algorithm, "RMA");
    }
}
