//! Declarative scenario manifests: TOML files under `scenarios/` that
//! describe one experiment (figure or table) as data instead of code.
//!
//! A manifest names the scenario, the CSV column layout, optional
//! [`ExperimentContext`] overrides (plus a `[quick]` section applied in CI /
//! `--quick` mode), and a list of `[[job]]` sweep specifications. Each job
//! is one *workbench group*: a set of sweep points that share a single
//! `Workbench` (and therefore one RR-set cache); the runner executes the
//! points of a job sequentially — so collections extend deterministically —
//! and distinct jobs in parallel (see [`crate::runner`]).
//!
//! ```toml
//! schema = 1
//! name = "fig1_revenue_vs_alpha"
//! title = "Figure 1 — total revenue vs alpha"
//! key_columns = "dataset,incentive,alpha"
//!
//! [quick]
//! scale = 0.05
//!
//! [[job]]
//! sweep = "alpha"           # alpha | epsilon | scalability | demand | rma
//! dataset = "flixster-syn"  #       | datasets | settings
//! incentive = "linear"
//! strategy = "standard"
//! prefix = "flixster-syn,linear,"
//! metrics = ["revenue"]
//! ```

use crate::harness::ExperimentContext;
use crate::sweeps::{RmaParameter, ScalabilitySweep};
use crate::toml_lite::{self, Toml};
use rmsa_datasets::{DatasetKind, IncentiveModel};
use rmsa_diffusion::RrStrategy;

/// Manifest schema version understood by this build.
pub const MANIFEST_SCHEMA: u32 = 1;

/// Overrides for [`ExperimentContext`] fields; unset fields keep the
/// surrounding value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CtxOverrides {
    /// Global dataset/budget scale factor.
    pub scale: Option<f64>,
    /// Number of advertisers `h`.
    pub num_ads: Option<usize>,
    /// RR-sets per advertiser for singleton-spread estimation.
    pub spread_rr: Option<usize>,
    /// RR-sets in the independent evaluation collection.
    pub eval_rr: Option<usize>,
    /// Worker threads.
    pub threads: Option<usize>,
    /// Master seed.
    pub seed: Option<u64>,
    /// Cap on RMA's RR-sets per collection.
    pub rma_max_rr: Option<usize>,
    /// Cap on the TI baselines' RR-sets per advertiser.
    pub ti_max_rr: Option<usize>,
    /// RMA accuracy ε.
    pub rma_epsilon: Option<f64>,
    /// Baseline accuracy ε.
    pub ti_epsilon: Option<f64>,
}

impl CtxOverrides {
    /// Apply the set fields onto `ctx`.
    pub fn apply(&self, ctx: &mut ExperimentContext) {
        macro_rules! apply {
            ($($field:ident),*) => {
                $(if let Some(v) = self.$field { ctx.$field = v; })*
            };
        }
        apply!(
            scale,
            num_ads,
            spread_rr,
            eval_rr,
            rma_max_rr,
            ti_max_rr,
            rma_epsilon,
            ti_epsilon
        );
        if let Some(t) = self.threads {
            ctx.threads = t.max(1);
        }
        if let Some(s) = self.seed {
            ctx.seed = s;
        }
    }

    fn from_toml(table: &Toml) -> Result<Self, String> {
        let mut o = CtxOverrides::default();
        for key in table.keys() {
            let v = table.get(key).expect("key just listed");
            match key {
                "scale" => o.scale = Some(req_f64(v, key)?),
                "num_ads" => o.num_ads = Some(req_usize(v, key)?),
                "spread_rr" => o.spread_rr = Some(req_usize(v, key)?),
                "eval_rr" => o.eval_rr = Some(req_usize(v, key)?),
                "threads" => o.threads = Some(req_usize(v, key)?),
                "seed" => o.seed = Some(v.as_u64().ok_or(format!("{key} must be a u64"))?),
                "rma_max_rr" => o.rma_max_rr = Some(req_usize(v, key)?),
                "ti_max_rr" => o.ti_max_rr = Some(req_usize(v, key)?),
                "rma_epsilon" => o.rma_epsilon = Some(req_f64(v, key)?),
                "ti_epsilon" => o.ti_epsilon = Some(req_f64(v, key)?),
                other => return Err(format!("unknown context override {other:?}")),
            }
        }
        Ok(o)
    }
}

/// The sweep a job runs; mirrors the functions in [`crate::sweeps`].
#[derive(Clone, Debug, PartialEq)]
pub enum SweepSpec {
    /// Figs. 1–3 / 7(c–d) / 10, Table 3: α sweep on one dataset/incentive.
    Alpha {
        /// Dataset to sweep on.
        dataset: DatasetKind,
        /// Incentive cost model.
        incentive: IncentiveModel,
        /// RR-set generation strategy.
        strategy: RrStrategy,
        /// α values (default: [`crate::sweeps::ALPHAS`]).
        values: Option<Vec<f64>>,
    },
    /// Fig. 4: ε sweep (fractions of the admissible range).
    Epsilon {
        /// Dataset to sweep on.
        dataset: DatasetKind,
    },
    /// Fig. 5 / 6: scalability in `h` or in the per-advertiser budget.
    Scalability {
        /// Dataset to sweep on.
        dataset: DatasetKind,
        /// Advertiser-count or budget sweep.
        sweep: ScalabilitySweep,
    },
    /// Tentpole scalability: generator-family graphs swept toward
    /// million-node scale with sharded RR generation and owned-vs-mapped
    /// snapshot load races (see [`crate::sweeps::genscale_sweep`]).
    GenScale {
        /// Generator family ([`crate::sweeps::GENERATOR_FAMILIES`]).
        family: String,
        /// Target node counts (scaled by the context's `scale`).
        nodes: Vec<usize>,
        /// RR-sets generated per (scaled) node.
        rr_per_node: f64,
        /// Number of generation shards.
        shards: usize,
    },
    /// Fig. 7(a–b): holistic total-demand sweep.
    Demand {
        /// Dataset to sweep on.
        dataset: DatasetKind,
        /// Total-demand values `M`.
        values: Vec<f64>,
    },
    /// Figs. 8–9: RMA-only parameter sensitivity (τ or ϱ).
    Rma {
        /// Dataset to sweep on.
        dataset: DatasetKind,
        /// Which parameter is swept.
        parameter: RmaParameter,
        /// Parameter values.
        values: Vec<f64>,
    },
    /// Table 1: dataset statistics (no solver runs).
    Datasets,
    /// Table 2: advertiser budget/CPE settings (no solver runs).
    Settings {
        /// Datasets to report.
        datasets: Vec<DatasetKind>,
    },
}

/// One `[[job]]` of a scenario: a sweep plus its CSV/reporting decoration.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioJob {
    /// The sweep to run.
    pub sweep: SweepSpec,
    /// Prefix prepended to every CSV row of this job (ends with a comma
    /// when non-empty); also the job label in `BENCH_*.json` points.
    pub prefix: String,
    /// Optional console table title (default: derived from the prefix).
    pub title: Option<String>,
    /// Metrics printed as console tables (from [`metric_value`] names).
    pub metrics: Vec<String>,
}

/// A parsed scenario manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name: `results/<name>.csv` and `BENCH_<name>.json`.
    pub name: String,
    /// Human-readable description.
    pub title: String,
    /// Comma-separated names of the columns before the per-algorithm
    /// metric columns (e.g. `"dataset,incentive,alpha"`). The last
    /// component labels the sweep key in console tables.
    pub key_columns: String,
    /// Context overrides always applied.
    pub defaults: CtxOverrides,
    /// Additional overrides applied in quick (CI) mode.
    pub quick: CtxOverrides,
    /// The jobs, in CSV row order.
    pub jobs: Vec<ScenarioJob>,
}

impl Scenario {
    /// Parse a manifest from TOML text.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let doc = toml_lite::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(|v| v.as_usize())
            .ok_or("manifest needs `schema = 1`")?;
        if schema as u32 != MANIFEST_SCHEMA {
            return Err(format!("unsupported manifest schema {schema}"));
        }
        let name = req_str(&doc, "name")?;
        let title = opt_str(&doc, "title")?.unwrap_or_else(|| name.clone());
        let key_columns = opt_str(&doc, "key_columns")?.unwrap_or_else(|| "key".to_string());
        let defaults = match doc.get("defaults") {
            Some(t) => CtxOverrides::from_toml(t).map_err(|e| format!("[defaults]: {e}"))?,
            None => CtxOverrides::default(),
        };
        let quick = match doc.get("quick") {
            Some(t) => CtxOverrides::from_toml(t).map_err(|e| format!("[quick]: {e}"))?,
            None => CtxOverrides::default(),
        };
        let jobs = match doc.get("job") {
            Some(Toml::TableArray(tables)) => tables
                .iter()
                .enumerate()
                .map(|(i, t)| parse_job(t).map_err(|e| format!("[[job]] #{}: {e}", i + 1)))
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("`job` must be an array of tables".to_string()),
            None => Vec::new(),
        };
        if jobs.is_empty() {
            return Err("manifest defines no [[job]] entries".to_string());
        }
        // All jobs must share one CSV layout: the fixed `datasets` /
        // `settings` table layouts cannot be mixed with each other or with
        // the standard sweep columns (the header is scenario-wide).
        let layout = |job: &ScenarioJob| match job.sweep {
            SweepSpec::Datasets => "datasets",
            SweepSpec::Settings { .. } => "settings",
            _ => "sweep",
        };
        let first_layout = layout(&jobs[0]);
        if let Some(clash) = jobs.iter().find(|j| layout(j) != first_layout) {
            return Err(format!(
                "jobs mix incompatible CSV layouts ({first_layout} vs {}); split them into \
                 separate scenarios",
                layout(clash)
            ));
        }
        Ok(Scenario {
            name,
            title,
            key_columns,
            defaults,
            quick,
            jobs,
        })
    }

    /// Load a manifest from a file.
    pub fn load(path: &std::path::Path) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Scenario::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The effective context: `base`, then `[defaults]`, then (in quick
    /// mode) the built-in quick profile and `[quick]`. Explicit caller
    /// overrides (CLI flags) are applied last via
    /// [`Scenario::context_with_overrides`].
    pub fn context(&self, base: &ExperimentContext, quick: bool) -> ExperimentContext {
        self.context_with_overrides(base, quick, &CtxOverrides::default())
    }

    /// [`Scenario::context`] with a final layer of explicit overrides that
    /// win over everything, including the quick profile — so
    /// `rmsa bench --quick --scale 0.2` really runs at scale 0.2.
    pub fn context_with_overrides(
        &self,
        base: &ExperimentContext,
        quick: bool,
        overrides: &CtxOverrides,
    ) -> ExperimentContext {
        let mut ctx = base.clone();
        self.defaults.apply(&mut ctx);
        if quick {
            let smoke = ExperimentContext::smoke();
            let mut q = ExperimentContext {
                threads: ctx.threads,
                seed: ctx.seed,
                ..smoke
            };
            self.quick.apply(&mut q);
            ctx = q;
        }
        overrides.apply(&mut ctx);
        ctx
    }

    /// The label of the sweep key (last `key_columns` component).
    pub fn key_label(&self) -> &str {
        self.key_columns.rsplit(',').next().unwrap_or("key")
    }
}

fn parse_job(table: &Toml) -> Result<ScenarioJob, String> {
    let kind = req_str(table, "sweep")?;
    let dataset = |key: &str| -> Result<DatasetKind, String> {
        let name = req_str(table, key)?;
        parse_dataset(&name)
    };
    let f64_values = || -> Result<Option<Vec<f64>>, String> {
        match table.get("values") {
            None => Ok(None),
            Some(v) => v
                .as_arr()
                .ok_or("values must be an array".to_string())?
                .iter()
                .map(|x| x.as_f64().ok_or("values must be numbers".to_string()))
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    };
    let sweep = match kind.as_str() {
        "alpha" => SweepSpec::Alpha {
            dataset: dataset("dataset")?,
            incentive: parse_incentive(&req_str(table, "incentive")?)?,
            strategy: parse_strategy(&opt_str(table, "strategy")?.unwrap_or("standard".into()))?,
            values: f64_values()?,
        },
        "epsilon" => SweepSpec::Epsilon {
            dataset: dataset("dataset")?,
        },
        "scalability" => {
            let mode = req_str(table, "mode")?;
            let sweep = match mode.as_str() {
                "advertisers" => ScalabilitySweep::Advertisers {
                    budget: table
                        .get("budget")
                        .and_then(|v| v.as_f64())
                        .ok_or("advertisers mode needs `budget`")?,
                    values: table
                        .get("values")
                        .and_then(|v| v.as_arr())
                        .ok_or("scalability needs `values`")?
                        .iter()
                        .map(|x| x.as_usize().ok_or("h values must be integers".to_string()))
                        .collect::<Result<Vec<_>, _>>()?,
                },
                "budgets" => ScalabilitySweep::Budgets {
                    num_ads: table
                        .get("num_ads")
                        .and_then(|v| v.as_usize())
                        .ok_or("budgets mode needs `num_ads`")?,
                    values: f64_values()?.ok_or("scalability needs `values`")?,
                },
                other => return Err(format!("unknown scalability mode {other:?}")),
            };
            SweepSpec::Scalability {
                dataset: dataset("dataset")?,
                sweep,
            }
        }
        "genscale" => {
            let family = req_str(table, "family")?;
            if !crate::sweeps::GENERATOR_FAMILIES.contains(&family.as_str()) {
                return Err(format!(
                    "unknown generator family {family:?} (expected one of {:?})",
                    crate::sweeps::GENERATOR_FAMILIES
                ));
            }
            SweepSpec::GenScale {
                family,
                nodes: table
                    .get("nodes")
                    .and_then(|v| v.as_arr())
                    .ok_or("genscale needs `nodes`")?
                    .iter()
                    .map(|x| {
                        x.as_usize()
                            .ok_or("node counts must be integers".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                rr_per_node: match table.get("rr_per_node") {
                    None => 1.0,
                    Some(v) => req_f64(v, "rr_per_node")?,
                },
                shards: match table.get("shards") {
                    None => 8,
                    Some(v) => req_usize(v, "shards")?.max(1),
                },
            }
        }
        "demand" => SweepSpec::Demand {
            dataset: dataset("dataset")?,
            values: f64_values()?.ok_or("demand sweep needs `values`")?,
        },
        "rma" => SweepSpec::Rma {
            dataset: dataset("dataset")?,
            parameter: match req_str(table, "parameter")?.as_str() {
                "tau" => RmaParameter::Tau,
                "rho" => RmaParameter::Rho,
                other => return Err(format!("unknown RMA parameter {other:?}")),
            },
            values: f64_values()?.ok_or("rma sweep needs `values`")?,
        },
        "datasets" => SweepSpec::Datasets,
        "settings" => SweepSpec::Settings {
            datasets: table
                .get("datasets")
                .and_then(|v| v.as_arr())
                .ok_or("settings sweep needs `datasets`")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .ok_or("datasets must be strings".to_string())
                        .and_then(parse_dataset)
                })
                .collect::<Result<Vec<_>, _>>()?,
        },
        other => return Err(format!("unknown sweep kind {other:?}")),
    };
    let metrics = match table.get("metrics") {
        None => Vec::new(),
        Some(v) => v
            .as_arr()
            .ok_or("metrics must be an array".to_string())?
            .iter()
            .map(|x| {
                let name = x.as_str().ok_or("metrics must be strings".to_string())?;
                if !METRIC_NAMES.contains(&name) {
                    return Err(format!("unknown metric {name:?}"));
                }
                Ok(name.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(ScenarioJob {
        sweep,
        prefix: opt_str(table, "prefix")?.unwrap_or_default(),
        title: opt_str(table, "title")?,
        metrics,
    })
}

/// Metric names accepted in a job's `metrics` list.
pub const METRIC_NAMES: [&str; 10] = [
    "revenue",
    "seeding_cost",
    "seeds",
    "time_secs",
    "rr_sets",
    "rr_generated",
    "index_secs",
    "memory_mib",
    "budget_usage_pct",
    "rate_of_return_pct",
];

/// Format one metric of an [`crate::AlgoOutcome`] the way the figure
/// binaries historically printed it.
pub fn metric_value(outcome: &crate::AlgoOutcome, metric: &str) -> String {
    match metric {
        "revenue" => format!("{:.1}", outcome.revenue),
        "seeding_cost" => format!("{:.1}", outcome.seeding_cost),
        "seeds" => outcome.seeds.to_string(),
        "time_secs" => format!("{:.2}", outcome.time_secs),
        "rr_sets" => outcome.rr_sets.to_string(),
        "rr_generated" => outcome.rr_generated.to_string(),
        "index_secs" => format!("{:.4}", outcome.index_secs),
        "memory_mib" => format!("{:.2}", outcome.memory_mib),
        "budget_usage_pct" => format!("{:.1}", outcome.budget_usage_pct),
        "rate_of_return_pct" => format!("{:.1}", outcome.rate_of_return_pct),
        other => panic!("unknown metric {other:?}"),
    }
}

fn parse_dataset(name: &str) -> Result<DatasetKind, String> {
    DatasetKind::all()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown dataset {name:?}"))
}

fn parse_incentive(name: &str) -> Result<IncentiveModel, String> {
    IncentiveModel::all()
        .into_iter()
        .find(|m| m.label() == name)
        .ok_or_else(|| format!("unknown incentive model {name:?}"))
}

fn parse_strategy(name: &str) -> Result<RrStrategy, String> {
    match name {
        "standard" => Ok(RrStrategy::Standard),
        "subsim" => Ok(RrStrategy::Subsim),
        other => Err(format!("unknown RR strategy {other:?}")),
    }
}

fn req_str(table: &Toml, key: &str) -> Result<String, String> {
    table
        .get(key)
        .and_then(|v| v.as_str())
        .map(|s| s.to_string())
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn opt_str(table: &Toml, key: &str) -> Result<Option<String>, String> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{key} must be a string")),
    }
}

fn req_f64(v: &Toml, key: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("{key} must be a number"))
}

fn req_usize(v: &Toml, key: &str) -> Result<usize, String> {
    v.as_usize()
        .ok_or_else(|| format!("{key} must be a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
schema = 1
name = "mini"
title = "A mini scenario"
key_columns = "dataset,incentive,alpha"

[defaults]
num_ads = 4

[quick]
eval_rr = 9000

[[job]]
sweep = "alpha"
dataset = "lastfm-syn"
incentive = "linear"
strategy = "standard"
prefix = "lastfm-syn,linear,"
values = [0.1, 0.3]
metrics = ["revenue", "time_secs"]
"#;

    #[test]
    fn parses_a_scenario_and_builds_contexts() {
        let s = Scenario::parse(MINI).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.key_label(), "alpha");
        assert_eq!(s.jobs.len(), 1);
        match &s.jobs[0].sweep {
            SweepSpec::Alpha {
                dataset,
                incentive,
                strategy,
                values,
            } => {
                assert_eq!(*dataset, DatasetKind::LastfmSyn);
                assert_eq!(*incentive, IncentiveModel::Linear);
                assert_eq!(*strategy, RrStrategy::Standard);
                assert_eq!(values.as_deref(), Some(&[0.1, 0.3][..]));
            }
            other => panic!("wrong sweep {other:?}"),
        }
        let base = ExperimentContext::smoke();
        let full = s.context(&base, false);
        assert_eq!(full.num_ads, 4);
        assert_eq!(full.eval_rr, base.eval_rr);
        // Quick mode starts from the smoke profile, then applies [quick];
        // threads and seed are inherited from the incoming context.
        let quick = s.context(&base, true);
        assert_eq!(quick.eval_rr, 9000);
        assert_eq!(quick.seed, base.seed);
        assert_eq!(quick.num_ads, ExperimentContext::smoke().num_ads);
    }

    #[test]
    fn rejects_bad_manifests() {
        for (snippet, what) in [
            ("schema = 2\nname = \"x\"", "schema"),
            ("schema = 1", "name"),
            ("schema = 1\nname = \"x\"", "job"),
            (
                "schema = 1\nname = \"x\"\n[[job]]\nsweep = \"warp\"",
                "sweep kind",
            ),
            (
                "schema = 1\nname = \"x\"\n[[job]]\nsweep = \"alpha\"\ndataset = \"nope\"",
                "dataset",
            ),
            (
                "schema = 1\nname = \"x\"\n[[job]]\nsweep = \"alpha\"\ndataset = \"lastfm-syn\"\nincentive = \"linear\"\nmetrics = [\"velocity\"]",
                "metric",
            ),
        ] {
            assert!(Scenario::parse(snippet).is_err(), "{what} should fail");
        }
    }

    #[test]
    fn every_sweep_kind_parses() {
        let text = r#"
schema = 1
name = "all-kinds"

[[job]]
sweep = "epsilon"
dataset = "flixster-syn"

[[job]]
sweep = "scalability"
dataset = "dblp-syn"
mode = "advertisers"
budget = 10000.0
values = [1, 5]

[[job]]
sweep = "scalability"
dataset = "dblp-syn"
mode = "budgets"
num_ads = 5
values = [5000.0, 10000.0]

[[job]]
sweep = "demand"
dataset = "flixster-syn"
values = [2.0, 2.5]

[[job]]
sweep = "rma"
dataset = "lastfm-syn"
parameter = "rho"
values = [0.1, 0.45]
"#;
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.jobs.len(), 5);

        let tables = r#"
schema = 1
name = "table-kinds"

[[job]]
sweep = "datasets"
"#;
        let t = Scenario::parse(tables).unwrap();
        assert!(matches!(t.jobs[0].sweep, SweepSpec::Datasets));
        let settings = r#"
schema = 1
name = "settings-kind"

[[job]]
sweep = "settings"
datasets = ["lastfm-syn", "flixster-syn"]
"#;
        assert!(Scenario::parse(settings).is_ok());
    }

    #[test]
    fn mixed_csv_layouts_are_rejected() {
        // `datasets`/`settings` rows use fixed table layouts; mixing them
        // with sweep jobs (or each other) would produce a CSV whose rows
        // don't match its header.
        for extra in [
            "sweep = \"datasets\"",
            "sweep = \"settings\"\ndatasets = [\"lastfm-syn\"]",
        ] {
            let text = format!(
                r#"
schema = 1
name = "mixed"

[[job]]
sweep = "epsilon"
dataset = "flixster-syn"

[[job]]
{extra}
"#
            );
            let err = Scenario::parse(&text).unwrap_err();
            assert!(err.contains("incompatible CSV layouts"), "{err}");
        }
    }

    #[test]
    fn explicit_overrides_beat_the_quick_profile() {
        let s = Scenario::parse(MINI).unwrap();
        let base = ExperimentContext::smoke();
        let overrides = CtxOverrides {
            scale: Some(0.2),
            seed: Some(99),
            ..CtxOverrides::default()
        };
        let ctx = s.context_with_overrides(&base, true, &overrides);
        assert_eq!(ctx.scale, 0.2, "CLI --scale must beat the quick profile");
        assert_eq!(ctx.seed, 99);
        assert_eq!(ctx.eval_rr, 9000, "[quick] still applies elsewhere");
    }
}
