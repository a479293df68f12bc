//! Shared experiment harness for reproducing the paper's tables and figures.
//!
//! Each manifest in `scenarios/` regenerates one table or figure through
//! `rmsa sweep` / `rmsa run`: the runner builds the relevant synthetic
//! dataset(s), assembles RM instances, runs RMA and the TI-CARM / TI-CSRM
//! baselines, evaluates every allocation on an independent RR-set
//! collection, prints the rows the paper reports, and writes a CSV under
//! `results/`.
//!
//! All experiments accept a global scale factor through the `RMSA_SCALE`
//! environment variable (default 1.0): the dataset sizes *and* advertiser
//! budgets are multiplied by it, so `RMSA_SCALE=0.1` runs the whole suite on
//! a laptop in minutes while preserving the comparative shapes.

pub mod harness;
pub mod json;
pub mod manifest;
pub mod report;
pub mod runner;
pub mod sweeps;
pub mod toml_lite;

pub use harness::{
    compare_algorithms, default_rma_config, default_ti_config, run_rma, run_ti, write_csv,
    AlgoOutcome, ExperimentContext,
};
pub use manifest::{Scenario, ScenarioJob, SweepSpec};
pub use report::{compare_reports, BenchReport, RunManifest, Tolerance};
pub use runner::{run_scenario, ScenarioOutput};
