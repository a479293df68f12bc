//! Baseline algorithms of Aslay et al. [5], reimplemented for comparison:
//! CA-/CS-Greedy in the oracle setting and TI-CARM/TI-CSRM in the sampling
//! setting.

pub mod greedy_baselines;
pub mod ti;

pub use greedy_baselines::{baseline_greedy, BaselineRule};
pub use ti::{ti_baseline, ti_baseline_in, TiConfig, TiResult, TiRule};
