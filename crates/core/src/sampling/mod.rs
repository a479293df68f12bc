//! Sampling-setting machinery of Section 4: the RR-set revenue estimator,
//! sample-size/concentration bounds, and the one-batch and progressive
//! (RMA) algorithms.

pub mod bounds;
pub mod estimator;
pub mod rma;

pub use bounds::BoundParams;
pub use estimator::{RrRevenueEstimator, RrSeedState};
pub use rma::{seek_ub, RmaConfig, RmaResult};
