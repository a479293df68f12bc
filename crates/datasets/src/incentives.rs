//! Seed-incentive cost models of Section 5.1.
//!
//! Given a constant `α > 0` and the singleton spread `σ_i({u})`, the cost of
//! node `u` for advertiser `i` is
//!
//! * Linear:       `c_i(u) = α · σ_i({u})`
//! * QuasiLinear:  `c_i(u) = α · σ_i({u}) · ln(σ_i({u}))`
//! * SuperLinear:  `c_i(u) = α · σ_i({u})²`
//!
//! Singleton spreads are at least 1 (a seed always activates itself), so the
//! quasi-linear logarithm is non-negative; we still clamp the spread at 1 to
//! guard against estimation noise and add a small floor so no node is free.

use rmsa_core::problem::SeedCosts;

/// Minimum cost assigned to any node, preventing zero-cost seeds that would
/// make the marginal rate degenerate.
const COST_FLOOR: f64 = 1e-6;

/// The three incentive models used in the paper's experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncentiveModel {
    /// Cost proportional to the singleton spread.
    Linear,
    /// Cost proportional to `σ ln σ`.
    QuasiLinear,
    /// Cost proportional to `σ²`.
    SuperLinear,
}

impl IncentiveModel {
    /// Cost of a node with singleton spread `spread` under multiplier `alpha`.
    pub fn cost(self, alpha: f64, spread: f64) -> f64 {
        assert!(alpha > 0.0, "alpha must be positive");
        let s = spread.max(1.0);
        let c = match self {
            IncentiveModel::Linear => alpha * s,
            IncentiveModel::QuasiLinear => alpha * s * s.ln().max(0.0),
            IncentiveModel::SuperLinear => alpha * s * s,
        };
        c.max(COST_FLOOR)
    }

    /// All three models, in the order the paper's figures present them.
    pub fn all() -> [IncentiveModel; 3] {
        [
            IncentiveModel::Linear,
            IncentiveModel::QuasiLinear,
            IncentiveModel::SuperLinear,
        ]
    }

    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            IncentiveModel::Linear => "linear",
            IncentiveModel::QuasiLinear => "quasilinear",
            IncentiveModel::SuperLinear => "superlinear",
        }
    }
}

/// Build per-ad seed costs from per-ad singleton spreads (`spreads[ad][node]`).
pub fn seed_costs_from_spreads(
    spreads: &[Vec<f64>],
    model: IncentiveModel,
    alpha: f64,
) -> SeedCosts {
    assert!(!spreads.is_empty());
    SeedCosts::PerAd(
        spreads
            .iter()
            .map(|row| row.iter().map(|&s| model.cost(alpha, s)).collect())
            .collect(),
    )
}

/// Build shared seed costs from one singleton-spread vector (used with the
/// Weighted-Cascade model where spreads are identical for every advertiser).
pub fn shared_seed_costs_from_spreads(
    spreads: &[f64],
    model: IncentiveModel,
    alpha: f64,
) -> SeedCosts {
    SeedCosts::Shared(spreads.iter().map(|&s| model.cost(alpha, s)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_cost_is_proportional_to_spread() {
        let m = IncentiveModel::Linear;
        assert!((m.cost(0.2, 10.0) - 2.0).abs() < 1e-12);
        assert!((m.cost(0.2, 20.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quasilinear_is_between_linear_and_superlinear_for_large_spreads() {
        let alpha = 0.1;
        let spread = 50.0;
        let lin = IncentiveModel::Linear.cost(alpha, spread);
        let quasi = IncentiveModel::QuasiLinear.cost(alpha, spread);
        let sup = IncentiveModel::SuperLinear.cost(alpha, spread);
        assert!(lin < quasi, "{lin} < {quasi}");
        assert!(quasi < sup, "{quasi} < {sup}");
    }

    #[test]
    fn spread_below_one_is_clamped() {
        // σ < 1 cannot happen for a real seed, but estimators can be noisy.
        let q = IncentiveModel::QuasiLinear.cost(0.5, 0.2);
        assert!(q >= 0.0);
        let l = IncentiveModel::Linear.cost(0.5, 0.5);
        assert!((l - 0.5).abs() < 1e-12);
    }

    #[test]
    fn costs_are_never_zero() {
        for m in IncentiveModel::all() {
            assert!(m.cost(0.1, 1.0) > 0.0, "{m:?}");
        }
    }

    #[test]
    fn cost_is_monotone_in_spread_and_alpha() {
        for m in IncentiveModel::all() {
            assert!(m.cost(0.3, 9.0) <= m.cost(0.3, 10.0));
            assert!(m.cost(0.3, 10.0) <= m.cost(0.4, 10.0));
        }
    }

    #[test]
    fn per_ad_cost_table_has_matching_shape() {
        let spreads = vec![vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]];
        let costs = seed_costs_from_spreads(&spreads, IncentiveModel::Linear, 0.5);
        assert_eq!(costs.num_nodes(), 3);
        assert!((costs.cost(0, 2) - 1.5).abs() < 1e-12);
        assert!((costs.cost(1, 0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn shared_cost_table_matches_every_ad() {
        let costs = shared_seed_costs_from_spreads(&[2.0, 4.0], IncentiveModel::SuperLinear, 0.1);
        assert!((costs.cost(0, 1) - 1.6).abs() < 1e-12);
        assert_eq!(costs.cost(0, 0), costs.cost(5, 0));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(IncentiveModel::Linear.label(), "linear");
        assert_eq!(IncentiveModel::QuasiLinear.label(), "quasilinear");
        assert_eq!(IncentiveModel::SuperLinear.label(), "superlinear");
    }
}
