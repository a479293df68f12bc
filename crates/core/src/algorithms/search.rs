//! Algorithm 4: `Search(τ, b_min)` — binary search for a good threshold γ.
//!
//! `ThresholdGreedy`'s quality depends on γ (Theorem 3.2): small γ favours
//! high-gain elements, large γ favours high-rate elements. `Search` probes
//! thresholds over `[0, (1+τ)·γ_max]`, keeping the best allocation it sees,
//! while steering the binary search with `b_min`: an iteration whose number
//! of depleted advertisers `b` is at least `b_min` becomes the new left
//! endpoint, otherwise the new right endpoint. The loop stops when the
//! interval is relatively short (`(1+τ)γ_1 ≥ γ_2`) or γ_2 has become
//! negligible (`γ_2 ≤ min_i cpe(i) / (h+6)`).
//!
//! The bisection steers on `b` alone, which a probe knows once its main
//! loop ends, before its `Fill`. So every probe runs its main loop in turn,
//! and one sweep over the rate run then fills them all (see
//! `fill_all`); the best allocation and the endpoints are picked after
//! it, in probe order.

use crate::algorithms::threshold_greedy::{
    allocation_of, fill_all, probe, SingletonCandidates, Workspace,
};
use crate::oracle::{RevenueOracle, SeedState};
use crate::problem::{Allocation, RmInstance};

/// Hard cap on binary-search iterations; the theoretical bound is
/// `O(log(h·γ_max / min_i cpe(i)))`, which is far below this.
const MAX_SEARCH_ITERATIONS: usize = 128;

/// Everything `Search` produces: the best allocation found plus the two
/// endpoint solutions `(T⃗*_1, b_1, γ_1)` and `(T⃗*_2, b_2, γ_2)` that
/// `SeekUB` (Algorithm 7) needs to derive an upper bound on OPT.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The best allocation over every probed threshold.
    pub best: Allocation,
    /// Revenue of `best` under the oracle used for the search.
    pub best_revenue: f64,
    /// Left-endpoint solution `T⃗*_1` (threshold γ_1, depleted ≥ b_min).
    pub t1: Option<Allocation>,
    /// Number of depleted advertisers of `t1`.
    pub b1: usize,
    /// Left endpoint γ_1.
    pub gamma1: f64,
    /// Right-endpoint solution `T⃗*_2` (threshold γ_2, depleted < b_min).
    pub t2: Option<Allocation>,
    /// Number of depleted advertisers of `t2`.
    pub b2: usize,
    /// Right endpoint γ_2.
    pub gamma2: f64,
    /// The `b_min` used.
    pub b_min: usize,
    /// Number of `ThresholdGreedy` invocations.
    pub iterations: usize,
    /// [`RevenueOracle::estimate_of`] `best`, read off its probe's final
    /// states, so that a caller need not walk it again.
    pub best_estimate: f64,
    /// [`RevenueOracle::estimate_of`] `t1`; 0 when it is absent.
    pub t1_estimate: f64,
    /// [`RevenueOracle::estimate_of`] `t2`; 0 when it is absent.
    pub t2_estimate: f64,
}

/// `γ_max = max { B_j · ζ_j(v | ∅) : v ∈ V, j ∈ [h] }` (Eq. 6).
pub fn gamma_max<O: RevenueOracle>(instance: &RmInstance, oracle: &O) -> f64 {
    SingletonCandidates::scan(instance, oracle).gamma_max
}

/// Run `Search(τ, b_min)` (Algorithm 4).
pub fn search<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    tau: f64,
    b_min: usize,
) -> SearchOutcome {
    assert!(tau > 0.0 && tau < 1.0, "tau must lie in (0,1)");
    assert!(b_min == 1 || b_min == 2, "b_min must be 1 or 2");
    let h = instance.num_ads();
    let min_cpe = (0..h)
        .map(|i| instance.cpe(i))
        .fold(f64::INFINITY, f64::min);
    // Every probe starts from the same singleton candidates, scanned once,
    // and works in the same buffers.
    let candidates = SingletonCandidates::scan(instance, oracle);
    let mut workspace = Workspace::new(instance, &candidates);

    let mut gamma1 = 0.0f64;
    let mut gamma2 = (1.0 + tau) * candidates.gamma_max;
    let mut gamma = gamma1;
    let mut b1 = 0usize;
    let mut b2 = 0usize;
    // Each probe's `Fill` start, and whether its `b` reached `b_min`.
    let mut starts = Vec::new();
    let mut left = Vec::new();

    loop {
        let (start, depleted) = probe(instance, oracle, gamma, &candidates, &mut workspace);
        starts.push(start);
        left.push(depleted.len() >= b_min);
        if depleted.len() >= b_min {
            b1 = depleted.len();
            gamma1 = gamma;
        } else {
            b2 = depleted.len();
            gamma2 = gamma;
        }
        gamma = (gamma1 + gamma2) / 2.0;
        let interval_small = (1.0 + tau) * gamma1 >= gamma2;
        let gamma2_negligible = gamma2 <= min_cpe / (h as f64 + 6.0);
        if interval_small || gamma2_negligible || starts.len() >= MAX_SEARCH_ITERATIONS {
            break;
        }
    }
    let iterations = starts.len();
    let filled = fill_all(instance, oracle, starts, &candidates, &mut workspace);

    // In probe order: the first probe of the largest revenue, and the
    // last probe on each side of `b_min`.
    let mut best = None;
    let mut best_revenue = f64::NEG_INFINITY;
    let (mut t1, mut t2) = (None, None);
    for (k, states) in filled.iter().enumerate() {
        let revenue: f64 = states.iter().map(|s| s.revenue()).sum();
        if revenue > best_revenue {
            best_revenue = revenue;
            best = Some(k);
        }
        *(if left[k] { &mut t1 } else { &mut t2 }) = Some(k);
    }
    let estimate = |k: Option<usize>| k.map_or(0.0, |k| oracle.estimate_of(&filled[k]));
    let allocation = |k: Option<usize>| k.map(|k| allocation_of(&filled[k]));
    SearchOutcome {
        best: allocation(best).unwrap_or_else(|| Allocation::empty(h)),
        best_revenue: best_revenue.max(0.0),
        t1: allocation(t1),
        b1,
        gamma1,
        t2: allocation(t2),
        b2,
        gamma2,
        b_min,
        iterations,
        best_estimate: estimate(best),
        t1_estimate: estimate(t1),
        t2_estimate: estimate(t2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactRevenueOracle;
    use crate::problem::{Advertiser, SeedCosts};
    use rmsa_diffusion::UniformIc;
    use rmsa_graph::graph_from_edges;

    fn setup(budgets: &[f64]) -> (rmsa_graph::DirectedGraph, UniformIc, RmInstance) {
        let g = graph_from_edges(
            12,
            &[(0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8)],
        );
        let m = UniformIc::new(budgets.len(), 1.0);
        let inst = RmInstance::try_new(
            12,
            budgets
                .iter()
                .map(|&b| Advertiser::try_new(b, 1.0).unwrap())
                .collect(),
            SeedCosts::Shared(vec![1.0; 12]),
        )
        .unwrap();
        (g, m, inst)
    }

    #[test]
    fn gamma_max_matches_hand_computation() {
        let (g, m, inst) = setup(&[10.0, 5.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        // Best singleton rate: hub 0 with revenue 5, cost 1 → 5/6; budget 10
        // gives 50/6 ≈ 8.33. Advertiser 1: same node, budget 5 → 25/6.
        let gm = gamma_max(&inst, &o);
        assert!((gm - 50.0 / 6.0).abs() < 1e-9, "gamma_max = {gm}");
    }

    #[test]
    fn search_returns_a_feasible_disjoint_allocation() {
        let (g, m, inst) = setup(&[9.0, 7.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = search(&inst, &o, 0.1, 1);
        assert!(out.best.is_disjoint());
        for ad in 0..2 {
            let seeds = out.best.seeds(ad);
            let spent = o.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(spent <= inst.budget(ad) + 1e-9);
        }
        assert!(out.iterations >= 1);
        assert!(out.best_revenue > 0.0);
    }

    #[test]
    fn search_tracks_endpoint_solutions_consistently() {
        let (g, m, inst) = setup(&[6.0, 6.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = search(&inst, &o, 0.1, 1);
        if out.t1.is_some() {
            assert!(out.b1 >= 1, "t1 must have depleted at least b_min budgets");
            assert!(out.gamma1 <= out.gamma2 + 1e-12);
        }
        if out.t2.is_some() {
            assert!(out.b2 < 1 || out.t1.is_none());
        }
    }

    #[test]
    fn best_revenue_is_at_least_every_endpoint_revenue() {
        let (g, m, inst) = setup(&[8.0, 8.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = search(&inst, &o, 0.2, 1);
        if let Some(t1) = &out.t1 {
            assert!(out.best_revenue + 1e-9 >= o.allocation_revenue(&t1.seed_sets));
        }
        if let Some(t2) = &out.t2 {
            assert!(out.best_revenue + 1e-9 >= o.allocation_revenue(&t2.seed_sets));
        }
    }

    #[test]
    fn search_terminates_within_the_iteration_cap() {
        let (g, m, inst) = setup(&[100.0, 100.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = search(&inst, &o, 0.05, 2);
        assert!(out.iterations <= MAX_SEARCH_ITERATIONS);
    }
}
