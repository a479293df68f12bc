//! The unified result type returned by every [`crate::solver::Solver`].

use crate::problem::Allocation;
use std::time::Duration;

/// RR-set accounting of one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RrAccounting {
    /// RR-sets the solver's final answer was computed on (0 for pure
    /// oracle-mode solvers).
    pub used: usize,
    /// RR-sets actually generated during this solve. Under a warm
    /// [`rmsa_diffusion::RrCache`] this can be far below `used`.
    pub generated: usize,
    /// RR-sets served from the shared cache instead of being generated.
    pub reused: usize,
    /// RR-sets newly added to the shared coverage index during this solve
    /// (each set is indexed exactly once across a cache's lifetime).
    pub index_extended: usize,
    /// RR-sets whose coverage-index entries already existed when this
    /// solve ran — the work a per-estimator index rebuild would have
    /// repeated.
    pub index_reused: usize,
}

/// Outcome of one [`crate::solver::Solver::solve`] call: the allocation
/// plus the metrics every experiment in the paper reports.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Name of the solver that produced this report.
    pub solver: String,
    /// The selected allocation `S⃗*` (always partition-disjoint).
    pub allocation: Allocation,
    /// The solver's own estimate of `π(S⃗*)` (on its validation collection,
    /// its oracle, or its per-ad samples — see each solver's docs).
    pub revenue_estimate: f64,
    /// Certified lower bound `LB(S⃗*)` where the algorithm provides one
    /// (RMA's martingale bound); `None` for heuristic/oracle solvers.
    pub revenue_lower_bound: Option<f64>,
    /// Total seed-incentive cost `Σ_i c_i(S_i)`.
    pub seeding_cost: f64,
    /// Achieved approximation certificate `β = LB(S⃗*)/UB(O⃗)` where
    /// available (RMA).
    pub beta: Option<f64>,
    /// Instance-independent ratio λ of Theorem 3.5 where the solver comes
    /// with one.
    pub lambda: Option<f64>,
    /// Whether the solver's own budget-feasibility check passed.
    pub feasible: bool,
    /// Whether a practical sample-size cap truncated the run.
    pub capped: bool,
    /// Progressive rounds executed (1 for single-pass solvers).
    pub iterations: usize,
    /// RR-set accounting.
    pub rr: RrAccounting,
    /// Approximate footprint of the solver's sample structures in bytes
    /// (the paper's Fig. 4 memory proxy): heap allocations plus any pages
    /// borrowed from a memory-mapped snapshot.
    pub memory_bytes: usize,
    /// Portion of `memory_bytes` borrowed zero-copy from a memory-mapped
    /// snapshot rather than heap-allocated (0 for cold-built caches; the
    /// remainder, `memory_bytes - mapped_bytes`, is resident).
    pub mapped_bytes: usize,
    /// Wall-clock time spent extending the shared coverage index during
    /// this solve (zero when everything was already indexed — the
    /// extend-never-rebuild payoff).
    pub index_time: Duration,
    /// RR-sets in the shared cache that were restored from a persisted
    /// snapshot rather than generated in this process (0 for cold-built
    /// caches; stamped by the `Workbench`, see `rmsa-store`).
    pub loaded_from_snapshot: usize,
    /// Wall-clock the cache spent loading that snapshot (zero when no
    /// snapshot was loaded).
    pub snapshot_load_time: Duration,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
}

impl SolveReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: revenue ≈ {:.1}, seed cost {:.1}, {} seeds, {} RR-sets ({} new), {:.2?}",
            self.solver,
            self.revenue_estimate,
            self.seeding_cost,
            self.allocation.total_seeds(),
            self.rr.used,
            self.rr.generated,
            self.elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let report = SolveReport {
            solver: "RMA".into(),
            allocation: Allocation::empty(2),
            revenue_estimate: 123.4,
            revenue_lower_bound: Some(100.0),
            seeding_cost: 8.0,
            beta: Some(0.2),
            lambda: Some(0.15),
            feasible: true,
            capped: false,
            iterations: 3,
            rr: RrAccounting {
                used: 1000,
                generated: 400,
                reused: 600,
                index_extended: 400,
                index_reused: 600,
            },
            memory_bytes: 1 << 20,
            mapped_bytes: 0,
            index_time: Duration::from_millis(1),
            loaded_from_snapshot: 0,
            snapshot_load_time: Duration::ZERO,
            elapsed: Duration::from_millis(12),
        };
        let s = report.summary();
        assert!(s.contains("RMA"));
        assert!(s.contains("123.4"));
        assert!(s.contains("400"));
    }
}
