//! Algorithms 6 and 7: `RM_without_Oracle` (RMA) with progressive sampling,
//! plus `SeekUB`, plus the simpler one-batch variant of Section 4.3.
//!
//! RMA keeps two independent RR-set collections `R1` (used for optimisation)
//! and `R2` (used for validation). Each round it runs `RM_with_Oracle` on
//! the `R1`-based estimator with budgets relaxed to `(1 + ϱ/2)·B_i`, derives
//! an upper bound on OPT from the `Search` diagnostics (`SeekUB`), checks
//! budget feasibility and the `(λ − ε)` approximation certificate against
//! `R2`, and doubles both collections if the certificate is not yet met.
//!
//! Both collections live in a shared [`RrCache`] ([`RrStream::Optimize`] and
//! [`RrStream::Validate`]): a parameter sweep re-running RMA against the
//! same graph/model *extends* the collections of the previous run instead of
//! regenerating them, which is the core amortisation behind the
//! [`crate::solver`] API.

use crate::algorithms::rm_oracle::{rm_with_oracle, OracleSolution};
use crate::approx::lambda;
use crate::error::RmError;
use crate::problem::{Allocation, RmInstance};
use crate::sampling::bounds::{
    failure_exponent, revenue_lower_bound, revenue_upper_bound, theta_max, theta_zero, BoundParams,
};
use crate::sampling::estimator::RrRevenueEstimator;
use rmsa_diffusion::{PropagationModel, RrCache, RrRequestStats, RrStream};
use rmsa_graph::DirectedGraph;
use std::time::{Duration, Instant};

/// Configuration of the RMA algorithm. The RR-set strategy, thread count
/// and seed belong to the shared [`RrCache`] the solve runs against.
#[derive(Clone, Debug)]
pub struct RmaConfig {
    /// Approximation slack ε ∈ (0, λ).
    pub epsilon: f64,
    /// Failure probability δ ∈ (0, 1).
    pub delta: f64,
    /// Binary-search accuracy τ ∈ (0, 1) of `Search`.
    pub tau: f64,
    /// Budget-overshoot parameter ϱ ∈ (0, 1) of the bicriteria guarantee.
    pub rho: f64,
    /// Practical cap on the size of each collection; the theoretical cap
    /// `θ_max` can exceed available memory on large instances, in which case
    /// the algorithm stops doubling at this many RR-sets per collection and
    /// reports `capped = true`.
    pub max_rr_per_collection: usize,
}

impl Default for RmaConfig {
    fn default() -> Self {
        RmaConfig {
            epsilon: 0.02,
            delta: 0.001,
            tau: 0.1,
            rho: 0.1,
            max_rr_per_collection: 4_000_000,
        }
    }
}

impl RmaConfig {
    /// Validate the parameter ranges of Theorems 4.2/4.3 for an instance
    /// with `num_ads` advertisers: τ, δ, ϱ ∈ (0, 1) and ε ∈ (0, λ(h, τ)).
    pub fn validate(&self, num_ads: usize) -> Result<(), RmError> {
        if num_ads == 0 {
            return Err(RmError::NoAdvertisers);
        }
        for (name, value) in [("tau", self.tau), ("delta", self.delta), ("rho", self.rho)] {
            if !(value > 0.0 && value < 1.0) {
                return Err(RmError::invalid_parameter(name, value, "(0, 1)"));
            }
        }
        let lam = lambda(num_ads, self.tau);
        if !(self.epsilon > 0.0 && self.epsilon < lam) {
            return Err(RmError::invalid_parameter(
                "epsilon",
                self.epsilon,
                format!("(0, λ = {lam:.4}) for h = {num_ads}, τ = {}", self.tau),
            ));
        }
        if self.max_rr_per_collection == 0 {
            return Err(RmError::invalid_parameter(
                "max_rr_per_collection",
                0.0,
                "[1, ∞)",
            ));
        }
        Ok(())
    }
}

/// Result of an RMA run, including the accounting the experiment harness
/// reports (sample sizes, memory proxy, wall-clock time).
#[derive(Clone, Debug)]
pub struct RmaResult {
    /// The selected allocation `S⃗*`.
    pub allocation: Allocation,
    /// λ of Theorem 3.5 for this instance's `h` and the configured τ.
    pub lambda: f64,
    /// Final number of RR-sets in `R1`.
    pub rr_sets_per_collection: usize,
    /// Total RR-sets used across both collections.
    pub total_rr_sets: usize,
    /// Number of progressive-sampling rounds executed.
    pub iterations: usize,
    /// The achieved certificate `β = LB(S⃗*) / UB(O⃗)` at termination.
    pub beta: f64,
    /// The certified revenue lower bound `LB(S⃗*)` at termination.
    pub revenue_lower_bound: f64,
    /// Whether the budget-feasibility check passed at termination.
    pub feasible: bool,
    /// Whether the practical RR-set cap was hit before the certificate held.
    pub capped: bool,
    /// Revenue estimate `π̃(S⃗*, R2)` (validation collection).
    pub revenue_estimate: f64,
    /// RR-sets freshly generated during this run (below `total_rr_sets`
    /// when a shared cache served part of the requests).
    pub rr_generated: usize,
    /// RR-sets served from the shared cache during this run.
    pub rr_reused: usize,
    /// RR-sets newly added to the shared coverage indexes during this run.
    pub index_extended: usize,
    /// RR-sets whose coverage-index entries predate this run (index work
    /// amortised away by extend-never-rebuild).
    pub index_reused: usize,
    /// Wall-clock time spent extending the coverage indexes.
    pub index_time: Duration,
    /// Approximate memory footprint of both collections in bytes.
    pub memory_bytes: usize,
    /// Portion of `memory_bytes` borrowed from a memory-mapped snapshot
    /// (0 unless the shared cache was mmap-loaded and not yet extended
    /// past its persisted collections).
    pub mapped_bytes: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

/// Algorithm 7: `SeekUB` — an upper bound on `π̃(O⃗, R1)` derived from the
/// `Search` endpoint solutions via Theorem 3.2. `solution` comes from
/// `RM_with_Oracle` over `estimator`, and its `Search` carries the
/// endpoints' estimates.
pub fn seek_ub(solution: &OracleSolution, estimator: &RrRevenueEstimator, num_ads: usize) -> f64 {
    let trivial = solution_estimate(solution, estimator) / solution.lambda;
    if num_ads == 1 {
        return trivial;
    }
    let Some(search) = &solution.search else {
        return trivial;
    };
    let h = num_ads as f64;
    let b_min = solution.b_min;
    let mut z = trivial;
    if search.b1 < b_min {
        if search.t2.is_some() {
            z = 6.0 * search.t2_estimate;
        }
    } else if search.t2.is_some() {
        if search.b2 == 0 {
            z = 2.0 * search.t2_estimate + h * search.gamma2;
        } else if search.b2 == 1 {
            z = 6.0 * search.t2_estimate + h * search.gamma2;
        }
    } else if search.t1.is_some() {
        z = search.t1_estimate / solution.lambda;
    }
    z.min(trivial)
}

/// `π̃(S⃗*, R)` of `solution`, which `RM_with_Oracle` computed over
/// `estimator`: carried by its `Search`, and estimated here only without
/// one (`h = 1`).
fn solution_estimate(solution: &OracleSolution, estimator: &RrRevenueEstimator) -> f64 {
    match &solution.search {
        Some(search) => search.best_estimate,
        None => estimator.allocation_estimate(&solution.allocation.seed_sets),
    }
}

/// What Algorithm 6 reads off `R2` about `allocation`, from one walk over
/// it: whether every advertiser's seed set passes the budget check of
/// lines 9–11, the lower bound `LB(S⃗*)` of line 12, and the estimate
/// `π̃(S⃗*, R2)`.
fn validate(
    est2: &RrRevenueEstimator,
    instance: &RmInstance,
    allocation: &Allocation,
    q: f64,
    n_gamma: f64,
    rho: f64,
) -> (bool, f64, f64) {
    let scale = est2.scale();
    let counts = est2
        .coverage()
        .allocation_coverage_counts(&allocation.seed_sets);
    let overspent = counts.iter().enumerate().any(|(ad, &count)| {
        let seeds = allocation.seeds(ad);
        let cov = scale * count as f64 / scale.max(f64::MIN_POSITIVE);
        let ub = revenue_upper_bound(cov, q, n_gamma, est2.num_rr());
        ub > (1.0 + rho) * instance.budget(ad) - instance.set_cost(ad, seeds)
    });
    let estimate = scale * counts.iter().sum::<usize>() as f64;
    let cov_total = estimate / scale.max(f64::MIN_POSITIVE);
    let lb = revenue_lower_bound(cov_total, q, n_gamma, est2.num_rr());
    (!overspent, lb, estimate)
}

/// Algorithm 6 running against a shared [`RrCache`]: the collections
/// `R1`/`R2` are the cache's [`RrStream::Optimize`] / [`RrStream::Validate`]
/// streams and are *extended* across invocations, so repeated solves over
/// the same graph/model amortise their sampling cost.
pub(crate) fn rma_with_cache<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    instance: &RmInstance,
    config: &RmaConfig,
    cache: &RrCache,
) -> Result<RmaResult, RmError> {
    let start = Instant::now();
    let h = instance.num_ads();
    if model.num_ads() != h {
        return Err(RmError::DimensionMismatch {
            what: "propagation model advertisers",
            expected: h,
            actual: model.num_ads(),
        });
    }
    config.validate(h)?;

    let lam = lambda(h, config.tau);
    let params = BoundParams::from_instance(instance, config.rho);
    let delta_prime = config.delta / 4.0;
    // Theorem 4.2 sample-size cap, evaluated with δ' as in Alg. 6 line 2.
    let theta_cap = theta_max(&params, config.epsilon, delta_prime, lam, config.rho);
    let theta_cap_eff = (theta_cap.ceil() as usize).min(config.max_rr_per_collection);
    let theta0 = theta_zero(&params, config.rho, delta_prime)
        .ceil()
        .max(64.0) as usize;
    let theta0 = theta0.min(theta_cap_eff.max(64));
    let t_max = ((theta_cap / theta0 as f64).log2().ceil() as usize).max(1);
    let q = failure_exponent(h, t_max, delta_prime);

    let sampler = rmsa_diffusion::UniformRrSampler::new(&instance.cpe_values());
    let n_gamma = instance.num_nodes as f64 * instance.gamma();
    let relaxed = instance.with_scaled_budgets(1.0 + config.rho / 2.0);

    let mut target = theta0;
    let mut iterations = 0usize;
    let mut rr_generated = 0usize;
    let mut rr_reused = 0usize;
    let mut index_extended = 0usize;
    let mut index_reused = 0usize;
    let mut index_time = Duration::ZERO;
    loop {
        iterations += 1;
        // Lines 4–5: make sure both collections hold ≥ `target` RR-sets
        // (possibly more, when a previous solve already extended them).
        // The estimator snapshots the stream's incrementally extended
        // coverage index — a few `Arc` bumps, not a rebuild.
        let build = |v: rmsa_diffusion::RrStreamView<'_>| {
            (
                RrRevenueEstimator::from_view(v.coverage(), instance.gamma()),
                v.memory_bytes(),
                v.mapped_bytes(),
            )
        };
        let ((est1, mem1, map1), req1) =
            cache.with_at_least(graph, model, &sampler, RrStream::Optimize, target, build);
        // R2 tracks R1's *actual* size: a warm Optimize stream (e.g. after a
        // one-batch run) must not leave the validation bounds on a tiny
        // collection while the certificate is judged against a huge R1.
        let validate_target = target.max(est1.num_rr().min(theta_cap_eff));
        let ((est2, mem2, map2), req2) = cache.with_at_least(
            graph,
            model,
            &sampler,
            RrStream::Validate,
            validate_target,
            build,
        );
        rr_generated += req1.generated + req2.generated;
        rr_reused += req1.served_from_cache + req2.served_from_cache;
        index_extended += req1.index_extended + req2.index_extended;
        index_reused += req1.index_reused + req2.index_reused;
        index_time += req1.index_extend_time + req2.index_extend_time;

        // Line 6: run the oracle algorithms on the R1 estimator with relaxed
        // budgets (1 + ϱ/2)·B_i.
        let solution = rm_with_oracle(&relaxed, &est1, config.tau);

        // Line 7: upper bound on π̃(O⃗, R1).
        let z = seek_ub(&solution, &est1, h);

        // Lines 9–12: budget feasibility of each S*_i and the lower bound
        // LB(S⃗*), against R2.
        let (feasible, lb, revenue_estimate) = validate(
            &est2,
            instance,
            &solution.allocation,
            q,
            n_gamma,
            config.rho,
        );

        // Lines 13–14: the approximation certificate β = LB(S⃗*)/UB(O⃗).
        let cov_opt = z / est1.scale().max(f64::MIN_POSITIVE);
        let ub_opt = revenue_upper_bound(cov_opt, q, n_gamma, est1.num_rr());
        let beta = if ub_opt > 0.0 { lb / ub_opt } else { 1.0 };

        let reached_cap = est1.num_rr() >= theta_cap_eff && est2.num_rr() >= theta_cap_eff;
        if (beta >= lam - config.epsilon && feasible) || reached_cap {
            return Ok(RmaResult {
                allocation: solution.allocation,
                lambda: lam,
                rr_sets_per_collection: est1.num_rr(),
                total_rr_sets: est1.num_rr() + est2.num_rr(),
                iterations,
                beta,
                revenue_lower_bound: lb,
                feasible,
                capped: reached_cap && !(beta >= lam - config.epsilon && feasible),
                revenue_estimate,
                rr_generated,
                rr_reused,
                index_extended,
                index_reused,
                index_time,
                memory_bytes: mem1 + mem2,
                mapped_bytes: map1 + map2,
                elapsed: start.elapsed(),
            });
        }

        // Line 16: double both collections.
        target = (est1.num_rr().max(target) * 2).min(theta_cap_eff);
    }
}

/// The one-batch algorithm of Section 4.3 against a shared cache: a single
/// collection of `num_rr_sets` RR-sets (the [`RrStream::Optimize`] stream,
/// shared with RMA) feeds `RM_with_Oracle` once under relaxed budgets.
/// Returns the allocation and its estimate `π̃(S⃗*, R)`.
pub(crate) fn one_batch_with_cache<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    instance: &RmInstance,
    num_rr_sets: usize,
    config: &RmaConfig,
    cache: &RrCache,
) -> Result<(Allocation, f64, RrRevenueEstimator, RrRequestStats), RmError> {
    let h = instance.num_ads();
    if model.num_ads() != h {
        return Err(RmError::DimensionMismatch {
            what: "propagation model advertisers",
            expected: h,
            actual: model.num_ads(),
        });
    }
    config.validate(h)?;
    let sampler = rmsa_diffusion::UniformRrSampler::new(&instance.cpe_values());
    let (est, request) = cache.with_at_least(
        graph,
        model,
        &sampler,
        RrStream::Optimize,
        num_rr_sets,
        |v| RrRevenueEstimator::from_view(v.coverage(), instance.gamma()),
    );
    let relaxed = instance.with_scaled_budgets(1.0 + config.rho / 2.0);
    let solution = rm_with_oracle(&relaxed, &est, config.tau);
    let estimate = solution_estimate(&solution, &est);
    Ok((solution.allocation, estimate, est, request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::RevenueOracle;
    use crate::problem::{Advertiser, SeedCosts};
    use rmsa_diffusion::{RrArena, RrStrategy, UniformIc, UniformRrSampler};
    use rmsa_graph::generators::celebrity_graph;

    fn setup(h: usize) -> (DirectedGraph, UniformIc, RmInstance) {
        let g = celebrity_graph(6, 8); // 54 nodes
        let m = UniformIc::new(h, 0.4);
        let n = g.num_nodes();
        let inst = RmInstance::try_new(
            n,
            (0..h)
                .map(|_| Advertiser::try_new(12.0, 1.0).unwrap())
                .collect(),
            SeedCosts::Shared(vec![1.0; n]),
        )
        .unwrap();
        (g, m, inst)
    }

    fn quick_config() -> RmaConfig {
        RmaConfig {
            epsilon: 0.1,
            delta: 0.1,
            tau: 0.1,
            rho: 0.2,
            max_rr_per_collection: 40_000,
        }
    }

    fn fresh_cache(n: usize) -> RrCache {
        RrCache::new(n, RrStrategy::Standard, 1, 7)
    }

    fn run(g: &DirectedGraph, m: &UniformIc, inst: &RmInstance, cfg: &RmaConfig) -> RmaResult {
        let cache = fresh_cache(inst.num_nodes);
        rma_with_cache(g, m, inst, cfg, &cache).expect("valid config")
    }

    #[test]
    fn rma_returns_a_disjoint_budget_respecting_allocation() {
        let (g, m, inst) = setup(3);
        let res = run(&g, &m, &inst, &quick_config());
        assert!(res.allocation.is_disjoint());
        assert!(res.iterations >= 1);
        assert!(res.rr_sets_per_collection > 0);
        assert!(res.total_rr_sets == 2 * res.rr_sets_per_collection);
        assert!(res.memory_bytes > 0);
        assert!(res.revenue_lower_bound <= res.revenue_estimate + 1e-9);
        // Bicriteria budget check against the *estimate* (the guarantee is
        // probabilistic; with the generous ε here we only sanity-check that
        // the spend is in the right ballpark of (1+ϱ)B).
        for ad in 0..inst.num_ads() {
            let seeds = res.allocation.seeds(ad);
            let cost = inst.set_cost(ad, seeds);
            assert!(
                cost <= (1.0 + 0.2) * inst.budget(ad) + 1e-9,
                "seed cost alone must respect the relaxed budget"
            );
        }
    }

    #[test]
    fn rma_single_advertiser_runs_greedy_path() {
        let (g, m, inst) = setup(1);
        let res = run(&g, &m, &inst, &quick_config());
        assert!((res.lambda - 1.0 / 3.0).abs() < 1e-12);
        assert!(!res.allocation.seed_sets[0].is_empty());
    }

    #[test]
    fn rma_respects_the_practical_cap() {
        let (g, m, inst) = setup(2);
        let mut cfg = quick_config();
        cfg.max_rr_per_collection = 256;
        cfg.epsilon = 0.0001; // essentially unreachable certificate
        let res = run(&g, &m, &inst, &cfg);
        assert!(res.rr_sets_per_collection <= 256);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (g, m, inst) = setup(3);
        let cache = fresh_cache(inst.num_nodes);
        let mut cfg = quick_config();
        cfg.epsilon = 0.5; // above λ(3, 0.1) ≈ 0.114
        assert!(matches!(
            rma_with_cache(&g, &m, &inst, &cfg, &cache),
            Err(RmError::InvalidParameter {
                name: "epsilon",
                ..
            })
        ));
        let mut cfg = quick_config();
        cfg.rho = 1.5;
        assert!(matches!(
            rma_with_cache(&g, &m, &inst, &cfg, &cache),
            Err(RmError::InvalidParameter { name: "rho", .. })
        ));
        let cfg = quick_config();
        let wrong_model = UniformIc::new(5, 0.4);
        assert!(matches!(
            rma_with_cache(&g, &wrong_model, &inst, &cfg, &cache),
            Err(RmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn warm_cache_reduces_generation_on_a_second_solve() {
        let (g, m, inst) = setup(3);
        let cfg = quick_config();
        let cache = fresh_cache(inst.num_nodes);
        let first = rma_with_cache(&g, &m, &inst, &cfg, &cache).unwrap();
        let generated_first = cache.stats().generated;
        // Same instance solved again: everything is served from cache.
        let second = rma_with_cache(&g, &m, &inst, &cfg, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.generated, generated_first, "no new RR-sets expected");
        assert!(stats.served_from_cache > 0);
        assert_eq!(first.allocation, second.allocation);
    }

    #[test]
    fn warm_optimize_stream_still_gets_a_matching_validation_collection() {
        // A one-batch run extends only the Optimize stream; a subsequent
        // RMA run must bring the Validate stream up to R1's actual size
        // instead of judging the certificate against a tiny R2.
        let (g, m, inst) = setup(2);
        let cfg = quick_config();
        let cache = fresh_cache(inst.num_nodes);
        one_batch_with_cache(&g, &m, &inst, 20_000, &cfg, &cache).unwrap();
        assert_eq!(cache.len(RrStream::Optimize), 20_000);
        assert_eq!(cache.len(RrStream::Validate), 0);
        let res = rma_with_cache(&g, &m, &inst, &cfg, &cache).unwrap();
        assert_eq!(
            res.total_rr_sets - res.rr_sets_per_collection,
            res.rr_sets_per_collection,
            "R2 must match R1's size after a warm start"
        );
        assert!(res.rr_sets_per_collection >= 20_000);
    }

    #[test]
    fn seek_ub_is_at_least_the_solution_estimate() {
        let (g, m, inst) = setup(4);
        let sampler = UniformRrSampler::new(&inst.cpe_values());
        let mut arena = RrArena::new(inst.num_nodes, RrStrategy::Standard);
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(3);
        arena.generate(&g, &m, &sampler, 20_000, &mut rng);
        let est = RrRevenueEstimator::new(&arena, inst.num_ads(), inst.gamma());
        let sol = rm_with_oracle(&inst, &est, 0.1);
        let z = seek_ub(&sol, &est, inst.num_ads());
        let pi_sol = est.allocation_estimate(&sol.allocation.seed_sets);
        assert!(
            z >= pi_sol - 1e-9,
            "UB on OPT ({z}) cannot be below the solution estimate ({pi_sol})"
        );
    }

    #[test]
    fn one_batch_produces_a_nonempty_allocation() {
        let (g, m, inst) = setup(2);
        let cfg = quick_config();
        let cache = fresh_cache(inst.num_nodes);
        let (alloc, _, est, request) =
            one_batch_with_cache(&g, &m, &inst, 10_000, &cfg, &cache).expect("valid config");
        assert_eq!(request.requested, 10_000);
        assert!(alloc.total_seeds() > 0);
        assert!(est.allocation_estimate(&alloc.seed_sets) > 0.0);
        assert!(alloc.is_disjoint());
    }

    #[test]
    fn more_rr_sets_do_not_hurt_revenue_much() {
        // The estimate from a larger sample should be close to (and usually
        // no worse than) the small-sample run's true quality; here we just
        // check both runs return sensible, comparable revenue.
        let (g, m, inst) = setup(2);
        let cfg = quick_config();
        let cache = fresh_cache(inst.num_nodes);
        let (a_small, _, est_small, _) =
            one_batch_with_cache(&g, &m, &inst, 2_000, &cfg, &cache).unwrap();
        let (a_large, _, est_large, _) =
            one_batch_with_cache(&g, &m, &inst, 30_000, &cfg, &cache).unwrap();
        let r_small = est_small.allocation_estimate(&a_small.seed_sets);
        let r_large = est_large.allocation_estimate(&a_large.seed_sets);
        assert!(r_small > 0.0 && r_large > 0.0);
        assert!((r_small - r_large).abs() / r_large < 0.5);
    }
    /// `SeekUB` as it walked the allocations on `R1` itself.
    fn walked_seek_ub(solution: &OracleSolution, est: &RrRevenueEstimator, h: usize) -> f64 {
        let walk = |alloc: &Allocation| est.allocation_estimate(&alloc.seed_sets);
        let trivial = walk(&solution.allocation) / solution.lambda;
        let Some(search) = solution.search.as_ref().filter(|_| h > 1) else {
            return trivial;
        };
        let mut z = trivial;
        if search.b1 < solution.b_min {
            if let Some(t2) = &search.t2 {
                z = 6.0 * walk(t2);
            }
        } else if let Some(t2) = &search.t2 {
            if search.b2 == 0 {
                z = 2.0 * walk(t2) + h as f64 * search.gamma2;
            } else if search.b2 == 1 {
                z = 6.0 * walk(t2) + h as f64 * search.gamma2;
            }
        } else if let Some(t1) = &search.t1 {
            z = walk(t1) / solution.lambda;
        }
        z.min(trivial)
    }

    /// The checks on `R2` as they walked the allocation three times.
    fn walked_validate(
        est2: &RrRevenueEstimator,
        instance: &RmInstance,
        allocation: &Allocation,
        q: f64,
        rho: f64,
    ) -> (bool, f64, f64) {
        let n_gamma = instance.num_nodes as f64 * instance.gamma();
        let mut feasible = true;
        for ad in 0..instance.num_ads() {
            let seeds = allocation.seeds(ad);
            let cov = est2.revenue(ad, seeds) / est2.scale().max(f64::MIN_POSITIVE);
            let ub = revenue_upper_bound(cov, q, n_gamma, est2.num_rr());
            if ub > (1.0 + rho) * instance.budget(ad) - instance.set_cost(ad, seeds) {
                feasible = false;
                break;
            }
        }
        let cov_total =
            est2.allocation_estimate(&allocation.seed_sets) / est2.scale().max(f64::MIN_POSITIVE);
        let lb = revenue_lower_bound(cov_total, q, n_gamma, est2.num_rr());
        (
            feasible,
            lb,
            est2.allocation_estimate(&allocation.seed_sets),
        )
    }

    /// The estimates `Search` carries and the one walk over `R2` give the
    /// bits the repeated walks gave: `SeekUB`'s bound (so β), the
    /// feasibility verdict, LB and the revenue estimate.
    #[test]
    fn carried_estimates_match_walking_the_allocations_bit_for_bit() {
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(8);
        let mut branches = std::collections::BTreeSet::new();
        for h in [1, 2, 3, 4, 6] {
            let (g, m, inst) = setup(h);
            let sampler = UniformRrSampler::new(&inst.cpe_values());
            let estimator = |sets: usize, rng: &mut rand_pcg::Pcg64Mcg| {
                let mut arena = RrArena::new(inst.num_nodes, RrStrategy::Standard);
                arena.generate(&g, &m, &sampler, sets, rng);
                RrRevenueEstimator::new(&arena, h, inst.gamma())
            };
            let (est1, est2) = (estimator(20_000, &mut rng), estimator(7_000, &mut rng));
            for scale in [0.3, 0.6, 1.0, 2.0, 5.0] {
                let scaled = inst.with_scaled_budgets(scale);
                let solution = rm_with_oracle(&scaled, &est1, 0.1);
                if let Some(search) = &solution.search {
                    branches.insert((search.b1 >= solution.b_min, search.b2));
                    for (carried, alloc) in [
                        (search.best_estimate, Some(&search.best)),
                        (search.t1_estimate, search.t1.as_ref()),
                        (search.t2_estimate, search.t2.as_ref()),
                    ] {
                        let walked = alloc.map_or(0.0, |a| est1.allocation_estimate(&a.seed_sets));
                        assert_eq!(carried.to_bits(), walked.to_bits(), "h = {h}");
                    }
                }
                let label = format!("h = {h}, budgets × {scale}");
                let z = seek_ub(&solution, &est1, h);
                assert_eq!(
                    z.to_bits(),
                    walked_seek_ub(&solution, &est1, h).to_bits(),
                    "{label}"
                );
                for q in [0.5, 8.0, 40.0] {
                    let n_gamma = inst.num_nodes as f64 * inst.gamma();
                    let (feasible, lb, estimate) =
                        validate(&est2, &inst, &solution.allocation, q, n_gamma, 0.2);
                    let walked = walked_validate(&est2, &inst, &solution.allocation, q, 0.2);
                    assert_eq!(feasible, walked.0, "{label}, q = {q}");
                    assert_eq!(lb.to_bits(), walked.1.to_bits(), "{label}, q = {q}");
                    assert_eq!(estimate.to_bits(), walked.2.to_bits(), "{label}, q = {q}");
                }
            }
        }
        assert!(branches.len() >= 2, "{branches:?}");
    }
}
