//! Sampling-mode baselines of Aslay et al. [5]: TI-CARM and TI-CSRM.
//!
//! The original algorithms wrap the TIM influence-maximization machinery:
//! they keep *one RR-set collection per advertiser*, size each collection
//! with a TIM-style `θ_i ∝ n (k_i ln n + ln(1/δ)) / (ε² · OPT_i)` bound
//! (where `k_i` is an estimate of the largest seed set the budget could
//! buy), and enforce budget feasibility through *upper bounds* on the
//! estimated spread — which is exactly what makes them conservative and
//! memory-hungry when `ε` shrinks (Fig. 4 of the paper).
//!
//! This implementation reproduces that structure with one simplification,
//! recorded in `DESIGN.md`: the TIM `KPT*` estimation of `OPT_i` is replaced
//! by a pilot-sample greedy lower bound, which preserves the `1/ε²` scaling
//! of the sample size and the conservative budget behaviour without
//! re-implementing TIM's multi-phase estimator verbatim.
//!
//! Every advertiser's sets are drawn from one seeded RNG stream, in order,
//! so the run is a function of its inputs alone. The stream is generated
//! on the same thread budget as RMA's shared cache: each
//! [`RrArena::generate_for`] call splits the stream across the threads and
//! splices the parses back into exactly the serial sets, and the private
//! coverage index is built by the same parallel counting sort as a cache
//! extension. Sets, selections, revenues and `memory_bytes` are the same
//! at every thread count.
//!
//! Through the `Solver` API ([`ti_baseline_in`]) the sample is drawn into
//! the session's spare arena, kept by its [`RrCache`] between solves: a
//! warm solve refills buffers it already holds instead of growing a fresh
//! arena by doubling and faulting every page back in. All sets are still
//! generated on every solve. `memory_bytes` stays the footprint of a fresh
//! run ([`FreshFootprint`]), so Fig. 4's memory does not depend on which
//! solves ran on the session before.

use crate::error::RmError;
use crate::oracle::marginal_rate;
use crate::problem::{Allocation, RmInstance};
use crate::util::{LazyEntry, LazyQueue};
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;
use rmsa_diffusion::{
    AdId, CoverBitset, CoverageIndex, FreshFootprint, PropagationModel, RrArena, RrCache,
    RrStrategy,
};
use rmsa_graph::{DirectedGraph, NodeId};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Which selection rule the TI baseline uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TiRule {
    /// TI-CARM: marginal gain, advertiser saturates at first violation.
    CostAgnostic,
    /// TI-CSRM: marginal rate, infeasible elements are skipped.
    CostSensitive,
}

/// Configuration shared by TI-CARM and TI-CSRM.
#[derive(Clone, Debug)]
pub struct TiConfig {
    /// Estimation accuracy ε of Eq. (5); the paper uses 0.1–0.3.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// RR-set generation strategy.
    pub strategy: RrStrategy,
    /// Pilot-sample size per advertiser used to lower-bound `OPT_i`.
    pub pilot_sets: usize,
    /// Practical cap on RR-sets per advertiser.
    pub max_rr_per_ad: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TiConfig {
    fn default() -> Self {
        TiConfig {
            epsilon: 0.1,
            delta: 0.001,
            strategy: RrStrategy::Standard,
            pilot_sets: 4_096,
            max_rr_per_ad: 2_000_000,
            seed: 0xBEEF,
        }
    }
}

impl TiConfig {
    /// Validate parameter ranges: ε > 0, δ ∈ (0, 1), positive sample sizes.
    pub fn validate(&self) -> Result<(), RmError> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(RmError::invalid_parameter(
                "epsilon",
                self.epsilon,
                "(0, ∞)",
            ));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(RmError::invalid_parameter("delta", self.delta, "(0, 1)"));
        }
        if self.pilot_sets == 0 {
            return Err(RmError::invalid_parameter("pilot_sets", 0.0, "[1, ∞)"));
        }
        if self.max_rr_per_ad == 0 {
            return Err(RmError::invalid_parameter("max_rr_per_ad", 0.0, "[1, ∞)"));
        }
        Ok(())
    }
}

/// Result of a TI baseline run, with the accounting the experiments report.
#[derive(Clone, Debug)]
pub struct TiResult {
    /// Selected allocation.
    pub allocation: Allocation,
    /// The baseline's own estimate of the allocation's revenue on its
    /// per-ad collections.
    pub revenue_estimate: f64,
    /// Total RR-sets generated across all advertisers (pilot included).
    pub total_rr_sets: usize,
    /// Whether any advertiser's TIM-style sample size was clipped by
    /// `max_rr_per_ad`.
    pub capped: bool,
    /// Approximate memory footprint in bytes of the per-ad collections:
    /// their arena plus its coverage index, as RMA's streams are counted.
    pub memory_bytes: usize,
    /// Wall-clock time of building the coverage index over the arena.
    pub index_time: Duration,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Greedy top-`k` coverage on the pilot sets `pilot` of `arena`, returning
/// the covered count — the pilot lower bound on `OPT_i`'s coverage.
///
/// CELF-lazy over a node → local-set-id CSR of the pilot range: a popped
/// `(count, node)` key is recounted and committed only when its count is
/// still current. Counts only fall, so that key is the largest current
/// `(count, node)` — the node the eager scan's `max()` picks.
fn pilot_greedy_coverage(arena: &RrArena, pilot: Range<usize>, k: usize) -> usize {
    let n = arena.num_nodes();
    let mut offsets = vec![0usize; n + 1];
    for &u in arena.nodes_of_range(pilot.start, pilot.end) {
        offsets[u as usize + 1] += 1;
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let mut cursor = offsets.clone();
    let mut sets = vec![0u32; offsets[n]];
    for (local, i) in pilot.clone().enumerate() {
        for &u in arena.nodes_of(i) {
            sets[cursor[u as usize]] = local as u32;
            cursor[u as usize] += 1;
        }
    }
    let sets_of = |u: NodeId| &sets[offsets[u as usize]..offsets[u as usize + 1]];

    let mut covered = CoverBitset::new(pilot.len());
    let mut heap: BinaryHeap<(usize, NodeId)> =
        (0..n as NodeId).map(|u| (sets_of(u).len(), u)).collect();
    let (mut total, mut picked) = (0usize, 0usize);
    while picked < k {
        let Some((count, u)) = heap.pop() else { break };
        let fresh = sets_of(u).iter().filter(|&&rr| !covered.test(rr)).count();
        if fresh != count {
            heap.push((fresh, u));
            continue;
        }
        if fresh == 0 {
            break;
        }
        for &rr in sets_of(u) {
            covered.set(rr);
        }
        total += fresh;
        picked += 1;
    }
    total
}

/// Fail before the coverage index's `u32` caps would: `count` (of `what`)
/// may not exceed `u32::MAX`; `name` is the configuration field at fault.
fn check_u32_cap(name: &'static str, count: usize, what: &str) -> Result<(), RmError> {
    if count > u32::MAX as usize {
        return Err(RmError::invalid_parameter(
            name,
            count as f64,
            format!("at most {} {what}", u32::MAX),
        ));
    }
    Ok(())
}

/// Run TI-CARM (`rule = CostAgnostic`) or TI-CSRM (`rule = CostSensitive`).
///
/// The TI baselines keep one RR-set collection *per advertiser* with TIM's
/// per-ad scaling, so they do not share the uniform-sampler [`RrCache`]
/// used by RMA; their sampling cost is part of what the paper measures
/// against. Advertiser `i`'s collection is one contiguous range of a
/// private [`RrArena`], indexed once by a private [`CoverageIndex`].
/// Generation and indexing run on up to `num_threads` threads; the result
/// does not depend on how many. The arena is allocated for this run.
pub fn ti_baseline<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    instance: &RmInstance,
    config: &TiConfig,
    rule: TiRule,
    num_threads: usize,
) -> Result<TiResult, RmError> {
    let arena = &mut RrArena::new(instance.num_nodes, config.strategy);
    run(graph, model, instance, config, rule, num_threads, arena)
}

/// [`ti_baseline`] on `cache`'s thread budget, sampling into the session's
/// spare arena ([`RrCache::take_workspace`]) and handing it back when the
/// run ends. Every set is still generated; only the buffers are reused,
/// and the result, `memory_bytes` included, is [`ti_baseline`]'s whatever
/// ran on the session before.
pub fn ti_baseline_in<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    instance: &RmInstance,
    config: &TiConfig,
    rule: TiRule,
    cache: &RrCache,
) -> Result<TiResult, RmError> {
    let threads = cache.num_threads();
    let mut arena = cache.take_workspace(instance.num_nodes, config.strategy);
    let result = run(graph, model, instance, config, rule, threads, &mut arena);
    cache.restore_workspace(arena);
    result
}

/// The run behind both entry points, sampling into the empty `arena`.
fn run<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    instance: &RmInstance,
    config: &TiConfig,
    rule: TiRule,
    num_threads: usize,
    arena: &mut RrArena,
) -> Result<TiResult, RmError> {
    let start = Instant::now();
    let h = instance.num_ads();
    let n = instance.num_nodes;
    if model.num_ads() != h {
        return Err(RmError::DimensionMismatch {
            what: "propagation model advertisers",
            expected: h,
            actual: model.num_ads(),
        });
    }
    config.validate()?;
    let mut rng = Pcg64Mcg::seed_from_u64(config.seed);

    // Phase 1: per-advertiser sample-size estimation and RR generation.
    // `memory_bytes` reports a fresh arena's footprint, so a reused
    // arena's pooled capacity never leaks into Fig. 4's number.
    let mut footprint = FreshFootprint::default();
    let mut generate = |arena: &mut RrArena, ad: AdId, count: usize, rng: &mut Pcg64Mcg| {
        arena.generate_for(graph, model, ad, count, num_threads, rng);
        footprint.generate_for(count);
    };
    let mut sets_per_ad = Vec::with_capacity(h);
    let mut capped = false;
    // The upper-bound slack used in the conservative feasibility check.
    let q = (n as f64 * h as f64 / config.delta).ln();
    for ad in 0..h {
        let first = arena.len();
        // Latent seed-set size: the largest set the budget could buy.
        let k_i = instance.max_seeds_within(ad, instance.budget(ad));
        // Pilot sample to lower-bound OPT_i.
        let pilot_len = config.pilot_sets.min(config.max_rr_per_ad);
        check_u32_cap("pilot_sets", first + pilot_len, "RR-sets")?;
        generate(arena, ad, pilot_len, &mut rng);
        let pilot_cov = pilot_greedy_coverage(arena, first..arena.len(), k_i).max(1);
        let opt_lb = (n as f64 * pilot_cov as f64 / pilot_len.max(1) as f64).max(1.0);
        // TIM-style sample size with ln C(n, k) ≤ k ln n.
        let theta = (8.0 + 2.0 * config.epsilon)
            * n as f64
            * ((2.0 * h as f64 / config.delta).ln() + k_i as f64 * (n as f64).ln())
            / (config.epsilon * config.epsilon * opt_lb);
        let theta_raw = (theta.ceil() as usize).max(pilot_len);
        let theta = theta_raw.min(config.max_rr_per_ad);
        capped |= theta < theta_raw;
        check_u32_cap("max_rr_per_ad", first + theta, "RR-sets")?;
        generate(arena, ad, theta - pilot_len, &mut rng);
        sets_per_ad.push(theta);
    }
    check_u32_cap("max_rr_per_ad", arena.total_entries(), "member entries")?;

    // Phase 2: greedy selection with conservative (upper-bounded) budget
    // feasibility, mirroring CA-/CS-Greedy. Postings group `ad · n + u` is
    // advertiser `ad`'s node → sets list; every set belongs to one
    // advertiser, so one bitset holds every advertiser's covered sets.
    let index_start = Instant::now();
    let mut index = CoverageIndex::new(n, h);
    index.extend_from(arena, num_threads);
    let index_time = index_start.elapsed();
    let memory = footprint.memory_bytes(arena) + index.memory_bytes();
    let total_rr = arena.len();
    let view = index.view();
    let mut covered = CoverBitset::new(total_rr);
    let marginal_count = |covered: &CoverBitset, ad: AdId, u: NodeId| {
        let mut count = 0usize;
        view.for_each_rr_of(ad, u, |rr| count += usize::from(!covered.test(rr)));
        count
    };
    let scale: Vec<f64> = (0..h)
        .map(|ad| instance.cpe(ad) * n as f64 / sets_per_ad[ad] as f64)
        .collect();

    let mut versions = vec![0u32; h];
    let mut cost_sums = vec![0.0f64; h];
    let mut covered_counts = vec![0usize; h];
    let mut saturated = vec![false; h];
    let mut assigned = vec![false; n];
    let mut seed_sets: Vec<Vec<NodeId>> = vec![Vec::new(); h];
    // The exact count behind each refreshed key, by group `ad · n + u`
    // (a version-0 key's count is the singleton count).
    let mut refreshed = vec![0u32; n * h];

    let mut entries = Vec::with_capacity(n * h);
    for (ad, &ad_scale) in scale.iter().enumerate() {
        for v in 0..n as NodeId {
            let gain = view.singleton_count(ad, v) as f64 * ad_scale;
            let cost = instance.cost(ad, v);
            if cost + gain > instance.budget(ad) {
                continue;
            }
            let key = match rule {
                TiRule::CostAgnostic => gain,
                TiRule::CostSensitive => marginal_rate(gain, cost),
            };
            entries.push(LazyEntry {
                key,
                node: v,
                ad,
                version: 0,
            });
        }
    }
    let mut queue = LazyQueue::from_entries(entries);

    while let Some(entry) = queue.pop() {
        let (ad, node) = (entry.ad, entry.node);
        if saturated[ad] || assigned[node as usize] {
            continue;
        }
        let cost = instance.cost(ad, node);
        let group = ad * n + node as usize;
        if entry.version != versions[ad] {
            let count = marginal_count(&covered, ad, node);
            refreshed[group] = count as u32;
            let gain = count as f64 * scale[ad];
            let key = match rule {
                TiRule::CostAgnostic => gain,
                TiRule::CostSensitive => marginal_rate(gain, cost),
            };
            queue.push(key, node, ad, versions[ad]);
            continue;
        }
        // Fresh: the count behind the key is still exact.
        let marg_count = f64::from(if entry.version == 0 {
            view.singleton_count(ad, node)
        } else {
            refreshed[group]
        });
        // Conservative feasibility: compare the *upper bound* of the revenue
        // of S_i ∪ {u} (estimate plus a martingale confidence term) against
        // the budget, as TI-CARM/TI-CSRM do.
        let new_cov = covered_counts[ad] as f64 + marg_count;
        let ub_revenue =
            (new_cov + (2.0 * q * new_cov).sqrt() + q) * scale[ad].max(f64::MIN_POSITIVE);
        if cost_sums[ad] + cost + ub_revenue <= instance.budget(ad) {
            view.for_each_rr_of(ad, node, |rr| {
                covered_counts[ad] += usize::from(covered.set(rr));
            });
            cost_sums[ad] += cost;
            versions[ad] += 1;
            assigned[node as usize] = true;
            seed_sets[ad].push(node);
        } else if rule == TiRule::CostAgnostic {
            saturated[ad] = true;
        }
    }

    let revenue_estimate = (0..h).map(|ad| covered_counts[ad] as f64 * scale[ad]).sum();
    Ok(TiResult {
        allocation: Allocation { seed_sets },
        revenue_estimate,
        total_rr_sets: total_rr,
        capped,
        memory_bytes: memory,
        index_time,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Advertiser, SeedCosts};
    use rmsa_diffusion::UniformIc;
    use rmsa_graph::generators::celebrity_graph;

    fn quick_config() -> TiConfig {
        TiConfig {
            epsilon: 0.3,
            delta: 0.1,
            strategy: RrStrategy::Standard,
            pilot_sets: 256,
            max_rr_per_ad: 4_000,
            seed: 5,
        }
    }

    fn setup(h: usize) -> (DirectedGraph, UniformIc, RmInstance) {
        let g = celebrity_graph(5, 6);
        let m = UniformIc::new(h, 0.5);
        let n = g.num_nodes();
        let inst = RmInstance::try_new(
            n,
            (0..h)
                .map(|_| Advertiser::try_new(10.0, 1.0).unwrap())
                .collect(),
            SeedCosts::Shared(vec![1.0; n]),
        )
        .unwrap();
        (g, m, inst)
    }

    #[test]
    fn ti_baselines_return_disjoint_allocations() {
        let (g, m, inst) = setup(3);
        let cfg = quick_config();
        let carm = ti_baseline(&g, &m, &inst, &cfg, TiRule::CostAgnostic, 1).unwrap();
        let csrm = ti_baseline(&g, &m, &inst, &cfg, TiRule::CostSensitive, 1).unwrap();
        assert!(carm.allocation.is_disjoint());
        assert!(csrm.allocation.is_disjoint());
        assert!(carm.total_rr_sets > 0);
        assert!(csrm.memory_bytes > 0);
    }

    #[test]
    fn seed_costs_alone_respect_the_budget() {
        let (g, m, inst) = setup(2);
        let res = ti_baseline(&g, &m, &inst, &quick_config(), TiRule::CostSensitive, 1).unwrap();
        for ad in 0..2 {
            let cost = inst.set_cost(ad, res.allocation.seeds(ad));
            assert!(cost <= inst.budget(ad) + 1e-9);
        }
    }

    #[test]
    fn smaller_epsilon_generates_more_rr_sets() {
        let (g, m, inst) = setup(2);
        let mut cfg = quick_config();
        cfg.max_rr_per_ad = 1_000_000;
        cfg.epsilon = 0.3;
        let coarse = ti_baseline(&g, &m, &inst, &cfg, TiRule::CostSensitive, 1).unwrap();
        cfg.epsilon = 0.1;
        let fine = ti_baseline(&g, &m, &inst, &cfg, TiRule::CostSensitive, 1).unwrap();
        assert!(
            fine.total_rr_sets > coarse.total_rr_sets,
            "ε = 0.1 should need more RR-sets ({}) than ε = 0.3 ({})",
            fine.total_rr_sets,
            coarse.total_rr_sets
        );
    }

    #[test]
    fn conservative_feasibility_underutilizes_budget() {
        // The upper-bound check must keep the point-estimate spend strictly
        // below the budget (that is precisely the paper's criticism).
        let (g, m, inst) = setup(2);
        let res = ti_baseline(&g, &m, &inst, &quick_config(), TiRule::CostSensitive, 1).unwrap();
        for ad in 0..2 {
            let seeds = res.allocation.seeds(ad);
            if seeds.is_empty() {
                continue;
            }
            let cost = inst.set_cost(ad, seeds);
            assert!(cost < inst.budget(ad));
        }
    }

    /// A pilot of `sets` RR-sets for advertiser 0, generated as `ti_baseline`
    /// generates one.
    fn pilot(g: &DirectedGraph, m: &UniformIc, sets: usize, seed: u64) -> RrArena {
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.generate_for(g, m, 0, sets, 1, &mut Pcg64Mcg::seed_from_u64(seed));
        arena
    }

    #[test]
    fn pilot_greedy_coverage_is_monotone_in_k() {
        let (g, m, _) = setup(1);
        let arena = pilot(&g, &m, 500, 1);
        let c1 = pilot_greedy_coverage(&arena, 0..500, 1);
        let c3 = pilot_greedy_coverage(&arena, 0..500, 3);
        let c10 = pilot_greedy_coverage(&arena, 0..500, 10);
        assert!(c1 <= c3 && c3 <= c10);
        assert!(c10 <= 500);
    }

    /// The eager pilot greedy the lazy one replaced: every step rescans all
    /// `n` nodes for the largest `(count, node)`.
    mod eager {
        use super::*;

        pub fn pilot_greedy_coverage(arena: &RrArena, pilot: Range<usize>, k: usize) -> usize {
            let n = arena.num_nodes();
            let mut node_to_rr: Vec<Vec<usize>> = vec![Vec::new(); n];
            for i in pilot.clone() {
                for &u in arena.nodes_of(i) {
                    node_to_rr[u as usize].push(i - pilot.start);
                }
            }
            let mut covered = vec![false; pilot.len()];
            let marginal = |covered: &[bool], u: NodeId| {
                node_to_rr[u as usize]
                    .iter()
                    .filter(|&&rr| !covered[rr])
                    .count()
            };
            let mut total = 0usize;
            for _ in 0..k {
                let best = (0..n as NodeId)
                    .map(|u| (marginal(&covered, u), u))
                    .max()
                    .unwrap_or((0, 0));
                if best.0 == 0 {
                    break;
                }
                for &rr in &node_to_rr[best.1 as usize] {
                    if !covered[rr] {
                        covered[rr] = true;
                        total += 1;
                    }
                }
            }
            total
        }
    }

    #[test]
    fn lazy_pilot_greedy_matches_the_eager_scan_for_every_k() {
        // High edge probabilities on a small graph: large, overlapping sets
        // and many tied counts, so the tie-break decides most picks.
        let g = celebrity_graph(4, 5);
        let n = g.num_nodes();
        for (p, seed) in [(0.9, 1), (0.6, 2), (0.3, 3)] {
            let m = UniformIc::new(1, p);
            // The pilot sits behind another advertiser's range, as it does
            // for every advertiser but the first.
            let mut arena = pilot(&g, &m, 37, seed);
            let from = arena.len();
            arena.generate_for(&g, &m, 0, 300, 1, &mut Pcg64Mcg::seed_from_u64(seed + 10));
            let range = from..arena.len();
            for k in 1..=n + 1 {
                assert_eq!(
                    pilot_greedy_coverage(&arena, range.clone(), k),
                    eager::pilot_greedy_coverage(&arena, range.clone(), k),
                    "p = {p}, seed = {seed}, k = {k}"
                );
            }
        }
        let empty = RrArena::new(n, RrStrategy::Standard);
        for k in 0..=n + 1 {
            assert_eq!(pilot_greedy_coverage(&empty, 0..0, k), 0);
            assert_eq!(eager::pilot_greedy_coverage(&empty, 0..0, k), 0);
        }
    }

    #[test]
    fn sample_sizes_past_the_index_cap_are_typed_errors() {
        let (g, m, inst) = setup(2);
        let mut cfg = quick_config();
        cfg.epsilon = 1e-6;
        cfg.pilot_sets = 64;
        cfg.max_rr_per_ad = u32::MAX as usize + 1;
        let err = ti_baseline(&g, &m, &inst, &cfg, TiRule::CostSensitive, 1).unwrap_err();
        assert!(
            matches!(
                err,
                RmError::InvalidParameter {
                    name: "max_rr_per_ad",
                    ..
                }
            ),
            "{err:?}"
        );
        cfg.epsilon = 0.3;
        cfg.pilot_sets = u32::MAX as usize + 1;
        let err = ti_baseline(&g, &m, &inst, &cfg, TiRule::CostSensitive, 1).unwrap_err();
        assert!(
            matches!(
                err,
                RmError::InvalidParameter {
                    name: "pilot_sets",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn memory_counts_the_arena_and_its_index() {
        let (g, m, inst) = setup(2);
        let res = ti_baseline(&g, &m, &inst, &quick_config(), TiRule::CostAgnostic, 1).unwrap();
        // Every set holds at least its root: one u32 member, one usize
        // offset, one u32 advertiser and one u32 posting.
        let per_set = 3 * std::mem::size_of::<u32>() + std::mem::size_of::<usize>();
        assert!(res.memory_bytes >= res.total_rr_sets * per_set);
    }
}
