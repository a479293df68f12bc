//! Oracle-mode baselines from Aslay et al. [5]: Cost-Agnostic Greedy
//! (CA-Greedy) and Cost-Sensitive Greedy (CS-Greedy).
//!
//! Both iterate over `(node, advertiser)` candidates; CA-Greedy always takes
//! the largest marginal *gain* and, when that element would overflow its
//! advertiser's budget, stops selecting for that advertiser entirely (which
//! is what makes it collapse under the super-linear incentive model in the
//! paper's Fig. 1). CS-Greedy takes the largest marginal *rate* and merely
//! skips infeasible elements, continuing with cheaper ones.

use crate::oracle::{marginal_rate, RevenueOracle, SeedState};
use crate::problem::{Allocation, RmInstance};
use crate::util::{LazyEntry, LazyQueue};
use rmsa_graph::NodeId;

/// Which greedy rule the baseline uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineRule {
    /// Select by marginal gain; saturate an advertiser on first violation.
    CostAgnostic,
    /// Select by marginal rate; skip individual infeasible elements.
    CostSensitive,
}

/// Run CA-Greedy (rule = [`BaselineRule::CostAgnostic`]) or CS-Greedy
/// (rule = [`BaselineRule::CostSensitive`]) under an exact/estimated oracle.
pub fn baseline_greedy<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    rule: BaselineRule,
) -> Allocation {
    let h = instance.num_ads();
    let n = instance.num_nodes;
    let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
    let mut versions = vec![0u32; h];
    let mut cost_sums = vec![0.0f64; h];
    let mut saturated = vec![false; h];
    let mut assigned = vec![false; n];

    let mut entries = Vec::with_capacity(n * h);
    for ad in 0..h {
        let budget = instance.budget(ad);
        for v in 0..n as NodeId {
            let rev = oracle.singleton_revenue(ad, v);
            let cost = instance.cost(ad, v);
            if cost + rev > budget {
                continue;
            }
            let key = match rule {
                BaselineRule::CostAgnostic => rev,
                BaselineRule::CostSensitive => marginal_rate(rev, cost),
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
    // The exact gain behind each refreshed key, at `ad · n + node`.
    let mut gains = vec![0.0f64; n * h];

    while let Some(entry) = queue.pop() {
        let (ad, node) = (entry.ad, entry.node);
        if saturated[ad] || assigned[node as usize] {
            continue;
        }
        let cost = instance.cost(ad, node);
        let group = ad * n + node as usize;
        if entry.version != versions[ad] {
            let gain = oracle.marginal_gain(&states[ad], node);
            gains[group] = gain;
            let key = match rule {
                BaselineRule::CostAgnostic => gain,
                BaselineRule::CostSensitive => marginal_rate(gain, cost),
            };
            queue.push(key, node, ad, versions[ad]);
            continue;
        }
        // A fresh key's gain is already exact: the singleton revenue at
        // version 0, the stored refresh after that.
        let gain = if entry.version == 0 {
            oracle.singleton_revenue(ad, node)
        } else {
            gains[group]
        };
        if cost_sums[ad] + cost + states[ad].revenue() + gain <= instance.budget(ad) {
            oracle.add_seed(&mut states[ad], node);
            cost_sums[ad] += cost;
            versions[ad] += 1;
            assigned[node as usize] = true;
        } else if rule == BaselineRule::CostAgnostic {
            saturated[ad] = true;
        }
    }

    Allocation {
        seed_sets: states.iter().map(|s| s.seeds().to_vec()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactRevenueOracle;
    use crate::problem::{Advertiser, SeedCosts};
    use rmsa_diffusion::UniformIc;
    use rmsa_graph::graph_from_edges;

    /// The toy example of the paper's footnote 8: three independent nodes
    /// with singleton revenues 91, 50, 45 and costs 9, 3, 2 under budget
    /// 100. CA-Greedy takes the big node and exhausts the budget for
    /// revenue 91; CS-Greedy takes the two cheaper ones for revenue 95.
    fn footnote8_instance() -> (rmsa_graph::DirectedGraph, UniformIc, RmInstance) {
        // Build three disjoint stars with 90, 49 and 44 leaves.
        let mut edges = Vec::new();
        let mut next = 3u32;
        for (hub, leaves) in [(0u32, 90u32), (1, 49), (2, 44)] {
            for _ in 0..leaves {
                edges.push((hub, next));
                next += 1;
            }
        }
        let n = next as usize;
        let g = graph_from_edges(n, &edges);
        let m = UniformIc::new(1, 1.0);
        let mut costs = vec![1_000.0; n];
        costs[0] = 9.0;
        costs[1] = 3.0;
        costs[2] = 2.0;
        let inst = RmInstance::try_new(
            n,
            vec![Advertiser::try_new(100.0, 1.0).unwrap()],
            SeedCosts::Shared(costs),
        )
        .unwrap();
        (g, m, inst)
    }

    #[test]
    fn footnote_8_example_separates_the_two_rules() {
        let (g, m, inst) = footnote8_instance();
        // Deterministic propagation (p = 1): one cascade per query is exact.
        let o = crate::oracle::McRevenueOracle::new(&g, &m, &inst, 1, 0);
        let ca = baseline_greedy(&inst, &o, BaselineRule::CostAgnostic);
        let cs = baseline_greedy(&inst, &o, BaselineRule::CostSensitive);
        let ca_rev = o.allocation_revenue(&ca.seed_sets);
        let cs_rev = o.allocation_revenue(&cs.seed_sets);
        assert!((ca_rev - 91.0).abs() < 1e-9, "CA revenue {ca_rev}");
        assert!((cs_rev - 95.0).abs() < 1e-9, "CS revenue {cs_rev}");
        assert_eq!(ca.seed_sets[0], vec![0]);
        let mut cs_seeds = cs.seed_sets[0].clone();
        cs_seeds.sort_unstable();
        assert_eq!(cs_seeds, vec![1, 2]);
    }

    #[test]
    fn both_baselines_respect_budgets_and_disjointness() {
        let g = graph_from_edges(
            10,
            &[(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (7, 8), (8, 9)],
        );
        let m = UniformIc::new(2, 1.0);
        let inst = RmInstance::try_new(
            10,
            vec![
                Advertiser::try_new(7.0, 1.0).unwrap(),
                Advertiser::try_new(5.0, 1.0).unwrap(),
            ],
            SeedCosts::Shared(vec![1.0; 10]),
        )
        .unwrap();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        for alloc in [
            baseline_greedy(&inst, &o, BaselineRule::CostAgnostic),
            baseline_greedy(&inst, &o, BaselineRule::CostSensitive),
        ] {
            assert!(alloc.is_disjoint());
            for ad in 0..2 {
                let seeds = alloc.seeds(ad);
                let spent = o.revenue(ad, seeds) + inst.set_cost(ad, seeds);
                assert!(spent <= inst.budget(ad) + 1e-9);
            }
        }
    }

    #[test]
    fn ca_greedy_saturates_after_first_violation() {
        // Hub worth 6 violates budget 5; CA then refuses everything else for
        // that advertiser even though cheap leaves would fit.
        let g = graph_from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let m = UniformIc::new(1, 1.0);
        let inst = RmInstance::try_new(
            7,
            vec![Advertiser::try_new(5.0, 1.0).unwrap()],
            SeedCosts::Shared(vec![1.0; 7]),
        )
        .unwrap();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let ca = baseline_greedy(&inst, &o, BaselineRule::CostAgnostic);
        let cs = baseline_greedy(&inst, &o, BaselineRule::CostSensitive);
        // The hub (revenue 6, cost 1) is singleton-infeasible and filtered;
        // first pop for CA is any leaf (revenue 1): feasible, selected. The
        // hub never being considered, CA and CS both end up with leaves, but
        // CS keeps adding until the budget is tight.
        assert!(o.allocation_revenue(&cs.seed_sets) >= o.allocation_revenue(&ca.seed_sets) - 1e-9);
    }

    /// The loop before fresh pops kept their gain: every pop that survives
    /// the saturation and assignment checks evaluates `marginal_gain`.
    fn reevaluating_every_pop<O: RevenueOracle>(
        instance: &RmInstance,
        oracle: &O,
        rule: BaselineRule,
    ) -> Allocation {
        let h = instance.num_ads();
        let n = instance.num_nodes;
        let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
        let mut versions = vec![0u32; h];
        let mut cost_sums = vec![0.0f64; h];
        let mut saturated = vec![false; h];
        let mut assigned = vec![false; n];
        let key_of = |gain: f64, cost: f64| match rule {
            BaselineRule::CostAgnostic => gain,
            BaselineRule::CostSensitive => marginal_rate(gain, cost),
        };
        let mut entries = Vec::new();
        for ad in 0..h {
            for v in 0..n as NodeId {
                let (rev, cost) = (oracle.singleton_revenue(ad, v), instance.cost(ad, v));
                if cost + rev <= instance.budget(ad) {
                    entries.push(LazyEntry {
                        key: key_of(rev, cost),
                        node: v,
                        ad,
                        version: 0,
                    });
                }
            }
        }
        let mut queue = LazyQueue::from_entries(entries);
        while let Some(entry) = queue.pop() {
            let ad = entry.ad;
            if saturated[ad] || assigned[entry.node as usize] {
                continue;
            }
            let gain = oracle.marginal_gain(&states[ad], entry.node);
            let cost = instance.cost(ad, entry.node);
            if entry.version != versions[ad] {
                queue.push(key_of(gain, cost), entry.node, ad, versions[ad]);
                continue;
            }
            if cost_sums[ad] + cost + states[ad].revenue() + gain <= instance.budget(ad) {
                oracle.add_seed(&mut states[ad], entry.node);
                cost_sums[ad] += cost;
                versions[ad] += 1;
                assigned[entry.node as usize] = true;
            } else if rule == BaselineRule::CostAgnostic {
                saturated[ad] = true;
            }
        }
        Allocation {
            seed_sets: states.iter().map(|s| s.seeds().to_vec()).collect(),
        }
    }

    #[test]
    fn fresh_pops_select_what_reevaluating_them_selects() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(17);
        let mut selected = 0;
        for trial in 0..12u64 {
            let g = rmsa_graph::generators::barabasi_albert(40, 2, &mut rng);
            let h = 1 + trial as usize % 3;
            let m = UniformIc::new(h, 0.15 + 0.05 * (trial % 4) as f64);
            let costs: Vec<f64> = (0..40).map(|_| rng.gen_range(0.5..3.0)).collect();
            let advertisers = (0..h)
                .map(|ad| Advertiser::try_new(8.0 + 6.0 * ad as f64, 1.0 + 0.5 * ad as f64))
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            let inst = RmInstance::try_new(40, advertisers, SeedCosts::Shared(costs)).unwrap();
            let o = crate::oracle::McRevenueOracle::new(&g, &m, &inst, 32, trial);
            for rule in [BaselineRule::CostAgnostic, BaselineRule::CostSensitive] {
                let lazy = baseline_greedy(&inst, &o, rule);
                assert_eq!(
                    lazy,
                    reevaluating_every_pop(&inst, &o, rule),
                    "trial {trial}, {rule:?}"
                );
                selected += lazy.total_seeds();
            }
        }
        assert!(selected > 24, "the instances must select seeds");
    }

    #[test]
    fn empty_instance_edge_case() {
        let g = graph_from_edges(3, &[]);
        let m = UniformIc::new(1, 0.5);
        let inst = RmInstance::try_new(
            3,
            vec![Advertiser::try_new(0.5, 1.0).unwrap()],
            SeedCosts::Shared(vec![1.0; 3]),
        )
        .unwrap();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        // Every singleton costs 1 + 1 = 2 > 0.5, so nothing is selectable.
        let ca = baseline_greedy(&inst, &o, BaselineRule::CostAgnostic);
        assert_eq!(ca.total_seeds(), 0);
    }
}
