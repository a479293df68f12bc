//! Algorithms 2 and 3: `ThresholdGreedy(γ)` and `Fill(S⃗)`.
//!
//! `ThresholdGreedy` selects `(node, advertiser)` elements in decreasing
//! order of marginal *gain* (as CA-Greedy does), but only accepts an element
//! whose marginal *rate* is at least `γ / B_i` — the threshold rules out
//! elements whose revenue-per-budget-unit is too poor, which is what gives
//! Theorem 3.2 its guarantee. The first element that would overflow an
//! advertiser's budget becomes that advertiser's stopple node `D_i`, and the
//! advertiser's budget is considered depleted.
//!
//! After the main loop, if exactly one advertiser's budget was depleted, a
//! single-advertiser `Greedy` run over the unassigned nodes provides the
//! fallback set `A_i` needed by the analysis. Finally `Fill` spends any
//! remaining budget greedily by marginal rate.
//!
//! Both loops are CELF-lazy and evaluate a marginal gain only when a
//! decision needs it. A queue key bounds the current gain (or rate) from
//! above, and it is exact while its version is current. So the main loop
//! checks the threshold on the key, and both loops take a fresh key's gain
//! as exact instead of evaluating it again, as they take a stale key that
//! the oracle's private revenue (a lower bound) reaches. Both start from
//! singleton runs scanned once per solve. The main loop walks the
//! revenue-keyed run, whose order the RR estimator caches per coverage
//! view, visiting only the pairs whose singleton rate passes the probe's
//! threshold: the scan splits the rate run by advertiser, so each
//! advertiser's passing pairs are a prefix found by binary search. `Fill`
//! continues from the main loop's seed states over the rate-keyed run; one
//! pass over that run fills every probe of a `Search` at once (see
//! `fill_all`). The selections are those of the eager loops, bit for
//! bit; the tests keep the eager loops as a reference.

use crate::algorithms::greedy::greedy_from_run;
use crate::oracle::{marginal_rate, RevenueOracle, SeedState};
use crate::problem::{Allocation, RmInstance};
use crate::util::{
    pack, packed_ad, packed_group, packed_node, sort_nearly_sorted, LazyQueue, SortedRun,
};
use rmsa_diffusion::{AdId, RateOrders};
use rmsa_graph::NodeId;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Every singleton-feasible `(node, ad)` pair, sorted once in two orders:
/// by singleton revenue for `ThresholdGreedy`'s line 1 and by singleton
/// rate for `Fill`'s line 1. Neither order depends on γ or on a probe's
/// allocation, so `Search` scans the pairs once per solve and every probe
/// starts from both runs.
#[derive(Debug, PartialEq)]
pub(crate) struct SingletonCandidates {
    by_gain: SortedRun,
    /// The singleton rate of each `by_gain` entry, by position: what a
    /// probe's threshold is tested against.
    gain_rates: Vec<f64>,
    by_rate: SortedRun,
    /// The rate run split by advertiser, as `by_gain` positions:
    /// advertiser `ad`'s pairs, in descending singleton-rate order, are
    /// `rate_positions[ad_starts[ad]..ad_starts[ad + 1]]`.
    rate_positions: Vec<u32>,
    ad_starts: Vec<usize>,
    /// `γ_max` (Eq. 6), taken from the same pass over the singletons.
    pub(crate) gamma_max: f64,
}

impl SingletonCandidates {
    /// One pass over all `n·h` singleton revenues, then the two runs. The
    /// revenue order is the oracle's cached
    /// [`RevenueOracle::singleton_order`] filtered to the feasible pairs,
    /// or a sort when the oracle caches none; the rate order starts from
    /// one of the oracle's [`RevenueOracle::rate_orders`] when it keeps
    /// any (see [`rate_run`]).
    pub(crate) fn scan<O: RevenueOracle>(instance: &RmInstance, oracle: &O) -> Self {
        let (h, n) = (instance.num_ads(), instance.num_nodes);
        let order = oracle.singleton_order();
        // A pair's singleton revenue and rate, and whether it fits its
        // budget on its own.
        let single = |ad: AdId, v: NodeId| {
            let rev = oracle.singleton_revenue(ad, v);
            let cost = instance.cost(ad, v);
            let fits = cost + rev <= instance.budget(ad);
            (rev, marginal_rate(rev, cost), fits)
        };
        // Every group's rate, and whether its pair fits; the pairs that fit
        // counted out by advertiser.
        let mut rates = Vec::with_capacity(n * h);
        let mut fits = Vec::with_capacity(n * h);
        let mut ad_starts = vec![0usize; h + 1];
        let mut by_gain = Vec::with_capacity(if order.is_some() { 0 } else { n * h });
        let mut gamma_max = 0.0f64;
        for ad in 0..h {
            let budget = instance.budget(ad);
            for v in 0..n as NodeId {
                let (rev, rate, fit) = single(ad, v);
                gamma_max = gamma_max.max(budget * rate);
                rates.push(rate);
                fits.push(fit);
                ad_starts[ad + 1] += usize::from(fit);
                if fit && order.is_none() {
                    by_gain.push(pack(rev, v, ad));
                }
            }
            ad_starts[ad + 1] += ad_starts[ad];
        }
        let fitting = ad_starts[h];
        let mut gain_rates = Vec::with_capacity(fitting);
        // Each fitting group's `by_gain` position.
        let mut positions = vec![0u32; n * h];
        let by_gain = match order {
            Some(order) => {
                by_gain.reserve_exact(fitting);
                for &group in order {
                    let g = group as usize;
                    if fits[g] {
                        let (ad, v) = split_group(group, n);
                        positions[g] = by_gain.len() as u32;
                        by_gain.push(pack(oracle.singleton_revenue(ad, v), v, ad));
                        gain_rates.push(rates[g]);
                    }
                }
                SortedRun::from_sorted(by_gain)
            }
            None => {
                let by_gain = SortedRun::from_packed(by_gain);
                for (i, e) in by_gain.entries().enumerate() {
                    positions[e.ad * n + e.node as usize] = i as u32;
                    gain_rates.push(marginal_rate(e.key, instance.cost(e.ad, e.node)));
                }
                by_gain
            }
        };
        let by_rate = rate_run(oracle.rate_orders(), &rates, &fits, n);
        let mut next = ad_starts.clone();
        let mut rate_positions = vec![0u32; fitting];
        for &key in by_rate.keys() {
            let slot = &mut next[packed_ad(key)];
            rate_positions[*slot] = positions[packed_group(key, n)];
            *slot += 1;
        }
        SingletonCandidates {
            by_gain,
            gain_rates,
            by_rate,
            rate_positions,
            ad_starts,
            gamma_max,
        }
    }

    /// Advertiser `ad`'s `by_gain` positions in descending singleton-rate
    /// order.
    fn rate_order(&self, ad: AdId) -> &[u32] {
        &self.rate_positions[self.ad_starts[ad]..self.ad_starts[ad + 1]]
    }

    /// The prefix of [`Self::rate_order`] whose singleton rate reaches
    /// `threshold`: the pairs line 5 can let through. Rates are never
    /// negative or NaN, so the test holds on a prefix.
    fn rate_alive(&self, ad: AdId, threshold: f64) -> &[u32] {
        let order = self.rate_order(ad);
        &order[..order.partition_point(|&i| self.gain_rates[i as usize] >= threshold)]
    }

    /// `Greedy`'s line-1 run for advertiser `ad` over the nodes not in
    /// `excluded`, taken from the advertiser's part of the rate run
    /// instead of sorted: the pairs that fit alone, by singleton rate.
    fn greedy_run(&self, ad: AdId, excluded: &[bool]) -> SortedRun {
        let keys = self.by_gain.keys();
        let run = (self.rate_order(ad).iter())
            .map(|&i| (packed_node(keys[i as usize]), i as usize))
            .filter(|&(u, _)| !excluded[u as usize])
            .map(|(u, i)| pack(self.gain_rates[i], u, ad))
            .collect();
        SortedRun::from_sorted(run)
    }
}

/// Positions a rate order is probed at for how nearly sorted it leaves
/// the keys.
const ORDER_PROBES: usize = 64;

/// The rate run: the rate keys of the pairs that fit, in descending order.
///
/// `rates` and `fits` are indexed by group. Over `orders`, every group's
/// key is laid out in the cached order that leaves the fewest descents
/// among [`ORDER_PROBES`] evenly spaced positions, then sorted by
/// [`sort_nearly_sorted`]. Keys are distinct, so the run is the same
/// whichever order it started from. An order the pass repaired is
/// replaced by the repaired one; one it gave up on stays, and the new
/// order joins it.
fn rate_run(orders: Option<&RateOrders>, rates: &[f64], fits: &[bool], n: usize) -> SortedRun {
    let key = |group: u32| {
        let (ad, v) = split_group(group, n);
        pack(rates[group as usize], v, ad)
    };
    let Some(cache) = orders else {
        let groups = 0..rates.len() as u32;
        return SortedRun::from_packed(groups.filter(|&g| fits[g as usize]).map(key).collect());
    };
    let cached = cache.orders();
    let descents = |order: &[u32]| {
        let step = (order.len() / ORDER_PROBES).max(1);
        let probed: Vec<u128> = (order.iter().step_by(step)).map(|&g| key(g)).collect();
        probed.windows(2).filter(|w| w[0] < w[1]).count()
    };
    let best = (cached.iter())
        .filter(|order| order.len() == rates.len())
        .min_by_key(|order| descents(order));
    let mut sorted: Vec<u128>;
    let moves = match best {
        Some(order) => {
            sorted = order.iter().map(|&g| key(g)).collect();
            sort_nearly_sorted(&mut sorted)
        }
        None => {
            sorted = (0..rates.len() as u32).map(key).collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            usize::MAX
        }
    };
    if moves > 0 {
        let order: Arc<[u32]> = sorted.iter().map(|&k| packed_group(k, n) as u32).collect();
        cache.record(order, best.filter(|_| moves != usize::MAX));
    }
    sorted.retain(|&k| fits[packed_group(k, n)]);
    SortedRun::from_sorted(sorted)
}

/// The advertiser and node of posting group `ad · n + node`, by one
/// 32-bit division: a 64-bit one costs several times as much.
fn split_group(group: u32, n: usize) -> (AdId, NodeId) {
    let n = n as u32;
    ((group / n) as AdId, group % n)
}

/// Buffers one `Search` call sizes once and lends to each of its probes.
pub(crate) struct Workspace {
    /// Which nodes endorse some advertiser in the main loop.
    assigned: Vec<bool>,
    /// The main loop's rate-alive `by_gain` positions, one bit each.
    alive: Vec<u64>,
    /// Per node, bit `k` set once `Fill`'s probe `k` of a sweep chunk has
    /// assigned it.
    taken: Vec<u64>,
}

impl Workspace {
    pub(crate) fn new(instance: &RmInstance, candidates: &SingletonCandidates) -> Self {
        let n = instance.num_nodes;
        Workspace {
            assigned: vec![false; n],
            alive: vec![0; candidates.by_gain.keys().len().div_ceil(64)],
            taken: vec![0; n],
        }
    }
}

/// Result of `ThresholdGreedy(γ)`.
#[derive(Clone, Debug)]
pub struct ThresholdGreedyOutcome {
    /// The final allocation `S⃗*` (after the `Fill` pass).
    pub allocation: Allocation,
    /// Its revenue, [`RevenueOracle::allocation_revenue`], summed from the
    /// advertisers' final seed states.
    pub revenue: f64,
    /// Advertisers whose budgets were depleted during the main loop (`I`).
    pub depleted: Vec<AdId>,
    /// `b = |I|`.
    pub b: usize,
}

/// Run `ThresholdGreedy(γ)` (Algorithm 2), including the final `Fill` pass.
pub fn threshold_greedy<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    gamma: f64,
) -> ThresholdGreedyOutcome {
    let candidates = SingletonCandidates::scan(instance, oracle);
    let mut workspace = Workspace::new(instance, &candidates);
    let (start, depleted) = probe(instance, oracle, gamma, &candidates, &mut workspace);
    let filled = fill_all(instance, oracle, vec![start], &candidates, &mut workspace);
    let states = &filled[0];
    ThresholdGreedyOutcome {
        allocation: allocation_of(states),
        revenue: states.iter().map(|s| s.revenue()).sum(),
        b: depleted.len(),
        depleted,
    }
}

/// Lines 1–11 of `ThresholdGreedy(γ)` over singleton candidates scanned
/// beforehand: the seed states line 12's `Fill` starts from, and the
/// depleted advertisers `I`. `Fill` continues from every `S_j` that line
/// 11 kept whole, and seeds the others afresh.
pub(crate) fn probe<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    gamma: f64,
    candidates: &SingletonCandidates,
    workspace: &mut Workspace,
) -> (Vec<O::State>, Vec<AdId>) {
    let (mut states, stopples) = main_loop(instance, oracle, gamma, candidates, workspace);
    let (chosen, depleted) = best_of(instance, oracle, &states, &stopples, candidates);
    for (ad, seeds) in chosen.seed_sets.iter().enumerate() {
        if states[ad].seeds() != seeds.as_slice() {
            states[ad] = seeded_state(oracle, ad, seeds);
        }
    }
    (states, depleted)
}

/// Lines 1–8: the thresholded greedy main loop. Returns every
/// advertiser's seed state `S_j` and stopple node `D_j`.
fn main_loop<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    gamma: f64,
    candidates: &SingletonCandidates,
    workspace: &mut Workspace,
) -> (Vec<O::State>, Vec<Option<NodeId>>) {
    let h = instance.num_ads();
    assert_eq!(oracle.num_ads(), h);
    assert!(gamma >= 0.0, "threshold must be non-negative");

    let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
    let mut versions = vec![0u32; h];
    let mut cost_sums = vec![0.0f64; h];
    let mut stopples: Vec<Option<NodeId>> = vec![None; h];
    let Workspace {
        assigned, alive, ..
    } = workspace;
    assigned.fill(false);
    let mut depleted_count = 0usize;

    // Line 5's rate threshold γ / B_j, per advertiser.
    let thresholds: Vec<f64> = (0..h).map(|ad| gamma / instance.budget(ad)).collect();

    // Line 1: M holds every singleton-feasible (node, ad) pair, keyed by the
    // marginal gain π_j(v | S_j), initially the singleton revenue. The
    // queue visits only the pairs whose bit is set in `alive`: `flip` sets
    // an advertiser's pairs whose singleton rate passes line 5's threshold
    // (a key only falls), and clears them again when it depletes.
    alive.fill(0);
    let flip = |ad: AdId, alive: &mut [u64]| {
        for &i in candidates.rate_alive(ad, thresholds[ad]) {
            alive[i as usize / 64] ^= 1 << (i % 64);
        }
    };
    for ad in 0..h {
        flip(ad, alive);
    }
    let mut queue = LazyQueue::borrowing(&candidates.by_gain);

    // Lines 3–8: greedy main loop over marginal gains with the rate
    // threshold, the partition constraint, and the budget check.
    while depleted_count < h {
        let Some(entry) = queue.pop_alive(alive) else {
            break;
        };
        let (node, ad) = (entry.node, entry.ad);
        if stopples[ad].is_some() {
            // Line 5, second clause: this advertiser's budget is depleted.
            continue;
        }
        if assigned[node as usize] {
            // Line 6: node already endorses some ad.
            continue;
        }
        let cost = instance.cost(ad, node);
        let budget = instance.budget(ad);
        if entry.version > 0 && marginal_rate(entry.key, cost) < thresholds[ad] {
            // Line 5, first clause, decided on a refreshed key (run keys
            // passed it by their bit): the key bounds the gain from above,
            // so the pair's rate stays below the threshold.
            continue;
        }
        // Stale upper bound: refresh and re-queue (CELF), unless the
        // refreshed key already fails line 5. Unless, too, the pair's
        // private revenue, a lower bound, reaches the key: then the key
        // is the gain, and the re-queued entry would pop next, so it is
        // taken as fresh.
        if entry.version != versions[ad] && oracle.private_revenue(ad, node) != Some(entry.key) {
            let gain = oracle.marginal_gain(&states[ad], node);
            if marginal_rate(gain, cost) >= thresholds[ad] {
                queue.push(gain, node, ad, versions[ad]);
            }
            continue;
        }
        // A fresh key is the exact gain: the singleton revenue at version
        // 0, a refresh against the current S_j after that.
        let gain = entry.key;
        if cost_sums[ad] + cost + states[ad].revenue() + gain <= budget {
            // Line 7: feasible — commit.
            oracle.add_seed(&mut states[ad], node);
            cost_sums[ad] += cost;
            versions[ad] += 1;
            assigned[node as usize] = true;
        } else {
            // Line 8: stopple node; the advertiser's budget is depleted,
            // and its pairs leave the queue.
            stopples[ad] = Some(node);
            assigned[node as usize] = true;
            depleted_count += 1;
            flip(ad, alive);
        }
    }
    (states, stopples)
}

/// Lines 9–11: per advertiser, the best of `S_j`, the stopple singleton
/// `D_j` and, when exactly one budget was depleted, the fallback `A_j`.
/// Also returns the depleted advertisers `I`.
fn best_of<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    states: &[O::State],
    stopples: &[Option<NodeId>],
    candidates: &SingletonCandidates,
) -> (Allocation, Vec<AdId>) {
    let h = instance.num_ads();
    let n = instance.num_nodes;
    let depleted: Vec<AdId> = (0..h).filter(|&i| stopples[i].is_some()).collect();

    // Lines 9–10: if exactly one advertiser depleted its budget, run the
    // single-advertiser Greedy over the nodes not claimed by any S_j.
    let mut fallback: Vec<Vec<NodeId>> = vec![Vec::new(); h];
    let mut fallback_revenue = vec![0.0f64; h];
    if let [ad] = depleted[..] {
        let mut in_some_s = vec![false; n];
        for st in states {
            for &u in st.seeds() {
                in_some_s[u as usize] = true;
            }
        }
        let run = candidates.greedy_run(ad, &in_some_s);
        let out = greedy_from_run(instance, oracle, ad, run);
        fallback_revenue[ad] = out.best_revenue();
        fallback[ad] = out.best();
    }

    // Line 11: per advertiser keep the best of {S_j, D_j, A_j}.
    let mut chosen = Allocation::empty(h);
    for ad in 0..h {
        let s_rev = states[ad].revenue();
        let d_rev = stopples[ad].map_or(0.0, |u| oracle.singleton_revenue(ad, u));
        let a_rev = fallback_revenue[ad];
        if a_rev >= s_rev && a_rev >= d_rev && !fallback[ad].is_empty() {
            chosen.seed_sets[ad] = fallback[ad].clone();
        } else if let (Some(u), true) = (stopples[ad], d_rev > s_rev) {
            // d_rev > 0 implies a stopple; if it is somehow absent the
            // branch falls through to S_j rather than asserting.
            chosen.seed_sets[ad] = vec![u];
        } else {
            chosen.seed_sets[ad] = states[ad].seeds().to_vec();
        }
    }
    // Taking the best of {S_j, D_j, A_j} per advertiser can re-introduce a
    // node for two advertisers (e.g. a stopple of one ad was also selected
    // by another). Resolve conflicts by keeping the node for the advertiser
    // that gains more from it — the guarantee of Theorem 3.2 is stated for
    // the revenue of the better of the candidates, so deduplication can only
    // be applied to the lower-value duplicates.
    dedup_allocation(oracle, &mut chosen, n);
    (chosen, depleted)
}

/// Remove duplicate node assignments across advertisers, keeping each node
/// for the advertiser with the larger singleton revenue.
fn dedup_allocation<O: RevenueOracle>(oracle: &O, allocation: &mut Allocation, n: usize) {
    let mut owner: Vec<Option<AdId>> = vec![None; n];
    for (ad, seeds) in allocation.seed_sets.iter().enumerate() {
        for &u in seeds {
            let slot = &mut owner[u as usize];
            let keep_new = match *slot {
                None => true,
                Some(other) => oracle.singleton_revenue(ad, u) > oracle.singleton_revenue(other, u),
            };
            if keep_new {
                *slot = Some(ad);
            }
        }
    }
    for (ad, seeds) in allocation.seed_sets.iter_mut().enumerate() {
        seeds.retain(|&u| owner[u as usize] == Some(ad));
    }
}

/// Algorithm 3: `Fill(S⃗)` — greedily add more seeds by marginal rate until
/// no advertiser can afford another feasible node.
pub fn fill<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    allocation: Allocation,
) -> Allocation {
    let candidates = SingletonCandidates::scan(instance, oracle);
    let mut workspace = Workspace::new(instance, &candidates);
    let start = (allocation.seed_sets.iter().enumerate())
        .map(|(ad, seeds)| seeded_state(oracle, ad, seeds))
        .collect();
    allocation_of(&fill_all(instance, oracle, vec![start], &candidates, &mut workspace)[0])
}

/// Advertiser `ad`'s state after committing `seeds` in order.
fn seeded_state<O: RevenueOracle>(oracle: &O, ad: AdId, seeds: &[NodeId]) -> O::State {
    let mut state = oracle.new_state(ad);
    for &u in seeds {
        oracle.add_seed(&mut state, u);
    }
    state
}

pub(crate) fn allocation_of<S: SeedState>(states: &[S]) -> Allocation {
    Allocation {
        seed_sets: states.iter().map(|s| s.seeds().to_vec()).collect(),
    }
}

/// Probes one sweep of [`fill_all`] carries at once: one bit each of a
/// node's `taken` mask.
const SWEEP_WIDTH: usize = 64;

/// [`fill`] from each of `starts` (every advertiser's seed state, per
/// probe), over singleton candidates scanned beforehand, in one pass over
/// the rate run per [`SWEEP_WIDTH`] probes.
///
/// Each probe's `Fill` pops the rate run merged with its own refresh
/// heap, and only an entry it can take changes its state. So the pass
/// walks the run once and hands each entry to the probes that can still
/// take it, each after it has drained its own heap down to the entry's
/// key: every probe pops what its own `Fill` would pop, in the same
/// order. An entry is passed over for a probe that has assigned its node,
/// or whose budget test already fails as `Fill` tests it. Such a probe
/// can never take the entry: the node stays assigned and the spend only
/// grows; a stale pair stays stale; and a fresh one stays fresh through
/// the drain, since its advertiser has no refreshed entries before its
/// first seed.
pub(crate) fn fill_all<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    starts: Vec<Vec<O::State>>,
    candidates: &SingletonCandidates,
    workspace: &mut Workspace,
) -> Vec<Vec<O::State>> {
    let mut filled = Vec::with_capacity(starts.len());
    let mut starts = starts.into_iter().peekable();
    while starts.peek().is_some() {
        let taken = &mut workspace.taken;
        taken.fill(0);
        let mut probes: Vec<FillProbe<O::State>> = (starts.by_ref().take(SWEEP_WIDTH))
            .enumerate()
            .map(|(k, states)| FillProbe::new(instance, states, 1 << k, taken))
            .collect();
        let everyone = u64::MAX >> (64 - probes.len());
        for &key in candidates.by_rate.keys() {
            let (node, ad) = (packed_node(key), packed_ad(key));
            let mut live = everyone & !taken[node as usize];
            if live == 0 {
                continue;
            }
            let pair = Pair::load(instance, oracle, node, ad);
            let singleton = oracle.singleton_revenue(ad, node);
            while live != 0 {
                let probe = &mut probes[live.trailing_zeros() as usize];
                live &= live - 1;
                if !probe.overflows(&pair, singleton) {
                    probe.drain_down_to(key, instance, oracle, taken);
                    probe.judge(oracle, &pair, 0, singleton, taken);
                }
            }
        }
        for probe in &mut probes {
            // Every packed key of a non-NaN rate lies above 0.
            probe.drain_down_to(0, instance, oracle, taken);
        }
        filled.extend(probes.into_iter().map(|probe| probe.states));
    }
    filled
}

/// What `Fill` reads of a pair each time it judges one, loaded once.
struct Pair {
    node: NodeId,
    ad: AdId,
    cost: f64,
    budget: f64,
    private: Option<f64>,
}

impl Pair {
    fn load<O: RevenueOracle>(instance: &RmInstance, oracle: &O, node: NodeId, ad: AdId) -> Self {
        Pair {
            node,
            ad,
            cost: instance.cost(ad, node),
            budget: instance.budget(ad),
            private: oracle.private_revenue(ad, node),
        }
    }
}

/// One probe's `Fill` in progress within a sweep of [`fill_all`].
struct FillProbe<S> {
    states: Vec<S>,
    cost_sums: Vec<f64>,
    /// Per advertiser, the seeds committed since `Fill` began, plus one
    /// when it entered with seeds: the run's singleton keys are then stale
    /// upper bounds, exact only for an advertiser that starts empty.
    versions: Vec<u32>,
    /// Re-keyed pairs: the [`pack`]ed rate key, the version it was
    /// computed at and the bits of the gain behind it. Live keys never
    /// tie, so neither of the last two decides the order.
    refresh: BinaryHeap<(u128, u32, u64)>,
    /// This probe's bit in a node's `taken` mask.
    bit: u64,
}

impl<S: SeedState> FillProbe<S> {
    fn new(instance: &RmInstance, states: Vec<S>, bit: u64, taken: &mut [u64]) -> Self {
        let mut cost_sums = vec![0.0f64; states.len()];
        for (ad, state) in states.iter().enumerate() {
            for &u in state.seeds() {
                cost_sums[ad] += instance.cost(ad, u);
                taken[u as usize] |= bit;
            }
        }
        let versions = (states.iter())
            .map(|s| u32::from(!s.seeds().is_empty()))
            .collect();
        FillProbe {
            states,
            cost_sums,
            versions,
            refresh: BinaryHeap::new(),
            bit,
        }
    }

    /// What the advertiser would spend with the pair's node added, before
    /// its gain.
    fn spent(&self, pair: &Pair) -> f64 {
        self.cost_sums[pair.ad] + pair.cost + self.states[pair.ad].revenue()
    }

    /// Whether one of `Fill`'s budget exits drops the run entry of `pair`
    /// (whose singleton revenue is `singleton`) before its gain is
    /// evaluated, in `Fill`'s own float expressions.
    fn overflows(&self, pair: &Pair, singleton: f64) -> bool {
        let spent = self.spent(pair);
        let keyed = if self.versions[pair.ad] != 0 {
            // A stale key: the private revenue bounds the gain below.
            pair.private
        } else {
            Some(singleton)
        };
        spent > pair.budget || keyed.is_some_and(|g| spent + g > pair.budget)
    }

    /// Pop and judge every refreshed entry whose key lies above `floor`.
    fn drain_down_to<O: RevenueOracle<State = S>>(
        &mut self,
        floor: u128,
        instance: &RmInstance,
        oracle: &O,
        taken: &mut [u64],
    ) {
        while let Some(&(top, version, gain)) = self.refresh.peek() {
            if top <= floor {
                break;
            }
            self.refresh.pop();
            let pair = Pair::load(instance, oracle, packed_node(top), packed_ad(top));
            self.judge(oracle, &pair, version, f64::from_bits(gain), taken);
        }
    }

    /// `Fill`'s step for one popped entry of `pair`, keyed at `version` by
    /// the gain `keyed` (the singleton revenue at version 0). A pair that
    /// does not fit is dropped for good, since π(S ∪ {v}) + c(S ∪ {v}) only
    /// grows with S: without evaluating its gain once the spend alone, or
    /// with the pair's private revenue, overflows, and right after its
    /// refresh otherwise.
    fn judge<O: RevenueOracle<State = S>>(
        &mut self,
        oracle: &O,
        pair: &Pair,
        version: u32,
        keyed: f64,
        taken: &mut [u64],
    ) {
        let Pair {
            node,
            ad,
            cost,
            budget,
            private,
        } = *pair;
        if taken[node as usize] & self.bit != 0 {
            return;
        }
        let spent = self.spent(pair);
        if spent > budget {
            return;
        }
        // A private revenue that reaches the keyed gain is the gain, and
        // the refreshed key would be this one, popping next: the entry is
        // taken as fresh. Otherwise it bounds the gain below.
        if version != self.versions[ad] && private != Some(keyed) {
            if private.is_some_and(|p| spent + p > budget) {
                return;
            }
            let gain = oracle.marginal_gain(&self.states[ad], node);
            if spent + gain <= budget {
                let rate = pack(marginal_rate(gain, cost), node, ad);
                self.refresh.push((rate, self.versions[ad], gain.to_bits()));
            }
            return;
        }
        if spent + keyed <= budget {
            oracle.add_seed(&mut self.states[ad], node);
            self.cost_sums[ad] += cost;
            self.versions[ad] += 1;
            taken[node as usize] |= self.bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::greedy::greedy_single;
    use crate::oracle::ExactRevenueOracle;
    use crate::problem::{Advertiser, SeedCosts};
    use crate::sampling::RrRevenueEstimator;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;
    use rmsa_diffusion::{
        CoverageIndex, RrArena, RrStrategy, UniformIc, UniformRrSampler, RATE_ORDERS,
    };
    use rmsa_graph::generators::barabasi_albert;
    use rmsa_graph::{graph_from_edges, DirectedGraph};
    use std::cell::Cell;

    /// Two disjoint stars: hub 0 over nodes 2..=5 (spread 5), hub 1 over
    /// nodes 6..=8 (spread 4); nodes 9..11 isolated.
    fn two_star_graph() -> DirectedGraph {
        graph_from_edges(
            12,
            &[(0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8)],
        )
    }

    fn instance(budgets: &[f64]) -> RmInstance {
        RmInstance::try_new(
            12,
            budgets
                .iter()
                .map(|&b| Advertiser::try_new(b, 1.0).unwrap())
                .collect(),
            SeedCosts::Shared(vec![1.0; 12]),
        )
        .unwrap()
    }

    #[test]
    fn partition_constraint_is_respected() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[20.0, 20.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.0);
        assert!(out.allocation.is_disjoint());
    }

    #[test]
    fn budget_feasibility_holds_for_every_advertiser() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[8.0, 6.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 1.0);
        for ad in 0..2 {
            let seeds = out.allocation.seeds(ad);
            let total = o.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(
                total <= inst.budget(ad) + 1e-9,
                "ad {ad} spends {total} of budget {}",
                inst.budget(ad)
            );
        }
    }

    #[test]
    fn zero_threshold_selects_by_pure_marginal_gain() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[20.0, 20.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.0);
        // The two hubs must be allocated (to different advertisers), since
        // they have the highest marginal gains and budgets are ample.
        let all: Vec<NodeId> = out.allocation.seed_sets.iter().flatten().copied().collect();
        assert!(all.contains(&0), "hub 0 must be seeded: {all:?}");
        assert!(all.contains(&1), "hub 1 must be seeded: {all:?}");
    }

    #[test]
    fn huge_threshold_selects_nothing() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[20.0, 20.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        // γ / B = 50 / 20 = 2.5 > any marginal rate (rates are < 1), and the
        // Fill pass is rate-based, not thresholded, so it still adds seeds;
        // the main loop itself must deplete nobody.
        let out = threshold_greedy(&inst, &o, 50.0);
        assert_eq!(out.b, 0);
    }

    #[test]
    fn depleted_advertisers_are_reported() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        // Tiny budgets: both advertisers deplete almost immediately.
        let inst = instance(&[3.0, 3.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.5);
        assert_eq!(out.b, out.depleted.len());
        for ad in &out.depleted {
            assert!(*ad < 2);
        }
    }

    #[test]
    fn fill_extends_a_partial_allocation_without_violating_budgets() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[10.0, 10.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let mut start = Allocation::empty(2);
        start.seed_sets[0] = vec![9]; // an isolated node, revenue 1
        let filled = fill(&inst, &o, start);
        assert!(filled.seed_sets[0].contains(&9));
        assert!(filled.total_seeds() > 1, "fill should add more seeds");
        for ad in 0..2 {
            let seeds = filled.seeds(ad);
            let total = o.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(total <= inst.budget(ad) + 1e-9);
        }
        assert!(filled.is_disjoint());
    }

    #[test]
    fn fill_never_removes_existing_seeds() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[6.0, 6.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let mut start = Allocation::empty(2);
        start.seed_sets[0] = vec![0];
        start.seed_sets[1] = vec![1];
        let filled = fill(&inst, &o, start);
        assert!(filled.seed_sets[0].contains(&0));
        assert!(filled.seed_sets[1].contains(&1));
    }

    #[test]
    fn single_depletion_triggers_the_fallback_greedy() {
        // Advertiser 0 has a tiny budget and will deplete; advertiser 1 has
        // a huge budget and never does, so b == 1 exercises lines 9–10.
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[4.0, 50.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.5);
        if out.b == 1 {
            let ad = out.depleted[0];
            assert!(!out.allocation.seeds(ad).is_empty());
        }
        assert!(out.allocation.is_disjoint());
    }

    /// The eager loops the lazy ones replaced: every pop evaluates its
    /// marginal gain, and `Fill` re-keys all `n·h` pairs against the
    /// current allocation before its first pop. Kept as the reference the
    /// lazy loops must match bit for bit.
    mod eager {
        use super::*;
        use crate::util::LazyEntry;

        pub fn threshold_greedy<O: RevenueOracle>(
            instance: &RmInstance,
            oracle: &O,
            gamma: f64,
        ) -> ThresholdGreedyOutcome {
            let (states, stopples) = main_loop(instance, oracle, gamma);
            let candidates = SingletonCandidates::scan(instance, oracle);
            let (chosen, depleted) = best_of(instance, oracle, &states, &stopples, &candidates);
            let allocation = fill(instance, oracle, chosen);
            ThresholdGreedyOutcome {
                revenue: oracle.allocation_revenue(&allocation.seed_sets),
                allocation,
                b: depleted.len(),
                depleted,
            }
        }

        /// Every singleton-feasible pair not in `assigned`, keyed by its
        /// marginal gain against `states` (the singleton revenue when they
        /// are empty), or by the rate of that gain.
        fn rekeyed<O: RevenueOracle>(
            instance: &RmInstance,
            oracle: &O,
            states: &[O::State],
            assigned: &[bool],
            by_rate: bool,
        ) -> Vec<LazyEntry> {
            let mut entries = Vec::new();
            for (ad, state) in states.iter().enumerate() {
                let budget = instance.budget(ad);
                for v in 0..instance.num_nodes as NodeId {
                    if assigned[v as usize] {
                        continue;
                    }
                    let rev = oracle.singleton_revenue(ad, v);
                    let cost = instance.cost(ad, v);
                    if cost + rev <= budget {
                        let gain = oracle.marginal_gain(state, v);
                        entries.push(LazyEntry {
                            key: if by_rate {
                                marginal_rate(gain, cost)
                            } else {
                                gain
                            },
                            node: v,
                            ad,
                            version: 0,
                        });
                    }
                }
            }
            entries
        }

        fn main_loop<O: RevenueOracle>(
            instance: &RmInstance,
            oracle: &O,
            gamma: f64,
        ) -> (Vec<O::State>, Vec<Option<NodeId>>) {
            let h = instance.num_ads();
            let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
            let mut versions = vec![0u32; h];
            let mut cost_sums = vec![0.0f64; h];
            let mut stopples: Vec<Option<NodeId>> = vec![None; h];
            let mut assigned = vec![false; instance.num_nodes];
            let mut depleted_count = 0usize;
            let mut queue =
                LazyQueue::from_entries(rekeyed(instance, oracle, &states, &assigned, false));
            while depleted_count < h {
                let Some(entry) = queue.pop() else { break };
                let ad = entry.ad;
                if stopples[ad].is_some() || assigned[entry.node as usize] {
                    continue;
                }
                let gain = oracle.marginal_gain(&states[ad], entry.node);
                if entry.version != versions[ad] {
                    queue.push(gain, entry.node, ad, versions[ad]);
                    continue;
                }
                let cost = instance.cost(ad, entry.node);
                if marginal_rate(gain, cost) < gamma / instance.budget(ad) {
                    continue;
                }
                let budget = instance.budget(ad);
                if cost_sums[ad] + cost + states[ad].revenue() + gain <= budget {
                    oracle.add_seed(&mut states[ad], entry.node);
                    cost_sums[ad] += cost;
                    versions[ad] += 1;
                    assigned[entry.node as usize] = true;
                } else {
                    stopples[ad] = Some(entry.node);
                    assigned[entry.node as usize] = true;
                    depleted_count += 1;
                }
            }
            (states, stopples)
        }

        pub fn fill<O: RevenueOracle>(
            instance: &RmInstance,
            oracle: &O,
            allocation: Allocation,
        ) -> Allocation {
            let h = instance.num_ads();
            let n = instance.num_nodes;
            let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
            let mut cost_sums = vec![0.0f64; h];
            let mut assigned = vec![false; n];
            for (ad, seeds) in allocation.seed_sets.iter().enumerate() {
                for &u in seeds {
                    oracle.add_seed(&mut states[ad], u);
                    cost_sums[ad] += instance.cost(ad, u);
                    assigned[u as usize] = true;
                }
            }
            let mut versions = vec![0u32; h];
            let entries = rekeyed(instance, oracle, &states, &assigned, true);
            let mut queue = LazyQueue::from_entries(entries);
            while let Some(entry) = queue.pop() {
                let ad = entry.ad;
                if assigned[entry.node as usize] {
                    continue;
                }
                let gain = oracle.marginal_gain(&states[ad], entry.node);
                let cost = instance.cost(ad, entry.node);
                let rate = marginal_rate(gain, cost);
                if entry.version != versions[ad] {
                    queue.push(rate, entry.node, ad, versions[ad]);
                    continue;
                }
                if cost_sums[ad] + cost + states[ad].revenue() + gain <= instance.budget(ad) {
                    oracle.add_seed(&mut states[ad], entry.node);
                    cost_sums[ad] += cost;
                    versions[ad] += 1;
                    assigned[entry.node as usize] = true;
                }
            }
            Allocation {
                seed_sets: states.iter().map(|s| s.seeds().to_vec()).collect(),
            }
        }
    }

    /// Forwards every call and counts `marginal_gain` evaluations. The
    /// oracle's cached orders and its private revenues are forwarded only
    /// when asked for: without the orders every scan sorts, and without
    /// the private revenues no stale key is taken as fresh.
    struct CountingGains<'a, O> {
        inner: &'a O,
        gains: Cell<u64>,
        forward_orders: bool,
        forward_private: bool,
    }

    impl<'a, O: RevenueOracle> CountingGains<'a, O> {
        fn new(inner: &'a O, forward_orders: bool, forward_private: bool) -> Self {
            CountingGains {
                inner,
                gains: Cell::new(0),
                forward_orders,
                forward_private,
            }
        }

        /// Forwards the private revenues but no cached order.
        fn sorting(inner: &'a O) -> Self {
            CountingGains::new(inner, false, true)
        }

        /// Gains evaluated since the last call.
        fn take(&self) -> u64 {
            self.gains.replace(0)
        }
    }

    impl<O: RevenueOracle> RevenueOracle for CountingGains<'_, O> {
        type State = O::State;

        fn num_ads(&self) -> usize {
            self.inner.num_ads()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn revenue(&self, ad: AdId, seeds: &[NodeId]) -> f64 {
            self.inner.revenue(ad, seeds)
        }
        fn singleton_revenue(&self, ad: AdId, u: NodeId) -> f64 {
            self.inner.singleton_revenue(ad, u)
        }
        fn singleton_order(&self) -> Option<&[u32]> {
            self.inner.singleton_order().filter(|_| self.forward_orders)
        }
        fn rate_orders(&self) -> Option<&RateOrders> {
            self.inner.rate_orders().filter(|_| self.forward_orders)
        }
        fn private_revenue(&self, ad: AdId, u: NodeId) -> Option<f64> {
            self.inner
                .private_revenue(ad, u)
                .filter(|_| self.forward_private)
        }
        fn new_state(&self, ad: AdId) -> O::State {
            self.inner.new_state(ad)
        }
        fn marginal_gain(&self, state: &O::State, u: NodeId) -> f64 {
            self.gains.set(self.gains.get() + 1);
            self.inner.marginal_gain(state, u)
        }
        fn add_seed(&self, state: &mut O::State, u: NodeId) {
            self.inner.add_seed(state, u)
        }
    }

    /// Seeded RR-set estimator over a preferential-attachment graph with
    /// `h` advertisers of unequal CPEs and budgets.
    fn rr_instance(h: usize, seed: u64) -> (RrRevenueEstimator, RmInstance) {
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        let graph = barabasi_albert(120, 3, &mut rng);
        let n = graph.num_nodes();
        let model = UniformIc::new(h, 0.15);
        let cpes: Vec<f64> = (0..h).map(|i| 1.0 + i as f64 * 0.25).collect();
        let sampler = UniformRrSampler::new(&cpes);
        let mut arena = RrArena::new(n, RrStrategy::Standard);
        arena.generate(&graph, &model, &sampler, 20_000, &mut rng);
        let estimator = RrRevenueEstimator::new(&arena, h, sampler.gamma());
        let advertisers = (0..h)
            .map(|i| Advertiser::try_new(10.0 + 4.0 * (i % 3) as f64, cpes[i]).unwrap())
            .collect();
        let costs = SeedCosts::Shared((0..n).map(|u| 0.5 + (u % 3) as f64).collect());
        (
            estimator,
            RmInstance::try_new(n, advertisers, costs).unwrap(),
        )
    }

    /// Lazy against eager `ThresholdGreedy` at every γ of the dyadic grid
    /// over `[0, (1+τ)·γ_max]` that `Search`'s bisection probes (τ = 0.1),
    /// then lazy against eager `Fill` from an empty allocation and from
    /// the first half of each probe's seed sets. The lazy loops see the
    /// oracle's cached orders and private revenues only as `counting`
    /// forwards them; the eager ones see neither. Returns the gain
    /// evaluations of the lazy and the eager runs.
    fn assert_lazy_matches_eager<O: RevenueOracle>(
        instance: &RmInstance,
        counting: &CountingGains<'_, O>,
        label: &str,
    ) -> (u64, u64) {
        let eager_oracle = CountingGains::new(counting.inner, false, false);
        let (mut lazy_gains, mut eager_gains) = (0, 0);
        let gamma_top = 1.1 * SingletonCandidates::scan(instance, counting).gamma_max;
        let mut starts = vec![Allocation::empty(instance.num_ads())];
        for k in 0..=32 {
            let gamma = gamma_top * f64::from(k) / 32.0;
            let lazy = threshold_greedy(instance, counting, gamma);
            lazy_gains += counting.take();
            let eager = eager::threshold_greedy(instance, &eager_oracle, gamma);
            eager_gains += eager_oracle.take();
            assert_eq!(lazy.allocation, eager.allocation, "{label}, γ = {gamma}");
            assert_eq!(lazy.depleted, eager.depleted, "{label}, γ = {gamma}");
            assert_eq!(
                lazy.revenue.to_bits(),
                eager.revenue.to_bits(),
                "{label}, γ = {gamma}"
            );
            let mut partial = lazy.allocation;
            for seeds in &mut partial.seed_sets {
                seeds.truncate(seeds.len() / 2);
            }
            starts.push(partial);
        }
        assert!(starts.iter().any(|s| s.total_seeds() > 0), "{label}");
        let mut eager_fills = Vec::new();
        for start in &starts {
            let lazy = fill(instance, counting, start.clone());
            lazy_gains += counting.take();
            let eager = eager::fill(instance, &eager_oracle, start.clone());
            eager_gains += eager_oracle.take();
            assert_eq!(lazy, eager, "{label}, Fill from {start:?}");
            eager_fills.push(eager);
        }
        // One sweep fills every start as its own `Fill` does; 70 starts
        // take two chunks of the sweep.
        let (starts, eager_fills): (Vec<&Allocation>, Vec<&Allocation>) = (starts.iter().cycle())
            .zip(eager_fills.iter().cycle())
            .take(70)
            .unzip();
        let swept = sweep(instance, counting, &starts);
        assert!(swept.iter().eq(eager_fills), "{label}");
        counting.take();
        (lazy_gains, eager_gains)
    }

    /// [`fill_all`] from every start at once.
    fn sweep<O: RevenueOracle>(
        instance: &RmInstance,
        oracle: &O,
        starts: &[&Allocation],
    ) -> Vec<Allocation> {
        let candidates = SingletonCandidates::scan(instance, oracle);
        let mut workspace = Workspace::new(instance, &candidates);
        let states = (starts.iter())
            .map(|start| {
                (start.seed_sets.iter().enumerate())
                    .map(|(ad, seeds)| seeded_state(oracle, ad, seeds))
                    .collect()
            })
            .collect();
        (fill_all(instance, oracle, states, &candidates, &mut workspace).iter())
            .map(|states| allocation_of(states))
            .collect()
    }

    #[test]
    fn lazy_loops_match_the_eager_reference_on_rr_estimators() {
        for h in [2, 3, 10] {
            for seed in 1..=3 {
                let (estimator, inst) = rr_instance(h, seed);
                // One case keeps the sorting fallback, one walks every
                // stale key.
                let orders = (h, seed) != (3, 1);
                let private = (h, seed) != (2, 2);
                let label = format!("h = {h}, seed = {seed}, orders {orders}, private {private}");
                let counting = CountingGains::new(&estimator, orders, private);
                let (lazy, eager) = assert_lazy_matches_eager(&inst, &counting, &label);
                assert!(lazy < eager, "{label}: {lazy} lazy vs {eager} eager gains");
            }
        }
    }

    /// An estimator over hand-made sets that partly overlap: per
    /// advertiser, nodes `0..8` appear only in sets of their own (their
    /// gain is fixed at the singleton revenue), nodes `8..16` also in sets
    /// shared with a neighbour (a private revenue below the singleton one)
    /// and nodes `16..24` only in shared sets (no private revenue).
    fn overlapping_instance(h: usize, seed: u64) -> (RrRevenueEstimator, RmInstance) {
        let n = 24u32;
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        let mut arena = RrArena::new(n as usize, RrStrategy::Standard);
        for _ in 0..3_000 {
            let ad = rng.gen_range(0..h);
            let u = rng.gen_range(0..n);
            match u {
                0..=7 => arena.push_set(ad, &[u]),
                8..=15 if rng.gen_bool(0.5) => arena.push_set(ad, &[u]),
                _ => {
                    let v = 8 + (u - 8 + rng.gen_range(1..16u32)) % 16;
                    arena.push_set(ad, &[u, v]);
                }
            }
        }
        let cpes: Vec<f64> = (0..h).map(|i| 1.0 + i as f64 * 0.5).collect();
        let gamma: f64 = cpes.iter().sum();
        let estimator = RrRevenueEstimator::new(&arena, h, gamma);
        let advertisers = (0..h)
            .map(|i| Advertiser::try_new(30.0 + 25.0 * (i % 3) as f64, cpes[i]).unwrap())
            .collect();
        let costs = SeedCosts::Shared((0..n).map(|u| 1.0 + (u % 5) as f64).collect());
        (
            estimator,
            RmInstance::try_new(n as usize, advertisers, costs).unwrap(),
        )
    }

    /// The private shortcut and the floor are exact: over estimators whose
    /// sets partly overlap, the lazy loops with and without them match the
    /// eager reference, and with them evaluate fewer gains.
    #[test]
    fn private_revenues_are_exact_where_sets_overlap() {
        for (h, seed) in [(2, 1), (3, 2), (5, 3)] {
            let (estimator, inst) = overlapping_instance(h, seed);
            let (mut fixed, mut floored, mut unbounded) = (0, 0, 0);
            for ad in 0..h {
                for u in 0..24 {
                    let private = estimator.coverage().private_count(ad, u);
                    let single = estimator.singleton_count(ad, u);
                    assert!(private <= single);
                    fixed += usize::from(private == single && single > 0);
                    floored += usize::from(0 < private && private < single);
                    unbounded += usize::from(private == 0 && single > 0);
                }
            }
            assert!(fixed > 0 && floored > 0 && unbounded > 0, "h = {h}");
            let label = format!("h = {h}, overlapping sets");
            let with = CountingGains::new(&estimator, true, true);
            let (lazy, eager) = assert_lazy_matches_eager(&inst, &with, &label);
            let without = CountingGains::new(&estimator, true, false);
            let (walking, _) = assert_lazy_matches_eager(&inst, &without, &label);
            assert!(
                lazy < walking && walking < eager,
                "{label}: {lazy} with private revenues, {walking} without, {eager} eager"
            );
        }
    }

    #[test]
    fn lazy_loops_match_the_eager_reference_on_the_exact_oracle() {
        let g = graph_from_edges(
            10,
            &[(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (7, 8), (8, 9)],
        );
        let m = UniformIc::new(3, 0.5);
        let inst = RmInstance::try_new(
            10,
            vec![
                Advertiser::try_new(6.0, 1.0).unwrap(),
                Advertiser::try_new(5.0, 1.5).unwrap(),
                Advertiser::try_new(7.0, 0.8).unwrap(),
            ],
            SeedCosts::Shared((0..10).map(|u| 0.5 + (u % 3) as f64 * 0.5).collect()),
        )
        .unwrap();
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let counting = CountingGains::new(&o, true, true);
        let (lazy, eager) = assert_lazy_matches_eager(&inst, &counting, "exact oracle");
        assert!(lazy < eager, "{lazy} lazy vs {eager} eager gains");
    }

    /// The scan over the estimator's cached singleton order builds exactly
    /// the candidates of the scan that sorts them per request.
    #[test]
    fn cached_order_scan_matches_the_sorting_scan() {
        for h in [2, 3, 10] {
            for seed in 1..=3 {
                let (estimator, inst) = rr_instance(h, seed);
                assert!(estimator.singleton_order().is_some());
                let cached = SingletonCandidates::scan(&inst, &estimator);
                let sorted = SingletonCandidates::scan(&inst, &CountingGains::sorting(&estimator));
                assert_eq!(cached, sorted, "h = {h}, seed = {seed}");
                assert!(cached.by_gain.entries().count() > 0);
            }
        }
        // Over no RR-set the scale is 0, every singleton revenue ties at
        // 0, and the estimator offers no order: the scan sorts instead.
        let empty = RrRevenueEstimator::new(&RrArena::new(12, RrStrategy::Standard), 2, 3.0);
        assert!(empty.singleton_order().is_none());
        let inst = instance(&[5.0, 5.0]);
        let fallback = SingletonCandidates::scan(&inst, &empty);
        assert_eq!(fallback.gamma_max, 0.0);
        let nodes: Vec<(NodeId, AdId)> =
            fallback.by_gain.entries().map(|e| (e.node, e.ad)).collect();
        let expected: Vec<(NodeId, AdId)> = (0..12).rev().flat_map(|u| [(u, 1), (u, 0)]).collect();
        assert_eq!(nodes, expected);
    }

    /// Per-advertiser costs `α · g(s)` of the paper's three incentive
    /// models, over spreads `s` read off the estimator as the serving
    /// path reads them: many pairs share a ratio of revenue to spread, so
    /// their rate order shifts in the last bit from one α to the next.
    fn incentive_instance(estimator: &RrRevenueEstimator, model: usize, alpha: f64) -> RmInstance {
        let (h, n) = (estimator.num_ads(), estimator.num_nodes());
        let cpes: Vec<f64> = (0..h).map(|i| 1.0 + i as f64 * 0.25).collect();
        let costs = (0..h)
            .map(|ad| {
                (0..n as NodeId)
                    .map(|u| {
                        let s = estimator.approx_singleton_spread(ad, u, cpes[ad]).max(1.0);
                        let g = [s, s * s.ln(), s * s][model];
                        (alpha * g).max(1e-6)
                    })
                    .collect()
            })
            .collect();
        let advertisers = (0..h)
            .map(|i| Advertiser::try_new(10.0 + 4.0 * (i % 3) as f64, cpes[i]).unwrap())
            .collect();
        RmInstance::try_new(n, advertisers, SeedCosts::PerAd(costs)).unwrap()
    }

    /// The scan that starts from a cached rate order builds the sorting
    /// scan's candidates: over an α grid of all three incentive models,
    /// after deliberately wrong orders, and from an order taken before an
    /// index extension.
    #[test]
    fn cached_rate_order_scan_matches_the_sorting_scan() {
        let scans_agree = |estimator: &RrRevenueEstimator, label: &str| {
            for model in 0..3 {
                for k in 0..6 {
                    let inst = incentive_instance(estimator, model, 0.1 + 0.07 * f64::from(k));
                    let cached = SingletonCandidates::scan(&inst, estimator);
                    let sorted =
                        SingletonCandidates::scan(&inst, &CountingGains::sorting(estimator));
                    assert_eq!(cached, sorted, "{label}: model {model}, α step {k}");
                }
            }
        };
        let (estimator, _) = rr_instance(3, 2);
        let cache = estimator.coverage().rate_orders();
        assert!(cache.orders().is_empty());
        scans_agree(&estimator, "fresh cache");
        let learned = cache.orders();
        assert!(
            (2..=RATE_ORDERS).contains(&learned.len()),
            "{}",
            learned.len()
        );
        // Repeating the grid starts every scan from a learned order.
        scans_agree(&estimator, "learned orders");

        // Wrong orders: reversed, and shuffled.
        let groups = learned[0].len() as u32;
        let mut shuffled: Vec<u32> = (0..groups).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(9);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for old in cache.orders() {
            cache.record(old.iter().rev().copied().collect(), Some(&old));
        }
        cache.record(shuffled.into(), None);
        scans_agree(&estimator, "wrong orders");

        // An order learned over a smaller index, handed to the view of the
        // extended one.
        let mut graph_rng = Pcg64Mcg::seed_from_u64(2);
        let graph = barabasi_albert(120, 3, &mut graph_rng);
        let model = UniformIc::new(3, 0.15);
        let sampler = UniformRrSampler::new(&[1.0, 1.25, 1.5]);
        let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
        let mut index = CoverageIndex::new(graph.num_nodes(), 3);
        arena.generate(&graph, &model, &sampler, 5_000, &mut graph_rng);
        index.extend_from(&arena, 1);
        let before = RrRevenueEstimator::from_view(index.view(), sampler.gamma());
        scans_agree(&before, "before the extension");
        arena.generate(&graph, &model, &sampler, 15_000, &mut graph_rng);
        index.extend_from(&arena, 1);
        let after = RrRevenueEstimator::from_view(index.view(), sampler.gamma());
        assert!(after.coverage().rate_orders().orders().is_empty());
        for old in before.coverage().rate_orders().orders() {
            after.coverage().rate_orders().record(old, None);
        }
        scans_agree(&after, "orders from before the extension");
    }
    /// The main loop that visits only rate-alive pairs matches the eager
    /// loop, which judges every pair, over an α grid of the three
    /// incentive models, where many pairs sit right at a threshold.
    #[test]
    fn rate_alive_main_loops_match_the_judging_reference() {
        let (estimator, _) = rr_instance(3, 2);
        for model in 0..3 {
            for k in 0..6 {
                let inst = incentive_instance(&estimator, model, 0.1 + 0.07 * f64::from(k));
                let label = format!("model {model}, α step {k}");
                let counting = CountingGains::new(&estimator, true, true);
                let (lazy, eager) = assert_lazy_matches_eager(&inst, &counting, &label);
                assert!(lazy < eager, "{label}: {lazy} lazy vs {eager} eager gains");
            }
        }
    }

    /// The rate run split by advertiser covers every `by_gain` position
    /// once, in descending rate order, and each advertiser's rate-alive
    /// prefix holds exactly the pairs whose singleton rate reaches the
    /// threshold, a threshold equal to a pair's own rate included.
    #[test]
    fn rate_alive_prefixes_hold_exactly_the_passing_pairs() {
        let (estimator, inst) = rr_instance(3, 2);
        let c = SingletonCandidates::scan(&inst, &estimator);
        let keys = c.by_gain.keys();
        let mut seen = vec![false; keys.len()];
        for ad in 0..3 {
            let order = c.rate_order(ad);
            assert!(!order.is_empty());
            for w in order.windows(2) {
                assert!(c.gain_rates[w[0] as usize] >= c.gain_rates[w[1] as usize]);
            }
            for &i in order {
                assert_eq!(packed_ad(keys[i as usize]), ad);
                assert!(!std::mem::replace(&mut seen[i as usize], true));
            }
            for &i in order.iter().step_by(5) {
                let threshold = c.gain_rates[i as usize];
                let alive = c.rate_alive(ad, threshold);
                let passing = (order.iter())
                    .filter(|&&j| c.gain_rates[j as usize] >= threshold)
                    .count();
                assert_eq!(alive.len(), passing, "ad {ad}");
                assert!(alive.contains(&i), "ad {ad}");
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The fallback `Greedy` run taken from the rate run is the one
    /// `greedy_single` sorts, over random sets of excluded nodes.
    #[test]
    fn fallback_run_matches_the_sorted_greedy() {
        let mut rng = Pcg64Mcg::seed_from_u64(4);
        for (h, seed) in [(2, 1), (3, 2), (10, 3)] {
            let (estimator, inst) = rr_instance(h, seed);
            let n = inst.num_nodes;
            let candidates = SingletonCandidates::scan(&inst, &estimator);
            for trial in 0..20 {
                let ad = trial % h;
                let excluded: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
                let nodes: Vec<NodeId> = (0..n as NodeId)
                    .filter(|&u| !excluded[u as usize])
                    .collect();
                let sorted = greedy_single(&inst, &estimator, ad, &nodes);
                let run = candidates.greedy_run(ad, &excluded);
                let from_run = greedy_from_run(&inst, &estimator, ad, run);
                assert_eq!(
                    (&from_run.selected, from_run.stopple),
                    (&sorted.selected, sorted.stopple),
                    "h = {h}, trial {trial}"
                );
                assert_eq!(
                    from_run.best_revenue().to_bits(),
                    sorted.best_revenue().to_bits()
                );
            }
        }
    }
}
