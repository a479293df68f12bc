//! Seeded pins of the TI baselines and of the datasets' singleton spreads.
//!
//! Each pin records what a seeded run produces, bit for bit: a digest of
//! the TI allocation, the bits of its revenue estimate, the number of RR
//! sets it generated, whether any advertiser's sample size was capped and
//! its `memory_bytes`; and a digest of the bits of every singleton spread.
//! A change to how the baselines store or scan their RR sets must leave
//! every pin unchanged, on a fresh arena or on a session's reused one.

use rmsa::core::baselines::{ti_baseline, TiRule};
use rmsa::prelude::*;

/// 64-bit FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of every advertiser's seed list, in selection order; each list
/// is prefixed by its length so boundaries count.
fn allocation_digest(allocation: &Allocation) -> u64 {
    fnv(allocation.seed_sets.iter().flat_map(|seeds| {
        std::iter::once(seeds.len() as u64).chain(seeds.iter().map(|&u| u64::from(u)))
    }))
}

/// One pinned TI run: `(allocation digest, revenue bits, RR sets, capped)`.
type TiPin = (u64, u64, usize, bool);

/// A lastfm-syn instance (n = 130) with `h` advertisers. `budget` sets how
/// many seeds each advertiser could buy: at 3 that is `k_i` = 14–48, at 30
/// it is 127–130 and from 2,000 on every node is affordable, so `k_i = n`
/// and the pilot greedy runs until its sample is covered.
fn lastfm_instance(h: usize, seed: u64, budget: f64) -> (Dataset, RmInstance) {
    let dataset = Dataset::build(DatasetKind::LastfmSyn, h, 0.1, seed);
    let spreads = dataset.singleton_spreads(2_000, seed ^ 0x5EED);
    let advertisers = (0..h)
        .map(|ad| {
            Advertiser::try_new(
                budget * (1.0 + 0.25 * ad as f64),
                1.0 + 0.5 * (ad % 3) as f64,
            )
            .unwrap()
        })
        .collect();
    let instance =
        dataset.build_instance_from_spreads(advertisers, &spreads, IncentiveModel::Linear, 0.2);
    (dataset, instance)
}

fn ti_config(seed: u64, max_rr_per_ad: usize, strategy: RrStrategy) -> TiConfig {
    TiConfig {
        epsilon: 0.5,
        delta: 0.01,
        strategy,
        pilot_sets: 512,
        max_rr_per_ad,
        seed: seed ^ 0xBA5E,
    }
}

/// A pinned run through the free function, which allocates a fresh arena:
/// its pin and `memory_bytes`.
fn ti_pin(
    h: usize,
    seed: u64,
    budget: f64,
    max_rr_per_ad: usize,
    rule: TiRule,
    threads: usize,
) -> (TiPin, usize) {
    let (dataset, instance) = lastfm_instance(h, seed, budget);
    let res = ti_baseline(
        &dataset.graph,
        &dataset.model,
        &instance,
        &ti_config(seed, max_rr_per_ad, RrStrategy::Standard),
        rule,
        threads,
    )
    .unwrap();
    let pin = (
        allocation_digest(&res.allocation),
        res.revenue_estimate.to_bits(),
        res.total_rr_sets,
        res.capped,
    );
    (pin, res.memory_bytes)
}

/// A pinned run through the `Solver` API on `cache`, whose spare arena
/// holds whatever earlier solves left in it: its pin and `memory_bytes`.
fn solver_pin(
    cache: &RrCache,
    (h, seed, budget, max_rr_per_ad): (usize, u64, f64, usize),
    rule: TiRule,
    strategy: RrStrategy,
) -> (TiPin, usize) {
    let (dataset, instance) = lastfm_instance(h, seed, budget);
    let ctx = SolveContext::new(&dataset.graph, &dataset.model, &instance, cache).unwrap();
    let config = ti_config(seed, max_rr_per_ad, strategy);
    let report = match rule {
        TiRule::CostAgnostic => TiCarm::new(config).solve(&ctx),
        TiRule::CostSensitive => TiCsrm::new(config).solve(&ctx),
    }
    .unwrap();
    assert_eq!(report.rr.used, report.rr.generated, "every set is drawn");
    let pin = (
        allocation_digest(&report.allocation),
        report.revenue_estimate.to_bits(),
        report.rr.generated,
        report.capped,
    );
    (pin, report.memory_bytes)
}

/// (h, seed, budget, max RR sets per advertiser, memory bytes, TI-CARM
/// pin, TI-CSRM pin). The footprint is the rule's and the thread count's
/// alike.
#[rustfmt::skip]
const PINS: [(usize, u64, f64, usize, usize, TiPin, TiPin); 12] = [
    (2, 1, 3.0, 60_000, 512_744, (0x21d5da20be4e4609, 0x400eb713518e17be, 22_405, false), (0xdf624fe1e7fdd47f, 0x400dd909f5b52fae, 22_405, false)),
    (2, 2, 30.0, 60_000, 1_549_764, (0xedb4b116cf583e23, 0x404a8a3172aa12a8, 45_467, false), (0x9de01480e3ef63cf, 0x404b6f7512a9385c, 45_467, false)),
    (2, 3, 2_000.0, 60_000, 1_026_960, (0x8405906b2ac1fffe, 0x4068b17ef41c521d, 45_992, false), (0x13966d0d75ca7616, 0x40681fb08f34f210, 45_992, false)),
    (3, 1, 3.0, 60_000, 981_628, (0x94f4c4a063dd2d3a, 0x400eeb6cd817f53b, 35_110, false), (0x3e56e777abf2438b, 0x4019e926807b6876, 35_110, false)),
    (3, 2, 30.0, 60_000, 1_918_204, (0xdc41785533ee6578, 0x40564e7fe6d12be4, 68_507, false), (0xb5f81e113421dd97, 0x405713046b83d540, 68_507, false)),
    (3, 3, 2_000.0, 60_000, 1_948_636, (0x9d8ec2e8457a8efe, 0x4070b7e78655f3e0, 69_033, false), (0x3e2cb63eaedd6358, 0x4070346e0cb47309, 69_033, false)),
    (10, 1, 3.0, 60_000, 3_913_144, (0xfe3746af37235364, 0x40407acce81a9bb1, 130_512, false), (0xfa4a6b330418ffc7, 0x40451be4cb3cddf9, 130_512, false)),
    (10, 2, 30.0, 60_000, 6_427_916, (0x1f039ad67e05aa0c, 0x40714c80e64294ee, 230_014, false), (0xf3197fdc746964fe, 0x4070a89182f70166, 230_014, false)),
    (10, 3, 2_000.0, 60_000, 7_590_108, (0x43bfc4a703b9efc6, 0x4072f53a6301aa68, 230_540, false), (0xda113c65ef2afc82, 0x4072750570ee6ed2, 230_540, false)),
    (2, 4, 10.0, 5_000, 233_600, (0xacca42f764ad60e3, 0x402b178d4fdf3b64, 10_000, true), (0xfad5f5d425521184, 0x402ef0a3d70a3d70, 10_000, true)),
    (3, 4, 10.0, 5_000, 442_964, (0x87c9da1df8c14e1a, 0x4036b2b020c49ba6, 15_000, true), (0x82ef91c755aa57b4, 0x4039883126e978d5, 15_000, true)),
    (10, 4, 10.0, 5_000, 1_462_456, (0x95c2058d8e32d9e1, 0x4062071a9fbe76c9, 50_000, true), (0x2c503cf497f20678, 0x40632bf7ced91688, 50_000, true)),
];

#[test]
fn ti_outputs_match_their_seeded_pins() {
    // Every pin holds at every thread count, and so does the footprint.
    let mut mismatches = Vec::new();
    for (h, seed, budget, max_rr, memory_pin, carm, csrm) in PINS {
        for (rule, expected) in [(TiRule::CostAgnostic, carm), (TiRule::CostSensitive, csrm)] {
            for threads in [1, 2, 5] {
                let (actual, memory) = ti_pin(h, seed, budget, max_rr, rule, threads);
                if actual != expected || memory != memory_pin {
                    mismatches.push(format!(
                        "h = {h}, seed = {seed}, budget = {budget}, {rule:?}, \
                         {threads} threads: {actual:?}, {memory} bytes"
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "TI pins moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn warm_session_solves_match_the_cold_pins() {
    // One session serves every pin, so each solve but the first refills
    // the spare arena an earlier solve left: the largest sample first, then
    // every pin twice, with a solve under the other strategy in between
    // (which swaps the spare for a fresh one).
    let mut mismatches = Vec::new();
    for threads in [1, 2] {
        let cache = RrCache::new(130, RrStrategy::Standard, threads, 1);
        let largest = (10, 3, 2_000.0, 60_000);
        solver_pin(&cache, largest, TiRule::CostAgnostic, RrStrategy::Standard);
        assert!(cache.stats().workspace_bytes >= 7_590_108 / 2);
        for (k, (h, seed, budget, max_rr, memory_pin, carm, csrm)) in PINS.into_iter().enumerate() {
            let run = (h, seed, budget, max_rr);
            if k % 4 == 3 {
                solver_pin(&cache, run, TiRule::CostSensitive, RrStrategy::Subsim);
            }
            for (rule, expected) in [(TiRule::CostAgnostic, carm), (TiRule::CostSensitive, csrm)] {
                for pass in ["first", "repeat"] {
                    let (actual, memory) = solver_pin(&cache, run, rule, RrStrategy::Standard);
                    if actual != expected || memory != memory_pin {
                        mismatches.push(format!(
                            "h = {h}, seed = {seed}, budget = {budget}, {rule:?}, \
                             {threads} threads, {pass} warm solve: {actual:?}, {memory} bytes"
                        ));
                    }
                }
            }
        }
        assert!(cache.stats().workspace_bytes > 0, "the spare is kept");
        assert_eq!(cache.stats().resident_bytes, 0, "TI fills no stream");
    }
    assert!(
        mismatches.is_empty(),
        "warm TI solves moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn rr_spread_estimates_match_their_seeded_pins() {
    use rand::SeedableRng;
    use rmsa::diffusion::rr::rr_spread_estimate;
    let dataset = Dataset::build(DatasetKind::LastfmSyn, 2, 0.1, 3);
    let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(11);
    let actual: Vec<u64> = [(0, vec![0, 1, 2]), (1, vec![5, 40, 77, 129])]
        .into_iter()
        .map(|(ad, seeds)| {
            rr_spread_estimate(
                &dataset.graph,
                &dataset.model,
                ad,
                &seeds,
                5_000,
                RrStrategy::Standard,
                &mut rng,
            )
            .to_bits()
        })
        .collect();
    assert_eq!(
        actual,
        [4_614_090_940_628_403_749, 4_616_867_409_798_677_660]
    );
}

#[test]
fn singleton_spreads_match_their_seeded_digests() {
    // (dataset, scale, advertisers, RR sets per advertiser, seed, digest)
    let pins = [
        (
            DatasetKind::LastfmSyn,
            0.1,
            3,
            2_000,
            5,
            0x56b55056b5a5f8bfu64,
        ),
        (
            DatasetKind::FlixsterSyn,
            0.02,
            3,
            2_000,
            7,
            0x385cf5beb0af9c57,
        ),
        (DatasetKind::DblpSyn, 0.001, 2, 2_000, 9, 0xd1d18b255e7697e1),
    ];
    let mut mismatches = Vec::new();
    for (kind, scale, h, rr_per_ad, seed, expected) in pins {
        let dataset = Dataset::build(kind, h, scale, seed);
        let spreads = dataset.singleton_spreads(rr_per_ad, seed ^ 0x5EED);
        assert_eq!(spreads.len(), h);
        let actual = fnv(spreads.iter().flatten().map(|s| s.to_bits()));
        if actual != expected {
            mismatches.push(format!("{}: {actual:#018x}", kind.name()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "spread digests moved:\n{}",
        mismatches.join("\n")
    );
}
