//! Seeded request mixes. The workload seed is the only input: request `id`
//! of a mix is a pure function of `(seed, id)`, so a run, its correctness
//! replay and its traced replay all see the same requests.

use rmsa::datasets::{DatasetKind, IncentiveModel};
use rmsa::diffusion::RrStrategy;
use rmsa_service::wire::{Algorithm, SolveRequest};

/// The serving fingerprint both served workloads route to.
pub const DATASET: DatasetKind = DatasetKind::LastfmSyn;

/// Algorithms of the served mixes: the paper's RMA and its one-batch
/// variant (the TI baselines regenerate private samples per solve, which
/// would make the served workloads generation-bound).
const ALGORITHMS: [Algorithm; 2] = [Algorithm::Rma, Algorithm::OneBatch];

/// α values of the `hot` mix: with the two algorithms and three incentive
/// models this gives 12 solve classes, the most the memo has to hold.
const HOT_ALPHAS: [f64; 2] = [0.2, 0.4];

/// `splitmix64` finaliser: a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which solve classes a mix draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every request carries its own α in [0.1, 0.5]: the memo never hits.
    SolveBound,
    /// At most 12 classes: after one pass every request is a memo hit.
    Hot,
}

impl Mix {
    /// Request `id` (ids start at 1) of this mix under `seed`.
    pub fn request(self, seed: u64, id: u64) -> SolveRequest {
        let r = mix64(mix64(seed) ^ id);
        let algorithm = ALGORITHMS[(r % 2) as usize];
        let incentive = IncentiveModel::all()[((r >> 1) % 3) as usize];
        let alpha = match self {
            // 53 fresh bits per id: distinct α bit patterns, so the
            // memo's class key never repeats.
            Mix::SolveBound => 0.1 + 0.4 * ((r >> 11) as f64 / (1u64 << 53) as f64),
            Mix::Hot => HOT_ALPHAS[((r >> 3) % 2) as usize],
        };
        SolveRequest {
            id,
            dataset: DATASET,
            strategy: RrStrategy::Standard,
            algorithm,
            incentive,
            alpha,
            evaluate: true,
        }
    }

    /// Every solve class of the `hot` mix, for priming the memo.
    pub fn hot_classes() -> Vec<SolveRequest> {
        let mut out = Vec::new();
        for algorithm in ALGORITHMS {
            for incentive in IncentiveModel::all() {
                for alpha in HOT_ALPHAS {
                    out.push(SolveRequest {
                        id: 0,
                        dataset: DATASET,
                        strategy: RrStrategy::Standard,
                        algorithm,
                        incentive,
                        alpha,
                        evaluate: true,
                    });
                }
            }
        }
        out
    }
}

/// The memo's notion of a solve class.
pub fn class_of(r: &SolveRequest) -> (&'static str, &'static str, u64) {
    (r.algorithm.name(), r.incentive.label(), r.alpha.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn mixes_are_deterministic_in_the_seed() {
        for mix in [Mix::SolveBound, Mix::Hot] {
            for id in 1..200 {
                assert_eq!(mix.request(7, id), mix.request(7, id));
            }
            let a: Vec<_> = (1..50).map(|id| mix.request(7, id)).collect();
            let b: Vec<_> = (1..50).map(|id| mix.request(8, id)).collect();
            assert_ne!(a, b, "another seed must give another mix");
        }
    }

    #[test]
    fn solve_bound_alphas_are_distinct_and_in_range() {
        let mut bits = BTreeSet::new();
        for id in 1..=100_000u64 {
            let r = Mix::SolveBound.request(3, id);
            assert!((0.1..0.5).contains(&r.alpha), "{}", r.alpha);
            assert!(bits.insert(r.alpha.to_bits()), "α of id {id} repeats");
        }
    }

    #[test]
    fn hot_mix_draws_from_its_twelve_classes() {
        let classes: BTreeSet<_> = Mix::hot_classes().iter().map(class_of).collect();
        assert_eq!(classes.len(), 12);
        let drawn: BTreeSet<_> = (1..5_000)
            .map(|id| class_of(&Mix::Hot.request(11, id)))
            .collect();
        assert!(drawn.is_subset(&classes));
        assert_eq!(drawn.len(), 12);
    }
}
