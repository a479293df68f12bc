//! Topic mixtures and per-topic edge probabilities for the TIC model.
//!
//! The paper learns these from action logs; this module generates realistic
//! synthetic parameters (and [`crate::action_log`] closes the loop by
//! re-learning them from simulated logs): per-topic edge probabilities
//! follow a trivalency-style distribution and each advertiser's topic
//! mixture is a sparse random distribution concentrated on a few topics.

use rand::Rng;
use rmsa_diffusion::TicModel;
use rmsa_graph::DirectedGraph;

/// Trivalency probability levels commonly used in the IC literature (high /
/// medium / low influence).
pub const TRIVALENCY_LEVELS: [f32; 3] = [0.1, 0.01, 0.001];

/// Generate per-topic edge probabilities: for each topic, every edge gets a
/// trivalency level with probability `coverage` and probability 0 otherwise.
///
/// An ad's mixed probability on an edge is positive when any of its focus
/// topics covers the edge. The synthetic datasets draw 3 focus topics of
/// 10 at coverage 0.35, so `1 − 0.65³ ≈ 72.6 %` of `(edge, ad)` pairs are
/// positive, well short of the more than 95 % the paper reports for
/// Flixster.
pub fn trivalency_topic_probs<R: Rng>(
    num_edges: usize,
    num_topics: usize,
    coverage: f64,
    rng: &mut R,
) -> Vec<Vec<f32>> {
    assert!(num_topics > 0);
    assert!((0.0..=1.0).contains(&coverage));
    (0..num_topics)
        .map(|_| {
            (0..num_edges)
                .map(|_| {
                    if rng.gen_bool(coverage) {
                        TRIVALENCY_LEVELS[rng.gen_range(0..TRIVALENCY_LEVELS.len())]
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// Generate a sparse random topic mixture for each advertiser: each ad draws
/// weights for a random subset of `focus` topics and normalises them.
pub fn random_ad_mixtures<R: Rng>(
    num_ads: usize,
    num_topics: usize,
    focus: usize,
    rng: &mut R,
) -> Vec<Vec<f32>> {
    assert!(num_ads > 0 && num_topics > 0);
    let focus = focus.clamp(1, num_topics);
    (0..num_ads)
        .map(|_| {
            let mut mix = vec![0.0f32; num_topics];
            // Choose `focus` distinct topics.
            let mut chosen: Vec<usize> = Vec::with_capacity(focus);
            while chosen.len() < focus {
                let t = rng.gen_range(0..num_topics);
                if !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
            let mut total = 0.0f32;
            for &t in &chosen {
                let w: f32 = rng.gen_range(0.2..1.0);
                mix[t] = w;
                total += w;
            }
            for w in &mut mix {
                *w /= total;
            }
            mix
        })
        .collect()
}

/// Build a full TIC model for a graph: trivalency per-topic probabilities
/// plus sparse per-ad mixtures.
pub fn random_tic_model<R: Rng>(
    graph: &DirectedGraph,
    num_ads: usize,
    num_topics: usize,
    coverage: f64,
    rng: &mut R,
) -> TicModel {
    let topic_probs = trivalency_topic_probs(graph.num_edges(), num_topics, coverage, rng);
    let mixtures = random_ad_mixtures(num_ads, num_topics, (num_topics / 3).max(1), rng);
    TicModel::new(graph.num_edges(), topic_probs, mixtures)
}

/// Fraction of `(edge, ad)` pairs with a strictly positive mixed probability
/// — the statistic the paper quotes ("more than 95 % … are positive"), and
/// that the synthetic datasets' generator puts near 72.6 % (see
/// [`trivalency_topic_probs`]).
pub fn positive_probability_fraction(model: &TicModel, num_edges: usize) -> f64 {
    use rmsa_diffusion::PropagationModel;
    let h = model.num_ads();
    if num_edges == 0 || h == 0 {
        return 0.0;
    }
    let mut positive = 0usize;
    for ad in 0..h {
        for e in 0..num_edges as u32 {
            if model.edge_prob(ad, e) > 0.0 {
                positive += 1;
            }
        }
    }
    positive as f64 / (num_edges * h) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;
    use rmsa_graph::generators::barabasi_albert;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(77)
    }

    #[test]
    fn topic_probs_have_requested_shape_and_range() {
        let probs = trivalency_topic_probs(500, 4, 0.3, &mut rng());
        assert_eq!(probs.len(), 4);
        for row in &probs {
            assert_eq!(row.len(), 500);
            for &p in row {
                assert!(p == 0.0 || TRIVALENCY_LEVELS.contains(&p));
            }
        }
    }

    #[test]
    fn coverage_controls_sparsity() {
        let dense = trivalency_topic_probs(2000, 1, 0.9, &mut rng());
        let sparse = trivalency_topic_probs(2000, 1, 0.1, &mut rng());
        let count = |rows: &Vec<Vec<f32>>| rows[0].iter().filter(|&&p| p > 0.0).count();
        assert!(count(&dense) > count(&sparse));
    }

    #[test]
    fn mixtures_are_normalized_distributions() {
        let mixes = random_ad_mixtures(8, 10, 3, &mut rng());
        assert_eq!(mixes.len(), 8);
        for mix in &mixes {
            let sum: f32 = mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(mix.iter().all(|&w| w >= 0.0));
            let nonzero = mix.iter().filter(|&&w| w > 0.0).count();
            assert_eq!(nonzero, 3);
        }
    }

    #[test]
    fn random_tic_model_is_valid_and_mostly_positive() {
        let g = barabasi_albert(800, 5, &mut rng());
        let model = random_tic_model(&g, 10, 10, 0.4, &mut rng());
        assert_eq!(model.num_topics(), 10);
        let frac = positive_probability_fraction(&model, g.num_edges());
        assert!(
            frac > 0.5,
            "expected most (edge, ad) probabilities positive, got {frac}"
        );
    }

    #[test]
    fn positive_fraction_counts_pairs_with_a_positive_mixed_probability() {
        // Ad 0 reads topic 0 only: edges 0 and 3 are positive. Ad 1 mixes
        // both topics: edges 0, 2 and 3. Five of eight pairs.
        let model = TicModel::new(
            4,
            vec![vec![0.1, 0.0, 0.0, 0.01], vec![0.0, 0.0, 0.1, 0.0]],
            vec![vec![1.0, 0.0], vec![0.5, 0.5]],
        );
        assert_eq!(positive_probability_fraction(&model, 4), 0.625);
        assert_eq!(positive_probability_fraction(&model, 0), 0.0);
    }

    /// The synthetic datasets' configuration (10 topics, 3 focus topics,
    /// coverage 0.35) leaves `1 − 0.65³` of the pairs positive, not the
    /// paper's 95 %.
    #[test]
    fn dataset_generator_leaves_about_72_6_percent_of_pairs_positive() {
        let g = barabasi_albert(3_000, 5, &mut rng());
        let model = random_tic_model(&g, 10, 10, 0.35, &mut rng());
        let frac = positive_probability_fraction(&model, g.num_edges());
        let expected = 1.0 - 0.65f64.powi(3);
        assert!((frac - expected).abs() < 0.01, "{frac} vs {expected}");
    }

    #[test]
    fn focus_is_clamped_to_available_topics() {
        let mixes = random_ad_mixtures(2, 2, 10, &mut rng());
        for mix in mixes {
            assert_eq!(mix.len(), 2);
            assert!((mix.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }
}
