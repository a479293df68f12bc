//! Advertiser budget / CPE configurations (Table 2 and the scalability
//! settings of Section 5.2.3).

use rand::Rng;
use rmsa_core::problem::Advertiser;

/// Budget/CPE summary of one dataset row of Table 2.
#[derive(Clone, Copy, Debug)]
pub struct BudgetProfile {
    /// Mean budget across advertisers.
    pub budget_mean: f64,
    /// Maximum budget.
    pub budget_max: f64,
    /// Minimum budget.
    pub budget_min: f64,
    /// Mean CPE.
    pub cpe_mean: f64,
    /// Maximum CPE.
    pub cpe_max: f64,
    /// Minimum CPE.
    pub cpe_min: f64,
}

/// Table 2 profile for the LastFM dataset.
pub const LASTFM_PROFILE: BudgetProfile = BudgetProfile {
    budget_mean: 320.0,
    budget_max: 1200.0,
    budget_min: 100.0,
    cpe_mean: 1.5,
    cpe_max: 2.0,
    cpe_min: 1.0,
};

/// Table 2 profile for the Flixster dataset.
pub const FLIXSTER_PROFILE: BudgetProfile = BudgetProfile {
    budget_mean: 10_100.0,
    budget_max: 20_000.0,
    budget_min: 6_000.0,
    cpe_mean: 1.5,
    cpe_max: 2.0,
    cpe_min: 1.0,
};

/// Draw `h` heterogeneous advertisers whose budgets and CPEs match a
/// [`BudgetProfile`]: values are sampled uniformly in `[min, max]` and then
/// shifted so the sample mean matches the profile mean (clamped back into
/// the range).
// Budgets and CPEs are clamped into the profile's positive [min, max]
// ranges, so `Advertiser::try_new` cannot fail.
#[allow(clippy::unwrap_used)]
pub fn table2_advertisers<R: Rng>(
    profile: &BudgetProfile,
    h: usize,
    rng: &mut R,
) -> Vec<Advertiser> {
    assert!(h > 0);
    let mut budgets: Vec<f64> = (0..h)
        .map(|_| rng.gen_range(profile.budget_min..=profile.budget_max))
        .collect();
    let mut cpes: Vec<f64> = (0..h)
        .map(|_| rng.gen_range(profile.cpe_min..=profile.cpe_max))
        .collect();
    recenter(
        &mut budgets,
        profile.budget_mean,
        profile.budget_min,
        profile.budget_max,
    );
    recenter(
        &mut cpes,
        profile.cpe_mean,
        profile.cpe_min,
        profile.cpe_max,
    );
    budgets
        .into_iter()
        .zip(cpes)
        .map(|(b, c)| Advertiser::try_new(b, c).unwrap())
        .collect()
}

/// The scalability-experiment setting: `h` advertisers with identical
/// budgets and unit CPE (Section 5.2.3).
#[allow(clippy::unwrap_used)]
pub fn scalability_advertisers(h: usize, budget: f64) -> Vec<Advertiser> {
    assert!(h > 0);
    assert!(budget > 0.0, "advertiser budgets must be positive");
    (0..h)
        .map(|_| Advertiser::try_new(budget, 1.0).unwrap())
        .collect()
}

fn recenter(values: &mut [f64], target_mean: f64, lo: f64, hi: f64) {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let shift = target_mean - mean;
    for v in values.iter_mut() {
        *v = (*v + shift).clamp(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    #[test]
    fn table2_advertisers_respect_the_profile_range() {
        let mut rng = Pcg64Mcg::seed_from_u64(1);
        let ads = table2_advertisers(&LASTFM_PROFILE, 10, &mut rng);
        assert_eq!(ads.len(), 10);
        for a in &ads {
            assert!(a.budget >= LASTFM_PROFILE.budget_min - 1e-9);
            assert!(a.budget <= LASTFM_PROFILE.budget_max + 1e-9);
            assert!(a.cpe >= LASTFM_PROFILE.cpe_min - 1e-9);
            assert!(a.cpe <= LASTFM_PROFILE.cpe_max + 1e-9);
        }
        let mean_budget = ads.iter().map(|a| a.budget).sum::<f64>() / 10.0;
        assert!(
            (mean_budget - LASTFM_PROFILE.budget_mean).abs() < 0.35 * LASTFM_PROFILE.budget_mean,
            "mean budget {mean_budget}"
        );
    }

    #[test]
    fn flixster_budgets_are_larger_than_lastfm() {
        let mut rng = Pcg64Mcg::seed_from_u64(2);
        let lastfm = table2_advertisers(&LASTFM_PROFILE, 10, &mut rng);
        let flixster = table2_advertisers(&FLIXSTER_PROFILE, 10, &mut rng);
        let mean =
            |ads: &[Advertiser]| ads.iter().map(|a| a.budget).sum::<f64>() / ads.len() as f64;
        assert!(mean(&flixster) > 5.0 * mean(&lastfm));
    }

    #[test]
    fn scalability_advertisers_are_uniform_with_unit_cpe() {
        let ads = scalability_advertisers(5, 10_000.0);
        assert_eq!(ads.len(), 5);
        assert!(ads.iter().all(|a| a.budget == 10_000.0 && a.cpe == 1.0));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = table2_advertisers(&LASTFM_PROFILE, 6, &mut Pcg64Mcg::seed_from_u64(9));
        let b = table2_advertisers(&LASTFM_PROFILE, 6, &mut Pcg64Mcg::seed_from_u64(9));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.budget, y.budget);
            assert_eq!(x.cpe, y.cpe);
        }
    }
}
