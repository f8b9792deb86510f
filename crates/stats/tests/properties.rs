//! Property-based tests for the statistics substrate.

use meg_stats::fit::{linear_fit, power_law_fit, proportional_fit};
use meg_stats::quantile::{quantile, quantiles};
use meg_stats::seeds::{derive_seed, splitmix64};
use meg_stats::{run_trials, run_trials_sequential, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn summary_is_order_invariant_and_bounded(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s1 = Summary::of(&xs).unwrap();
        xs.reverse();
        let s2 = Summary::of(&xs).unwrap();
        prop_assert!((s1.mean - s2.mean).abs() < 1e-6);
        prop_assert!((s1.variance - s2.variance).abs() < 1e-3);
        prop_assert_eq!(s1.min, s2.min);
        prop_assert_eq!(s1.max, s2.max);
        prop_assert!(s1.min <= s1.median && s1.median <= s1.max);
        prop_assert!(s1.min <= s1.mean && s1.mean <= s1.max);
        prop_assert!(s1.variance >= 0.0);
    }

    #[test]
    fn quantiles_are_monotone_and_within_range(xs in proptest::collection::vec(-1e3f64..1e3, 1..80)) {
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let values = quantiles(&xs, &qs).unwrap();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((values[0] - min).abs() < 1e-12);
        prop_assert!((values[6] - max).abs() < 1e-12);
        prop_assert_eq!(quantile(&xs, 0.5), Some(values[3]));
    }

    #[test]
    fn linear_fit_recovers_exact_lines(slope in -50.0f64..50.0, intercept in -50.0f64..50.0, n in 3usize..40) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6);
        prop_assert!((fit.intercept - intercept).abs() < 1e-6);
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn power_law_fit_recovers_exact_power_laws(exponent in -2.0f64..2.0, constant in 0.1f64..10.0, n in 3usize..30) {
        let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| constant * x.powf(exponent)).collect();
        let fit = power_law_fit(&xs, &ys).unwrap();
        prop_assert!((fit.exponent - exponent).abs() < 1e-6);
        prop_assert!((fit.constant - constant).abs() / constant < 1e-6);
    }

    #[test]
    fn proportional_fit_matches_linear_fit_through_origin(slope in 0.1f64..20.0, n in 3usize..30) {
        let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x).collect();
        let fit = proportional_fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-9);
        prop_assert!(fit.max_relative_deviation < 1e-9);
    }

    #[test]
    fn seed_derivation_is_deterministic_and_collision_resistant(master in 0u64..u64::MAX, count in 2u64..200) {
        let seeds: Vec<u64> = (0..count).map(|i| derive_seed(master, i)).collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        prop_assert_eq!(unique.len(), seeds.len());
        prop_assert_eq!(derive_seed(master, 0), derive_seed(master, 0));
        prop_assert_ne!(splitmix64(master), splitmix64(master.wrapping_add(1)));
    }

    #[test]
    fn parallel_and_sequential_runners_agree(seed in 0u64..u64::MAX, trials in 1usize..64) {
        use rand::Rng;
        let par = run_trials(seed, trials, |i, rng| (i, rng.gen::<u64>()));
        let seq = run_trials_sequential(seed, trials, |i, rng| (i, rng.gen::<u64>()));
        prop_assert_eq!(par, seq);
    }
}
