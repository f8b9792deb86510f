//! Property-based tests for the two-state edge chain.

use meg_markov::TwoStateChain;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_state_stationary_is_invariant(p in 0.0f64..=1.0, q in 0.0f64..=1.0) {
        let chain = TwoStateChain::new(p, q);
        let (pi0, pi1) = chain.stationary();
        prop_assert!((pi0 + pi1 - 1.0).abs() < 1e-12);
        // invariance: pi1 = pi0 * p + pi1 * (1 - q) whenever p + q > 0
        if p + q > 0.0 {
            prop_assert!((pi1 - (pi0 * p + pi1 * (1.0 - q))).abs() < 1e-12);
        }
        // multi-step probabilities converge toward pi1 monotonically in TV
        let d1 = (chain.prob_present_after(true, 1) - pi1).abs();
        let d5 = (chain.prob_present_after(true, 5) - pi1).abs();
        prop_assert!(d5 <= d1 + 1e-12);
    }
}
