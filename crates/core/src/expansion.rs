//! Parameterized expander sequences and the flooding-time bound evaluators of
//! Lemma 2.4, Theorem 2.5 and Corollary 2.6.
//!
//! The paper's general theorem turns a family of `(h_i, k_i)`-expander
//! properties into a flooding-time bound
//!
//! ```text
//! T = O( Σ_i  log(h_i / h_{i-1}) / log(1 + k_i) )
//! ```
//!
//! with `1 = h_0 ≤ h_1 < … < h_s = n/2` increasing and `k_1 ≥ … ≥ k_s`
//! non-increasing. [`ExpanderSequence`] validates those side conditions and
//! evaluates the sum; [`corollary_2_6`] specialises it to the per-size form
//! `Σ_{i ≤ n/2} 1 / (i · log(1 + k_i))`.

use meg_graph::expansion::ExpansionProfile;

/// Errors raised when an `(h_i, k_i)` sequence violates the hypotheses of
/// Lemma 2.4 / Theorem 2.5.
#[derive(Clone, Debug, PartialEq)]
pub enum SequenceError {
    /// The sequence is empty.
    Empty,
    /// `h` values must be strictly increasing and ≥ 1.
    NotIncreasing,
    /// `k` values must be positive and non-increasing.
    NotNonIncreasing,
    /// The lengths of the `h` and `k` vectors differ.
    LengthMismatch,
    /// The last `h` must equal `n/2`.
    WrongFinalSize {
        /// Expected final size (`n/2`).
        expected: usize,
        /// Final size actually supplied.
        got: usize,
    },
}

impl std::fmt::Display for SequenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequenceError::Empty => write!(f, "expander sequence is empty"),
            SequenceError::NotIncreasing => {
                write!(f, "h values must be strictly increasing and ≥ 1")
            }
            SequenceError::NotNonIncreasing => {
                write!(f, "k values must be positive and non-increasing")
            }
            SequenceError::LengthMismatch => write!(f, "h and k have different lengths"),
            SequenceError::WrongFinalSize { expected, got } => {
                write!(f, "final h must be n/2 = {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SequenceError {}

/// A validated `(h_i, k_i)` expander sequence for an `n`-node graph family.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpanderSequence {
    n: usize,
    hs: Vec<usize>,
    ks: Vec<f64>,
}

impl ExpanderSequence {
    /// Builds a sequence after checking the hypotheses of Theorem 2.5:
    /// `h` strictly increasing with `h_s = n/2`, `k` positive non-increasing.
    /// (`h_0 = 1` is implicit and must not be included in `hs`.)
    pub fn new(n: usize, hs: Vec<usize>, ks: Vec<f64>) -> Result<Self, SequenceError> {
        if hs.is_empty() || ks.is_empty() {
            return Err(SequenceError::Empty);
        }
        if hs.len() != ks.len() {
            return Err(SequenceError::LengthMismatch);
        }
        if hs[0] < 1 || hs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SequenceError::NotIncreasing);
        }
        if ks.iter().any(|&k| k <= 0.0 || !k.is_finite())
            || ks.windows(2).any(|w| w[0] < w[1] - 1e-12)
        {
            return Err(SequenceError::NotNonIncreasing);
        }
        let expected = n / 2;
        let got = *hs.last().expect("non-empty");
        if got != expected {
            return Err(SequenceError::WrongFinalSize { expected, got });
        }
        Ok(ExpanderSequence { n, hs, ks })
    }

    /// Builds the sequence from an empirically measured
    /// [`ExpansionProfile`], clamping the `k` values into a non-increasing
    /// sequence (a running minimum, which is the conservative direction) and
    /// extending the final point to `n/2` if the profile stopped short.
    pub fn from_profile(n: usize, profile: &ExpansionProfile) -> Result<Self, SequenceError> {
        let (mut hs, mut ks) = profile.monotone_hk();
        if hs.is_empty() {
            return Err(SequenceError::Empty);
        }
        let target = n / 2;
        match hs.last().copied() {
            Some(last) if last < target => {
                hs.push(target);
                ks.push(*ks.last().expect("non-empty"));
            }
            Some(last) if last > target => {
                // Trim any oversized trailing entries, then re-extend exactly.
                while hs.last().copied().is_some_and(|h| h > target) {
                    hs.pop();
                    ks.pop();
                }
                if hs.last().copied() != Some(target) {
                    hs.push(target);
                    ks.push(ks.last().copied().unwrap_or(1.0));
                }
            }
            _ => {}
        }
        Self::new(n, hs, ks)
    }

    /// Number of nodes of the underlying graph family.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The `h_i` values (not including the implicit `h_0 = 1`).
    pub fn sizes(&self) -> &[usize] {
        &self.hs
    }

    /// The `k_i` values.
    pub fn rates(&self) -> &[f64] {
        &self.ks
    }

    /// Evaluates the Lemma 2.4 bound
    /// `Σ_i log(h_i/h_{i-1}) / log(1 + k_i)` — the number of rounds needed to
    /// reach `n/2` informed nodes; by the symmetric backward argument the
    /// total flooding time is at most twice this (plus O(1)).
    pub fn half_bound(&self) -> f64 {
        let mut total = 0.0;
        let mut prev = 1usize;
        for (&h, &k) in self.hs.iter().zip(self.ks.iter()) {
            if h > prev {
                total += ((h as f64) / (prev as f64)).ln() / (1.0 + k).ln();
            }
            prev = h;
        }
        total
    }

    /// Full flooding-time bound: `2 · half_bound() + 2` rounds (the additive
    /// constant covers the `⌈·⌉` roundings and the final merge step).
    pub fn flooding_bound(&self) -> f64 {
        2.0 * self.half_bound() + 2.0
    }
}

/// Corollary 2.6: given a non-increasing sequence `k_1 ≥ … ≥ k_{n/2}` such
/// that the stationary snapshot is an `(i, k_i)`-expander for every
/// `i ≤ n/2`, flooding time is `O( Σ_i 1 / (i · log(1 + k_i)) )`.
///
/// `ks[i]` is interpreted as `k_{i+1}` (the rate at set size `i + 1`).
/// Returns the evaluated sum (again, the "half" bound; double it for the full
/// flooding estimate).
pub fn corollary_2_6(ks: &[f64]) -> f64 {
    ks.iter()
        .enumerate()
        .map(|(idx, &k)| {
            let i = (idx + 1) as f64;
            1.0 / (i * (1.0 + k).ln())
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meg_graph::expansion::{ExpansionPoint, SamplingStrategy};
    use meg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn validation_catches_bad_sequences() {
        assert_eq!(
            ExpanderSequence::new(10, vec![], vec![]).unwrap_err(),
            SequenceError::Empty
        );
        assert_eq!(
            ExpanderSequence::new(10, vec![2, 5], vec![1.0]).unwrap_err(),
            SequenceError::LengthMismatch
        );
        assert_eq!(
            ExpanderSequence::new(10, vec![3, 2], vec![1.0, 1.0]).unwrap_err(),
            SequenceError::NotIncreasing
        );
        assert_eq!(
            ExpanderSequence::new(10, vec![2, 5], vec![1.0, 2.0]).unwrap_err(),
            SequenceError::NotNonIncreasing
        );
        assert_eq!(
            ExpanderSequence::new(10, vec![2, 4], vec![2.0, 1.0]).unwrap_err(),
            SequenceError::WrongFinalSize {
                expected: 5,
                got: 4
            }
        );
        assert!(ExpanderSequence::new(10, vec![2, 5], vec![2.0, 1.0]).is_ok());
    }

    #[test]
    fn complete_graph_bound_is_constant_rounds() {
        // On K_n every set of size ≤ n/2 expands by at least a factor 1
        // (indeed (n-h)/h ≥ 1), with k_1 = n-1 for singletons.
        let n = 1000usize;
        let seq = ExpanderSequence::new(n, vec![n / 2], vec![1.0]).unwrap();
        let bound = seq.flooding_bound();
        // log(n/2)/log(2) ≈ 9 doublings, so the bound is ~20 rounds.
        assert!(bound < 25.0, "bound {bound}");
        assert!(bound > 2.0);
    }

    #[test]
    fn expander_bound_scales_logarithmically() {
        // constant expansion k=2 at every scale → bound ~ log n.
        for &n in &[1_000usize, 1_000_000] {
            let seq = ExpanderSequence::new(n, vec![n / 2], vec![2.0]).unwrap();
            let expect = (n as f64 / 2.0).ln() / 3.0f64.ln();
            assert!((seq.half_bound() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn multi_scale_sequence_accumulates_per_interval_costs() {
        // Two regimes: fast expansion up to h=16, slower up to n/2=64.
        let seq = ExpanderSequence::new(128, vec![16, 64], vec![3.0, 0.5]).unwrap();
        let expected = (16.0f64).ln() / (4.0f64).ln() + (64.0f64 / 16.0).ln() / (1.5f64).ln();
        assert!((seq.half_bound() - expected).abs() < 1e-12);
        assert!((seq.flooding_bound() - (2.0 * expected + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn corollary_matches_theorem_for_unit_steps() {
        // For hs = 1,2,...,n/2 with constant k, the Corollary 2.6 sum equals
        // the Lemma 2.4 sum because log(i/(i-1)) telescopes ≈ Σ 1/i.
        let n = 64usize;
        let k = 1.5f64;
        let ks = vec![k; n / 2];
        let coro = corollary_2_6(&ks);
        let hs: Vec<usize> = (2..=n / 2).collect();
        let seq = ExpanderSequence::new(n, hs, vec![k; n / 2 - 1]).unwrap();
        // They agree up to the harmonic-vs-log discrepancy, well within 2x.
        assert!(coro >= seq.half_bound());
        assert!(coro <= 2.0 * seq.half_bound() + 1.0);
    }

    #[test]
    fn from_profile_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::complete(40);
        let profile = meg_graph::expansion::ExpansionProfile::measure(
            &g,
            5,
            SamplingStrategy::UniformSubsets,
            &mut rng,
        );
        let seq = ExpanderSequence::from_profile(40, &profile).unwrap();
        assert_eq!(*seq.sizes().last().unwrap(), 20);
        // On K_40 every set of size h ≤ 20 has |N(I)| = 40 - h ≥ 20 ≥ |I|, so
        // all measured rates are ≥ 1 and the bound is a handful of rounds.
        assert!(seq.rates().iter().all(|&k| k >= 1.0));
        assert!(seq.flooding_bound() < 15.0);
    }

    #[test]
    fn from_profile_handles_short_profiles() {
        // A profile that stops well before n/2 gets extended conservatively.
        let profile = ExpansionProfile {
            points: vec![
                ExpansionPoint {
                    h: 1,
                    min_ratio: 4.0,
                },
                ExpansionPoint {
                    h: 8,
                    min_ratio: 2.0,
                },
            ],
        };
        let seq = ExpanderSequence::from_profile(100, &profile).unwrap();
        assert_eq!(*seq.sizes().last().unwrap(), 50);
        assert_eq!(*seq.rates().last().unwrap(), 2.0);
    }

    #[test]
    fn zero_or_negative_rates_rejected() {
        assert_eq!(
            ExpanderSequence::new(10, vec![5], vec![0.0]).unwrap_err(),
            SequenceError::NotNonIncreasing
        );
        assert_eq!(
            ExpanderSequence::new(10, vec![5], vec![-1.0]).unwrap_err(),
            SequenceError::NotNonIncreasing
        );
    }
}
