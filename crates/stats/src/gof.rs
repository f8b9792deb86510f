//! Goodness-of-fit tests: Pearson chi-square against expected counts and
//! the two-sample Kolmogorov–Smirnov distance.
//!
//! These back the chain-law tests of the edge-MEG engines: the dense and
//! sparse engines must be *distributionally* indistinguishable from the
//! two-state chain's laws and from each other even though they draw
//! different random variates, so the test suite compares empirical
//! stationary densities, flip rates, and holding-time histograms against
//! closed-form laws (chi-square) and against each other (KS).
//!
//! Everything here is deterministic — fixed-seed samples in, a reproducible
//! `pass`/`fail` out. Critical values come from closed-form approximations
//! (Wilson–Hilferty for chi-square, the asymptotic Smirnov form for KS)
//! rather than p-value integration, which keeps the decision boundary exact
//! across platforms and dependency-free.

/// Significance levels supported by the closed-form critical values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alpha {
    /// α = 0.05
    P05,
    /// α = 0.01
    P01,
    /// α = 0.001
    P001,
}

impl Alpha {
    /// The significance level as a probability.
    pub fn value(self) -> f64 {
        match self {
            Alpha::P05 => 0.05,
            Alpha::P01 => 0.01,
            Alpha::P001 => 0.001,
        }
    }

    /// Upper-tail standard-normal quantile `z_α`.
    pub fn z(self) -> f64 {
        match self {
            Alpha::P05 => 1.6449,
            Alpha::P01 => 2.3263,
            Alpha::P001 => 3.0902,
        }
    }
}

/// Outcome of a chi-square goodness-of-fit comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChiSquareTest {
    /// The Pearson statistic `Σ (O − E)² / E` over the pooled groups.
    pub statistic: f64,
    /// Degrees of freedom (pooled groups − 1).
    pub df: usize,
    /// Upper-tail critical value at the requested significance level.
    pub critical: f64,
    /// `statistic <= critical`.
    pub pass: bool,
}

/// Pearson chi-square goodness of fit of `observed` counts against
/// `expected` counts (same binning, same total up to rounding).
///
/// Adjacent bins are greedily pooled left-to-right until each group's
/// expected mass reaches `min_expected` (the classical rule of thumb is 5);
/// an under-filled trailing remainder is merged into the last group. This
/// keeps the statistic well-behaved on histograms with thin tails —
/// geometric holding-time histograms, for instance, decay exponentially and
/// would otherwise contribute near-zero denominators.
///
/// Returns `None` when the inputs are unusable: mismatched or empty slices,
/// a negative or non-finite expectation, or fewer than two pooled groups
/// (no degrees of freedom left to test).
pub fn chi_square_gof(
    observed: &[u64],
    expected: &[f64],
    min_expected: f64,
    alpha: Alpha,
) -> Option<ChiSquareTest> {
    if observed.len() != expected.len() || observed.is_empty() {
        return None;
    }
    let mut groups: Vec<(f64, f64)> = Vec::new();
    let (mut acc_o, mut acc_e) = (0.0f64, 0.0f64);
    for (&o, &e) in observed.iter().zip(expected) {
        if !e.is_finite() || e < 0.0 {
            return None;
        }
        acc_o += o as f64;
        acc_e += e;
        if acc_e >= min_expected {
            groups.push((acc_o, acc_e));
            acc_o = 0.0;
            acc_e = 0.0;
        }
    }
    if acc_e > 0.0 || acc_o > 0.0 {
        let last = groups.last_mut()?;
        last.0 += acc_o;
        last.1 += acc_e;
    }
    if groups.len() < 2 {
        return None;
    }
    let statistic = groups.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let df = groups.len() - 1;
    let critical = chi_square_critical(df, alpha);
    Some(ChiSquareTest {
        statistic,
        df,
        critical,
        pass: statistic <= critical,
    })
}

/// Upper-tail chi-square critical value via the Wilson–Hilferty cube-root
/// normal approximation — accurate to well under 1% for `df ≥ 3`, and
/// conservative enough below that for equivalence gating.
pub fn chi_square_critical(df: usize, alpha: Alpha) -> f64 {
    assert!(df > 0, "chi-square needs at least one degree of freedom");
    let k = df as f64;
    let z = alpha.z();
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * t * t * t
}

/// Outcome of a two-sample Kolmogorov–Smirnov comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KsTest {
    /// The KS distance `sup_x |F_a(x) − F_b(x)|` between the empirical CDFs.
    pub statistic: f64,
    /// Asymptotic critical value `√(ln(2/α)/2) · √((n+m)/(nm))`.
    pub critical: f64,
    /// `statistic <= critical`.
    pub pass: bool,
}

/// Two-sample Kolmogorov–Smirnov test: are `a` and `b` plausibly draws from
/// the same distribution?
///
/// Computes the exact sup-distance between the two empirical CDFs by a
/// sorted merge walk and compares it against the asymptotic Smirnov
/// critical value. Returns `None` on an empty sample or any NaN.
pub fn ks_two_sample(a: &[f64], b: &[f64], alpha: Alpha) -> Option<KsTest> {
    if a.is_empty() || b.is_empty() || a.iter().chain(b).any(|x| x.is_nan()) {
        return None;
    }
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    let (n, m) = (xs.len() as f64, ys.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < xs.len() && j < ys.len() {
        let x = xs[i].min(ys[j]);
        while i < xs.len() && xs[i] <= x {
            i += 1;
        }
        while j < ys.len() && ys[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    let c = ((2.0 / alpha.value()).ln() / 2.0).sqrt();
    let critical = c * ((n + m) / (n * m)).sqrt();
    Some(KsTest {
        statistic: d,
        critical,
        pass: d <= critical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_square_accepts_a_fair_die_and_rejects_a_loaded_one() {
        let expected = [100.0; 6];
        let fair = [95u64, 105, 98, 102, 100, 100];
        let t = chi_square_gof(&fair, &expected, 5.0, Alpha::P01).unwrap();
        assert_eq!(t.df, 5);
        assert!(t.pass, "fair counts rejected: {t:?}");
        let loaded = [160u64, 40, 100, 100, 100, 100];
        let t = chi_square_gof(&loaded, &expected, 5.0, Alpha::P01).unwrap();
        assert!(!t.pass, "loaded counts accepted: {t:?}");
    }

    #[test]
    fn chi_square_pools_thin_tail_bins() {
        // Geometric-looking expectations: the tail bins pool together.
        let expected = [64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0];
        let observed = [60u64, 36, 15, 9, 4, 2, 1];
        let t = chi_square_gof(&observed, &expected, 5.0, Alpha::P05).unwrap();
        // 64 | 32 | 16 | 8 | 4+2+1 → 5 groups, df 4.
        assert_eq!(t.df, 4);
        assert!(t.pass);
    }

    #[test]
    fn chi_square_critical_matches_table_values() {
        // Textbook upper-tail values: χ²(0.05, 10) = 18.307,
        // χ²(0.01, 5) = 15.086, χ²(0.001, 20) = 45.315.
        for (df, alpha, want) in [
            (10usize, Alpha::P05, 18.307),
            (5, Alpha::P01, 15.086),
            (20, Alpha::P001, 45.315),
        ] {
            let got = chi_square_critical(df, alpha);
            assert!(
                (got - want).abs() / want < 0.01,
                "df={df}: got {got}, table {want}"
            );
        }
    }

    #[test]
    fn chi_square_degenerate_inputs() {
        assert!(chi_square_gof(&[], &[], 5.0, Alpha::P05).is_none());
        assert!(chi_square_gof(&[1], &[1.0, 2.0], 5.0, Alpha::P05).is_none());
        assert!(chi_square_gof(&[1, 2], &[1.0, -2.0], 5.0, Alpha::P05).is_none());
        // Everything pools into one group: no degrees of freedom.
        assert!(chi_square_gof(&[3, 3], &[3.0, 3.0], 100.0, Alpha::P05).is_none());
    }

    #[test]
    fn ks_statistic_is_exact_on_a_hand_case() {
        // F_a steps at 1,2,3; F_b at 1.5,2.5,3.5 → sup distance 1/3.
        let t = ks_two_sample(&[1.0, 2.0, 3.0], &[1.5, 2.5, 3.5], Alpha::P05).unwrap();
        assert!((t.statistic - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ks_accepts_identical_and_rejects_shifted_samples() {
        let a: Vec<f64> = (0..500).map(|i| (i as f64 * 0.618_034).fract()).collect();
        let same = ks_two_sample(&a, &a, Alpha::P001).unwrap();
        assert_eq!(same.statistic, 0.0);
        assert!(same.pass);
        let shifted: Vec<f64> = a.iter().map(|x| x + 0.25).collect();
        let t = ks_two_sample(&a, &shifted, Alpha::P001).unwrap();
        assert!(!t.pass, "shifted sample accepted: {t:?}");
    }

    #[test]
    fn ks_degenerate_inputs() {
        assert!(ks_two_sample(&[], &[1.0], Alpha::P05).is_none());
        assert!(ks_two_sample(&[1.0], &[f64::NAN], Alpha::P05).is_none());
    }
}
