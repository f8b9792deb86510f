//! Shared parameterisation of edge-MEG.

use meg_core::bounds::EdgeBounds;
use meg_core::evolving::InitialDistribution;
use meg_markov::TwoStateChain;

/// Parameters of an edge-MEG `M(n, p, q)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeMegParams {
    /// Number of nodes.
    pub n: usize,
    /// Birth rate `p`: probability that an absent edge appears in one step.
    pub p: f64,
    /// Death rate `q`: probability that a present edge disappears in one step.
    pub q: f64,
}

impl EdgeMegParams {
    /// Creates the parameter set. Panics unless `n ≥ 2` and `p, q ∈ [0, 1]`.
    pub fn new(n: usize, p: f64, q: f64) -> Self {
        assert!(n >= 2, "need at least two nodes");
        assert!((0.0..=1.0).contains(&p), "birth rate p={p} outside [0,1]");
        assert!((0.0..=1.0).contains(&q), "death rate q={q} outside [0,1]");
        EdgeMegParams { n, p, q }
    }

    /// Convenience constructor fixing the stationary edge probability `p̂` and
    /// the death rate `q`: sets `p = q·p̂/(1−p̂)` so that `p/(p+q) = p̂`.
    ///
    /// Panics where [`EdgeMegParams::try_with_stationary`] returns an error.
    pub fn with_stationary(n: usize, p_hat: f64, q: f64) -> Self {
        EdgeMegParams::try_with_stationary(n, p_hat, q).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`EdgeMegParams::with_stationary`], or an error naming the first
    /// precondition it breaks: `n ≥ 2`, `q ∈ (0, 1]`, `p̂ ∈ (0, 1)`, and the
    /// implied birth rate `p ≤ 1`.
    #[inline]
    pub fn try_with_stationary(n: usize, p_hat: f64, q: f64) -> Result<Self, String> {
        let p = q * p_hat / (1.0 - p_hat);
        if n >= 2 && q > 0.0 && q <= 1.0 && p_hat > 0.0 && p_hat < 1.0 && p <= 1.0 {
            Ok(EdgeMegParams { n, p, q })
        } else {
            Err(stationary_error(n, p_hat, q, p))
        }
    }

    /// The time-independent special case `q = 1 − p` (each snapshot is an
    /// independent `G(n, p)`, the dynamic random graphs of \[10\]).
    pub fn time_independent(n: usize, p: f64) -> Self {
        EdgeMegParams::new(n, p, 1.0 - p)
    }

    /// The per-edge two-state chain.
    pub fn chain(&self) -> TwoStateChain {
        TwoStateChain::new(self.p, self.q)
    }

    /// Stationary edge probability `p̂ = p/(p+q)` (0.5 in the degenerate
    /// `p = q = 0` case, matching [`TwoStateChain::stationary`]).
    pub fn stationary_edge_probability(&self) -> f64 {
        self.chain().stationary_edge_probability()
    }

    /// The closed-form bounds object for this configuration.
    pub fn bounds(&self) -> EdgeBounds {
        EdgeBounds::new(self.n, self.stationary_edge_probability())
    }

    /// Total number of potential edges `C(n, 2)`.
    pub fn num_pairs(&self) -> u64 {
        let n = self.n as u64;
        n * (n - 1) / 2
    }

    /// Expected number of alive edges in the stationary regime.
    pub fn expected_stationary_edges(&self) -> f64 {
        self.num_pairs() as f64 * self.stationary_edge_probability()
    }

    /// Suggests the cheaper engine for this configuration: sparse when the
    /// expected stationary snapshot has fewer than ~15% of all pairs alive.
    pub fn prefers_sparse_engine(&self) -> bool {
        self.stationary_edge_probability() < 0.15
    }

    /// Expected number of edge flips per round in the stationary regime:
    /// `N·(1−p̂)·p` births plus `N·p̂·q` deaths, which are equal
    /// (detailed balance), giving `2N·pq/(p+q)`.
    ///
    /// The sparse engine sizes the free gap below its alive list from it.
    pub fn expected_stationary_flips(&self) -> f64 {
        let s = self.p + self.q;
        if s == 0.0 {
            return 0.0;
        }
        2.0 * self.num_pairs() as f64 * self.p * self.q / s
    }
}

/// Re-export of the initial-distribution selector used by both engines.
pub type EdgeInit = InitialDistribution;

/// The first precondition of [`EdgeMegParams::try_with_stationary`] that
/// `(n, p̂, q)` breaks. Out of line and cold, so resolving valid parameters
/// runs only the comparisons.
#[cold]
#[inline(never)]
fn stationary_error(n: usize, p_hat: f64, q: f64, p: f64) -> String {
    if n < 2 {
        format!("need at least two nodes, got n={n}")
    } else if !(q > 0.0 && q <= 1.0) {
        format!("death rate q={q} outside (0, 1]")
    } else if !(p_hat > 0.0 && p_hat < 1.0) {
        format!("p_hat={p_hat} outside (0, 1)")
    } else {
        format!("implied birth rate p={p} exceeds 1 (q={q}, p_hat={p_hat}); lower q or p_hat")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_probability_and_edge_count() {
        let p = EdgeMegParams::new(100, 0.02, 0.08);
        assert!((p.stationary_edge_probability() - 0.2).abs() < 1e-12);
        assert_eq!(p.num_pairs(), 4950);
        assert!((p.expected_stationary_edges() - 990.0).abs() < 1e-9);
        assert!(!p.prefers_sparse_engine());
    }

    #[test]
    fn with_stationary_inverts_correctly() {
        let params = EdgeMegParams::with_stationary(1_000, 0.01, 0.5);
        assert!((params.stationary_edge_probability() - 0.01).abs() < 1e-12);
        assert!(params.prefers_sparse_engine());
        assert_eq!(params.q, 0.5);
    }

    #[test]
    fn expected_flips_closed_form() {
        let p = EdgeMegParams::new(100, 0.02, 0.08);
        // births = N·(1−p̂)·p = 4950·0.8·0.02; deaths = N·p̂·q = 4950·0.2·0.08.
        let births = 4950.0 * 0.8 * 0.02;
        let deaths = 4950.0 * 0.2 * 0.08;
        assert!((p.expected_stationary_flips() - (births + deaths)).abs() < 1e-9);
        assert_eq!(
            EdgeMegParams::new(10, 0.0, 0.0).expected_stationary_flips(),
            0.0
        );
    }

    #[test]
    fn time_independent_case() {
        let params = EdgeMegParams::time_independent(50, 0.3);
        assert_eq!(params.q, 0.7);
        assert!((params.stationary_edge_probability() - 0.3).abs() < 1e-12);
        assert_eq!(params.chain().second_eigenvalue(), 0.0);
    }

    #[test]
    fn bounds_accessor_uses_phat() {
        let params = EdgeMegParams::with_stationary(10_000, 0.005, 0.25);
        let b = params.bounds();
        assert!((b.p_hat - 0.005).abs() < 1e-12);
        assert_eq!(b.n, 10_000);
    }

    #[test]
    #[should_panic]
    fn invalid_rates_rejected() {
        EdgeMegParams::new(10, 1.2, 0.1);
    }

    #[test]
    #[should_panic]
    fn implied_birth_rate_above_one_rejected() {
        EdgeMegParams::with_stationary(10, 0.9, 1.0);
    }

    #[test]
    fn try_with_stationary_rejects_fewer_than_two_nodes() {
        let err = EdgeMegParams::try_with_stationary(1, 0.2, 0.5).unwrap_err();
        assert!(err.contains("n=1"), "{err}");
        assert_eq!(
            EdgeMegParams::try_with_stationary(10, 0.2, 0.5),
            Ok(EdgeMegParams::with_stationary(10, 0.2, 0.5))
        );
    }
}
