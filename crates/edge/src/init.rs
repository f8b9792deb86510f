//! Initial-distribution helpers and stationary snapshot sampling.
//!
//! The stationary distribution of `M(n, p, q)` is the Erdős–Rényi law
//! `G(n, p̂)`; sampling one snapshot without building the whole evolving graph
//! is what the expansion experiments (Theorem 4.1 / Lemma 4.2) need. The
//! worst-case comparisons of Section 1 additionally start the chain from the
//! empty (or full) graph.

use crate::model::EdgeMegParams;
use crate::{DenseEdgeMeg, SparseEdgeMeg};
use meg_core::evolving::InitialDistribution;
use meg_graph::{generators, AdjacencyList};
use rand::Rng;

/// Samples one snapshot from the stationary distribution `G(n, p̂)`.
pub fn sample_stationary_snapshot<R: Rng>(params: EdgeMegParams, rng: &mut R) -> AdjacencyList {
    generators::erdos_renyi(params.n, params.stationary_edge_probability(), rng)
}

/// Either engine behind one type, chosen by density (see
/// [`EdgeMegParams::prefers_sparse_engine`]).
#[derive(Clone, Debug)]
pub enum AutoEdgeMeg {
    /// Dense per-pair engine.
    Dense(DenseEdgeMeg),
    /// Sparse alive-set engine.
    Sparse(SparseEdgeMeg),
}

impl AutoEdgeMeg {
    /// Builds the engine best suited to the configuration's density.
    pub fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
        if params.prefers_sparse_engine() {
            AutoEdgeMeg::Sparse(SparseEdgeMeg::new(params, init, seed))
        } else {
            AutoEdgeMeg::Dense(DenseEdgeMeg::new(params, init, seed))
        }
    }

    /// Stationary-start constructor.
    pub fn stationary(params: EdgeMegParams, seed: u64) -> Self {
        Self::new(params, InitialDistribution::Stationary, seed)
    }

    /// Returns `true` if the sparse engine was selected.
    pub fn is_sparse(&self) -> bool {
        matches!(self, AutoEdgeMeg::Sparse(_))
    }
}

impl meg_core::evolving::EvolvingGraph for AutoEdgeMeg {
    fn num_nodes(&self) -> usize {
        match self {
            AutoEdgeMeg::Dense(m) => m.num_nodes(),
            AutoEdgeMeg::Sparse(m) => m.num_nodes(),
        }
    }

    fn advance(&mut self) -> &meg_graph::SnapshotBuf {
        match self {
            AutoEdgeMeg::Dense(m) => m.advance(),
            AutoEdgeMeg::Sparse(m) => m.advance(),
        }
    }

    fn time(&self) -> u64 {
        match self {
            AutoEdgeMeg::Dense(m) => m.time(),
            AutoEdgeMeg::Sparse(m) => m.time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meg_core::evolving::EvolvingGraph;
    use meg_core::flooding::flood;
    use meg_graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stationary_snapshot_has_expected_density() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let params = EdgeMegParams::with_stationary(400, 0.03, 0.5);
        let snap = sample_stationary_snapshot(params, &mut rng);
        let expected = params.expected_stationary_edges();
        let got = snap.num_edges() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "edges {got} vs {expected}"
        );
    }

    #[test]
    fn auto_engine_picks_by_density() {
        let sparse = AutoEdgeMeg::stationary(EdgeMegParams::with_stationary(200, 0.05, 0.5), 1);
        assert!(sparse.is_sparse());
        let dense = AutoEdgeMeg::stationary(EdgeMegParams::with_stationary(200, 0.4, 0.5), 1);
        assert!(!dense.is_sparse());
    }

    #[test]
    fn auto_engine_floods_like_any_other() {
        let params = EdgeMegParams::with_stationary(300, 0.05, 0.5);
        let mut meg = AutoEdgeMeg::stationary(params, 3);
        assert_eq!(meg.num_nodes(), 300);
        let r = flood(&mut meg, 0, 1_000);
        assert!(r.completed);
        assert!(meg.time() >= r.rounds);
    }
}
