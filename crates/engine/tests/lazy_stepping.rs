//! Every substrate that steps a chain steps lazily: `k` calls to `advance`
//! build `k` snapshots and take exactly `k − 1` steps, so no step is drawn
//! past the last snapshot a caller reads. The `step` and `build` spans count
//! them; the recorder is process-global, so this binary holds one test.
//!
//! The first call must also leave the substrate's randomness untouched: the
//! edge engines' RNG cursor and the nodes' positions read as they did at
//! construction.

use meg_core::evolving::{EvolvingGraph, InitialDistribution};
use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg};
use meg_geometric::{GeometricMeg, GeometricMegParams};
use meg_mobility::{Mobility, TorusWalkers};
use meg_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(steps, builds)` recorded while `meg` advances `k` times.
fn spans_over(meg: &mut impl EvolvingGraph, k: u64) -> (u64, u64) {
    let count = |name| obs::snapshot().span(name).map_or(0, |s| s.count);
    let (steps, builds) = (count("step"), count("build"));
    for _ in 0..k {
        meg.advance();
    }
    (count("step") - steps, count("build") - builds)
}

#[test]
fn k_advances_take_k_minus_one_steps_on_every_substrate() {
    let params = EdgeMegParams::with_stationary(90, 0.08, 0.3);
    let stationary = InitialDistribution::Stationary;
    obs::install();
    for k in [1u64, 2, 7] {
        let mut sparse = SparseEdgeMeg::new(params, stationary, 3);
        let cursor = sparse.rng_cursor_probe();
        assert_eq!(spans_over(&mut sparse, k), (k - 1, k), "sparse");
        if k == 1 {
            assert_eq!(sparse.rng_cursor_probe(), cursor, "sparse");
        }

        let mut dense = DenseEdgeMeg::new(params, stationary, 3);
        let cursor = dense.rng_cursor_probe();
        assert_eq!(spans_over(&mut dense, k), (k - 1, k), "dense");
        if k == 1 {
            assert_eq!(dense.rng_cursor_probe(), cursor, "dense");
        }

        let mut grid = GeometricMeg::from_params(GeometricMegParams::new(200, 1.5, 4.0), 5);
        let start = grid.mobility().positions().to_vec();
        assert_eq!(spans_over(&mut grid, k), (k - 1, k), "grid walk");
        assert_eq!(grid.mobility().positions() == start, k == 1, "grid walk");

        let walkers = TorusWalkers::new(150, 12.0, 1.5, 1.0, &mut StdRng::seed_from_u64(7));
        let mut torus = GeometricMeg::new(walkers, 3.0, 7);
        let start = torus.mobility().positions().to_vec();
        assert_eq!(spans_over(&mut torus, k), (k - 1, k), "torus walkers");
        assert_eq!(
            torus.mobility().positions() == start,
            k == 1,
            "torus walkers"
        );
    }
    obs::uninstall();
}
