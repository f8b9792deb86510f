//! Uniformity diagnostics for stationary position distributions.
//!
//! The paper's Theorem 3.2 only uses one property of the mobility model: the
//! stationary distribution of node positions is (almost) uniform, so cell
//! occupancies concentrate (Claim 1). These diagnostics quantify how uniform a
//! model's empirical occupancy actually is, and are reported by the
//! `mobility_models` example for every model in this crate.

use crate::space::Point;
use crate::traits::Mobility;
use rand::Rng;

/// Cell-occupancy counts of a set of positions over a `cells × cells` grid
/// covering the `[0, side]²` region.
pub fn cell_occupancy(positions: &[Point], side: f64, cells: usize) -> Vec<usize> {
    assert!(cells > 0, "need at least one cell per axis");
    assert!(side > 0.0, "side must be positive");
    let mut counts = vec![0usize; cells * cells];
    let w = side / cells as f64;
    for &(x, y) in positions {
        let cx = ((x / w) as usize).min(cells - 1);
        let cy = ((y / w) as usize).min(cells - 1);
        counts[cy * cells + cx] += 1;
    }
    counts
}

/// Pearson chi-squared statistic of the occupancy counts against the uniform
/// expectation. Under uniformity its expected value is about the number of
/// cells minus one.
pub fn chi_squared_uniform(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 0.0;
    }
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// Total-variation distance between the empirical occupancy distribution and
/// the uniform distribution over cells.
pub fn tv_from_uniform(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 0.0;
    }
    let uniform = 1.0 / counts.len() as f64;
    0.5 * counts
        .iter()
        .map(|&c| (c as f64 / total as f64 - uniform).abs())
        .sum::<f64>()
}

/// Ratio between the largest and smallest cell occupancy (`∞` if some cell is
/// empty). Claim 1 of the paper asserts this ratio is bounded by a constant
/// `λ²` w.h.p. when cells have side ~`R ≥ c√(log n)`.
pub fn max_min_ratio(counts: &[usize]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let min = counts.iter().copied().min().unwrap_or(0) as f64;
    if min == 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Summary of a uniformity measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UniformityReport {
    /// Number of cells per axis used for the measurement.
    pub cells_per_axis: usize,
    /// Chi-squared statistic against uniformity.
    pub chi_squared: f64,
    /// Total-variation distance from the uniform cell distribution.
    pub tv_distance: f64,
    /// Max/min cell-occupancy ratio.
    pub max_min_ratio: f64,
}

/// Runs `steps` mobility steps (after a stationary redraw) while accumulating
/// cell occupancy, then reports the uniformity statistics.
pub fn measure_uniformity<M: Mobility, R: Rng>(
    model: &mut M,
    cells_per_axis: usize,
    steps: usize,
    rng: &mut R,
) -> UniformityReport {
    model.sample_stationary(rng);
    let side = model.region().side();
    let mut counts = vec![0usize; cells_per_axis * cells_per_axis];
    for _ in 0..steps.max(1) {
        model.advance(rng);
        for (acc, c) in
            counts
                .iter_mut()
                .zip(cell_occupancy(model.positions(), side, cells_per_axis))
        {
            *acc += c;
        }
    }
    UniformityReport {
        cells_per_axis,
        chi_squared: chi_squared_uniform(&counts),
        tv_distance: tv_from_uniform(&counts),
        max_min_ratio: max_min_ratio(&counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_walk::GridWalkParams;
    use crate::{Billiard, GridWalk, RandomWaypoint, TorusWalkers};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn occupancy_counts_positions_correctly() {
        let pos = [(0.1, 0.1), (0.9, 0.9), (0.95, 0.05), (0.4, 0.6)];
        let counts = cell_occupancy(&pos, 1.0, 2);
        // cells: [ (0,0)=lower-left, (1,0)=lower-right, (0,1)=upper-left, (1,1) ]
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert_eq!(counts[0], 1); // (0.1, 0.1)
        assert_eq!(counts[1], 1); // (0.95, 0.05)
        assert_eq!(counts[2], 1); // (0.4, 0.6)
        assert_eq!(counts[3], 1); // (0.9, 0.9)
    }

    #[test]
    fn perfectly_uniform_counts_have_zero_statistics() {
        let counts = vec![10usize; 16];
        assert_eq!(chi_squared_uniform(&counts), 0.0);
        assert_eq!(tv_from_uniform(&counts), 0.0);
        assert_eq!(max_min_ratio(&counts), 1.0);
    }

    #[test]
    fn concentrated_counts_have_large_statistics() {
        let mut counts = vec![0usize; 4];
        counts[0] = 100;
        assert!(chi_squared_uniform(&counts) > 100.0);
        assert!((tv_from_uniform(&counts) - 0.75).abs() < 1e-12);
        assert_eq!(max_min_ratio(&counts), f64::INFINITY);
    }

    #[test]
    fn empty_input_is_harmless() {
        assert_eq!(chi_squared_uniform(&[]), 0.0);
        assert_eq!(tv_from_uniform(&[]), 0.0);
        assert_eq!(cell_occupancy(&[], 1.0, 3).iter().sum::<usize>(), 0);
    }

    #[test]
    fn all_models_are_roughly_uniform_at_coarse_cell_scale() {
        // 3×3 cells, many nodes: every model the paper lists should have a
        // bounded max/min occupancy ratio and small TV distance.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 2_000usize;
        let side = 30.0;

        let mut grid = GridWalk::new(
            GridWalkParams {
                n,
                side,
                move_radius: 2.0,
                resolution: 1.0,
            },
            &mut rng,
        );
        let mut walkers = TorusWalkers::new(n, side, 2.0, 1.0, &mut rng);
        let mut waypoint = RandomWaypoint::new(n, side, 1.0, 3.0, &mut rng);
        let mut billiard = Billiard::new(n, side, 1.0, 3.0, 0.1, &mut rng);

        let reports = [
            ("grid", measure_uniformity(&mut grid, 3, 5, &mut rng)),
            ("walkers", measure_uniformity(&mut walkers, 3, 5, &mut rng)),
            (
                "waypoint",
                measure_uniformity(&mut waypoint, 3, 5, &mut rng),
            ),
            (
                "billiard",
                measure_uniformity(&mut billiard, 3, 5, &mut rng),
            ),
        ];
        for (name, report) in reports {
            assert!(
                report.tv_distance < 0.08,
                "{name}: TV distance {} too large",
                report.tv_distance
            );
            assert!(
                report.max_min_ratio < 1.6,
                "{name}: max/min ratio {} too large",
                report.max_min_ratio
            );
            assert_eq!(report.cells_per_axis, 3);
        }
    }
}
