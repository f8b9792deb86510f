//! The cell-partition machinery from the proof of Theorem 3.2.
//!
//! The proof tiles the `√n × √n` square into `m × m` congruent cells with
//! `m = ⌈√(5n)/R⌉`, so that the cell side lies in `[R/(√5+1), R/√5]` and any
//! two nodes in side-by-side adjacent cells are within distance `R`. Claim 1
//! shows every cell holds `Θ(R²)` nodes w.h.p.; Claims 2 and 3 turn that
//! occupancy into the two expansion regimes via a black/gray/white cell
//! classification. This module exposes those objects so experiments can
//! measure them directly.

use meg_graph::NodeSet;
use meg_mobility::space::Point;

/// The `m × m` cell partition of a square of side `side` used by Theorem 3.2.
#[derive(Clone, Debug)]
pub struct CellPartition {
    side: f64,
    cells_per_axis: usize,
    cell_side: f64,
}

/// Classification of a cell relative to a node subset `I` (proof of Claim 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellColor {
    /// Contains at least one node of `I`.
    Black,
    /// Contains at least one node, none of them in `I`.
    White,
    /// Contains no node at all (possible only below the occupancy threshold).
    EmptyCell,
}

impl CellPartition {
    /// Builds the partition for an `n`-node, density-1 instance with
    /// transmission radius `radius`: `m = ⌈√(5n)/R⌉` cells per axis.
    pub fn for_paper_instance(n: usize, radius: f64) -> Self {
        assert!(n > 0 && radius > 0.0);
        let side = (n as f64).sqrt();
        let m = ((5.0 * n as f64).sqrt() / radius).ceil().max(1.0) as usize;
        CellPartition {
            side,
            cells_per_axis: m,
            cell_side: side / m as f64,
        }
    }

    /// Builds a partition with an explicit number of cells per axis.
    pub fn with_cells(side: f64, cells_per_axis: usize) -> Self {
        assert!(side > 0.0 && cells_per_axis > 0);
        CellPartition {
            side,
            cells_per_axis,
            cell_side: side / cells_per_axis as f64,
        }
    }

    /// Side length of the partitioned square.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of cells per axis `m`.
    pub fn cells_per_axis(&self) -> usize {
        self.cells_per_axis
    }

    /// Total number of cells `m²`.
    pub fn num_cells(&self) -> usize {
        self.cells_per_axis * self.cells_per_axis
    }

    /// Side length of each cell.
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// Cell index `(column, row)` of a position.
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let cx = ((p.0 / self.cell_side) as usize).min(self.cells_per_axis - 1);
        let cy = ((p.1 / self.cell_side) as usize).min(self.cells_per_axis - 1);
        (cx, cy)
    }

    /// Linear index of a cell.
    pub fn linear_index(&self, cell: (usize, usize)) -> usize {
        cell.1 * self.cells_per_axis + cell.0
    }

    /// Occupancy counts `N_{i,j}` for all cells (linear indexing).
    pub fn occupancy(&self, positions: &[Point]) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_cells()];
        for &p in positions {
            counts[self.linear_index(self.cell_of(p))] += 1;
        }
        counts
    }

    /// Checks Claim 1: every cell holds between `R²/λ` and `λR²` nodes.
    /// Returns the smallest `λ ≥ 1` for which the claim holds, or `None` if
    /// some cell is empty (no finite `λ` works).
    pub fn occupancy_concentration(&self, positions: &[Point], radius: f64) -> Option<f64> {
        let counts = self.occupancy(positions);
        let min = *counts.iter().min()? as f64;
        let max = *counts.iter().max()? as f64;
        if min == 0.0 {
            return None;
        }
        let r2 = radius * radius;
        Some((max / r2).max(r2 / min).max(1.0))
    }

    /// Colors every cell relative to the node subset `set` (Claim 3's
    /// black/white classification; cells holding no node at all are reported
    /// separately).
    pub fn classify(&self, positions: &[Point], set: &NodeSet) -> Vec<CellColor> {
        let mut has_any = vec![false; self.num_cells()];
        let mut has_black = vec![false; self.num_cells()];
        for (node, &p) in positions.iter().enumerate() {
            let idx = self.linear_index(self.cell_of(p));
            has_any[idx] = true;
            if set.contains(node as u32) {
                has_black[idx] = true;
            }
        }
        has_any
            .iter()
            .zip(has_black.iter())
            .map(|(&any, &black)| {
                if black {
                    CellColor::Black
                } else if any {
                    CellColor::White
                } else {
                    CellColor::EmptyCell
                }
            })
            .collect()
    }

    /// Counts fully black rows and columns (used in the case analysis of
    /// Claim 3). Returns `(black_rows, black_columns)`.
    pub fn black_lines(&self, colors: &[CellColor]) -> (usize, usize) {
        let m = self.cells_per_axis;
        assert_eq!(colors.len(), m * m);
        let is_black = |x: usize, y: usize| colors[y * m + x] == CellColor::Black;
        let black_rows = (0..m).filter(|&y| (0..m).all(|x| is_black(x, y))).count();
        let black_cols = (0..m).filter(|&x| (0..m).all(|y| is_black(x, y))).count();
        (black_rows, black_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_partition_dimensions() {
        // Cell side must lie in [R/(√5+1), R/√5].
        for (n, radius) in [(400usize, 5.0f64), (1_000, 8.0), (10_000, 12.0)] {
            let p = CellPartition::for_paper_instance(n, radius);
            let lo = radius / (5f64.sqrt() + 1.0);
            let hi = radius / 5f64.sqrt();
            assert!(
                p.cell_side() >= lo - 1e-9 && p.cell_side() <= hi + 1e-9,
                "n={n} R={radius}: cell side {} outside [{lo}, {hi}]",
                p.cell_side()
            );
        }
    }

    #[test]
    fn cell_indexing_covers_the_square() {
        let p = CellPartition::with_cells(10.0, 4);
        assert_eq!(p.num_cells(), 16);
        assert_eq!(p.cell_of((0.0, 0.0)), (0, 0));
        assert_eq!(p.cell_of((9.99, 9.99)), (3, 3));
        assert_eq!(
            p.cell_of((10.0, 10.0)),
            (3, 3),
            "boundary clamps into the last cell"
        );
        assert_eq!(p.cell_of((2.6, 7.4)), (1, 2));
        assert_eq!(p.linear_index((1, 2)), 9);
    }

    #[test]
    fn occupancy_counts_sum_to_n() {
        let p = CellPartition::with_cells(4.0, 2);
        let pos = [(0.5, 0.5), (3.5, 0.5), (0.5, 3.5), (3.9, 3.9), (1.0, 1.0)];
        let occ = p.occupancy(&pos);
        assert_eq!(occ.iter().sum::<usize>(), 5);
        assert_eq!(occ, vec![2, 1, 1, 1]);
    }

    #[test]
    fn concentration_detects_empty_cells_and_balanced_cells() {
        let p = CellPartition::with_cells(4.0, 2);
        // one cell empty
        let sparse = [(0.5, 0.5), (3.5, 0.5), (0.5, 3.5)];
        assert_eq!(p.occupancy_concentration(&sparse, 2.0), None);
        // perfectly balanced: 1 node per cell, R² = 4 → λ = max(1/4·... ) = 4
        let balanced = [(0.5, 0.5), (3.5, 0.5), (0.5, 3.5), (3.5, 3.5)];
        let lambda = p.occupancy_concentration(&balanced, 2.0).unwrap();
        assert!((lambda - 4.0).abs() < 1e-12);
    }

    #[test]
    fn classification_and_black_lines() {
        let p = CellPartition::with_cells(4.0, 2);
        let pos = [(0.5, 0.5), (3.5, 0.5), (0.5, 3.5), (3.5, 3.5)];
        // nodes 0 and 1 are in the bottom row of cells
        let set = NodeSet::from_iter(4, [0u32, 1]);
        let colors = p.classify(&pos, &set);
        assert_eq!(colors[0], CellColor::Black);
        assert_eq!(colors[1], CellColor::Black);
        assert_eq!(colors[2], CellColor::White);
        assert_eq!(colors[3], CellColor::White);
        let (rows, cols) = p.black_lines(&colors);
        assert_eq!(rows, 1);
        assert_eq!(cols, 0);
        // empty cells are reported as such
        let colors2 = p.classify(&pos[..2], &NodeSet::from_iter(2, [0u32]));
        assert_eq!(colors2[2], CellColor::EmptyCell);
        assert_eq!(colors2[3], CellColor::EmptyCell);
    }
}
