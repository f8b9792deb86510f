//! # meg-geometric
//!
//! Geometric Markovian evolving graphs (Section 3 of the paper): `n` mobile
//! radio stations move in a planar region according to a mobility model, and
//! at every time step two stations are connected iff they are within
//! transmission radius `R`.
//!
//! * [`GeometricMeg`] — the evolving graph itself,
//!   generic over any [`Mobility`](meg_mobility::Mobility) model (the paper's
//!   grid random walk, walkers on a torus, random waypoint, billiard);
//! * [`radius_graph`](radius_graph::radius_graph) — snapshot construction via
//!   a uniform cell grid (square or toroidal metric);
//! * [`cells`] — the `⌈√(5n)/R⌉ × ⌈√(5n)/R⌉` cell-partition machinery used in
//!   the proof of Theorem 3.2 (occupancy concentration, black/gray/white
//!   classification), exposed so the experiments can measure exactly the
//!   quantities the proof manipulates;
//! * [`snapshot`] — one-shot stationary snapshots for expansion and
//!   connectivity experiments that do not need the full dynamics.
//!
//! ## Example
//!
//! ```
//! use meg_core::flooding::flood;
//! use meg_geometric::{GeometricMeg, GeometricMegParams};
//!
//! // 300 stations, move radius r = R/2, transmission radius R above the
//! // connectivity threshold — the regime of Corollary 3.6.
//! let n = 300;
//! let radius = 2.0 * (n as f64).ln().sqrt();
//! let params = GeometricMegParams::new(n, radius / 2.0, radius);
//! let mut meg = GeometricMeg::from_params(params, 2009);
//! let result = flood(&mut meg, 0, 10_000);
//! let time = result.completion_time().expect("connected regime floods");
//! assert!(time >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod model;
pub mod radius_graph;
pub mod snapshot;

pub use model::{GeometricMeg, GeometricMegParams};
pub use radius_graph::radius_graph;
