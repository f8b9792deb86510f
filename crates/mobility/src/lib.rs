//! # meg-mobility
//!
//! Node-mobility models for geometric Markovian evolving graphs.
//!
//! The paper analyses the discrete random-walk model (nodes walk on the grid
//! `L_{n,ε}` inside a `√n × √n` square, Section 3) and notes that its
//! expansion argument only needs the stationary distribution of node positions
//! to be (almost) uniform — so it extends to the random waypoint model on a
//! torus, the random-direction/billiard model, and the walkers model on a
//! toroidal grid. This crate implements all of them behind one trait:
//!
//! * [`GridWalk`] — the paper's model (reflecting square,
//!   stationary law `π(x) ∝ |Γ(x)|`);
//! * [`TorusWalkers`] — the walkers model on a toroidal
//!   grid (uniform stationary law);
//! * [`RandomWaypoint`] — waypoint mobility on a
//!   torus (uniform stationary law in the zero-pause regime);
//! * [`Billiard`] — random direction with reflection
//!   (uniform stationary law).
//!
//! [`stationary`] provides the occupancy-uniformity diagnostics the
//! `mobility_models` example reports.
//!
//! ## Example
//!
//! ```
//! use meg_mobility::{grid_walk::GridWalkParams, GridWalk, Mobility};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(2009);
//! // 100 stations on a 10×10 square, move radius 2, unit grid resolution
//! // (the paper's model, started from its stationary distribution).
//! let params = GridWalkParams { n: 100, side: 10.0, move_radius: 2.0, resolution: 1.0 };
//! let mut walk = GridWalk::new(params, &mut rng);
//! assert_eq!(walk.num_nodes(), 100);
//!
//! let before = walk.positions().to_vec();
//! walk.advance(&mut rng);
//! let moved = meg_mobility::traits::max_displacement(&before, &walk);
//! assert!(moved <= walk.max_step_distance() + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billiard;
pub mod grid_walk;
pub mod space;
pub mod stationary;
pub mod traits;
pub mod walkers;
pub mod waypoint;

pub use billiard::Billiard;
pub use grid_walk::GridWalk;
pub use space::{Point, Region};
pub use traits::Mobility;
pub use walkers::TorusWalkers;
pub use waypoint::RandomWaypoint;
