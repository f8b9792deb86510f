//! # meg-edge
//!
//! Edge-Markovian evolving graphs (Section 4 of the paper): every one of the
//! `C(n, 2)` potential edges evolves as an independent two-state Markov chain
//! with birth rate `p` and death rate `q`. The stationary snapshot is the
//! Erdős–Rényi graph `G(n, p̂)` with `p̂ = p/(p+q)`.
//!
//! Two evolution engines implement the same model:
//!
//! * [`DenseEdgeMeg`] — one bit of state per potential
//!   edge, `O(n²)` work per step; exact and simple, the reference engine.
//! * [`SparseEdgeMeg`] — stores only the alive edges
//!   and samples births by geometric skip-sampling over the pair indices, so a
//!   step costs `O(m_alive + births)`; this is what makes the sparse regimes
//!   (`p̂ = Θ(log n / n)`, `n` up to 10⁵⁻⁶) tractable.
//!
//! Both engines step every pair's chain every round and fill the snapshot's
//! CSR straight from the ascending alive pair indices. They consume
//! randomness differently, so trajectories at equal seeds differ; the
//! `chain_laws` test suite checks both against the chain's closed-form laws
//! and against each other.
//!
//! [`init`] provides the stationary / empty / full initialisations used by the
//! stationary-vs-worst-case gap experiments.
//!
//! ## Example
//!
//! The dense and sparse engines implement the same model; under the same
//! parameters and budget both flood completely in the connected regime:
//!
//! ```
//! use meg_core::flooding::flood;
//! use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg};
//!
//! let n = 400;
//! let p_hat = 3.0 * (n as f64).ln() / n as f64;
//! let params = EdgeMegParams::with_stationary(n, p_hat, 0.5);
//!
//! let dense_time = flood(&mut DenseEdgeMeg::stationary(params, 7), 0, 10_000)
//!     .completion_time()
//!     .expect("dense engine floods");
//! let sparse_time = flood(&mut SparseEdgeMeg::stationary(params, 7), 0, 10_000)
//!     .completion_time()
//!     .expect("sparse engine floods");
//! // Same model ⇒ same order of magnitude (a few rounds above threshold).
//! assert!(dense_time <= 20 && sparse_time <= 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod init;
pub mod model;
pub mod sparse;

pub use dense::DenseEdgeMeg;
pub use model::EdgeMegParams;
pub use sparse::SparseEdgeMeg;
