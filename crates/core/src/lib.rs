//! # meg-core
//!
//! The primary contribution of Clementi, Monti, Pasquale and Silvestri,
//! *"Information Spreading in Stationary Markovian Evolving Graphs"*
//! (IEEE IPDPS 2009): a framework for analysing the **flooding time** of
//! dynamic graphs whose evolution is governed by a Markov chain observed in
//! its stationary regime.
//!
//! The crate provides:
//!
//! * [`evolving`] — the [`EvolvingGraph`] trait that
//!   every dynamic-graph model implements (geometric-MEG, edge-MEG,
//!   adversarial constructions, frozen static graphs);
//! * [`flooding`] — the flooding process itself (Section 2 of the paper) on
//!   any evolving graph, run on the protocol layer's flooding machine;
//! * [`expansion`] — parameterized `(h, k)` expander sequences and the bound
//!   evaluators of Lemma 2.4, Theorem 2.5 and Corollary 2.6;
//! * [`bounds`] — the closed-form upper and lower bounds the paper proves for
//!   geometric-MEG (Theorems 3.4, 3.5) and edge-MEG (Theorems 4.3, 4.4);
//! * [`spec`] — the parameter-regime predicates under which each theorem
//!   applies (connectivity thresholds, tightness conditions);
//! * [`protocols`] — protocol variants built on the same machinery
//!   (probabilistic flooding, parsimonious flooding, push–pull gossip);
//! * [`adversarial`] — evolving graphs that separate diameter from flooding
//!   time (the Introduction's "diameter 3 yet flooding Θ(n)" phenomenon);
//! * [`analysis`] — measurement of empirical expansion sequences of an
//!   evolving graph, bridging simulation and the general theorem.
//!
//! ## Example
//!
//! Flooding a static graph (an evolving graph frozen in time) agrees with
//! BFS eccentricity, and Lemma 2.4's expander-sequence bound dominates it:
//!
//! ```
//! use meg_core::expansion::ExpanderSequence;
//! use meg_core::flooding::flood_static;
//! use meg_graph::AdjacencyList;
//!
//! // A 6-cycle: flooding from any source needs exactly ⌈6/2⌉ = 3 rounds.
//! let g = AdjacencyList::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
//! let result = flood_static(&g, 0);
//! assert_eq!(result.completion_time(), Some(3));
//!
//! // Every size-h subset of a cycle has at least 2 outside neighbors … use
//! // the trivial expansion k(h) = 1 as a valid (weaker) expander sequence.
//! let seq = ExpanderSequence::new(6, vec![1, 3], vec![1.0, 1.0]).unwrap();
//! assert!(seq.flooding_bound() >= 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod analysis;
pub mod bounds;
pub mod evolving;
pub mod expansion;
pub mod flooding;
pub mod protocols;
pub mod spec;

pub use evolving::{EvolvingGraph, FrozenGraph, InitialDistribution};
pub use expansion::ExpanderSequence;
pub use flooding::{flood, flood_static};
