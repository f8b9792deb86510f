//! # meg — Information Spreading in Stationary Markovian Evolving Graphs
//!
//! An implementation and experimental reproduction of
//! A. Clementi, A. Monti, F. Pasquale, R. Silvestri,
//! *"Information Spreading in Stationary Markovian Evolving Graphs"*
//! (IEEE IPDPS 2009; full version arXiv:1103.0741).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`graph`] | static-graph substrate: adjacency lists, flat CSR snapshot buffers, node sets, BFS, connectivity, diameter, expansion measurement, generators |
//! | [`markov`] | the two-state edge chain of Section 4 and its word-at-a-time stepper |
//! | [`stats`] | experiment substrate: summaries, quantiles, scaling fits, goodness-of-fit tests, tables, seeded parallel trial runner |
//! | [`mobility`] | node-mobility models: grid random walk (the paper's model), walkers on a torus, random waypoint, billiard |
//! | [`core`] | the paper's contribution: evolving-graph traits, the flooding process, expander sequences and bound evaluators, closed-form bounds, protocol variants, adversarial constructions |
//! | [`geometric`] | geometric-MEG: mobility + transmission radius, cell-partition machinery of Theorem 3.2 |
//! | [`edge`] | edge-MEG: dense and sparse per-edge two-state chain engines |
//! | [`engine`] | declarative scenario engine: experiments as data (substrates × protocols × sweep grid), JSON round-tripping, output sinks, built-in scenarios, the `meg-lab` CLI |
//! | [`obs`] | zero-overhead-when-off instrumentation: counters, per-round gauges, span timings, metrics reports |
//!
//! ## Quick start
//!
//! ```
//! use meg::prelude::*;
//!
//! // A stationary edge-MEG just above the connectivity threshold.
//! let n = 500;
//! let p_hat = 3.0 * (n as f64).ln() / n as f64;
//! let params = EdgeMegParams::with_stationary(n, p_hat, 0.5);
//! let mut evolving = SparseEdgeMeg::stationary(params, 42);
//!
//! // Flood from node 0 and compare with the paper's Theorem 4.3 shape.
//! let result = flood(&mut evolving, 0, 10_000);
//! let time = result.completion_time().expect("connected regime floods");
//! let bounds = params.bounds();
//! assert!((time as f64) <= 10.0 * bounds.upper_shape());
//! assert!(time >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use meg_core as core;
pub use meg_edge as edge;
pub use meg_engine as engine;
pub use meg_geometric as geometric;
pub use meg_graph as graph;
pub use meg_markov as markov;
pub use meg_mobility as mobility;
pub use meg_obs as obs;
pub use meg_stats as stats;

/// The most commonly used items, importable with `use meg::prelude::*`.
pub mod prelude {
    pub use meg_core::adversarial::{RotatingBridge, RotatingStar};
    pub use meg_core::bounds::{EdgeBounds, GeometricBounds};
    pub use meg_core::evolving::{EvolvingGraph, FrozenGraph, InitialDistribution, ScheduledGraph};
    pub use meg_core::expansion::ExpanderSequence;
    pub use meg_core::flooding::{flood, flood_static};
    pub use meg_core::protocols::{
        parsimonious_flood, probabilistic_flood, push_pull_gossip, ProtocolResult,
    };
    pub use meg_core::spec;
    pub use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg};
    pub use meg_engine::{
        builtin, run_scenario, OutputFormat, Param, Protocol, Scenario, Substrate, Sweep,
    };
    pub use meg_geometric::{GeometricMeg, GeometricMegParams};
    pub use meg_graph::{AdjacencyList, Graph, Node, NodeSet};
    pub use meg_markov::TwoStateChain;
    pub use meg_mobility::{Billiard, GridWalk, Mobility, RandomWaypoint, TorusWalkers};
    pub use meg_stats::{Summary, Table};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let params = EdgeMegParams::with_stationary(120, 0.1, 0.5);
        let mut meg = DenseEdgeMeg::stationary(params, 0);
        let r = flood(&mut meg, 3, 500);
        assert!(r.completed);
    }
}
