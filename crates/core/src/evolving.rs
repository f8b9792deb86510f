//! The evolving-graph abstraction.
//!
//! Definition 2.1 (and its generalisation, Definition 3.1) of the paper: an
//! evolving graph is a sequence of random graphs `{G_t : t ∈ ℕ}` over a fixed
//! node set, obtained as a function of an underlying Markov chain. A
//! *stationary* Markovian evolving graph starts the chain from its stationary
//! distribution, so every snapshot has the same marginal law.
//!
//! The [`EvolvingGraph`] trait captures exactly what the flooding process
//! needs: the number of nodes and the ability to produce the snapshot of the
//! next time step. Every model owns a reusable
//! [`SnapshotBuf`] — a flat CSR buffer — and
//! [`advance`](EvolvingGraph::advance) **fills it in place** instead of
//! rebuilding a per-node allocation structure, so stepping the graph performs
//! no heap allocation once the buffer capacities have warmed up (the
//! workspace's hot-path invariant; see `docs/ARCHITECTURE.md`). Model crates
//! (`meg-geometric`, `meg-edge`) implement the trait; [`FrozenGraph`] adapts
//! any static graph so that static flooding (= BFS) is a special case handled
//! by the same engine.

use meg_graph::{AdjacencyList, Graph, NodeSet, SnapshotBuf};

/// How the underlying Markov chain is initialised at time 0.
///
/// The paper's results concern [`InitialDistribution::Stationary`]; the other
/// variants exist to reproduce the worst-case comparisons of Section 1 (the
/// "exponential gap" between stationary and worst-case flooding in edge-MEG).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialDistribution {
    /// Draw `G_0` from the stationary distribution of the chain
    /// ("perfect simulation").
    Stationary,
    /// Start from the empty graph (every edge absent / an arbitrary worst-case
    /// start for sparse regimes).
    Empty,
    /// Start from the complete graph (every edge present).
    Full,
}

/// How an edge-MEG realises the per-edge two-state chains each round: one
/// Bernoulli draw per pair per round, the only mode.
///
/// Kept only because `perfbench/src/trace.rs` still passes it to
/// `SparseEdgeMeg::with_stepping`; the next benchmark change deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stepping {
    /// One Bernoulli draw per pair per round.
    PerPair,
}

/// A dynamic graph process over a fixed node set `[n]`.
///
/// Implementations own their randomness **and their snapshot storage**: each
/// call to [`advance`](EvolvingGraph::advance) draws the next snapshot `G_t`
/// *into* the model-owned [`SnapshotBuf`] and returns a view of it. The first
/// call returns `G_0`, the second `G_1`, and so on;
/// [`time`](EvolvingGraph::time) reports how many snapshots have been
/// produced so far. The returned reference is invalidated by the next
/// `advance` — consumers that need to keep a snapshot clone it (cheap: two
/// flat vectors).
pub trait EvolvingGraph {
    /// Number of nodes `n`; constant over time.
    fn num_nodes(&self) -> usize;

    /// Produces the next snapshot `G_t`, `t` = [`time`](EvolvingGraph::time)
    /// before the call, filling the model-owned buffer in place.
    ///
    /// Models step their chain lazily: from the second call on, each call
    /// moves the state from `t − 1` to `t` before it builds `G_t`. So `k` calls take
    /// `k − 1` steps, no step is drawn past the last snapshot a caller
    /// reads, and between calls the model's state is the one the returned
    /// snapshot shows.
    fn advance(&mut self) -> &SnapshotBuf;

    /// [`advance`](EvolvingGraph::advance) for a caller that reads only the
    /// rows in `rows` (every row when `None`) of the returned snapshot.
    ///
    /// The model's state moves exactly as under `advance`, and every row in
    /// `rows` equals its row in a full build, in order. A model may leave
    /// the other rows empty; the snapshot is then partial
    /// ([`SnapshotBuf::build_rows_of`]) and its edge count unknown. The
    /// default builds everything.
    fn advance_rows(&mut self, _rows: Option<&NodeSet>) -> &SnapshotBuf {
        self.advance()
    }

    /// Number of snapshots produced so far (i.e. the index of the *next*
    /// snapshot that [`advance`](EvolvingGraph::advance) will return).
    fn time(&self) -> u64;
}

/// Adapter that turns a static graph into a (constant) evolving graph.
///
/// Flooding on a `FrozenGraph` is exactly BFS from the source, which gives the
/// reference behaviour every dynamic model is tested against, and also models
/// the "static stationary graph" the paper compares mobility against. The
/// snapshot buffer is filled once at construction (preserving the adjacency
/// list's exact neighbor order) and `advance` only bumps the clock.
#[derive(Clone, Debug)]
pub struct FrozenGraph {
    graph: AdjacencyList,
    snapshot: SnapshotBuf,
    time: u64,
}

impl FrozenGraph {
    /// Wraps a static graph.
    pub fn new(graph: AdjacencyList) -> Self {
        let mut snapshot = SnapshotBuf::new();
        snapshot.copy_from_adjacency(&graph);
        FrozenGraph {
            graph,
            snapshot,
            time: 0,
        }
    }

    /// Borrows the underlying static graph.
    pub fn graph(&self) -> &AdjacencyList {
        &self.graph
    }
}

impl EvolvingGraph for FrozenGraph {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn advance(&mut self) -> &SnapshotBuf {
        self.time += 1;
        &self.snapshot
    }

    fn time(&self) -> u64 {
        self.time
    }
}

/// An evolving graph defined by an explicit, finite schedule of snapshots that
/// repeats cyclically. Used in tests to script exact dynamic scenarios
/// (e.g. "the bridge edge exists only at even steps").
#[derive(Clone, Debug)]
pub struct ScheduledGraph {
    /// Snapshot buffers converted once at construction (neighbor order
    /// preserved), so `advance` is a zero-cost borrow like `FrozenGraph`.
    snapshots: Vec<SnapshotBuf>,
    time: u64,
}

impl ScheduledGraph {
    /// Creates a scheduled evolving graph. Panics if the schedule is empty or
    /// the snapshots disagree on the number of nodes.
    pub fn new(snapshots: Vec<AdjacencyList>) -> Self {
        assert!(
            !snapshots.is_empty(),
            "schedule must contain at least one snapshot"
        );
        let n = snapshots[0].num_nodes();
        assert!(
            snapshots.iter().all(|g| g.num_nodes() == n),
            "all snapshots must share the node set"
        );
        let snapshots = snapshots
            .iter()
            .map(|g| {
                let mut buf = SnapshotBuf::new();
                buf.copy_from_adjacency(g);
                buf
            })
            .collect();
        ScheduledGraph { snapshots, time: 0 }
    }

    /// Length of one period of the schedule.
    pub fn period(&self) -> usize {
        self.snapshots.len()
    }
}

impl EvolvingGraph for ScheduledGraph {
    fn num_nodes(&self) -> usize {
        self.snapshots[0].num_nodes()
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let idx = (self.time % self.snapshots.len() as u64) as usize;
        self.time += 1;
        &self.snapshots[idx]
    }

    fn time(&self) -> u64 {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meg_graph::generators;

    #[test]
    fn frozen_graph_returns_same_snapshot_forever() {
        let mut f = FrozenGraph::new(generators::cycle(5));
        assert_eq!(f.num_nodes(), 5);
        assert_eq!(f.time(), 0);
        let e0 = f.advance().num_edges();
        let e1 = f.advance().num_edges();
        assert_eq!(e0, 5);
        assert_eq!(e0, e1);
        assert_eq!(f.time(), 2);
        assert_eq!(f.graph().num_edges(), 5);
    }

    #[test]
    fn frozen_snapshot_preserves_neighbor_order_exactly() {
        let mut g = AdjacencyList::new(4);
        g.add_edge(2, 0);
        g.add_edge(0, 3);
        g.add_edge(1, 0);
        let mut f = FrozenGraph::new(g.clone());
        let snap = f.advance();
        for u in 0..4u32 {
            assert_eq!(snap.neighbors(u), g.neighbors(u), "node {u}");
        }
    }

    #[test]
    fn scheduled_graph_cycles_through_snapshots() {
        let a = generators::path(4); // 3 edges
        let b = generators::complete(4); // 6 edges
        let mut s = ScheduledGraph::new(vec![a, b]);
        assert_eq!(s.period(), 2);
        assert_eq!(s.advance().num_edges(), 3);
        assert_eq!(s.advance().num_edges(), 6);
        assert_eq!(s.advance().num_edges(), 3);
        assert_eq!(s.time(), 3);
    }

    #[test]
    #[should_panic]
    fn scheduled_graph_rejects_mismatched_node_sets() {
        ScheduledGraph::new(vec![generators::path(3), generators::path(4)]);
    }

    #[test]
    #[should_panic]
    fn scheduled_graph_rejects_empty_schedule() {
        ScheduledGraph::new(Vec::new());
    }
}
