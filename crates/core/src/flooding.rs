//! The flooding process (Section 2 of the paper).
//!
//! Flooding is the simplest information-dissemination mechanism: once a node
//! holds the source message it forwards it to *all* of its current neighbors
//! at every subsequent time step. On an evolving graph `{G_t}` the informed
//! set therefore evolves as
//!
//! ```text
//! I_0     = {source}
//! I_{t+1} = I_t ∪ N_{G_t}(I_t)
//! ```
//!
//! and the *flooding time* `T(s)` is the first step at which `I_t = [n]`
//! (maximised over sources `s` when the worst case is wanted).
//!
//! The round itself is [`FloodMachine`]'s `step` at β = 1, the same kernel
//! the engine runs for every `flooding` row; this module only wraps it for
//! callers that want plain flooding on any [`EvolvingGraph`] and returns the
//! protocol layer's [`ProtocolResult`].

use crate::evolving::{EvolvingGraph, FrozenGraph};
use crate::protocols::{run_machine, FloodMachine, ProtocolResult};
use meg_graph::{Graph, Node};
use rand::rngs::mock::StepRng;

/// Runs flooding from `source` on `meg` for at most `max_rounds` rounds.
///
/// Panics if `source` is out of range.
pub fn flood<M: EvolvingGraph>(meg: &mut M, source: Node, max_rounds: u64) -> ProtocolResult {
    let mut machine = FloodMachine::new(meg.num_nodes(), source, 1.0);
    // β = 1 draws no randomness, so the generator is never touched.
    run_machine(meg, &mut machine, max_rounds, &mut StepRng::new(0, 0)).into_protocol_result()
}

/// Flooding on a static graph (BFS semantics). The flooding time equals the
/// eccentricity of the source when the graph is connected; on a
/// disconnected graph the run stops uncompleted after `n − 1` rounds.
pub fn flood_static(graph: &meg_graph::AdjacencyList, source: Node) -> ProtocolResult {
    let budget = graph.num_nodes().saturating_sub(1).max(1) as u64;
    flood(&mut FrozenGraph::new(graph.clone()), source, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::ScheduledGraph;
    use meg_graph::{generators, AdjacencyList};

    #[test]
    fn static_flooding_equals_eccentricity() {
        let g = generators::path(6);
        let r = flood_static(&g, 0);
        assert!(r.completed);
        assert_eq!(r.completion_time(), Some(5));
        assert_eq!(r.informed_per_round, vec![1, 2, 3, 4, 5, 6]);
        let r_mid = flood_static(&g, 3);
        assert_eq!(r_mid.completion_time(), Some(3));
        assert_eq!(r_mid.informed_count(), 6);
    }

    #[test]
    fn static_flooding_worst_case_is_diameter() {
        for g in [
            generators::path(9),
            generators::cycle(9),
            generators::grid2d(4, 5),
        ] {
            let diam = meg_graph::diameter::exact(&g).finite().unwrap() as u64;
            let worst = (0..g.num_nodes() as Node)
                .map(|s| flood_static(&g, s).completion_time().unwrap())
                .max();
            assert_eq!(worst, Some(diam));
        }
    }

    #[test]
    fn disconnected_static_graph_stalls() {
        let g = AdjacencyList::from_edges(5, [(0, 1), (2, 3)]);
        let r = flood_static(&g, 0);
        assert!(!r.completed);
        assert_eq!(r.completion_time(), None);
        assert_eq!(r.rounds, 4, "the n − 1 round budget runs out");
        assert_eq!(r.informed_count(), 2);
    }

    #[test]
    fn single_node_graph_completes_instantly() {
        let g = AdjacencyList::new(1);
        let r = flood_static(&g, 0);
        assert!(r.completed);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.completion_time(), Some(0));
    }

    #[test]
    fn complete_graph_floods_in_one_round() {
        let g = generators::complete(20);
        let r = flood_static(&g, 7);
        assert_eq!(r.completion_time(), Some(1));
        assert_eq!(r.informed_per_round, vec![1, 20]);
        assert_eq!(r.messages_sent, 19);
    }

    #[test]
    fn dynamic_edges_can_beat_any_static_snapshot() {
        // Node 2 is never reachable in snapshot A, node 1 never in snapshot B,
        // yet alternating between them floods everything.
        let a = AdjacencyList::from_edges(3, [(0, 1)]);
        let b = AdjacencyList::from_edges(3, [(0, 2)]);
        let mut meg = ScheduledGraph::new(vec![a, b]);
        let r = flood(&mut meg, 0, 10);
        assert!(r.completed);
        assert_eq!(r.completion_time(), Some(2));
    }

    #[test]
    fn round_limit_is_respected() {
        let g = AdjacencyList::from_edges(4, [(0, 1), (2, 3)]);
        let mut meg = FrozenGraph::new(g);
        let r = flood(&mut meg, 0, 3);
        assert!(!r.completed);
        assert_eq!(r.rounds, 3);
        assert_eq!(r.informed_count(), 2);
    }

    #[test]
    fn informed_set_grows_monotonically() {
        let g = generators::grid2d(5, 5);
        let r = flood_static(&g, 12);
        for w in r.informed_per_round.windows(2) {
            assert!(w[0] <= w[1], "informed counts must be non-decreasing");
        }
        assert_eq!(r.informed_count(), 25);
    }

    #[test]
    fn late_edges_reach_old_informed_nodes() {
        // Node 3's only-ever edge appears at step 3, attached to the source
        // itself (informed since round 0). A frontier-only implementation
        // would miss it — and by then 3 of 4 nodes are informed, so the
        // round scans the uninformed side.
        let empty = AdjacencyList::new(4);
        let g0 = AdjacencyList::from_edges(4, [(0, 1)]);
        let g1 = AdjacencyList::from_edges(4, [(1, 2)]);
        let g3 = AdjacencyList::from_edges(4, [(0, 3)]);
        let mut meg = ScheduledGraph::new(vec![g0, g1, empty, g3]);
        let r = flood(&mut meg, 0, 10);
        assert_eq!(r.completion_time(), Some(4));
        assert_eq!(r.informed_per_round, vec![1, 2, 3, 3, 4]);
        // One message per informed endpoint of a live edge, per round:
        // rounds 1, 2 and 4 carry one such edge each, round 3 none.
        assert_eq!(r.messages_sent, 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_panics() {
        let mut meg = FrozenGraph::new(generators::path(3));
        flood(&mut meg, 5, 10);
    }
}
