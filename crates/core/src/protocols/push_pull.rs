//! Randomized push–pull gossip.
//!
//! At every round each node contacts **one** uniformly random current
//! neighbor; if either endpoint of the contact is informed, both become
//! informed (push if the caller is informed, pull if the callee is). This is
//! the classic rumor-spreading protocol whose `Θ(log n)` behaviour on
//! complete graphs is the usual point of comparison for flooding, and whose
//! per-round message count is `n` (one contact per node) instead of flooding's
//! `Σ deg`.

use super::state_machine::{random_contact, run_machine, ProtocolMachine};
use super::ProtocolResult;
use crate::evolving::EvolvingGraph;
use meg_graph::{Graph, Node, NodeSet};
use rand::Rng;

pub use super::probabilistic::FloodState;

/// The push–pull gossip machine.
///
/// Each round every node (informed or not) draws one uniformly random
/// current neighbor — exactly one `gen_range` per non-isolated node, in
/// ascending node order — and the pair exchanges the message in both
/// directions. Completion: every node informed.
pub struct PushPullMachine {
    informed: NodeSet,
    newly: Vec<Node>,
    messages: u64,
}

impl PushPullMachine {
    /// Creates the machine with `source` informed.
    ///
    /// Panics if `source` is out of range.
    pub fn new(n: usize, source: Node) -> Self {
        assert!((source as usize) < n, "source out of range");
        PushPullMachine {
            informed: NodeSet::singleton(n, source),
            newly: Vec::new(),
            messages: 0,
        }
    }
}

impl ProtocolMachine for PushPullMachine {
    type State = FloodState;

    fn num_nodes(&self) -> usize {
        self.informed.universe()
    }

    fn state_of(&self, v: Node) -> FloodState {
        if self.informed.contains(v) {
            FloodState::Informed
        } else {
            FloodState::Uninformed
        }
    }

    fn step<G, R>(&mut self, g: &G, rng: &mut R)
    where
        G: Graph + ?Sized,
        R: Rng,
    {
        let n = self.informed.universe();
        let Self {
            informed,
            newly,
            messages,
        } = self;
        newly.clear();
        for u in 0..n as Node {
            let Some(v) = random_contact(g, u, rng) else {
                continue;
            };
            *messages += 1;
            let u_informed = informed.contains(u);
            let v_informed = informed.contains(v);
            if u_informed && !v_informed {
                newly.push(v); // push
            } else if v_informed && !u_informed {
                newly.push(u); // pull
            }
        }
        for &v in newly.iter() {
            informed.insert(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.informed.is_full()
    }

    fn coverage(&self) -> usize {
        self.informed.len()
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }
}

/// Runs push–pull gossip from `source` for at most `max_rounds` rounds.
pub fn push_pull_gossip<M, R>(
    meg: &mut M,
    source: Node,
    max_rounds: u64,
    rng: &mut R,
) -> ProtocolResult
where
    M: EvolvingGraph,
    R: Rng,
{
    let mut machine = PushPullMachine::new(meg.num_nodes(), source);
    run_machine(meg, &mut machine, max_rounds, rng).into_protocol_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::FrozenGraph;
    use meg_graph::{generators, AdjacencyList};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn completes_on_a_clique_in_logarithmic_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let n = 256usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let r = push_pull_gossip(&mut meg, 0, 200, &mut rng);
        assert!(r.completed);
        // Push–pull on K_n finishes in Θ(log n) rounds; allow a wide margin.
        assert!(r.rounds >= 4, "rounds {}", r.rounds);
        assert!(r.rounds <= 40, "rounds {}", r.rounds);
    }

    #[test]
    fn per_round_message_count_is_at_most_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 64usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let r = push_pull_gossip(&mut meg, 0, 100, &mut rng);
        assert!(r.completed);
        assert!(r.messages_sent <= r.rounds * n as u64);
    }

    #[test]
    fn monotone_and_completes_on_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut meg = FrozenGraph::new(generators::path(12));
        let r = push_pull_gossip(&mut meg, 0, 10_000, &mut rng);
        assert!(r.completed);
        // On a path, each endpoint of the informed segment advances by at most
        // one per round, so completion needs at least n-1 ... /2 rounds? The
        // informed segment grows from one end only (source 0), at most one new
        // node per round via push or pull.
        assert!(r.rounds >= 11);
        for w in r.informed_per_round.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn isolated_nodes_prevent_completion() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = AdjacencyList::from_edges(4, [(0, 1), (1, 2)]);
        let mut meg = FrozenGraph::new(g);
        let r = push_pull_gossip(&mut meg, 0, 50, &mut rng);
        assert!(!r.completed);
        assert_eq!(r.informed_count(), 3);
    }

    #[test]
    fn gossip_uses_fewer_messages_than_flooding_on_dense_graphs() {
        // On K_{64,64} flooding needs 2 rounds but its second round has 65
        // informed nodes each shouting to 64 neighbors (≈ 4200 messages);
        // push–pull sends only n = 128 contacts per round for O(log n) rounds.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::complete_bipartite(64, 64);
        let mut gossip_meg = FrozenGraph::new(g.clone());
        let gossip = push_pull_gossip(&mut gossip_meg, 0, 1000, &mut rng);
        let mut flood_meg = FrozenGraph::new(g);
        let flood = super::super::probabilistic::probabilistic_flood(
            &mut flood_meg,
            0,
            1.0,
            1000,
            &mut rng,
        );
        assert!(gossip.completed && flood.completed);
        assert!(flood.rounds <= gossip.rounds);
        assert!(gossip.messages_sent < flood.messages_sent);
    }
}
