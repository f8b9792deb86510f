//! Push-only rumor spreading, after Clementi, Crescenzi, Doerr, Fraigniaud,
//! Pasquale, Silvestri, "Rumor Spreading in Random Evolving Graphs"
//! (arXiv:1302.3828).
//!
//! Each round, every *informed* node picks one uniformly random current
//! neighbor and pushes the rumor to it. No pull: an uninformed node can
//! only wait to be picked. On a *static* sparse `G(n, p)` this is slow —
//! low-degree nodes wait `Θ(np)` rounds to be chosen by their informed
//! neighbor, and below the connectivity threshold isolated nodes are never
//! reached at all. On the *evolving* `G(n, p)` of the same expected density
//! the neighborhoods re-randomize every round, so every node keeps getting
//! fresh chances: the paper shows `O(log n)` rounds w.h.p. for any
//! `p̂ = Ω(1/n)` — **dynamism helps**. The engine's `rumor_dynamism`
//! builtin reproduces exactly this comparison and the statistical gates in
//! `meg-engine` assert the direction across seeds.

use super::state_machine::{random_contact, run_machine, ProtocolMachine};
use super::ProtocolResult;
use crate::evolving::EvolvingGraph;
use meg_graph::{Graph, Node, NodeSet};
use rand::Rng;

pub use super::probabilistic::FloodState;

/// The push-only rumor machine.
///
/// Each round every informed node, in ascending order, draws one uniformly
/// random current neighbor (one `gen_range` per non-isolated informed
/// node) and pushes the rumor. Completion: every node informed.
pub struct RumorMachine {
    informed: NodeSet,
    newly: Vec<Node>,
    messages: u64,
}

impl RumorMachine {
    /// Creates the machine with `source` informed.
    ///
    /// Panics if `source` is out of range.
    pub fn new(n: usize, source: Node) -> Self {
        assert!((source as usize) < n, "source out of range");
        RumorMachine {
            informed: NodeSet::singleton(n, source),
            newly: Vec::new(),
            messages: 0,
        }
    }
}

impl ProtocolMachine for RumorMachine {
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
        let Self {
            informed,
            newly,
            messages,
        } = self;
        newly.clear();
        for u in informed.iter() {
            let Some(v) = random_contact(g, u, rng) else {
                continue;
            };
            *messages += 1;
            if !informed.contains(v) {
                newly.push(v);
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

/// Runs push-only rumor spreading from `source` for at most `max_rounds`
/// rounds.
pub fn rumor_spread<M, R>(meg: &mut M, source: Node, max_rounds: u64, rng: &mut R) -> ProtocolResult
where
    M: EvolvingGraph,
    R: Rng,
{
    let mut machine = RumorMachine::new(meg.num_nodes(), source);
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
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 128usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let r = rumor_spread(&mut meg, 0, 500, &mut rng);
        assert!(r.completed);
        assert!(r.rounds >= 5, "rounds {}", r.rounds);
        assert!(r.rounds <= 60, "rounds {}", r.rounds);
    }

    #[test]
    fn push_only_sends_at_most_one_message_per_informed_node() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 32usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let r = rumor_spread(&mut meg, 0, 100, &mut rng);
        assert!(r.completed);
        // Σ_t informed(t) bounds the pushes; crude upper bound n per round.
        assert!(r.messages_sent <= r.rounds * n as u64);
    }

    #[test]
    fn uninformed_nodes_cannot_pull() {
        // Star with an informed center would finish in one round under
        // push–pull; push-only from a *leaf* must first wait for the leaf
        // to push to the center (its only neighbor), then the center
        // coupon-collects the remaining leaves.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut meg = FrozenGraph::new(generators::star(8));
        let r = rumor_spread(&mut meg, 1, 10_000, &mut rng);
        assert!(r.completed);
        assert!(
            r.rounds >= 8,
            "push-only on a star needs coupon collection, got {}",
            r.rounds
        );
    }

    #[test]
    fn isolated_nodes_are_never_reached() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = AdjacencyList::from_edges(4, [(0, 1), (1, 2)]);
        let mut meg = FrozenGraph::new(g);
        let r = rumor_spread(&mut meg, 0, 50, &mut rng);
        assert!(!r.completed);
        assert_eq!(r.informed_count(), 3);
        assert_eq!(r.rounds, 50, "censored at the budget");
    }
}
