//! Byzantine/tampering nodes in randomized gossip.
//!
//! A fixed set of Byzantine nodes participates in push–pull gossip but
//! spreads a *tampered* version of the message. Honest nodes adopt the
//! first version they receive and relay it faithfully — a node that first
//! hears the tampered rumor keeps spreading the tampered rumor. The process
//! completes when no node is uninformed; the measured outcome is the
//! **correct-information coverage**: the fraction of nodes holding the
//! *untampered* message, which is what an adversary degrades even when
//! "everyone heard something" (the SNIPPETS.md tampering exemplar).

use super::state_machine::{random_contact, NodeState, ProtocolMachine};
use meg_graph::{Graph, Node};
use rand::Rng;

/// What a node believes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineState {
    /// The node has heard nothing yet.
    Uninformed,
    /// The node holds (and relays) the correct message.
    Correct,
    /// The node holds (and relays) the tampered message.
    Tampered,
    /// The node is an adversary: always informed, always relays tampered
    /// content, never changes its mind.
    Byzantine,
}

impl NodeState for ByzantineState {
    const ALL: &'static [Self] = &[
        ByzantineState::Uninformed,
        ByzantineState::Correct,
        ByzantineState::Tampered,
        ByzantineState::Byzantine,
    ];

    fn label(self) -> &'static str {
        match self {
            ByzantineState::Uninformed => "uninformed",
            ByzantineState::Correct => "correct",
            ByzantineState::Tampered => "tampered",
            ByzantineState::Byzantine => "byzantine",
        }
    }

    fn is_covered(self) -> bool {
        !matches!(self, ByzantineState::Uninformed)
    }
}

/// Push–pull gossip with Byzantine tampering.
///
/// The contact model is exactly push–pull's (one uniformly random neighbor
/// per node per round, ascending order); the payload differs — Byzantine
/// and tampered nodes transmit the tampered version, correct nodes the
/// correct one, and an uninformed node adopts whatever reaches it first
/// (the first contact of the round wins).
pub struct ByzantineMachine {
    opinion: Vec<ByzantineState>,
    /// (node, adopts_correct) decided this round; first writer wins.
    newly: Vec<(Node, bool)>,
    pending: meg_graph::NodeSet,
    informed_count: usize,
    correct_count: usize,
    tampered_adoptions: u64,
    messages: u64,
}

impl ByzantineMachine {
    /// Creates the machine: `source` holds the correct message and
    /// `byzantine` adversaries are placed on the highest-indexed nodes
    /// (skipping `source`), clamped to `n - 1`.
    ///
    /// Panics if `source` is out of range.
    pub fn new(n: usize, source: Node, byzantine: usize) -> Self {
        assert!((source as usize) < n, "source out of range");
        let mut opinion = vec![ByzantineState::Uninformed; n];
        opinion[source as usize] = ByzantineState::Correct;
        let mut placed = 0usize;
        let budget = byzantine.min(n - 1);
        for v in (0..n).rev() {
            if placed == budget {
                break;
            }
            if v == source as usize {
                continue;
            }
            opinion[v] = ByzantineState::Byzantine;
            placed += 1;
        }
        ByzantineMachine {
            opinion,
            newly: Vec::new(),
            pending: meg_graph::NodeSet::new(n),
            informed_count: 1 + placed,
            correct_count: 1,
            tampered_adoptions: 0,
            messages: 0,
        }
    }

    /// Number of nodes holding the *correct* message (the source included;
    /// Byzantine and tampered nodes excluded).
    pub fn correct_count(&self) -> usize {
        self.correct_count
    }

    /// Correct-information coverage as a fraction of all nodes.
    pub fn correct_fraction(&self) -> f64 {
        self.correct_count as f64 / self.opinion.len() as f64
    }

    /// Honest nodes that adopted the tampered message.
    pub fn tampered_adoptions(&self) -> u64 {
        self.tampered_adoptions
    }
}

/// Does a node in this state transmit, and is its payload correct?
fn payload(s: ByzantineState) -> Option<bool> {
    match s {
        ByzantineState::Uninformed => None,
        ByzantineState::Correct => Some(true),
        ByzantineState::Tampered | ByzantineState::Byzantine => Some(false),
    }
}

impl ProtocolMachine for ByzantineMachine {
    type State = ByzantineState;

    fn num_nodes(&self) -> usize {
        self.opinion.len()
    }

    fn state_of(&self, v: Node) -> ByzantineState {
        self.opinion[v as usize]
    }

    fn step<G, R>(&mut self, g: &G, rng: &mut R)
    where
        G: Graph + ?Sized,
        R: Rng,
    {
        let n = self.opinion.len();
        let Self {
            opinion,
            newly,
            pending,
            informed_count,
            correct_count,
            tampered_adoptions,
            messages,
        } = self;
        newly.clear();
        pending.clear();
        for u in 0..n as Node {
            let Some(v) = random_contact(g, u, rng) else {
                continue;
            };
            *messages += 1;
            // Push: the caller's payload reaches v; pull: v's payload
            // reaches the caller. First delivery of the round wins.
            if let Some(correct) = payload(opinion[u as usize]) {
                if opinion[v as usize] == ByzantineState::Uninformed && pending.insert(v) {
                    newly.push((v, correct));
                }
            }
            if let Some(correct) = payload(opinion[v as usize]) {
                if opinion[u as usize] == ByzantineState::Uninformed && pending.insert(u) {
                    newly.push((u, correct));
                }
            }
        }
        for &(v, correct) in newly.iter() {
            opinion[v as usize] = if correct {
                *correct_count += 1;
                ByzantineState::Correct
            } else {
                *tampered_adoptions += 1;
                ByzantineState::Tampered
            };
            *informed_count += 1;
        }
    }

    fn is_complete(&self) -> bool {
        // Everyone has heard *something* — correct or not. The interesting
        // observable is then `correct_fraction`, not the round count.
        self.informed_count == self.opinion.len()
    }

    fn coverage(&self) -> usize {
        self.informed_count
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::FrozenGraph;
    use crate::protocols::state_machine::{run_machine, RunOutcome};
    use meg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zero_byzantine_nodes_is_plain_push_pull_with_full_correctness() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 64usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let mut m = ByzantineMachine::new(n, 0, 0);
        let r = run_machine(&mut meg, &mut m, 500, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(m.correct_count(), n);
        assert_eq!(m.tampered_adoptions(), 0);
        assert!((m.correct_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn byzantine_nodes_degrade_correct_coverage() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 64usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let mut m = ByzantineMachine::new(n, 0, 16);
        let r = run_machine(&mut meg, &mut m, 500, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert!(m.tampered_adoptions() > 0, "16/64 adversaries never won");
        assert!(m.correct_count() < n - 16);
        // Correct coverage can never exceed total coverage.
        assert!(m.correct_count() <= m.coverage());
    }

    #[test]
    fn byzantine_count_is_clamped_and_skips_the_source() {
        let n = 5usize;
        let m = ByzantineMachine::new(n, 2, 100);
        assert_eq!(m.state_of(2), ByzantineState::Correct);
        let adversaries = (0..n as Node)
            .filter(|&v| m.state_of(v) == ByzantineState::Byzantine)
            .count();
        assert_eq!(adversaries, n - 1);
        assert!(m.is_complete(), "everyone starts informed when b = n - 1");
    }

    #[test]
    fn first_delivery_wins_and_is_sticky() {
        // Path 0-1-2 with node 2 Byzantine: node 1 will hear both versions
        // over time but keeps whichever arrived first; counts stay
        // consistent.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 3usize;
        let mut meg = FrozenGraph::new(generators::path(n));
        let mut m = ByzantineMachine::new(n, 0, 1);
        let r = run_machine(&mut meg, &mut m, 200, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        let mid = m.state_of(1);
        assert!(
            mid == ByzantineState::Correct || mid == ByzantineState::Tampered,
            "the middle node adopted one version"
        );
        assert_eq!(
            m.correct_count() + m.tampered_adoptions() as usize,
            2,
            "source + exactly one adoption decision for node 1"
        );
    }
}
