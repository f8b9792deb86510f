//! Probabilistic flooding: each informed node forwards at each round only
//! with probability β (reference \[29\] of the paper). β = 1 recovers plain
//! flooding, which is how the engine runs its baseline.

use super::state_machine::{run_machine, NodeState, ProtocolMachine};
use super::ProtocolResult;
use crate::evolving::EvolvingGraph;
use meg_graph::{Graph, Node, NodeSet};
use rand::Rng;

/// Per-node state of (probabilistic) flooding: informed or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodState {
    /// The node has not received the message yet.
    Uninformed,
    /// The node holds the message and forwards it (with probability β).
    Informed,
}

impl NodeState for FloodState {
    const ALL: &'static [Self] = &[FloodState::Uninformed, FloodState::Informed];

    fn label(self) -> &'static str {
        match self {
            FloodState::Uninformed => "uninformed",
            FloodState::Informed => "informed",
        }
    }

    fn is_covered(self) -> bool {
        matches!(self, FloodState::Informed)
    }
}

/// The (probabilistic) flooding machine — the repository's one flooding
/// round.
///
/// Each round every informed node broadcasts to its whole current
/// neighborhood with probability β (always, when β = 1 — in which case the
/// machine draws **no** randomness). Completion: every node informed.
///
/// Because the topology changes every round, the frontier optimisation of
/// static BFS is unsound (a node informed long ago can gain a brand-new
/// uninformed neighbor at any later round), so a round scans a whole side of
/// the cut. At β = 1 it scans whichever side is smaller: the informed nodes
/// while `|I| ≤ n/2`, the uninformed ones after. Messages are counted as
/// `Σ_{u∈I} deg(u)` on both sides of the switch. At β < 1 the round always
/// scans the informed nodes in ascending order, one `gen_bool(β)` draw each.
pub struct FloodMachine {
    beta: f64,
    informed: NodeSet,
    newly: Vec<Node>,
    messages: u64,
}

impl FloodMachine {
    /// Creates the machine with `source` informed.
    ///
    /// Panics if β ∉ \[0, 1\] or `source` is out of range.
    pub fn new(n: usize, source: Node, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta={beta} outside [0, 1]");
        assert!((source as usize) < n, "source out of range");
        FloodMachine {
            beta,
            informed: NodeSet::singleton(n, source),
            newly: Vec::new(),
            messages: 0,
        }
    }
}

impl ProtocolMachine for FloodMachine {
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
        let beta = self.beta;
        let Self {
            informed,
            newly,
            messages,
            ..
        } = self;
        let n = informed.universe();
        newly.clear();
        if beta < 1.0 || informed.len() * 2 <= n {
            // Scan the informed side in ascending order. β = 1 must not
            // consume randomness (plain flooding is RNG-free); `gen_bool` is
            // only reached when β < 1.
            for u in informed.iter() {
                if beta < 1.0 && !rng.gen_bool(beta) {
                    continue;
                }
                *messages += g.degree(u) as u64;
                for &v in g.neighbors(u) {
                    if !informed.contains(v) {
                        newly.push(v);
                    }
                }
            }
        } else {
            // Plain flooding past n/2 (the second phase of Lemma 2.4): the
            // uninformed side is the smaller one, so scan it and stop each
            // scan at the first informed neighbor. Every informed node still
            // sends to its whole neighborhood, so the message count is the
            // informed side's degree sum either way.
            for v in 0..n as Node {
                if informed.contains(v) {
                    *messages += g.degree(v) as u64;
                } else if g.neighbors(v).iter().any(|&w| informed.contains(w)) {
                    newly.push(v);
                }
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

/// Runs probabilistic flooding from `source` with forwarding probability
/// `beta` for at most `max_rounds` rounds.
///
/// `beta = 1.0` is plain flooding and consumes no randomness.
pub fn probabilistic_flood<M, R>(
    meg: &mut M,
    source: Node,
    beta: f64,
    max_rounds: u64,
    rng: &mut R,
) -> ProtocolResult
where
    M: EvolvingGraph,
    R: Rng,
{
    let mut machine = FloodMachine::new(meg.num_nodes(), source, beta);
    run_machine(meg, &mut machine, max_rounds, rng).into_protocol_result()
}

#[cfg(test)]
pub(crate) mod legacy {
    //! The pre-refactor flooding loop, verbatim — kept as the reference
    //! implementation for the differential tests that prove the
    //! state-machine port is byte-identical (same RNG draw order, same
    //! message counts, same informed-per-round trace).

    use super::*;

    /// The historical `probabilistic_flood` body, before the state-machine
    /// refactor.
    pub fn probabilistic_flood_reference<M, R>(
        meg: &mut M,
        source: Node,
        beta: f64,
        max_rounds: u64,
        rng: &mut R,
    ) -> ProtocolResult
    where
        M: EvolvingGraph,
        R: Rng,
    {
        assert!((0.0..=1.0).contains(&beta), "beta={beta} outside [0, 1]");
        let n = meg.num_nodes();
        assert!((source as usize) < n, "source out of range");
        let mut informed = NodeSet::singleton(n, source);
        let mut informed_per_round = vec![informed.len()];
        let mut messages = 0u64;
        let mut rounds = 0u64;
        let mut completed = informed.is_full();
        let mut newly: Vec<Node> = Vec::new();
        while rounds < max_rounds && !completed {
            let snapshot = meg.advance();
            newly.clear();
            for u in informed.iter() {
                if beta < 1.0 && !rng.gen_bool(beta) {
                    continue;
                }
                for &v in snapshot.neighbors(u) {
                    messages += 1;
                    if !informed.contains(v) {
                        newly.push(v);
                    }
                }
            }
            for &v in &newly {
                informed.insert(v);
            }
            rounds += 1;
            informed_per_round.push(informed.len());
            completed = informed.is_full();
        }
        ProtocolResult {
            completed,
            rounds,
            informed_per_round,
            messages_sent: messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::{FrozenGraph, ScheduledGraph};
    use meg_graph::{bfs, generators, AdjacencyList};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn beta_one_matches_plain_flooding() {
        // Independent reference: on a static graph I_t is the BFS ball of
        // radius t around the source.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::grid2d(4, 5),
            generators::complete(8),
        ] {
            let balls: Vec<usize> = bfs::level_sizes(&g, 0)
                .iter()
                .scan(0, |ball, &level| {
                    *ball += level;
                    Some(*ball)
                })
                .collect();
            let mut meg = FrozenGraph::new(g);
            let prob = probabilistic_flood(&mut meg, 0, 1.0, 500, &mut rng);
            assert!(prob.completed);
            assert_eq!(prob.informed_per_round, balls);
        }
    }

    #[test]
    fn machine_is_byte_identical_to_the_legacy_loop() {
        // Differential check at the core level: the machine and the verbatim
        // pre-refactor loop produce the same informed trace, message count
        // and RNG cursor on random schedules — at β = 1, whose rounds switch
        // to the uninformed side once |I| > n/2, and on the
        // draw-order-sensitive β < 1 path.
        let mut switched = 0;
        for case in 0..40u64 {
            let mut gen = ChaCha8Rng::seed_from_u64(case);
            let n = gen.gen_range(6..48usize);
            let len = gen.gen_range(1..5usize);
            let schedule: Vec<AdjacencyList> = (0..len)
                .map(|_| generators::erdos_renyi(n, 2.5 / n as f64, &mut gen))
                .collect();
            let source = gen.gen_range(0..n as Node);
            for beta in [1.0, 0.7, 0.3] {
                let mut rng_new = ChaCha8Rng::seed_from_u64(!case);
                let mut rng_old = rng_new.clone();
                let mut meg_new = ScheduledGraph::new(schedule.clone());
                let mut meg_old = ScheduledGraph::new(schedule.clone());
                let new = probabilistic_flood(&mut meg_new, source, beta, 60, &mut rng_new);
                let old = legacy::probabilistic_flood_reference(
                    &mut meg_old,
                    source,
                    beta,
                    60,
                    &mut rng_old,
                );
                assert_eq!(new, old, "case={case} beta={beta}");
                assert_eq!(
                    rng_new.gen::<u64>(),
                    rng_old.gen::<u64>(),
                    "RNG cursor drifted"
                );
                let round_starts = &new.informed_per_round[..new.informed_per_round.len() - 1];
                if beta == 1.0 && round_starts.iter().any(|&c| 2 * c > n) {
                    switched += 1;
                }
            }
        }
        assert!(
            switched >= 30,
            "only {switched} of 40 β = 1 runs scanned the uninformed side"
        );
    }

    #[test]
    fn beta_zero_never_spreads() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut meg = FrozenGraph::new(generators::complete(6));
        let r = probabilistic_flood(&mut meg, 0, 0.0, 50, &mut rng);
        assert!(!r.completed);
        assert_eq!(r.informed_count(), 1);
        assert_eq!(r.messages_sent, 0);
    }

    #[test]
    fn lower_beta_is_slower_but_still_completes_on_cliques() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 32usize;
        let mut fast_meg = FrozenGraph::new(generators::complete(n));
        let fast = probabilistic_flood(&mut fast_meg, 0, 1.0, 1000, &mut rng);
        let mut slow_meg = FrozenGraph::new(generators::complete(n));
        let slow = probabilistic_flood(&mut slow_meg, 0, 0.2, 1000, &mut rng);
        assert!(fast.completed && slow.completed);
        assert!(slow.rounds >= fast.rounds);
    }

    #[test]
    fn message_count_scales_with_beta() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 24usize;
        let mut meg_full = FrozenGraph::new(generators::complete(n));
        let full = probabilistic_flood(&mut meg_full, 0, 1.0, 100, &mut rng);
        let mut meg_half = FrozenGraph::new(generators::complete(n));
        let half = probabilistic_flood(&mut meg_half, 0, 0.5, 100, &mut rng);
        // Fewer transmissions per round on average (completion may take
        // longer, but per-round cost is halved in expectation).
        let full_rate = full.messages_sent as f64 / full.rounds as f64;
        let half_rate = half.messages_sent as f64 / half.rounds as f64;
        assert!(half_rate < full_rate);
    }

    #[test]
    fn completion_time_accessor() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut meg = FrozenGraph::new(generators::path(4));
        let r = probabilistic_flood(&mut meg, 0, 1.0, 100, &mut rng);
        assert_eq!(r.completion_time(), Some(r.rounds));
        let mut meg = FrozenGraph::new(AdjacencyList::new(3));
        let r = probabilistic_flood(&mut meg, 0, 1.0, 5, &mut rng);
        assert_eq!(r.completion_time(), None);
    }
}
