//! SIS/SIR/SIRS epidemics on evolving graphs.
//!
//! The compartmental contagion family, run on the same snapshot sequence as
//! flooding: each round every *infectious* node exposes all of its current
//! neighbors, and each exposed *susceptible* node becomes infectious with
//! the contagion probability (at most once per round, whoever exposes it).
//! An infection lasts `infection_rounds` rounds, after which the node
//! recovers into the protocol's immunity regime:
//!
//! * **SIR** (`immunity = None`): recovery is permanent — the node is
//!   removed from the process. The epidemic *always* goes extinct, and the
//!   interesting observable is the final size (how many nodes were ever
//!   infected).
//! * **SIS** (`immunity = Some(0)`): the node is immediately susceptible
//!   again. Above the epidemic threshold the process is *endemic* — it
//!   legitimately never completes, and a run is **censored** at the round
//!   budget rather than failed.
//! * **SIRS** (`immunity = Some(w)`, `w > 0`): the node is immune for `w`
//!   rounds, then susceptible again — the general re-susceptibility window.
//!
//! Completion is "no infectious nodes left" — *not* "everyone reached",
//! which is what distinguishes epidemics from every dissemination protocol
//! in this module and why the state-machine trait lets each protocol define
//! its own predicate.

use super::state_machine::{NodeState, ProtocolMachine};
use meg_graph::{Graph, Node, NodeSet};
use meg_markov::gen_bool_threshold;
use rand::Rng;

/// Compartment of a node in an epidemic, as exposed to generic harnesses.
///
/// (Internally the machine also tracks per-node timers; `Recovered` covers
/// both the temporarily immune and the permanently removed.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpidemicState {
    /// The node can be infected.
    Susceptible,
    /// The node is infected and transmitting.
    Infectious,
    /// The node recovered: permanently removed (SIR) or temporarily
    /// immune (SIRS).
    Recovered,
}

impl NodeState for EpidemicState {
    const ALL: &'static [Self] = &[
        EpidemicState::Susceptible,
        EpidemicState::Infectious,
        EpidemicState::Recovered,
    ];

    fn label(self) -> &'static str {
        match self {
            EpidemicState::Susceptible => "susceptible",
            EpidemicState::Infectious => "infectious",
            EpidemicState::Recovered => "recovered",
        }
    }

    fn is_covered(self) -> bool {
        // A node counts once it carries (or carried) the infection. The
        // machine overrides `coverage` with its ever-infected set, which
        // also covers SIS nodes that are susceptible *again*.
        !matches!(self, EpidemicState::Susceptible)
    }
}

/// The SIS/SIR/SIRS epidemic machine.
///
/// The compartments are word-packed [`NodeSet`]s — susceptible, infectious
/// and (SIRS only) temporarily immune; a node in none of them is removed —
/// plus one per-node timer, the rounds left in the node's infectious or
/// immune spell. A round is two phases against the round-start
/// compartments, then the commit of its infections:
///
/// 1. **Exposures.** The infectious nodes are walked in ascending order.
///    Each one's row is compressed, with no branch on membership, to its
///    susceptible neighbours (`buf[c] = v; c += susceptible(v)`), and each
///    of those draws `(next_u64() >> 11) < ⌈contagion · 2⁵³⌉`, which is
///    `gen_bool(contagion)` draw for draw
///    ([`meg_markov::gen_bool_threshold`]). A hit is pushed onto this
///    round's infections and cleared from the susceptible set by
///    arithmetic, so a node infected earlier in the round is no candidate
///    of a later row and draws nothing more. Messages grow by the degree.
/// 2. **Timers.** Only the round-start immune and infectious nodes are
///    walked: a spell with one round left ends (immune → susceptible;
///    infectious → removed, susceptible or immune), a longer one ticks.
///
/// This round's infections then become infectious for the next round. The
/// draws, their order and every counter are those of the per-node state
/// vector this replaced, which the unit tests keep as an exact oracle.
pub struct EpidemicMachine {
    /// `gen_bool_threshold(contagion)`: a draw `x` infects iff
    /// `x >> 11 < threshold`.
    threshold: u64,
    infection_rounds: u64,
    /// `None` = permanent removal (SIR); `Some(w)` = immune for `w` rounds,
    /// then susceptible again (`w = 0` is classic SIS).
    immunity: Option<u64>,
    susceptible: NodeSet,
    infectious: NodeSet,
    immune: NodeSet,
    /// Rounds left (including the current one) in the node's infectious
    /// or immune spell; meaningless for other nodes.
    timers: Vec<u64>,
    ever_infected: NodeSet,
    /// One row's susceptible neighbours, compressed to the front. `n`
    /// slots: a simple graph's row has at most `n − 1` entries.
    candidates: Vec<Node>,
    /// This round's infections in draw order, compressed to the front. `n`
    /// slots: at most every round-start susceptible node is infected.
    newly: Vec<Node>,
    /// Phase 2's copy of a compartment, which the walk edits.
    walk: Vec<Node>,
    messages: u64,
    infections: u64,
    recoveries: u64,
}

impl EpidemicMachine {
    /// Creates the machine with `source` infectious (patient zero).
    ///
    /// Panics if `contagion` ∉ \[0, 1\], `infection_rounds` is zero, or
    /// `source` is out of range.
    pub fn new(
        n: usize,
        source: Node,
        contagion: f64,
        infection_rounds: u64,
        immunity: Option<u64>,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&contagion),
            "contagion={contagion} outside [0, 1]"
        );
        assert!(
            infection_rounds > 0,
            "an infection must last at least one round"
        );
        assert!((source as usize) < n, "source out of range");
        let mut susceptible = NodeSet::full(n);
        susceptible.remove(source);
        let mut timers = vec![0u64; n];
        timers[source as usize] = infection_rounds;
        EpidemicMachine {
            threshold: gen_bool_threshold(contagion),
            infection_rounds,
            immunity,
            susceptible,
            infectious: NodeSet::singleton(n, source),
            immune: NodeSet::new(n),
            timers,
            ever_infected: NodeSet::singleton(n, source),
            candidates: vec![0; n],
            newly: vec![0; n],
            walk: Vec::with_capacity(n),
            messages: 0,
            // The seed counts as the first infection.
            infections: 1,
            recoveries: 0,
        }
    }

    /// Number of nodes ever infected (the epidemic's final size once the
    /// process went extinct).
    pub fn final_size(&self) -> usize {
        self.ever_infected.len()
    }

    /// Number of currently infectious nodes.
    pub fn infectious_count(&self) -> usize {
        self.infectious.len()
    }

    /// Total infection events, including the initial seed.
    pub fn infections(&self) -> u64 {
        self.infections
    }

    /// Total recovery events (infectious → immune/removed/susceptible).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

impl ProtocolMachine for EpidemicMachine {
    type State = EpidemicState;

    fn num_nodes(&self) -> usize {
        self.timers.len()
    }

    fn state_of(&self, v: Node) -> EpidemicState {
        assert!((v as usize) < self.timers.len(), "node {v} out of range");
        if self.susceptible.contains(v) {
            EpidemicState::Susceptible
        } else if self.infectious.contains(v) {
            EpidemicState::Infectious
        } else {
            EpidemicState::Recovered
        }
    }

    fn step<G, R>(&mut self, g: &G, rng: &mut R)
    where
        G: Graph + ?Sized,
        R: Rng,
    {
        let n = self.timers.len();
        let Self {
            threshold,
            infection_rounds,
            immunity,
            susceptible,
            infectious,
            immune,
            timers,
            ever_infected,
            candidates,
            newly,
            walk,
            messages,
            infections,
            recoveries,
        } = self;

        // Phase 1: exposures, against the round-start compartments.
        let mut infected = 0usize;
        for u in infectious.iter() {
            let mut c = 0usize;
            let mut top: Node = 0;
            let mut degree = 0u64;
            for &v in g.neighbors(u) {
                candidates[c] = v;
                c += susceptible.contains(v) as usize;
                top = top.max(v);
                degree += 1;
            }
            // A tail bit is never set, so an id in the last word's tail
            // would pass as not susceptible; one check per row catches it.
            assert!((top as usize) < n, "node {top} outside universe {n}");
            *messages += degree;
            for &v in &candidates[..c] {
                let hit = (rng.next_u64() >> 11) < *threshold;
                newly[infected] = v;
                infected += hit as usize;
                susceptible.remove_if(v, hit);
            }
        }

        // Phase 2: timers of the round-start immune nodes, then of the
        // round-start infectious ones (so a node recovering into immunity
        // now is not ticked again this round).
        walk.clear();
        walk.extend(immune.iter());
        for &u in walk.iter() {
            let left = &mut timers[u as usize];
            if *left <= 1 {
                immune.remove(u);
                susceptible.insert(u);
            } else {
                *left -= 1;
            }
        }
        walk.clear();
        walk.extend(infectious.iter());
        for &u in walk.iter() {
            let left = &mut timers[u as usize];
            if *left > 1 {
                *left -= 1;
                continue;
            }
            *recoveries += 1;
            infectious.remove(u);
            match *immunity {
                None => {}
                Some(0) => {
                    susceptible.insert(u);
                }
                Some(w) => {
                    immune.insert(u);
                    *left = w;
                }
            }
        }

        // Phase 3: this round's infections become infectious for the next.
        for &v in &newly[..infected] {
            infectious.insert(v);
            ever_infected.insert(v);
            timers[v as usize] = *infection_rounds;
        }
        *infections += infected as u64;
    }

    fn is_complete(&self) -> bool {
        // Extinction: no infectious nodes left. NOT "everyone reached".
        self.infectious.is_empty()
    }

    fn coverage(&self) -> usize {
        self.ever_infected.len()
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }
}

#[cfg(test)]
pub(crate) mod legacy {
    //! The per-node state-vector machine the word-packed one replaced,
    //! verbatim — the exact oracle of the differential test below (same
    //! draws in the same order, same states and counters after every
    //! round).

    use super::*;

    /// Per-node compartment with its timer.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Health {
        Susceptible,
        /// Infected; transmits for `left` more rounds (including this one).
        Infectious {
            left: u64,
        },
        /// Temporarily immune for `left` more rounds (SIRS window).
        Immune {
            left: u64,
        },
        /// Permanently removed (SIR).
        Removed,
    }

    /// The SIS/SIR/SIRS epidemic machine.
    pub struct EpidemicMachine {
        contagion: f64,
        infection_rounds: u64,
        /// `None` = permanent removal (SIR); `Some(w)` = immune for `w` rounds,
        /// then susceptible again (`w = 0` is classic SIS).
        immunity: Option<u64>,
        health: Vec<Health>,
        ever_infected: NodeSet,
        pending: Vec<Node>,
        pending_set: NodeSet,
        infectious_count: usize,
        messages: u64,
        infections: u64,
        recoveries: u64,
    }

    impl EpidemicMachine {
        /// Creates the machine with `source` infectious (patient zero).
        ///
        /// Panics if `contagion` ∉ \[0, 1\], `infection_rounds` is zero, or
        /// `source` is out of range.
        pub fn new(
            n: usize,
            source: Node,
            contagion: f64,
            infection_rounds: u64,
            immunity: Option<u64>,
        ) -> Self {
            assert!(
                (0.0..=1.0).contains(&contagion),
                "contagion={contagion} outside [0, 1]"
            );
            assert!(
                infection_rounds > 0,
                "an infection must last at least one round"
            );
            assert!((source as usize) < n, "source out of range");
            let mut health = vec![Health::Susceptible; n];
            health[source as usize] = Health::Infectious {
                left: infection_rounds,
            };
            EpidemicMachine {
                contagion,
                infection_rounds,
                immunity,
                health,
                ever_infected: NodeSet::singleton(n, source),
                pending: Vec::new(),
                pending_set: NodeSet::new(n),
                infectious_count: 1,
                messages: 0,
                // The seed counts as the first infection.
                infections: 1,
                recoveries: 0,
            }
        }

        /// Number of nodes ever infected (the epidemic's final size once the
        /// process went extinct).
        pub fn final_size(&self) -> usize {
            self.ever_infected.len()
        }

        /// Number of currently infectious nodes.
        pub fn infectious_count(&self) -> usize {
            self.infectious_count
        }

        /// Total infection events, including the initial seed.
        pub fn infections(&self) -> u64 {
            self.infections
        }

        /// Total recovery events (infectious → immune/removed/susceptible).
        pub fn recoveries(&self) -> u64 {
            self.recoveries
        }
    }

    impl ProtocolMachine for EpidemicMachine {
        type State = EpidemicState;

        fn num_nodes(&self) -> usize {
            self.health.len()
        }

        fn state_of(&self, v: Node) -> EpidemicState {
            match self.health[v as usize] {
                Health::Susceptible => EpidemicState::Susceptible,
                Health::Infectious { .. } => EpidemicState::Infectious,
                Health::Immune { .. } | Health::Removed => EpidemicState::Recovered,
            }
        }

        fn step<G, R>(&mut self, g: &G, rng: &mut R)
        where
            G: Graph + ?Sized,
            R: Rng,
        {
            let n = self.health.len();
            let contagion = self.contagion;
            let Self {
                health,
                pending,
                pending_set,
                messages,
                ..
            } = self;

            // Phase 1: transmissions, evaluated against the round-start
            // compartments. Each infectious node exposes its whole current
            // neighborhood; a susceptible node is infected at most once per
            // round (the first successful exposure wins and later exposures
            // draw no randomness for it).
            pending.clear();
            pending_set.clear();
            for u in 0..n as Node {
                if !matches!(health[u as usize], Health::Infectious { .. }) {
                    continue;
                }
                for &v in g.neighbors(u) {
                    *messages += 1;
                    if matches!(health[v as usize], Health::Susceptible)
                        && !pending_set.contains(v)
                        && rng.gen_bool(contagion)
                    {
                        pending_set.insert(v);
                        pending.push(v);
                    }
                }
            }

            // Phase 2: timers on the round-start infectious/immune nodes.
            for u in 0..n {
                match self.health[u] {
                    Health::Infectious { left } => {
                        if left <= 1 {
                            self.recoveries += 1;
                            self.infectious_count -= 1;
                            self.health[u] = match self.immunity {
                                None => Health::Removed,
                                Some(0) => Health::Susceptible,
                                Some(w) => Health::Immune { left: w },
                            };
                        } else {
                            self.health[u] = Health::Infectious { left: left - 1 };
                        }
                    }
                    Health::Immune { left } => {
                        self.health[u] = if left <= 1 {
                            Health::Susceptible
                        } else {
                            Health::Immune { left: left - 1 }
                        };
                    }
                    Health::Susceptible | Health::Removed => {}
                }
            }

            // Phase 3: this round's infections become infectious for the next.
            for i in 0..self.pending.len() {
                let v = self.pending[i];
                self.health[v as usize] = Health::Infectious {
                    left: self.infection_rounds,
                };
                self.ever_infected.insert(v);
                self.infectious_count += 1;
                self.infections += 1;
            }
        }

        fn is_complete(&self) -> bool {
            // Extinction: no infectious nodes left. NOT "everyone reached".
            self.infectious_count == 0
        }

        fn coverage(&self) -> usize {
            self.ever_infected.len()
        }

        fn messages_sent(&self) -> u64 {
            self.messages
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::{EvolvingGraph, FrozenGraph, ScheduledGraph};
    use crate::protocols::state_machine::{run_machine, RunOutcome};
    use meg_graph::{generators, AdjacencyList};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Every node's state and every counter of the two machines agree.
    fn assert_same(new: &EpidemicMachine, old: &legacy::EpidemicMachine, at: &str) {
        for v in 0..old.num_nodes() as Node {
            assert_eq!(new.state_of(v), old.state_of(v), "{at}: node {v}");
        }
        assert_eq!(new.coverage(), old.coverage(), "{at}: coverage");
        assert_eq!(new.final_size(), old.final_size(), "{at}: final size");
        assert_eq!(new.messages_sent(), old.messages_sent(), "{at}: messages");
        assert_eq!(new.infections(), old.infections(), "{at}: infections");
        assert_eq!(new.recoveries(), old.recoveries(), "{at}: recoveries");
        assert_eq!(
            new.infectious_count(),
            old.infectious_count(),
            "{at}: infectious count"
        );
        assert_eq!(new.is_complete(), old.is_complete(), "{at}: completion");
    }

    #[test]
    fn word_packed_machine_matches_the_state_vector_oracle_exactly() {
        // Random Erdős–Rényi schedules; SIR, SIS and SIRS (w = 1–4) with
        // d = 1–4 and contagion exactly 0, exactly 1 or in (0, 1). Every
        // fourth case has n > 128 (three words or more); the others span
        // 1..=128, so most last words are partial.
        let (mut multi_word, mut ragged, mut reinfected) = (0, 0, 0);
        for case in 0..96u64 {
            let mut gen = ChaCha8Rng::seed_from_u64(case ^ 0x5151);
            let n = if case % 4 == 0 {
                gen.gen_range(129..300usize)
            } else {
                gen.gen_range(1..=128usize)
            };
            let immunity = match case % 3 {
                0 => None,
                1 => Some(0),
                _ => Some(gen.gen_range(1..=4u64)),
            };
            let d = gen.gen_range(1..=4u64);
            let contagion = match case % 5 {
                0 => 0.0,
                1 => 1.0,
                _ => gen.gen_range(0.05..0.95),
            };
            // Dense rows only at small n: debug builds check every added
            // edge against its row.
            let mean_degree = if n <= 32 {
                gen.gen_range(0.5..n as f64 + 0.5)
            } else {
                gen.gen_range(1.0..8.0)
            };
            let p = (mean_degree / n as f64).min(1.0);
            let len = gen.gen_range(1..5usize);
            let schedule: Vec<AdjacencyList> = (0..len)
                .map(|_| generators::erdos_renyi(n, p, &mut gen))
                .collect();
            let source = gen.gen_range(0..n as Node);
            let mut meg = ScheduledGraph::new(schedule);
            let mut new = EpidemicMachine::new(n, source, contagion, d, immunity);
            let mut old = legacy::EpidemicMachine::new(n, source, contagion, d, immunity);
            let mut rng_new = ChaCha8Rng::seed_from_u64(!case);
            let mut rng_old = rng_new.clone();
            let at = format!("case {case} (n={n}, c={contagion}, d={d}, {immunity:?})");
            assert_same(&new, &old, &format!("{at}, start"));
            for round in 1..=60 {
                if old.is_complete() {
                    break;
                }
                let s = meg.advance();
                new.step(s, &mut rng_new);
                old.step(s, &mut rng_old);
                assert_same(&new, &old, &format!("{at}, round {round}"));
            }
            assert_eq!(
                rng_new.gen::<u64>(),
                rng_old.gen::<u64>(),
                "{at}: RNG cursor drifted"
            );
            multi_word += (n > 128) as usize;
            ragged += (n % 64 != 0) as usize;
            reinfected += (new.infections() > new.final_size() as u64) as usize;
        }
        assert!(multi_word >= 24 && ragged >= 48);
        assert!(
            reinfected >= 10,
            "only {reinfected} runs re-infected a node (SIS/SIRS re-susceptibility)"
        );
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn a_row_listing_a_node_past_n_panics() {
        // Node 10 sits in the tail of a 10-node set's only word, where no
        // bit is ever set; the per-row check must still refuse it.
        struct Stray;
        impl Graph for Stray {
            fn num_nodes(&self) -> usize {
                10
            }
            fn num_edges(&self) -> usize {
                1
            }
            fn neighbors(&self, u: Node) -> &[Node] {
                if u == 0 {
                    &[10]
                } else {
                    &[]
                }
            }
        }
        let mut m = EpidemicMachine::new(10, 0, 1.0, 1, None);
        m.step(&Stray, &mut ChaCha8Rng::seed_from_u64(6));
    }

    #[test]
    fn sir_with_certain_contagion_sweeps_a_path_then_goes_extinct() {
        let n = 10usize;
        let mut meg = FrozenGraph::new(generators::path(n));
        let mut m = EpidemicMachine::new(n, 0, 1.0, 1, None);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = run_machine(&mut meg, &mut m, 1000, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(m.final_size(), n);
        // The wave moves one hop per round and dies one round after the
        // last infection.
        assert_eq!(r.rounds, n as u64);
        assert_eq!(m.infections(), n as u64);
        assert_eq!(m.recoveries(), n as u64);
    }

    #[test]
    fn zero_contagion_dies_at_the_source() {
        let mut meg = FrozenGraph::new(generators::complete(8));
        let mut m = EpidemicMachine::new(8, 0, 0.0, 3, None);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let r = run_machine(&mut meg, &mut m, 100, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.rounds, 3, "patient zero transmits for its full window");
        assert_eq!(m.final_size(), 1);
        assert_eq!(m.recoveries(), 1);
    }

    #[test]
    fn endemic_sis_is_censored_at_the_round_cap_not_an_error() {
        // Certain contagion + immediate re-susceptibility on a clique: the
        // infection can never go extinct. The driver must cut the run at
        // the budget and say so.
        let mut meg = FrozenGraph::new(generators::complete(12));
        let mut m = EpidemicMachine::new(12, 0, 1.0, 2, Some(0));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = run_machine(&mut meg, &mut m, 50, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Censored);
        assert_eq!(r.rounds, 50);
        assert!(m.infectious_count() > 0);
        assert!(!r.into_protocol_result().completed);
    }

    #[test]
    fn sirs_window_delays_resusceptibility() {
        // One round of immunity: after recovering, a node cannot be
        // re-infected on the immediately following round.
        let mut meg = FrozenGraph::new(generators::complete(2));
        let mut m = EpidemicMachine::new(2, 0, 1.0, 1, Some(1));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Round 1: node 0 infects node 1, then recovers into immunity.
        let s = meg.advance();
        m.step(s, &mut rng);
        assert_eq!(m.state_of(0), EpidemicState::Recovered);
        assert_eq!(m.state_of(1), EpidemicState::Infectious);
        // Round 2: node 1 exposes node 0, but node 0 is immune this round.
        let s = meg.advance();
        m.step(s, &mut rng);
        assert_eq!(m.state_of(0), EpidemicState::Susceptible);
        assert_eq!(m.state_of(1), EpidemicState::Recovered);
    }

    #[test]
    fn a_node_is_infected_at_most_once_per_round() {
        // A star center with certain contagion: all leaves expose the
        // center... rather, many infectious leaves expose the one
        // susceptible center; it must be infected exactly once.
        let n = 6usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let mut m = EpidemicMachine::new(n, 0, 1.0, 10, Some(0));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..4 {
            let s = meg.advance();
            m.step(s, &mut rng);
            let infectious = (0..n as Node)
                .filter(|&v| m.state_of(v) == EpidemicState::Infectious)
                .count();
            assert_eq!(infectious, m.infectious_count());
            assert!(m.infectious_count() <= n);
        }
        assert_eq!(m.final_size(), n);
        // n nodes infected once each: the seed plus n-1 transmissions.
        assert_eq!(m.infections(), n as u64);
    }
}
