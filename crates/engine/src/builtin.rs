//! Built-in named scenarios.
//!
//! These reproduce **all twelve** of the paper's experiments as data, plus
//! the protocol-family scenarios and a `quick_smoke` scenario sized for CI.
//! `meg-lab list` prints the registry; `meg-lab run <name>` executes one.
//! `docs/EXPERIMENTS.md` maps each scenario to the paper section or theorem
//! it reproduces, with a ready-to-run `meg-lab` invocation per row.

use crate::scenario::{
    AdversarialKind, EdgeEngine, InitKind, MobilityKind, MoveRadiusSpec, PHatSpec, Param,
    Precision, Protocol, RadiusSpec, Scenario, StaticKind, SteppingKind, Substrate, Sweep,
};

/// Round budget used by flooding scenarios: generous enough that only
/// genuinely disconnected regimes fail to complete.
pub const FLOOD_BUDGET: u64 = 2_000_000;

/// Names of all built-in scenarios, in registry order.
pub fn builtin_names() -> Vec<&'static str> {
    vec![
        "geo_vs_radius",
        "edge_vs_n",
        "mobility_models",
        "protocol_variants",
        "geo_vs_n",
        "edge_vs_density",
        "diameter_vs_flooding",
        "edge_expansion",
        "edge_stationary_vs_worst",
        "general_bound",
        "geo_expansion",
        "geo_mobility",
        "epidemic_threshold",
        "rumor_dynamism",
        "byzantine_tamper",
        "quick_smoke",
    ]
}

/// Looks up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    match name {
        "geo_vs_radius" => Some(geo_vs_radius()),
        "edge_vs_n" => Some(edge_vs_n()),
        "mobility_models" => Some(mobility_models()),
        "protocol_variants" => Some(protocol_variants()),
        "geo_vs_n" => Some(geo_vs_n()),
        "edge_vs_density" => Some(edge_vs_density()),
        "diameter_vs_flooding" => Some(diameter_vs_flooding()),
        "edge_expansion" => Some(edge_expansion()),
        "edge_stationary_vs_worst" => Some(edge_stationary_vs_worst()),
        "general_bound" => Some(general_bound()),
        "geo_expansion" => Some(geo_expansion()),
        "geo_mobility" => Some(geo_mobility()),
        "epidemic_threshold" => Some(epidemic_threshold()),
        "rumor_dynamism" => Some(rumor_dynamism()),
        "byzantine_tamper" => Some(byzantine_tamper()),
        "quick_smoke" => Some(quick_smoke()),
        _ => None,
    }
}

/// Theorems 3.4/3.5: fix `n`, sweep the transmission radius from the
/// connectivity threshold towards `√n` (with `r = R/2`), and watch the
/// flooding time fall like `√n/R`.
pub fn geo_vs_radius() -> Scenario {
    Scenario {
        name: "geo_vs_radius".into(),
        description: "geometric-MEG flooding time vs transmission radius (Thm 3.4/3.5 shape)"
            .into(),
        substrates: vec![Substrate::Geometric {
            n: 3_000,
            mobility: MobilityKind::GridWalk,
            radius: RadiusSpec::ThresholdFactor(1.0),
            move_radius: MoveRadiusSpec::RadiusFraction(0.5),
        }],
        protocols: vec![Protocol::Flooding],
        sweep: Sweep::over(Param::RadiusFactor, [1.0, 1.5, 2.0, 3.0, 5.0, 8.0]),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// Theorem 4.3 / Corollary 4.5: sweep `n` with `p̂ = 3·ln n/n` pinned to the
/// sparse connected regime, for fast and slow churn `q` — flooding time should
/// track `log n / log(np̂)` and ignore `q`.
pub fn edge_vs_n() -> Scenario {
    Scenario {
        name: "edge_vs_n".into(),
        description: "edge-MEG flooding time vs n at p̂ = 3·ln n/n, fast vs slow churn (Cor 4.5)"
            .into(),
        substrates: vec![Substrate::Edge {
            n: 1_000,
            engine: EdgeEngine::Sparse,
            p_hat: PHatSpec::LogFactor(3.0),
            q: 0.5,
            init: InitKind::Stationary,
            stepping: SteppingKind::PerPair,
        }],
        protocols: vec![Protocol::Flooding],
        sweep: Sweep::over(Param::N, [1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0])
            .and(Param::Q, [0.5, 0.02]),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// The "further mobility models" claim: the same geometric-MEG bounds hold
/// for every mobility model with an (almost) uniform stationary law.
pub fn mobility_models() -> Scenario {
    Scenario {
        name: "mobility_models".into(),
        description:
            "geometric-MEG flooding time across all four mobility models (uniformity claim)".into(),
        substrates: MobilityKind::ALL
            .into_iter()
            .map(|mobility| Substrate::Geometric {
                n: 2_000,
                mobility,
                // radius = 2√(ln n) = the connectivity threshold at c = 2
                radius: RadiusSpec::ThresholdFactor(1.0),
                move_radius: MoveRadiusSpec::RadiusFraction(0.5),
            })
            .collect(),
        protocols: vec![Protocol::Flooding],
        sweep: Sweep::none(),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// Flooding as the baseline: run the protocol variants on one edge-MEG and
/// one geometric-MEG and compare rounds vs message overhead.
pub fn protocol_variants() -> Scenario {
    Scenario {
        name: "protocol_variants".into(),
        description: "dissemination protocols (flooding, probabilistic, parsimonious, push-pull) \
                      on stationary MEGs of both families"
            .into(),
        substrates: vec![
            Substrate::Edge {
                n: 2_000,
                engine: EdgeEngine::Sparse,
                p_hat: PHatSpec::LogFactor(4.0),
                q: 0.2,
                init: InitKind::Stationary,
                stepping: SteppingKind::PerPair,
            },
            Substrate::Geometric {
                n: 1_500,
                mobility: MobilityKind::GridWalk,
                radius: RadiusSpec::ThresholdFactor(1.0),
                move_radius: MoveRadiusSpec::RadiusFraction(0.5),
            },
        ],
        protocols: vec![
            Protocol::Flooding,
            Protocol::Probabilistic { beta: 0.3 },
            Protocol::Parsimonious { active_rounds: 1 },
            Protocol::Parsimonious { active_rounds: 4 },
            Protocol::PushPull,
        ],
        sweep: Sweep::none(),
        trials: 3,
        round_budget: 100_000,
        precision: Precision::FixedTrials,
    }
}

/// Theorem 3.4 / Corollary 3.6: sweep `n` at the connectivity-threshold
/// radius (and at a 2.5× denser one), with `r = R/2`, and check the measured
/// flooding time scales like `Θ(√n / R)`. Because both radii are
/// [`RadiusSpec::ThresholdFactor`] specs, they re-resolve against each swept
/// `n`.
pub fn geo_vs_n() -> Scenario {
    Scenario {
        name: "geo_vs_n".into(),
        description: "geometric-MEG flooding time vs n at threshold and denser radii (Cor 3.6)"
            .into(),
        substrates: vec![
            Substrate::Geometric {
                n: 1_000,
                mobility: MobilityKind::GridWalk,
                radius: RadiusSpec::ThresholdFactor(1.0),
                move_radius: MoveRadiusSpec::RadiusFraction(0.5),
            },
            Substrate::Geometric {
                n: 1_000,
                mobility: MobilityKind::GridWalk,
                radius: RadiusSpec::ThresholdFactor(2.5),
                move_radius: MoveRadiusSpec::RadiusFraction(0.5),
            },
        ],
        protocols: vec![Protocol::Flooding],
        sweep: Sweep::over(Param::N, [500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0]),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// Theorems 4.3 / 4.4: fix `n`, sweep the stationary edge probability `p̂`
/// from just above the connectivity threshold (`2·ln n/n` at the default
/// constant) into the dense regime. Flooding time must fall as `np̂` grows
/// and stay sandwiched between the paper's lower bound and upper shape. The
/// [`Param::PHatFactor`] axis values are the threshold multiples
/// `[1.5, 3, 6, 15, 40, 120]` times that constant.
pub fn edge_vs_density() -> Scenario {
    Scenario {
        name: "edge_vs_density".into(),
        description: "edge-MEG flooding time vs density p̂ above the threshold (Thm 4.3/4.4)".into(),
        substrates: vec![Substrate::Edge {
            n: 4_000,
            engine: EdgeEngine::Sparse,
            p_hat: PHatSpec::LogFactor(3.0),
            q: 0.5,
            init: InitKind::Stationary,
            stepping: SteppingKind::PerPair,
        }],
        protocols: vec![Protocol::Flooding],
        sweep: Sweep::over(Param::PHatFactor, [3.0, 6.0, 12.0, 30.0, 80.0, 240.0]),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// The Introduction's separation example: the rotating star has constant
/// snapshot diameter yet floods in `Θ(n)` rounds from the worst source,
/// while the rotating bridge (same constant diameter, good expansion)
/// floods in O(1) — diameter is irrelevant, expansion decides. The
/// diameter and Theorem 2.5 bound probes measure the other two columns of
/// the legacy table.
pub fn diameter_vs_flooding() -> Scenario {
    Scenario {
        name: "diameter_vs_flooding".into(),
        description: "snapshot diameter vs flooding time on adversarial dynamic graphs (Intro)"
            .into(),
        substrates: vec![
            Substrate::Adversarial {
                n: 64,
                construction: AdversarialKind::RotatingStar,
            },
            Substrate::Adversarial {
                n: 64,
                construction: AdversarialKind::RotatingBridge,
            },
        ],
        protocols: vec![
            Protocol::Flooding,
            Protocol::DiameterProbe,
            Protocol::BoundProbe {
                snapshots: 5,
                samples: 20,
            },
        ],
        sweep: Sweep::over(Param::N, [64.0, 256.0, 1024.0]),
        trials: 2,
        round_budget: 20_000,
        precision: Precision::FixedTrials,
    }
}

/// Theorem 4.1 / Lemma 4.2: the expansion profile of a stationary edge-MEG
/// snapshot (an Erdős–Rényi `G(n, p̂)`). Small sets (`h ≤ 1/p̂`) expand by
/// about the expected degree `np̂`; larger sets see `≈ n/(ch)` — the two
/// regimes Theorem 2.5 turns into the edge-MEG flooding bound.
pub fn edge_expansion() -> Scenario {
    Scenario {
        name: "edge_expansion".into(),
        description: "expansion profile of stationary edge-MEG snapshots G(n, p̂) (Thm 4.1)".into(),
        substrates: vec![Substrate::Edge {
            n: 4_000,
            engine: EdgeEngine::Sparse,
            p_hat: PHatSpec::LogFactor(4.0),
            q: 0.5,
            init: InitKind::Stationary,
            stepping: SteppingKind::PerPair,
        }],
        protocols: vec![Protocol::ExpansionProbe {
            set_size: 1,
            samples: 30,
        }],
        sweep: Sweep::over(
            Param::SetSize,
            [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 2000.0],
        ),
        trials: 5,
        round_budget: 1_000,
        precision: Precision::FixedTrials,
    }
}

/// The Section 1 gap claim: flooding on the *same* edge-MEG started from
/// the stationary distribution vs from the empty graph (the worst case of
/// reference \[9\]). As `q` shrinks at fixed `p̂`, the stationary start stays
/// flat while the empty start waits `Θ(1/p)` rounds for edges to be born —
/// the "exponential gap".
pub fn edge_stationary_vs_worst() -> Scenario {
    Scenario {
        name: "edge_stationary_vs_worst".into(),
        description: "stationary vs empty-start edge-MEG flooding — the exponential gap (Sec 1)"
            .into(),
        substrates: vec![
            Substrate::Edge {
                n: 1_500,
                engine: EdgeEngine::Sparse,
                p_hat: PHatSpec::LogFactor(4.0),
                q: 0.5,
                init: InitKind::Stationary,
                stepping: SteppingKind::PerPair,
            },
            Substrate::Edge {
                n: 1_500,
                engine: EdgeEngine::Sparse,
                p_hat: PHatSpec::LogFactor(4.0),
                q: 0.5,
                init: InitKind::Empty,
                stepping: SteppingKind::PerPair,
            },
        ],
        protocols: vec![Protocol::Flooding],
        sweep: Sweep::over(Param::Q, [0.5, 0.1, 0.02, 0.004]),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// Lemma 2.4 / Theorem 2.5 / Corollary 2.6 closed empirically: measure an
/// expansion sequence of each evolving graph, evaluate the flooding bound
/// on it, and compare with the flooding time measured on independent runs.
/// The bound must dominate on every substrate and is near-tight for the
/// expander-like ones (both MEG families, static `G(n, p̂)`) while staying
/// loose only for the genuinely weak-expanding 2-D grid.
pub fn general_bound() -> Scenario {
    Scenario {
        name: "general_bound".into(),
        description: "measured expansion sequence → Thm 2.5 bound vs measured flooding (Lem 2.4)"
            .into(),
        substrates: vec![
            Substrate::Geometric {
                n: 1_500,
                mobility: MobilityKind::GridWalk,
                radius: RadiusSpec::ThresholdFactor(1.0),
                move_radius: MoveRadiusSpec::RadiusFraction(0.5),
            },
            Substrate::Edge {
                n: 1_500,
                engine: EdgeEngine::Sparse,
                p_hat: PHatSpec::LogFactor(4.0),
                q: 0.5,
                init: InitKind::Stationary,
                stepping: SteppingKind::PerPair,
            },
            Substrate::Static {
                n: 1_500,
                graph: StaticKind::ErdosRenyi {
                    p_hat: PHatSpec::LogFactor(4.0),
                },
            },
            Substrate::Static {
                n: 1_600,
                graph: StaticKind::Grid2d,
            },
        ],
        protocols: vec![
            Protocol::Flooding,
            Protocol::BoundProbe {
                snapshots: 4,
                samples: 25,
            },
        ],
        sweep: Sweep::none(),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// Theorem 3.2 and Claim 1: the occupancy concentration `λ` of the
/// `⌈√(5n)/R⌉²` cell partition (every cell holds `Θ(R²)` nodes) and the two
/// expansion regimes of a stationary geometric snapshot — `≈ αR²/h` for
/// small sets, `≈ βR/√h` for large ones. The radius sits at 1.75× the
/// connectivity threshold so the finite-size concentration is visible.
///
/// The set-size grid lives in the protocol list, not a [`Param::SetSize`]
/// sweep axis: a sweep would cross the sizes with [`Protocol::OccupancyProbe`]
/// too (for which they are inert), multiplying the occupancy measurement
/// into redundant cells.
pub fn geo_expansion() -> Scenario {
    let profile = [1, 4, 16, 64, 256, 1024, 2000].map(|set_size| Protocol::ExpansionProbe {
        set_size,
        samples: 30,
    });
    Scenario {
        name: "geo_expansion".into(),
        description: "cell occupancy (Claim 1) + expansion profile of geometric snapshots \
                      (Thm 3.2)"
            .into(),
        substrates: vec![Substrate::Geometric {
            n: 4_000,
            mobility: MobilityKind::GridWalk,
            radius: RadiusSpec::ThresholdFactor(1.75),
            move_radius: MoveRadiusSpec::RadiusFraction(0.5),
        }],
        protocols: std::iter::once(Protocol::OccupancyProbe)
            .chain(profile)
            .collect(),
        sweep: Sweep::none(),
        trials: 5,
        round_budget: 1_000,
        precision: Precision::FixedTrials,
    }
}

/// Corollary 3.6 and the Conclusions: fix `n` and `R`, sweep the node speed
/// `r` from essentially zero (a static random geometric graph — the grid
/// resolution is 1, so a sub-1 move radius freezes the walk) to 8× the
/// transmission radius. As long as `r = O(R)`, mobility has an almost
/// negligible impact on the flooding time.
pub fn geo_mobility() -> Scenario {
    Scenario {
        name: "geo_mobility".into(),
        description: "geometric-MEG flooding time vs node speed r/R (Cor 3.6)".into(),
        substrates: vec![Substrate::Geometric {
            n: 3_000,
            mobility: MobilityKind::GridWalk,
            radius: RadiusSpec::ThresholdFactor(1.8),
            move_radius: MoveRadiusSpec::RadiusFraction(0.5),
        }],
        protocols: vec![Protocol::Flooding],
        sweep: Sweep::over(
            Param::MoveRadiusFraction,
            [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        ),
        trials: 5,
        round_budget: FLOOD_BUDGET,
        precision: Precision::FixedTrials,
    }
}

/// The epidemic threshold on a stationary edge-MEG: sweep the contagion
/// probability across the critical value `≈ 1/(E[deg]·d)` for both SIS and
/// SIR. Below threshold both go extinct fast (small final size); above it
/// SIR sweeps a large fraction of the graph and SIS turns *endemic* — those
/// cells are censored at the round budget and report `completion_rate < 1`
/// by design (the budget is a measurement decision, not a failure).
pub fn epidemic_threshold() -> Scenario {
    Scenario {
        name: "epidemic_threshold".into(),
        description:
            "SIS extinction vs endemic persistence and SIR final size across the contagion threshold"
                .into(),
        substrates: vec![Substrate::Edge {
            n: 600,
            engine: EdgeEngine::Sparse,
            p_hat: PHatSpec::LogFactor(3.0),
            q: 0.5,
            init: InitKind::Stationary,
            stepping: SteppingKind::PerPair,
        }],
        protocols: vec![
            Protocol::Sis {
                contagion: 0.1,
                infection_rounds: 2,
                immunity_rounds: 0,
            },
            Protocol::Sir {
                contagion: 0.1,
                infection_rounds: 2,
            },
        ],
        sweep: Sweep::over(Param::Contagion, [0.02, 0.1, 0.5]),
        trials: 3,
        round_budget: 2_000,
        precision: Precision::FixedTrials,
    }
}

/// The arXiv:1302.3828 dynamism-helps comparison: push-only rumor spreading
/// on a stationary edge-MEG vs a *static* `G(n, p̂)` at the same expected
/// density, pinned below the static connectivity threshold
/// (`p̂ = 0.8·ln n/n`). The static baseline strands isolated/low-degree
/// nodes and censors at the round budget, while the evolving substrate
/// re-randomizes neighborhoods every round and completes fast — the regime
/// tag on each row names the sparse regime the comparison lives in.
pub fn rumor_dynamism() -> Scenario {
    Scenario {
        name: "rumor_dynamism".into(),
        description:
            "push-only rumor spreading: evolving vs static G(n,p̂) at matched sub-threshold density \
             (arXiv:1302.3828 dynamism-helps regime)"
                .into(),
        substrates: vec![
            Substrate::Edge {
                n: 500,
                engine: EdgeEngine::Sparse,
                p_hat: PHatSpec::LogFactor(0.8),
                q: 0.5,
                init: InitKind::Stationary,
                stepping: SteppingKind::PerPair,
            },
            Substrate::Static {
                n: 500,
                graph: StaticKind::ErdosRenyi {
                    p_hat: PHatSpec::LogFactor(0.8),
                },
            },
        ],
        protocols: vec![Protocol::Rumor],
        sweep: Sweep::none(),
        trials: 3,
        round_budget: 3_000,
        precision: Precision::FixedTrials,
    }
}

/// Byzantine tampering in push–pull gossip: sweep the adversary count and
/// watch the *correct*-information coverage (the trial observable) fall
/// even though every node ends up informed of *something*.
pub fn byzantine_tamper() -> Scenario {
    Scenario {
        name: "byzantine_tamper".into(),
        description:
            "push–pull with tampering adversaries: correct-information coverage vs Byzantine count"
                .into(),
        substrates: vec![Substrate::Edge {
            n: 400,
            engine: EdgeEngine::Sparse,
            p_hat: PHatSpec::LogFactor(3.0),
            q: 0.5,
            init: InitKind::Stationary,
            stepping: SteppingKind::PerPair,
        }],
        protocols: vec![Protocol::Byzantine { count: 4 }],
        sweep: Sweep::over(Param::ByzantineCount, [0.0, 4.0, 16.0]),
        trials: 3,
        round_budget: 10_000,
        precision: Precision::FixedTrials,
    }
}

/// A deliberately tiny scenario covering both families and two protocols;
/// used by CI smoke stages and the integration tests.
pub fn quick_smoke() -> Scenario {
    Scenario {
        name: "quick_smoke".into(),
        description: "tiny two-family, two-protocol scenario for CI smoke runs".into(),
        substrates: vec![
            Substrate::Edge {
                n: 120,
                engine: EdgeEngine::Sparse,
                p_hat: PHatSpec::LogFactor(3.0),
                q: 0.5,
                init: InitKind::Stationary,
                stepping: SteppingKind::PerPair,
            },
            Substrate::Geometric {
                n: 150,
                mobility: MobilityKind::GridWalk,
                radius: RadiusSpec::ThresholdFactor(1.2),
                move_radius: MoveRadiusSpec::RadiusFraction(0.5),
            },
        ],
        protocols: vec![Protocol::Flooding, Protocol::PushPull],
        sweep: Sweep::none(),
        trials: 2,
        round_budget: 50_000,
        precision: Precision::FixedTrials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn registry_is_consistent() {
        for name in builtin_names() {
            let s = builtin(name).unwrap_or_else(|| panic!("missing builtin `{name}`"));
            assert_eq!(s.name, name, "registry key must match scenario name");
            assert!(s.validate().is_ok(), "builtin `{name}` fails validation");
            assert!(!s.description.is_empty());
            // Every builtin survives a JSON round-trip.
            let back = Scenario::parse(&s.to_json().render()).unwrap();
            assert_eq!(back, s);
        }
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn builtins_cover_both_families_and_multiple_protocols() {
        let all: Vec<Scenario> = builtin_names()
            .into_iter()
            .map(|n| builtin(n).unwrap())
            .collect();
        let families: std::collections::HashSet<String> = all
            .iter()
            .flat_map(|s| s.substrates.iter().map(|sub| sub.label()))
            .collect();
        assert!(families.iter().any(|f| f.starts_with("edge")));
        assert!(families.iter().any(|f| f.starts_with("geo")));
        let protocols: std::collections::HashSet<String> = all
            .iter()
            .flat_map(|s| s.protocols.iter().map(|p| p.label()))
            .collect();
        assert!(protocols.len() >= 2, "need ≥2 distinct protocols");
    }

    #[test]
    fn quick_smoke_is_actually_quick() {
        let s = quick_smoke();
        assert!(s.num_cells() <= 8);
        assert!(s.substrates.iter().all(|sub| sub.n() <= 200));
    }
}
