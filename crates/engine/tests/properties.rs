//! Property tests: every randomly generated `Scenario`/`Sweep` serializes to
//! JSON and deserializes back to an equal value, the sweep grid's cell
//! enumeration is a faithful cartesian product, and `row_to_csv` escaping is
//! reversible for arbitrary (comma/quote/newline-laden) strings.

use meg_engine::json::Json;
use meg_engine::run::Row;
use meg_engine::scenario::{
    AdversarialKind, Axis, EdgeEngine, InitKind, MobilityKind, MoveRadiusSpec, PHatSpec, Param,
    Precision, Protocol, RadiusSpec, Scenario, StaticKind, Substrate, Sweep,
};
use meg_engine::sink::{row_to_csv, CSV_HEADER};
use meg_stats::Summary;
use proptest::prelude::*;
use proptest::Strategy;

// --- strategies ------------------------------------------------------------

fn arb_f64() -> impl Strategy<Value = f64> {
    // A mix of scales, including awkward values (tiny, huge, negative,
    // high-precision) — everything a float axis might carry.
    (0u64..6).prop_flat_map(|kind| {
        (0.0f64..1.0).prop_map(move |u| match kind {
            0 => u,
            1 => u * 1e6,
            2 => -u * 37.5,
            3 => u * 1e-9,
            4 => (u * 100.0).round() / 8.0, // exactly representable
            _ => u * 3.0 + 0.25,
        })
    })
}

fn arb_phat() -> impl Strategy<Value = PHatSpec> {
    (proptest::bool::ANY, 0.0001f64..0.9, 0.5f64..8.0).prop_map(|(fixed, v, f)| {
        if fixed {
            PHatSpec::Fixed(v)
        } else {
            PHatSpec::LogFactor(f)
        }
    })
}

fn arb_radius() -> impl Strategy<Value = RadiusSpec> {
    (proptest::bool::ANY, 1.1f64..50.0, 0.5f64..8.0).prop_map(|(fixed, v, f)| {
        if fixed {
            RadiusSpec::Fixed(v)
        } else {
            RadiusSpec::ThresholdFactor(f)
        }
    })
}

fn arb_move_radius() -> impl Strategy<Value = MoveRadiusSpec> {
    (proptest::bool::ANY, 0.1f64..10.0, 0.05f64..2.0).prop_map(|(fixed, v, f)| {
        if fixed {
            MoveRadiusSpec::Fixed(v)
        } else {
            MoveRadiusSpec::RadiusFraction(f)
        }
    })
}

fn arb_edge_substrate() -> impl Strategy<Value = Substrate> {
    (2usize..5000, 0u64..2, arb_phat(), 0.01f64..=1.0, 0u64..3).prop_map(
        |(n, engine, p_hat, q, init)| Substrate::Edge {
            n,
            engine: if engine == 0 {
                EdgeEngine::Dense
            } else {
                EdgeEngine::Sparse
            },
            p_hat,
            q,
            init: match init {
                0 => InitKind::Stationary,
                1 => InitKind::Empty,
                _ => InitKind::Full,
            },
        },
    )
}

fn arb_geo_substrate() -> impl Strategy<Value = Substrate> {
    (2usize..5000, 0usize..4, arb_radius(), arb_move_radius()).prop_map(
        |(n, mobility, radius, move_radius)| Substrate::Geometric {
            n,
            mobility: MobilityKind::ALL[mobility],
            radius,
            move_radius,
        },
    )
}

fn arb_other_substrate() -> impl Strategy<Value = Substrate> {
    (4usize..5000, 0usize..4, arb_phat()).prop_map(|(n, kind, p_hat)| match kind {
        0 => Substrate::Adversarial {
            n,
            construction: AdversarialKind::RotatingStar,
        },
        1 => Substrate::Adversarial {
            n,
            construction: AdversarialKind::RotatingBridge,
        },
        2 => Substrate::Static {
            n,
            graph: StaticKind::ErdosRenyi { p_hat },
        },
        _ => Substrate::Static {
            n,
            graph: StaticKind::Grid2d,
        },
    })
}

fn arb_substrate() -> impl Strategy<Value = Substrate> {
    // Generate every family, keep one — the shim has no `prop_oneof`.
    (
        0u64..4,
        arb_edge_substrate(),
        arb_geo_substrate(),
        arb_other_substrate(),
    )
        .prop_map(|(kind, e, g, o)| match kind {
            0 | 1 => {
                if kind == 0 {
                    e
                } else {
                    g
                }
            }
            _ => o,
        })
}

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    (0u64..12, 0.0f64..=1.0, 1u64..20, 1u64..64).prop_map(|(kind, beta, k, h)| match kind {
        0 => Protocol::Flooding,
        1 => Protocol::Probabilistic { beta },
        2 => Protocol::Parsimonious { active_rounds: k },
        3 => Protocol::PushPull,
        4 => Protocol::ExpansionProbe {
            set_size: h,
            samples: k,
        },
        5 => Protocol::DiameterProbe,
        6 => Protocol::BoundProbe {
            snapshots: k,
            samples: h,
        },
        7 => Protocol::OccupancyProbe,
        8 => Protocol::Sis {
            contagion: beta,
            infection_rounds: k,
            // `h - 1` so the SIS special case (zero-round immunity) is hit.
            immunity_rounds: h - 1,
        },
        9 => Protocol::Sir {
            contagion: beta,
            infection_rounds: k,
        },
        10 => Protocol::Rumor,
        _ => Protocol::Byzantine { count: h },
    })
}

fn arb_precision() -> impl Strategy<Value = Precision> {
    (proptest::bool::ANY, 0.0f64..10.0, 1usize..16, 0usize..256).prop_map(
        |(fixed, eps, min_trials, extra)| {
            if fixed {
                Precision::FixedTrials
            } else {
                Precision::TargetStderr {
                    eps,
                    min_trials,
                    max_trials: min_trials + extra,
                }
            }
        },
    )
}

fn arb_param() -> impl Strategy<Value = Param> {
    (0usize..Param::ALL.len()).prop_map(|i| Param::ALL[i])
}

fn arb_sweep() -> impl Strategy<Value = Sweep> {
    proptest::collection::vec(
        (arb_param(), proptest::collection::vec(arb_f64(), 1usize..5)),
        0usize..4,
    )
    .prop_map(|axes| Sweep {
        axes: axes
            .into_iter()
            .map(|(param, values)| Axis { param, values })
            .collect(),
    })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(arb_substrate(), 1usize..4),
        proptest::collection::vec(arb_protocol(), 1usize..4),
        arb_sweep(),
        1usize..20,
        1u64..1_000_000,
        0u64..1000,
        arb_precision(),
    )
        .prop_map(
            |(substrates, protocols, sweep, trials, round_budget, tag, precision)| Scenario {
                name: format!("prop_scenario_{tag}"),
                description: format!("generated scenario #{tag} — quotes \" and \\ too"),
                substrates,
                protocols,
                sweep,
                trials,
                round_budget,
                precision,
            },
        )
}

/// Strings drawn from an alphabet rich in CSV-hostile characters: commas,
/// quotes, CR/LF, equals signs, and some multi-byte text.
fn arb_nasty_string() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = ['a', 'B', '7', 'θ', ',', '"', '\n', '\r', '=', ' ', '-', '_'];
    proptest::collection::vec(0usize..ALPHABET.len(), 0usize..12)
        .prop_map(|indices| indices.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        arb_nasty_string(),
        arb_nasty_string(),
        arb_nasty_string(),
        proptest::collection::vec((arb_nasty_string(), arb_f64()), 0usize..4),
        0usize..50,
        proptest::bool::ANY,
    )
        .prop_map(
            |(scenario, protocol, regime, params, cell, completed)| Row {
                scenario,
                cell,
                family: "edge".into(),
                substrate: "edge-sparse".into(),
                protocol,
                params,
                regime,
                seed: 0x1234_5678_9abc_def0,
                trials: 4,
                requested_trials: 8,
                achieved_stderr: if completed { Some(0.125) } else { None },
                completion_rate: if completed { 0.75 } else { 0.0 },
                rounds: if completed {
                    Summary::of_counts(&[3, 5, 9])
                } else {
                    None
                },
                mean_messages: 123.5,
            },
        )
}

/// A strict RFC-4180-style record parser: quoted fields may contain commas,
/// doubled quotes, and newlines; anything after a closing quote other than a
/// comma or end-of-record is a parse error.
fn parse_csv_record(input: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut chars = input.chars().peekable();
    loop {
        let mut field = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next()? {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            break;
                        }
                    }
                    c => field.push(c),
                }
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c == ',' {
                    break;
                }
                if c == '"' {
                    return None; // bare quote inside an unquoted field
                }
                field.push(c);
                chars.next();
            }
        }
        fields.push(field);
        match chars.next() {
            Some(',') => continue,
            None => return Some(fields),
            Some(_) => return None,
        }
    }
}

// --- properties ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scenario_json_round_trip(scenario in arb_scenario()) {
        let compact = scenario.to_json().render();
        let back = Scenario::parse(&compact)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e} on {compact}")))?;
        prop_assert_eq!(&back, &scenario);

        let pretty = scenario.to_json().render_pretty();
        let back_pretty = Scenario::parse(&pretty)
            .map_err(|e| TestCaseError::fail(format!("pretty reparse failed: {e}")))?;
        prop_assert_eq!(&back_pretty, &scenario);
    }

    #[test]
    fn sweep_json_round_trip(sweep in arb_sweep()) {
        let text = sweep.to_json().render();
        let json = Json::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("invalid JSON: {e}")))?;
        let back = Sweep::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, sweep);
    }

    #[test]
    fn sweep_cells_enumerate_the_full_grid(sweep in arb_sweep()) {
        let expected: usize = sweep.axes.iter().map(|a| a.values.len()).product();
        prop_assert_eq!(sweep.num_cells(), expected.max(1));
        // Each cell assignment picks one value per axis, and distinct cell
        // indices give distinct assignments.
        let mut seen = std::collections::HashSet::new();
        for i in 0..sweep.num_cells() {
            let cell = sweep.cell(i);
            prop_assert_eq!(cell.len(), sweep.axes.len());
            for ((param, value), axis) in cell.iter().zip(sweep.axes.iter()) {
                prop_assert_eq!(*param, axis.param);
                prop_assert!(axis.values.iter().any(|v| v.to_bits() == value.to_bits()),
                    "cell value {} not on its axis", value);
            }
            let key: Vec<u64> = cell.iter().map(|(_, v)| v.to_bits()).collect();
            seen.insert(key);
        }
        // Distinct assignments unless an axis repeats a value.
        let has_dup_values = sweep.axes.iter().any(|a| {
            let set: std::collections::HashSet<u64> =
                a.values.iter().map(|v| v.to_bits()).collect();
            set.len() != a.values.len()
        });
        if !has_dup_values {
            prop_assert_eq!(seen.len(), sweep.num_cells());
        }
    }

    #[test]
    fn row_to_csv_escapes_arbitrary_strings_reversibly(row in arb_row()) {
        let record = row_to_csv(&row);
        let fields = parse_csv_record(&record)
            .ok_or_else(|| TestCaseError::fail(format!("unparsable record: {record:?}")))?;
        prop_assert_eq!(fields.len(), CSV_HEADER.split(',').count(),
            "field count must match the header for {:?}", record);
        // The string fields survive the escape/parse round trip verbatim.
        prop_assert_eq!(&fields[0], &row.scenario);
        prop_assert_eq!(&fields[1], &row.cell.to_string());
        prop_assert_eq!(&fields[4], &row.protocol);
        prop_assert_eq!(&fields[5], &row.params_compact());
        prop_assert_eq!(&fields[6], &row.regime);
        prop_assert_eq!(&fields[7], &row.seed.to_string());
        // And rows that carry no specials contain no quoting at all.
        if !row.scenario.contains(['"', ',', '\n', '\r'])
            && !row.protocol.contains(['"', ',', '\n', '\r'])
            && !row.regime.contains(['"', ',', '\n', '\r'])
            && !row.params_compact().contains(['"', ',', '\n', '\r'])
        {
            prop_assert!(!record.contains('"'), "gratuitous quoting in {:?}", record);
        }
    }

    #[test]
    fn rows_round_trip_through_json_for_arbitrary_strings(row in arb_row()) {
        let back = Row::from_json(&row.to_json())
            .map_err(|e| TestCaseError::fail(format!("row reparse failed: {e}")))?;
        prop_assert_eq!(&back, &row);
    }

    #[test]
    fn json_values_round_trip_through_text(xs in proptest::collection::vec(arb_f64(), 0usize..8)) {
        let v = Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        let back = Json::parse(&v.render())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(back, v);
    }
}
