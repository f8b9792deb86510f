//! Mutated inputs never panic a decoder.
//!
//! Every truncation and every single-token substitution of a valid input
//! goes through the decoder of its input surface, and each call must return
//! `Ok` or `Err`:
//!
//! * each builtin's scenario JSON through `Scenario::parse`, then
//!   `resolve_cells`;
//! * a `quick_smoke` row line through `Json::parse`, then `Row`,
//!   `TrialOutcome` and `PartHeader` decoding;
//! * `BENCH_GATE.json` through `bench_baseline::parse_baseline`.

use meg_engine::bench_baseline::parse_baseline;
use meg_engine::dist::PartHeader;
use meg_engine::run::resolve_cells;
use meg_engine::{builtin, builtin_names, run_scenario, Json, Row, Scenario, TrialOutcome};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What replaces one token: a digit, JSON punctuation, an exponent marker,
/// the largest finite magnitude, a non-JSON number, or nothing.
const SUBSTITUTES: [&str; 9] = ["0", "-", "\"", "{", "]", "e", "1e308", "nan", ""];

/// The byte ranges of `text`'s JSON tokens: strings (escapes included),
/// numbers, bare words and single punctuation characters. Whitespace is not
/// a token.
fn tokens(text: &str) -> Vec<Range<usize>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
            }
            b'{' | b'}' | b'[' | b']' | b':' | b',' => i += 1,
            _ => {
                while i < bytes.len()
                    && !bytes[i].is_ascii_whitespace()
                    && !b"{}[]:,\"".contains(&bytes[i])
                {
                    i += 1;
                }
            }
        }
        out.push(start..i);
    }
    out
}

/// Every truncation of `text` (at each char boundary), then every
/// substitution of one token by one of [`SUBSTITUTES`].
fn mutations(text: &str) -> Vec<String> {
    let mut out: Vec<String> = text
        .char_indices()
        .map(|(at, _)| text[..at].to_string())
        .collect();
    for token in tokens(text) {
        for with in SUBSTITUTES {
            out.push(format!(
                "{}{with}{}",
                &text[..token.start],
                &text[token.end..]
            ));
        }
    }
    out
}

/// Runs `decode` on every mutation of `text`, failing on the first one
/// that panics; returns how many it ran.
fn assert_no_panic(what: &str, text: &str, decode: impl Fn(&str)) -> usize {
    let all = mutations(text);
    for m in &all {
        if catch_unwind(AssertUnwindSafe(|| decode(m))).is_err() {
            panic!("{what}: the decoder panicked on {m:?}");
        }
    }
    all.len()
}

#[test]
fn every_builtin_scenario_mutation_parses_or_errs() {
    let decode = |text: &str| {
        if let Ok(scenario) = Scenario::parse(text) {
            let _ = resolve_cells(&scenario);
        }
    };
    for name in builtin_names() {
        let text = builtin(name).expect("builtin").to_json().render();
        let scenario = Scenario::parse(&text).expect("the unmutated scenario parses");
        resolve_cells(&scenario).expect("the unmutated scenario resolves");
        assert!(assert_no_panic(name, &text, decode) > 1_000, "{name}");
    }
}

#[test]
fn every_row_line_mutation_decodes_or_errs() {
    let mut scenario = builtin("quick_smoke").expect("builtin").scaled(0.1);
    scenario.trials = 2;
    let row = &run_scenario(&scenario, 2009).expect("quick_smoke runs")[0];
    let line = row.to_json().render();
    let parsed = Json::parse(&line).expect("the unmutated row line parses");
    assert_eq!(
        Row::from_json(&parsed).expect("a row").to_json().render(),
        line
    );
    let decode = |text: &str| {
        if let Ok(json) = Json::parse(text) {
            let _ = Row::from_json(&json);
            let _ = TrialOutcome::from_json(&json);
            let _ = PartHeader::from_json(&json);
        }
    };
    assert!(assert_no_panic("row line", &line, decode) > 1_000);
}

#[test]
fn every_bench_gate_mutation_parses_or_errs() {
    let text = include_str!("../../../BENCH_GATE.json");
    assert!(!parse_baseline(text)
        .expect("the unmutated gate parses")
        .is_empty());
    let decode = |text: &str| {
        let _ = parse_baseline(text);
    };
    assert!(assert_no_panic("BENCH_GATE.json", text, decode) > 1_000);
}
