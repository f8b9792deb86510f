//! Every workload at a small scale: it runs, its rows pass the output check,
//! the traced replica reproduces them byte for byte, and two count passes
//! repeat rows and counts exactly.

use meg_perfbench::trace::traced_sweep;
use meg_perfbench::workload::{misses, Mode, Target, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn small(name: &str) -> Target {
    let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
    Target {
        scenario: w.scenario(0.05),
        seed: 7,
        mode: w.mode,
        exe: Some(PathBuf::from(BIN)),
    }
}

// One test: the count pass installs the process-global `meg_obs` recorder.
#[test]
fn every_workload_repeats_rows_and_counts_and_the_trace_matches() {
    for w in &WORKLOADS {
        let target = small(w.name);
        let cells = target.cells().unwrap();
        let first = target.counts().unwrap();
        let second = target.counts().unwrap();
        assert_eq!(first, second, "{}: count passes differ", w.name);

        let reference = target.reference(&cells, &first.lines);
        assert!(
            reference.iter().all(Option::is_some),
            "{}: bad rows",
            w.name
        );
        assert_eq!(
            misses(&reference, &target.sweep().unwrap()),
            0,
            "{}",
            w.name
        );
        assert_eq!(
            misses(&reference, &target.sweep_in_process().unwrap()),
            0,
            "{}",
            w.name
        );

        let traced = traced_sweep(&target.scenario, target.seed).unwrap();
        assert_eq!(traced.lines, first.lines, "{}: traced rows differ", w.name);
        let l = &traced.layers;
        assert_eq!(l.cell_ns.len(), cells.len());
        assert!(l.attributed_ns <= l.wall_ns);
        assert!(l.rounds > 0, "{}: no protocol rounds", w.name);

        let edge = !l.edge.advance_ns.is_empty();
        let geo = !l.geo.advance_ns.is_empty();
        assert_eq!(edge, first.edge_flips > 0, "{}", w.name);
        assert_eq!(geo, first.scan_visits > 0, "{}", w.name);
        assert_eq!(
            first.round_trips > 0,
            matches!(w.mode, Mode::Pool(_)),
            "{}",
            w.name
        );
        match w.name {
            "edge_vs_n" | "epidemic_threshold" => assert!(edge && !geo),
            "geo_vs_n" => assert!(geo && !edge),
            _ => assert!(edge && geo && l.probe_calls > 0 && l.fixed.init_ns > 0),
        }
    }
}

#[test]
fn a_pool_setup_spawns_and_handshakes() {
    let (total, spawn) = small("general_bound.pool2").setup().unwrap();
    assert!(spawn > std::time::Duration::ZERO && total >= spawn);
    let (_, spawn) = small("edge_vs_n").setup().unwrap();
    assert_eq!(spawn, std::time::Duration::ZERO);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "edge_vs_n", "--trace", "2"],
        &["--workload", "edge_vs_n", "--seconds", "-1"],
        &["setup"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
