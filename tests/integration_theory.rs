//! Cross-crate integration tests focused on the theoretical machinery: the
//! general Theorem 2.5 pipeline (measured expansion → evaluated bound →
//! measured flooding), stationarity preservation, and regime classification.

use meg::core::analysis::{measure_expansion_sequence, ExpansionMeasurement};
use meg::graph::expansion::SamplingStrategy;
use meg::graph::{degree, Graph};
use meg::prelude::*;

#[test]
fn general_theorem_pipeline_bounds_measured_flooding_for_edge_meg() {
    let n = 500usize;
    let p_hat = 5.0 * (n as f64).ln() / n as f64;
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.5);

    // Measure an empirical expander sequence from a few snapshots.
    let mut probe = SparseEdgeMeg::stationary(params, 99);
    let mut rng = meg::stats::seeds::labeled_rng(3, "theory-edge");
    let options = ExpansionMeasurement {
        snapshots: 3,
        samples_per_size: 25,
        strategy: SamplingStrategy::Mixed,
    };
    let seq = measure_expansion_sequence(&mut probe, options, &mut rng).unwrap();
    let bound = seq.flooding_bound();

    // Independent flooding runs must respect the evaluated bound.
    for seed in 0..3u64 {
        let mut meg = SparseEdgeMeg::stationary(params, seed);
        let t = flood(&mut meg, 0, 100_000).completion_time().unwrap() as f64;
        assert!(
            bound >= t,
            "seed {seed}: Theorem 2.5 bound {bound} must dominate measured flooding {t}"
        );
    }
    // And the bound should be useful (within a modest factor) for this
    // expander-like family.
    let mut meg = SparseEdgeMeg::stationary(params, 1_000);
    let t = flood(&mut meg, 0, 100_000).completion_time().unwrap() as f64;
    assert!(
        bound <= 30.0 * t.max(1.0),
        "bound {bound} uselessly loose vs {t}"
    );
}

#[test]
fn general_theorem_pipeline_bounds_measured_flooding_for_geometric_meg() {
    let n = 400usize;
    let radius = 2.0 * (n as f64).ln().sqrt();
    let params = GeometricMegParams::new(n, radius / 2.0, radius);

    let mut probe = GeometricMeg::from_params(params, 77);
    let mut rng = meg::stats::seeds::labeled_rng(4, "theory-geo");
    let options = ExpansionMeasurement {
        snapshots: 3,
        samples_per_size: 25,
        strategy: SamplingStrategy::Mixed,
    };
    let seq = measure_expansion_sequence(&mut probe, options, &mut rng).unwrap();
    let bound = seq.flooding_bound();

    for seed in 0..2u64 {
        let mut meg = GeometricMeg::from_params(params, seed);
        let t = flood(&mut meg, 0, 100_000).completion_time().unwrap() as f64;
        assert!(
            bound >= t,
            "seed {seed}: Theorem 2.5 bound {bound} must dominate measured flooding {t}"
        );
    }
}

#[test]
fn edge_meg_snapshots_stay_stationary_over_time() {
    // The marginal law of every snapshot of a stationary edge-MEG is G(n, p̂):
    // the mean degree must not drift over a long run.
    let n = 400usize;
    let p_hat = 0.03;
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.2);
    let mut meg = SparseEdgeMeg::stationary(params, 5);
    let expected = (n as f64 - 1.0) * p_hat;
    let mut early = 0.0;
    let mut late = 0.0;
    for t in 0..60 {
        let mean = degree::degree_stats(meg.advance()).unwrap().mean;
        if t < 10 {
            early += mean / 10.0;
        }
        if t >= 50 {
            late += mean / 10.0;
        }
    }
    assert!(
        (early - expected).abs() < 0.25 * expected,
        "early mean degree {early}"
    );
    assert!(
        (late - expected).abs() < 0.25 * expected,
        "late mean degree {late}"
    );
}

#[test]
fn geometric_meg_snapshots_stay_connected_over_time_above_threshold() {
    let n = 400usize;
    let radius = 2.2 * (n as f64).ln().sqrt();
    let params = GeometricMegParams::new(n, radius / 2.0, radius);
    let mut meg = GeometricMeg::from_params(params, 8);
    let mut connected = 0usize;
    let steps = 20usize;
    for _ in 0..steps {
        if meg::graph::connectivity::is_connected(meg.advance()) {
            connected += 1;
        }
    }
    assert!(
        connected >= steps - 1,
        "snapshots above the connectivity threshold should stay connected ({connected}/{steps})"
    );
}

#[test]
fn regime_predicates_agree_with_bound_helpers() {
    let n = 10_000usize;
    // Geometric: a radius inside the tight window.
    let radius = 3.0 * spec::geometric_connectivity_threshold(n, 1.0);
    assert_eq!(
        spec::geometric_regime(n, radius, radius / 2.0, 1.0),
        spec::GeometricRegime::Tight
    );
    let b = GeometricBounds::new(n, radius, radius / 2.0);
    assert!(b.lower() <= b.upper(1.0));

    // Edge: p̂ inside the tight window.
    let p_hat = 3.0 * spec::edge_connectivity_threshold(n, 1.0);
    assert_eq!(spec::edge_regime(n, p_hat, 1.0), spec::EdgeRegime::Tight);
    let b = EdgeBounds::new(n, p_hat);
    assert!(b.lower() <= b.upper(1.0));
}

#[test]
fn static_snapshot_flooding_matches_dynamic_flooding_when_mobility_is_frozen() {
    // With a move radius below the grid resolution the walk cannot move, so
    // flooding on the "dynamic" graph equals flooding on its first snapshot.
    let n = 300usize;
    let radius = 2.0 * (n as f64).ln().sqrt();
    let params = GeometricMegParams {
        n,
        move_radius: 0.4,
        transmission_radius: radius,
        resolution: 1.0,
    };
    let mut meg = GeometricMeg::from_params(params, 21);
    let first_snapshot = meg.current_snapshot().to_adjacency();
    let static_time = flood_static(&first_snapshot, 0).completion_time();
    let dynamic_time = flood(&mut meg, 0, 100_000).completion_time();
    assert_eq!(static_time, dynamic_time);
}

#[test]
fn frozen_two_state_chain_preserves_the_whole_graph() {
    let params = EdgeMegParams::new(60, 0.0, 0.0);
    let mut meg = DenseEdgeMeg::stationary(params, 17);
    let first = meg.advance().clone();
    for _ in 0..5 {
        let next = meg.advance();
        assert_eq!(next.num_edges(), first.num_edges());
    }
}
