//! Unstructured peer-to-peer overlay / epidemic scenario: connections between
//! peers come and go with strong temporal correlation (a link that exists now
//! probably still exists in a moment), which is exactly the edge-Markovian
//! model. A data item is injected at one peer and flooded.
//!
//! The example contrasts:
//! * the *stationary* network (the overlay has been running for a while) —
//!   dissemination is fast, `Θ(log n / log(np̂))`;
//! * a *cold start* (the overlay begins with no connections at all) — the same
//!   protocol can take orders of magnitude longer when links are born rarely,
//!   the "exponential gap" the paper points out;
//! * flooding vs push–pull gossip message overhead on the same dynamic
//!   overlay.
//!
//! Run with:
//! ```text
//! cargo run --release --example epidemic_p2p
//! ```

use meg::prelude::*;
use meg::stats::table::fmt_f64;

#[path = "support/scale.rs"]
mod support;
use support::scaled;

fn main() {
    let n = scaled(1_000, 150);
    let p_hat = 4.0 * (n as f64).ln() / n as f64; // comfortably connected overlay
    let seed = 77;

    println!("peers n = {n}, stationary link probability p̂ = {p_hat:.4}\n");

    // --------------------------------------------------- stationary vs cold start
    let mut table = Table::new(
        "Dissemination time: warm (stationary) overlay vs cold start, by link churn",
        &[
            "death rate q",
            "birth rate p",
            "warm (rounds)",
            "cold start (rounds)",
            "gap",
        ],
    );
    for q in [0.5, 0.05, 0.005] {
        let params = EdgeMegParams::with_stationary(n, p_hat, q);
        let mut warm = SparseEdgeMeg::stationary(params, seed);
        let warm_time = flood(&mut warm, 0, 1_000_000)
            .completion_time()
            .expect("stationary overlay floods");
        let mut cold = SparseEdgeMeg::new(params, InitialDistribution::Empty, seed + 1);
        let cold_time = flood(&mut cold, 0, 1_000_000)
            .completion_time()
            .expect("cold start eventually floods");
        table.push_row(&[
            fmt_f64(q),
            format!("{:.2e}", params.p),
            warm_time.to_string(),
            cold_time.to_string(),
            fmt_f64(cold_time as f64 / warm_time as f64),
        ]);
    }
    println!("{}", table.render_ascii());
    println!(
        "Reading: the warm overlay disseminates in a handful of rounds regardless of churn,\n\
         while the cold start pays roughly 1/p rounds just waiting for links to appear —\n\
         the stationary-vs-worst-case gap of Section 1 of the paper.\n"
    );

    // --------------------------------------------------------- protocol overhead
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.2);
    let mut rng = meg::stats::seeds::labeled_rng(seed, "p2p-protocols");

    let mut flood_overlay = SparseEdgeMeg::stationary(params, seed + 10);
    let flood_run = probabilistic_flood(&mut flood_overlay, 0, 1.0, 10_000, &mut rng);

    let mut lazy_overlay = SparseEdgeMeg::stationary(params, seed + 11);
    let lazy_run = probabilistic_flood(&mut lazy_overlay, 0, 0.3, 10_000, &mut rng);

    let mut gossip_overlay = SparseEdgeMeg::stationary(params, seed + 12);
    let gossip_run = push_pull_gossip(&mut gossip_overlay, 0, 10_000, &mut rng);

    let mut pars_overlay = SparseEdgeMeg::stationary(params, seed + 13);
    let pars_run = parsimonious_flood(&mut pars_overlay, 0, 2, 10_000);

    let mut protocols = Table::new(
        "Protocol comparison on the same stationary overlay",
        &["protocol", "completed", "rounds", "messages"],
    );
    for (name, run) in [
        ("flooding", &flood_run),
        ("probabilistic flooding (β = 0.3)", &lazy_run),
        ("push–pull gossip", &gossip_run),
        ("parsimonious flooding (k = 2)", &pars_run),
    ] {
        protocols.push_row(&[
            name.to_string(),
            run.completed.to_string(),
            run.rounds.to_string(),
            run.messages_sent.to_string(),
        ]);
    }
    println!("{}", protocols.render_ascii());
    println!(
        "Reading: plain flooding is the latency baseline every alternative is measured\n\
         against (as the paper argues); the alternatives trade rounds for messages."
    );
}
