//! # meg-stats
//!
//! Experiment substrate: everything the reproduction harness needs to turn raw
//! flooding-time samples into the tables reported in `EXPERIMENTS.md`.
//!
//! * [`summary`] — means, variances, medians and extreme values;
//! * [`quantile`] — order statistics on f64 samples;
//! * [`ci`] — normal-approximation confidence intervals;
//! * [`fit`] — least-squares fits, including log–log power-law fits used to
//!   check the `√n/R` and `log n / log(np̂)` scaling shapes;
//! * [`gof`] — chi-square and two-sample KS goodness-of-fit tests with
//!   deterministic closed-form critical values, backing the edge-MEG
//!   chain-law suite;
//! * [`histogram`] — fixed-width binning;
//! * [`table`] — ASCII and CSV rendering of experiment tables;
//! * [`runner`] — seeded, rayon-parallel Monte-Carlo trial execution;
//! * [`seeds`] — deterministic per-trial RNG stream derivation.
//!
//! ## Example
//!
//! ```
//! use meg_stats::{run_trials_sequential, Summary};
//! use rand::Rng;
//!
//! // Each trial gets its own deterministic RNG stream derived from
//! // (master seed, trial index); results are reproducible and identical
//! // under sequential or parallel scheduling.
//! let obs: Vec<f64> = run_trials_sequential(2009, 32, |_i, rng| rng.gen_range(0.0..10.0));
//! let summary = Summary::of(&obs).unwrap();
//! assert_eq!(summary.count, 32);
//! assert!(summary.min >= 0.0 && summary.max < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod fit;
pub mod gof;
pub mod histogram;
pub mod quantile;
pub mod runner;
pub mod seeds;
pub mod summary;
pub mod table;

pub use ci::ConfidenceInterval;
pub use fit::{linear_fit, power_law_fit, LinearFit};
pub use gof::{chi_square_gof, ks_two_sample, Alpha, ChiSquareTest, KsTest};
pub use runner::{
    precision_checkpoints, run_trials, run_trials_range, run_trials_scheduled,
    run_trials_sequential, trial_threads,
};
pub use summary::Summary;
pub use table::Table;
