//! # meg-markov
//!
//! The Markov chain behind the edge-MEG of the `meg` workspace.
//!
//! Every potential edge of an edge-MEG follows the two-state birth/death
//! chain of Section 4 ([`TwoStateChain`]). The [`batch`] module steps 64
//! copies of that chain at a time ([`WordStepper`]) on the same draw
//! schedule as a scalar loop, which is how the dense edge-MEG advances.
//!
//! ## Example
//!
//! ```
//! use meg_markov::TwoStateChain;
//!
//! // Birth rate p = 0.2, death rate q = 0.3 → stationary edge probability
//! // p̂ = p/(p+q) = 0.4.
//! let chain = TwoStateChain::new(0.2, 0.3);
//! let (pi_absent, pi_present) = chain.stationary();
//! assert!((pi_present - 0.4).abs() < 1e-12);
//! assert!((pi_absent + pi_present - 1.0).abs() < 1e-12);
//!
//! // Multi-step transition probabilities converge to the stationary law.
//! let p100 = chain.prob_present_after(false, 100);
//! assert!((p100 - pi_present).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod two_state;

pub use batch::{bernoulli_word, gen_bool_threshold, WordStepper};
pub use two_state::TwoStateChain;
