//! Seeded Monte-Carlo trial execution.
//!
//! Every experiment in the harness is "run this closure `trials` times with
//! independent randomness and aggregate". The closure receives a trial index
//! and its own deterministic RNG, so the result set is identical whether the
//! trials run sequentially or on a rayon thread pool, and identical across
//! repeated invocations with the same master seed.

use crate::seeds::trial_rng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// How many threads trials fan out to: `rayon::current_num_threads()`
/// (`RAYON_NUM_THREADS` when set, else the available parallelism). The
/// scenario engine sizes its trial threads by it, too.
pub fn trial_threads() -> usize {
    rayon::current_num_threads()
}

/// Runs `trials` independent trials in parallel and collects their results in
/// trial order.
///
/// `f(i, rng)` must be a pure function of its arguments for the determinism
/// guarantee to hold.
pub fn run_trials<T, F>(master_seed: u64, trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut ChaCha8Rng) -> T + Sync,
{
    (0..trials)
        .into_par_iter()
        .map(|i| {
            let mut rng = trial_rng(master_seed, i as u64);
            f(i, &mut rng)
        })
        .collect()
}

/// Sequential equivalent of [`run_trials`], useful inside doctests, from
/// single-threaded contexts, and to verify scheduling independence.
pub fn run_trials_sequential<T, F>(master_seed: u64, trials: usize, mut f: F) -> Vec<T>
where
    F: FnMut(usize, &mut ChaCha8Rng) -> T,
{
    (0..trials)
        .map(|i| {
            let mut rng = trial_rng(master_seed, i as u64);
            f(i, &mut rng)
        })
        .collect()
}

/// Runs trials `start .. start + count` in parallel and collects their
/// results in trial order.
///
/// Trial `i` receives exactly the RNG stream it would receive from
/// [`run_trials`]: the seed depends only on `(master_seed, i)`, never on the
/// range boundaries. Concatenating range results therefore reproduces a
/// single [`run_trials`] call byte for byte — which is what lets the
/// distributed coordinator grow a cell's trial set in increments without
/// changing any statistic.
pub fn run_trials_range<T, F>(master_seed: u64, start: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut ChaCha8Rng) -> T + Sync,
{
    (start..start + count)
        .into_par_iter()
        .map(|i| {
            let mut rng = trial_rng(master_seed, i as u64);
            f(i, &mut rng)
        })
        .collect()
}

/// The deterministic trial-count schedule adaptive execution checks at:
/// `min_trials`, then doubling, capped at (and always ending with)
/// `max_trials`.
///
/// Both the in-process runner and the distributed coordinator consult this
/// same schedule, so an adaptive run stops after the identical number of
/// trials no matter where it executes — the invariant behind the engine's
/// "sharded adaptive output is byte-identical to unsharded" guarantee.
pub fn precision_checkpoints(min_trials: usize, max_trials: usize) -> Vec<usize> {
    let max = max_trials.max(1);
    let mut at = min_trials.clamp(1, max);
    let mut out = vec![at];
    while at < max {
        at = (at.saturating_mul(2)).min(max);
        out.push(at);
    }
    out
}

/// Runs trials in parallel batches up to each checkpoint in `checkpoints`
/// (ascending trial counts; see [`precision_checkpoints`]), stopping early
/// when `stop` returns `true` on the results collected so far. The final
/// checkpoint is a hard budget: `stop` is not consulted there.
///
/// Like [`run_trials`], trial `i`'s randomness depends only on
/// `(master_seed, i)`, so the returned prefix is byte-identical to a fixed
/// [`run_trials`] call of the same length — batching is invisible to the
/// statistics.
pub fn run_trials_scheduled<T, F, S>(
    master_seed: u64,
    checkpoints: &[usize],
    f: F,
    stop: S,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut ChaCha8Rng) -> T + Sync,
    S: Fn(&[T]) -> bool,
{
    let mut results: Vec<T> = Vec::new();
    for (k, &target) in checkpoints.iter().enumerate() {
        if target > results.len() {
            let start = results.len();
            let mut chunk = run_trials_range(master_seed, start, target - start, &f);
            results.append(&mut chunk);
        }
        let last = k + 1 == checkpoints.len();
        if !last && stop(&results) {
            break;
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn parallel_and_sequential_agree() {
        let par = run_trials(42, 64, |i, rng| (i, rng.gen::<u64>()));
        let seq = run_trials_sequential(42, 64, |i, rng| (i, rng.gen::<u64>()));
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_matches_sequential_across_many_chunks() {
        // Enough trials that the rayon shim splits the work across every
        // available core; each trial draws a variable amount of randomness so
        // any cross-trial stream sharing would be visible in the output.
        let f = |i: usize, rng: &mut rand_chacha::ChaCha8Rng| -> (usize, Vec<u64>) {
            let draws = 1 + i % 7;
            (i, (0..draws).map(|_| rng.gen::<u64>()).collect())
        };
        let par = run_trials(2009, 500, f);
        let seq = run_trials_sequential(2009, 500, f);
        assert_eq!(par, seq);
    }

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(0, 100, |i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_change_results() {
        let a = run_trials(1, 8, |_, rng| rng.gen::<u64>());
        let b = run_trials(2, 8, |_, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn range_results_concatenate_to_a_full_run() {
        let f = |i: usize, rng: &mut rand_chacha::ChaCha8Rng| (i, rng.gen::<u64>());
        let full = run_trials(77, 30, f);
        let mut pieced = run_trials_range(77, 0, 12, f);
        pieced.extend(run_trials_range(77, 12, 5, f));
        pieced.extend(run_trials_range(77, 17, 13, f));
        assert_eq!(pieced, full);
        assert!(run_trials_range(77, 9, 0, f).is_empty());
    }

    #[test]
    fn precision_checkpoints_double_and_end_at_max() {
        assert_eq!(precision_checkpoints(4, 40), vec![4, 8, 16, 32, 40]);
        assert_eq!(precision_checkpoints(5, 5), vec![5]);
        assert_eq!(precision_checkpoints(9, 5), vec![5]); // min clamps to max
        assert_eq!(precision_checkpoints(0, 3), vec![1, 2, 3]);
        assert_eq!(precision_checkpoints(0, 0), vec![1]);
    }

    #[test]
    fn scheduled_runner_stops_at_first_satisfied_checkpoint_only() {
        // Stop rule satisfied immediately: only the first checkpoint runs.
        let out = run_trials_scheduled(1, &[4, 8, 16], |i, _| i, |_| true);
        assert_eq!(out, vec![0, 1, 2, 3]);
        // Stop rule never satisfied: the final checkpoint is a hard budget.
        let out = run_trials_scheduled(1, &[4, 8, 16], |i, _| i, |_| false);
        assert_eq!(out.len(), 16);
        // The prefix matches a fixed run of the same length (byte-identity).
        let f = |_: usize, rng: &mut rand_chacha::ChaCha8Rng| rng.gen::<u64>();
        let adaptive = run_trials_scheduled(9, &[4, 8, 16], f, |r| r.len() >= 8);
        assert_eq!(adaptive, run_trials(9, 8, f));
    }
}
