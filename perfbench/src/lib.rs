//! End-to-end sweep benchmark for the meg workspace.
//!
//! A workload is one paper builtin at full scale, run as a closed loop (one
//! client, one sweep at a time) through the engine's public entry points:
//! [`meg_engine::run_scenario_streaming`] in-process, or
//! [`meg_engine::run_sharded`] over a worker pool. [`workload`] holds those
//! untraced paths, the output check and the untimed `meg_obs` count pass;
//! [`trace`] replicates the engine's trial dispatch with a span around every
//! layer call; [`rusage`] reads CPU time and peak memory.

pub mod rusage;
pub mod trace;
pub mod workload;

/// The nearest-rank `q`-quantile of ascending `sorted` (0 for none).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantile() {
        let sorted = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile(&sorted, 0.5), 5);
        assert_eq!(quantile(&sorted, 0.9), 9);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
