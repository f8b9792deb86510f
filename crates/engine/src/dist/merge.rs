//! Deterministic merge of sharded part files.
//!
//! [`merge_dir`] turns a directory of `*.part.jsonl` checkpoints back into
//! the canonical row stream:
//!
//! 1. every part file must carry a valid header, and all headers must agree
//!    on the run identity (scenario name, fingerprint, master seed, cell
//!    count) — shard layouts may differ, so a directory mixing a `0/2` file
//!    with leftovers from a `0/3` split of the *same run* still merges;
//! 2. duplicate rows for a cell are deduplicated, but only if byte-identical
//!    — a conflicting duplicate means two different runs wrote here, and the
//!    merge refuses;
//! 3. every global cell index must be covered, otherwise the merge reports
//!    exactly which cells are missing (run the owning shards with
//!    `--resume`);
//! 4. rows are re-sorted into ascending cell order.
//!
//! Because every shard renders each row from the same trial outcomes (seeds
//! are derived from the global index), the merged stream is
//! **byte-identical** to what an unsharded `meg-lab run --format json`
//! prints.
//!
//! ## Example
//!
//! ```
//! use meg_engine::dist::{merge_dir, run_sharded, DistOptions, ShardSpec};
//! use meg_engine::prelude::*;
//!
//! let scenario = builtin("quick_smoke").unwrap().scaled(0.25);
//! let dir = std::env::temp_dir().join(format!("meg-merge-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Checkpoint both halves of a 2-way split, then reassemble.
//! for i in 0..2 {
//!     let opts = DistOptions {
//!         shard: ShardSpec::parse(&format!("{i}/2")).unwrap(),
//!         out_dir: Some(dir.clone()),
//!         ..DistOptions::default()
//!     };
//!     run_sharded(&scenario, 2009, &opts, |_, _| {}).unwrap();
//! }
//! let merged = merge_dir(&dir).unwrap();
//! assert_eq!(merged.parts, 2);
//! assert_eq!(merged.lines.len(), scenario.num_cells());
//! assert_eq!(merged.header.master_seed, 2009);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use super::checkpoint::{scan_dir, PartHeader};
use super::DistError;
use std::collections::BTreeMap;
use std::path::Path;

/// The result of a successful merge.
#[derive(Clone, Debug, PartialEq)]
pub struct Merged {
    /// The shared run identity (shard fields are taken from the first part
    /// file and are not meaningful for the merged whole).
    pub header: PartHeader,
    /// Canonical row JSON lines, one per cell, in ascending cell order.
    pub lines: Vec<String>,
    /// Number of part files merged.
    pub parts: usize,
    /// Byte-identical duplicate rows that were deduplicated.
    pub duplicates: usize,
}

/// Merges every part file in `dir`. See the module docs for the contract.
pub fn merge_dir(dir: &Path) -> Result<Merged, DistError> {
    let parts = scan_dir(dir)?;
    let Some((_, first)) = parts.first() else {
        return Err(DistError::Format(format!(
            "{}: no *.part.jsonl files to merge",
            dir.display()
        )));
    };
    let header = first.header.clone();

    let mut rows: BTreeMap<usize, String> = BTreeMap::new();
    let mut duplicates = 0usize;
    for (path, part) in &parts {
        if !header.same_run(&part.header) {
            return Err(DistError::Mismatch(format!(
                "{}: belongs to a different run than its siblings: {}",
                path.display(),
                header.diff(&part.header)
            )));
        }
        for (cell, line) in &part.rows {
            if *cell >= header.num_cells {
                return Err(DistError::Format(format!(
                    "{}: row for cell {cell}, but the run has only {} cells",
                    path.display(),
                    header.num_cells
                )));
            }
            match rows.get(cell) {
                None => {
                    rows.insert(*cell, line.clone());
                }
                Some(existing) if existing == line => duplicates += 1,
                Some(_) => {
                    return Err(DistError::Format(format!(
                        "{}: conflicting row for cell {cell} (same cell, different bytes — \
                         were these part files produced by different runs?)",
                        path.display()
                    )));
                }
            }
        }
    }

    let missing: Vec<usize> = (0..header.num_cells)
        .filter(|c| !rows.contains_key(c))
        .collect();
    if !missing.is_empty() {
        return Err(DistError::Incomplete(missing));
    }

    Ok(Merged {
        header,
        lines: rows.into_values().collect(),
        parts: parts.len(),
        duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::quick_smoke;
    use crate::dist::checkpoint::{PartHeader, PartWriter};
    use crate::dist::coordinator::{run_sharded, DistOptions};
    use crate::dist::shard::{ShardSpec, ShardStrategy};
    use crate::run::run_scenario;
    use crate::scenario::Scenario;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("meg-merge-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn scenario() -> Scenario {
        quick_smoke().scaled(0.25)
    }

    fn run_shards(dir: &Path, s: &Scenario, seed: u64, m: usize, strategy: ShardStrategy) {
        for i in 0..m {
            let opts = DistOptions {
                shard: ShardSpec {
                    index: i,
                    count: m,
                    strategy,
                },
                out_dir: Some(dir.to_path_buf()),
                ..DistOptions::default()
            };
            run_sharded(s, seed, &opts, |_, _| {}).unwrap();
        }
    }

    #[test]
    fn merged_output_is_byte_identical_to_unsharded() {
        let s = scenario();
        let reference: Vec<String> = run_scenario(&s, 2009)
            .unwrap()
            .iter()
            .map(|r| r.to_json().render())
            .collect();
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::RoundRobin] {
            let dir = tmp(strategy.id());
            run_shards(&dir, &s, 2009, 3, strategy);
            let merged = merge_dir(&dir).unwrap();
            assert_eq!(merged.parts, 3);
            assert_eq!(merged.duplicates, 0);
            assert_eq!(merged.lines, reference, "strategy {strategy:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn overlapping_identical_parts_dedupe() {
        let s = scenario();
        let dir = tmp("dedupe");
        run_shards(&dir, &s, 5, 2, ShardStrategy::Contiguous);
        // A full single-shard run into the same dir: every cell now appears
        // twice, all byte-identical.
        let opts = DistOptions {
            out_dir: Some(dir.clone()),
            ..DistOptions::default()
        };
        run_sharded(&s, 5, &opts, |_, _| {}).unwrap();
        let merged = merge_dir(&dir).unwrap();
        assert_eq!(merged.parts, 3);
        assert_eq!(merged.duplicates, s.num_cells());
        assert_eq!(merged.lines.len(), s.num_cells());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_cells_are_reported_precisely() {
        let s = scenario();
        let dir = tmp("missing");
        // Only shard 1/2 ran: the contiguous first half is absent.
        let opts = DistOptions {
            shard: ShardSpec::parse("1/2").unwrap(),
            out_dir: Some(dir.clone()),
            ..DistOptions::default()
        };
        let report = run_sharded(&s, 5, &opts, |_, _| {}).unwrap();
        match merge_dir(&dir) {
            Err(DistError::Incomplete(missing)) => {
                assert_eq!(missing.len(), s.num_cells() - report.rows.len());
                assert_eq!(missing[0], 0);
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_runs_and_conflicts_are_refused() {
        let s = scenario();
        let dir = tmp("mixed");
        run_shards(&dir, &s, 5, 2, ShardStrategy::Contiguous);
        // Different master seed ⇒ different run ⇒ mismatch.
        let opts = DistOptions {
            shard: ShardSpec::parse("0/3").unwrap(),
            out_dir: Some(dir.clone()),
            ..DistOptions::default()
        };
        run_sharded(&s, 6, &opts, |_, _| {}).unwrap();
        assert!(matches!(merge_dir(&dir), Err(DistError::Mismatch(_))));
        std::fs::remove_dir_all(&dir).unwrap();

        // Same run identity but conflicting bytes for one cell ⇒ refused.
        let dir = tmp("conflict");
        run_shards(&dir, &s, 5, 1, ShardStrategy::Contiguous);
        let header = PartHeader {
            shard: "0/9".into(),
            ..PartHeader::new(&s, 5, &ShardSpec::full())
        };
        let forged = ShardSpec::parse("0/9").unwrap();
        PartWriter::create(&dir, &header, &forged)
            .unwrap()
            .append(r#"{"cell":0,"forged":true}"#)
            .unwrap();
        assert!(matches!(merge_dir(&dir), Err(DistError::Format(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = tmp("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(merge_dir(&dir), Err(DistError::Format(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
