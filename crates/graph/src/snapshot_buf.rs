//! Reusable flat CSR snapshot buffer — the allocation-free hot path of the
//! evolving-graph pipeline.
//!
//! Every `EvolvingGraph::advance()` produces a fresh snapshot `G_t`. Building
//! an [`AdjacencyList`] for that (one heap `Vec` per
//! node) costs `Θ(n)` small allocations per time step, which dominates the
//! simulation cost in exactly the large-`n` regimes the paper's theorems are
//! about. [`SnapshotBuf`] replaces it with a model-owned, **reusable** flat
//! CSR (compressed sparse row) buffer:
//!
//! * `offsets: Vec<usize>` (`n + 1` entries) and `targets: Vec<Node>`
//!   (`2·m` entries) hold the finished snapshot — two contiguous arrays,
//!   cache-friendly neighbor scans, no per-node storage: row `u` is
//!   `targets[offsets[u]..offsets[u+1]]`;
//! * every build only ever `clear()`s and refills its vectors, so once
//!   their capacities have grown to the high-water mark of the run
//!   (**warm-up**), a rebuild performs **zero** heap allocations.
//!
//! There are two ways to fill it:
//!
//! * **Pair list** — [`build_from_pairs`](SnapshotBuf::build_from_pairs)
//!   takes the snapshot's edges as strictly ascending linear pair indices
//!   and fills the rows in two passes over the list, without staging an
//!   edge. Every row comes out ascending. Both edge-MEG engines use it: the
//!   sparse engine's alive list and the dense engine's set-bit walk are both
//!   ascending pair indices.
//! * **Rows** — [`build_rows`](SnapshotBuf::build_rows) asks the producer for
//!   each row in node order and appends it straight into `targets` through a
//!   [`RowWriter`]; no edge is staged and nothing is sorted. The producer
//!   lists both arcs of every edge itself, in whatever order the rows must
//!   have. Geometric snapshots, the adversarial constructions and
//!   [`copy_from_adjacency`](SnapshotBuf::copy_from_adjacency) use it: every
//!   node gathers its own row from the bucket grid, lists its clique or star
//!   neighbors, or copies its adjacency row.
//! * **Some rows** — [`build_rows_of`](SnapshotBuf::build_rows_of) is the row
//!   build for a reader that reads only a known set of rows: the rows
//!   outside the set stay empty. Such a **partial** snapshot may hold an arc
//!   without its reverse, so its edge count is unknown; debug builds panic
//!   when it or a row outside the set is read. Geometric flooding uses it
//!   while the informed side is the one scanned.
//!
//! Each path reproduces the row order the adjacency-list construction gave,
//! which is what keeps RNG-consuming consumers (push–pull's random neighbor
//! choice, BFS-ball sampling) byte-identical.

use crate::{AdjacencyList, Graph, Node, NodeSet};

/// A mutable, reusable CSR-style snapshot of an undirected simple graph.
///
/// Lifecycle: one [`build_from_pairs`](SnapshotBuf::build_from_pairs),
/// [`build_rows`](SnapshotBuf::build_rows) or
/// [`build_rows_of`](SnapshotBuf::build_rows_of) call → query through
/// [`Graph`] → the next build, which reuses every buffer.
///
/// ## Example
///
/// ```
/// use meg_graph::{Graph, SnapshotBuf};
///
/// // The path 0 – 1 – 2 plus the edge {2, 3} from its ascending pair
/// // indices: (0,1) is 0, (1,2) is 3 and (2,3) is 5 in the row-major
/// // numbering of the 4-node triangle. Rows come out ascending.
/// let mut buf = SnapshotBuf::new();
/// buf.build_from_pairs(4, [0, 3, 5]);
/// assert_eq!(buf.num_nodes(), 4);
/// assert_eq!(buf.num_edges(), 3);
/// assert_eq!(buf.neighbors(1), &[0, 2]);
/// assert!(buf.has_edge(2, 3));
///
/// // The same graph row by row, each row in the order it is written.
/// let rows: [&[u32]; 4] = [&[1], &[2, 0], &[3, 1], &[2]];
/// buf.build_rows(4, |u, row| {
///     let src = rows[u as usize];
///     row.spare(src.len()).copy_from_slice(src);
///     row.commit(src.len());
/// });
/// assert_eq!(buf.num_edges(), 3);
/// assert_eq!(buf.neighbors(1), &[2, 0]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SnapshotBuf {
    n: usize,
    /// Degree counts of the pair list's counting pass, reused as each row's
    /// fill cursor by its fill pass (row builds leave it alone). `u32` keeps
    /// the cursor array half the size of the offset array, which matters in
    /// the scatter-heavy fill pass (`2m` random writes driven through it).
    deg: Vec<u32>,
    /// CSR row offsets (`n + 1` entries once built): row `u` is
    /// `targets[offsets[u]..offsets[u+1]]`.
    offsets: Vec<usize>,
    /// CSR column indices (`2·m` entries once built).
    targets: Vec<Node>,
    /// Undirected edge count.
    m: usize,
    /// After a partial build, in debug builds only, `unbuilt[u]` says row
    /// `u` was left out; empty otherwise.
    unbuilt: Vec<bool>,
}

impl SnapshotBuf {
    /// Creates an empty buffer (zero nodes, queryable).
    pub fn new() -> Self {
        SnapshotBuf {
            n: 0,
            deg: Vec::new(),
            offsets: vec![0],
            targets: Vec::new(),
            m: 0,
            unbuilt: Vec::new(),
        }
    }

    /// Creates a built, edgeless snapshot over `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut buf = Self::new();
        buf.build_rows(n, |_, _| {});
        buf
    }

    /// Turns the degree counts in `deg` into the row `offsets`, sizes
    /// `targets` to match, and reuses `deg` as each row's fill cursor (one
    /// pass instead of prefix-sum + copy-back).
    fn lay_out_rows(&mut self) {
        let n = self.n;
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        let mut acc = 0usize;
        self.offsets.push(0);
        for u in 0..n {
            let d = self.deg[u];
            self.deg[u] = acc as u32;
            acc += d as usize;
            self.offsets.push(acc);
        }
        assert!(
            acc <= u32::MAX as usize,
            "snapshot arc count {acc} exceeds the u32 cursor range"
        );
        // Resize without `clear()`: the fill pass overwrites every slot, so
        // re-zeroing the kept prefix would be wasted work.
        self.targets.resize(acc, 0);
    }

    /// Builds the snapshot whose edges are the pairs with the given linear
    /// indices ([`pair_from_index`] numbering), which must be strictly
    /// ascending; an index at or past `C(n, 2)` panics. Each row comes out
    /// ascending, equal in order to adding the same pairs, in the same
    /// order, to an [`AdjacencyList`].
    ///
    /// Two passes over `pairs` (hence `Clone`), row by row, and no staged
    /// edge: row `a`'s pairs `(a, b)`, `b > a`, are the consecutive indices
    /// below the row's end, and `b` is the index plus a per-row constant. The
    /// first pass counts degrees. The second writes each row's forward part
    /// through a register cursor and each transposed arc `a` into row `b`
    /// through `b`'s own cursor. Every pair `(x, a)`, `x < a`, precedes row
    /// `a`, so when the walk reaches row `a` its cursor stands just past that
    /// low part, where the forward part begins.
    ///
    /// [`pair_from_index`]: crate::generators::pair_from_index
    pub fn build_from_pairs<I>(&mut self, n: usize, pairs: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        self.n = n;
        self.deg.clear();
        self.deg.resize(n, 0);
        let (mut it, mut m) = (pairs.clone(), 0usize);
        let (mut next, mut row_start) = (it.next(), 0u64);
        for a in 0..n {
            let row_end = row_start + (n - 1 - a) as u64;
            let to_b = (a as u64 + 1).wrapping_sub(row_start);
            let mut forward = 0u32;
            while let Some(k) = next.filter(|&k| k < row_end) {
                self.deg[k.wrapping_add(to_b) as usize] += 1;
                forward += 1;
                next = it.next();
                debug_assert!(next.is_none_or(|j| j > k), "pair indices must ascend");
            }
            self.deg[a] += forward;
            m += forward as usize;
            row_start = row_end;
        }
        if let Some(k) = next {
            panic!("pair index {k} outside the triangle of n = {n}");
        }
        self.lay_out_rows();
        let (targets, cursor) = (&mut self.targets, &mut self.deg);
        let (mut it, mut row_start) = (pairs, 0u64);
        let mut next = it.next();
        for a in 0..n {
            let row_end = row_start + (n - 1 - a) as u64;
            let to_b = (a as u64 + 1).wrapping_sub(row_start);
            let mut w = cursor[a] as usize;
            while let Some(k) = next.filter(|&k| k < row_end) {
                let b = k.wrapping_add(to_b) as usize;
                targets[w] = b as Node;
                w += 1;
                let c = &mut cursor[b];
                targets[*c as usize] = a as Node;
                *c += 1;
                next = it.next();
            }
            row_start = row_end;
        }
        self.m = m;
        self.unbuilt.clear();
    }

    /// Builds the snapshot row by row: calls `fill(u, writer)` for
    /// `u = 0..n` in order, and row `u` is whatever `fill` committed through
    /// the [`RowWriter`], in the order it was written.
    ///
    /// The producer writes both arcs of every undirected edge (`v` into row
    /// `u` and `u` into row `v`), no self-loops and no duplicates — the same
    /// simple-graph contract as [`AdjacencyList::add_edge_unchecked`]. The
    /// edge count is half the number of entries written. Rows go straight
    /// into `targets` (reused; nothing is staged or sorted), so after
    /// warm-up a build allocates nothing.
    pub fn build_rows(&mut self, n: usize, fill: impl FnMut(Node, &mut RowWriter<'_>)) {
        let arcs = self.fill_rows(n, fill);
        debug_assert_eq!(arcs % 2, 0, "rows list {arcs} arcs: some edge is one-sided");
        self.m = arcs / 2;
        self.unbuilt.clear();
    }

    /// [`build_rows`](SnapshotBuf::build_rows) for a reader that reads only
    /// the rows in `rows` (every row when `None`, or when `rows` is full).
    ///
    /// `fill` is still called for every node in order, since a producer may
    /// keep per-node cursors that every node must move, but it must commit
    /// nothing to a row outside `rows`: those rows stay empty. A row inside
    /// may then list an arc whose reverse was never written, so until the
    /// next build the snapshot is **partial**: its edge count is unknown,
    /// and debug builds panic when it, or a row outside `rows`, is read.
    pub fn build_rows_of(
        &mut self,
        n: usize,
        rows: Option<&NodeSet>,
        fill: impl FnMut(Node, &mut RowWriter<'_>),
    ) {
        let Some(rows) = rows.filter(|r| !r.is_full()) else {
            return self.build_rows(n, fill);
        };
        assert_eq!(rows.universe(), n, "row set and snapshot disagree on n");
        self.m = self.fill_rows(n, fill) / 2;
        if cfg!(debug_assertions) {
            self.unbuilt.clear();
            self.unbuilt
                .extend((0..n as Node).map(|u| !rows.contains(u)));
            for u in (0..n).filter(|&u| self.unbuilt[u]) {
                assert_eq!(
                    self.offsets[u],
                    self.offsets[u + 1],
                    "a partial build wrote row {u}, outside its row set"
                );
            }
        }
    }

    /// Appends each row `fill` commits, for `u = 0..n` in order; returns
    /// how many entries the rows hold.
    fn fill_rows(&mut self, n: usize, mut fill: impl FnMut(Node, &mut RowWriter<'_>)) -> usize {
        self.n = n;
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0);
        let mut writer = RowWriter {
            targets: &mut self.targets,
            len: 0,
        };
        for u in 0..n {
            fill(u as Node, &mut writer);
            self.offsets.push(writer.len);
        }
        let arcs = writer.len;
        self.targets.truncate(arcs);
        arcs
    }

    /// Row entries the last build stored, over every row: `2·m` after a
    /// full build, and after a partial one the lengths of the rows it
    /// built.
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Rebuilds the buffer as an exact copy of an adjacency list, preserving
    /// every neighbor list's order (used by the frozen/scheduled adapters).
    pub fn copy_from_adjacency(&mut self, g: &AdjacencyList) {
        self.build_rows(g.num_nodes(), |u, row| {
            let src = g.neighbors(u);
            row.spare(src.len()).copy_from_slice(src);
            row.commit(src.len());
        });
    }

    /// Returns every edge `{u, v}` with `u < v`, in CSR row order
    /// (allocates; intended for tests, not the hot path).
    pub fn edges(&self) -> Vec<(Node, Node)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for u in 0..self.n as Node {
            for &v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Copies the snapshot into a fresh [`AdjacencyList`] whose rows equal
    /// [`Graph::neighbors`] row for row, in order
    /// (test/interop helper — allocates).
    pub fn to_adjacency(&self) -> AdjacencyList {
        AdjacencyList::from_rows(
            (0..self.n as Node)
                .map(|u| self.neighbors(u).to_vec())
                .collect(),
        )
    }

    /// Capacity snapshot `(deg, offsets, targets)` — lets tests assert the
    /// no-allocation-after-warm-up invariant without a custom allocator.
    pub fn capacities(&self) -> (usize, usize, usize) {
        (
            self.deg.capacity(),
            self.offsets.capacity(),
            self.targets.capacity(),
        )
    }
}

/// The row under construction during [`SnapshotBuf::build_rows`].
///
/// A producer asks for [`spare`](RowWriter::spare) slots past the row's
/// committed end, writes candidates into them (a branchless compress may
/// write more than it keeps), then [`commit`](RowWriter::commit)s how many of
/// them belong to the row. A later `spare` call starts after the committed
/// entries, so a row can be appended in several pieces.
#[derive(Debug)]
pub struct RowWriter<'a> {
    targets: &'a mut Vec<Node>,
    /// End of the committed entries (rows written so far plus the committed
    /// part of the current one).
    len: usize,
}

impl RowWriter<'_> {
    /// At least `slots` writable slots starting right after the committed
    /// entries. Their contents are unspecified until written; the buffer
    /// only grows while the run warms up.
    #[inline]
    pub fn spare(&mut self, slots: usize) -> &mut [Node] {
        let end = self.len + slots;
        if self.targets.len() < end {
            self.targets.resize(end, 0);
        }
        &mut self.targets[self.len..end]
    }

    /// Keeps the first `count` slots of the last [`spare`](RowWriter::spare)
    /// slice as the row's next entries.
    #[inline]
    pub fn commit(&mut self, count: usize) {
        debug_assert!(
            self.len + count <= self.targets.len(),
            "commit past the spare slots"
        );
        self.len += count;
    }
}

impl Graph for SnapshotBuf {
    fn num_nodes(&self) -> usize {
        self.n
    }

    /// Debug builds panic on a partial snapshot, whose edge count is
    /// unknown.
    fn num_edges(&self) -> usize {
        debug_assert!(
            self.unbuilt.is_empty(),
            "the edge count of a partial snapshot is unknown"
        );
        self.m
    }

    /// Row `u` is `targets[offsets[u]..offsets[u + 1]]`.
    #[inline]
    fn neighbors(&self, u: Node) -> &[Node] {
        let u = u as usize;
        debug_assert!(
            self.unbuilt.get(u) != Some(&true),
            "row {u} of a partial snapshot was not built"
        );
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    fn degree(&self, u: Node) -> usize {
        let u = u as usize;
        debug_assert!(
            self.unbuilt.get(u) != Some(&true),
            "row {u} of a partial snapshot was not built"
        );
        self.offsets[u + 1] - self.offsets[u]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, index_of_pair};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn build_and_query_matches_adjacency_semantics() {
        // {0,1}, {1,2}, {1,4} and {2,3} are pairs 0, 4, 6 and 7 of the
        // 5-node triangle.
        let mut buf = SnapshotBuf::new();
        buf.build_from_pairs(5, [0, 4, 6, 7]);
        assert_eq!(buf.num_nodes(), 5);
        assert_eq!(buf.num_edges(), 4);
        // Pair-list rows ascend.
        assert_eq!(buf.neighbors(1), &[0, 2, 4]);
        assert_eq!(buf.neighbors(2), &[1, 3]);
        assert_eq!(Graph::degree(&buf, 1), 3);
        assert!(buf.has_edge(2, 3) && buf.has_edge(3, 2));
        assert!(!buf.has_edge(0, 4));
        assert_eq!(buf.edges(), vec![(0, 1), (1, 2), (1, 4), (2, 3)]);
        // Row builds keep the producer's order: the same edges added to an
        // adjacency list in another order list row 1 in that order.
        let mut g = AdjacencyList::new(5);
        for (u, v) in [(0, 1), (3, 2), (1, 4), (1, 2)] {
            g.add_edge_unchecked(u, v);
        }
        buf.copy_from_adjacency(&g);
        assert_eq!(buf.num_edges(), 4);
        assert_eq!(buf.neighbors(1), &[0, 4, 2]);
        assert_eq!(buf.neighbors(2), &[3, 1]);
        assert_eq!(Graph::degree(&buf, 1), 3);
        assert!(buf.has_edge(2, 3) && !buf.has_edge(0, 4));
        assert_eq!(buf.edges(), vec![(0, 1), (1, 4), (1, 2), (2, 3)]);
    }

    #[test]
    fn reuse_across_rebuilds_is_clean() {
        // n = 3: (0,1) is pair 0 and (1,2) pair 2.
        let mut buf = SnapshotBuf::new();
        buf.build_from_pairs(3, [0, 2]);
        assert_eq!(buf.num_edges(), 2);
        // n = 4: (2,3) is pair 5.
        buf.build_from_pairs(4, [5]);
        assert_eq!(buf.num_nodes(), 4);
        assert_eq!(buf.num_edges(), 1);
        assert!(buf.neighbors(0).is_empty());
        assert!(buf.neighbors(1).is_empty());
        assert_eq!(buf.neighbors(3), &[2]);
        // A row build after a pair build, and the reverse, leave nothing of
        // the previous snapshot behind.
        buf.build_rows(2, |u, row| {
            row.spare(1)[0] = 1 - u;
            row.commit(1);
        });
        assert_eq!((buf.num_nodes(), buf.num_edges()), (2, 1));
        assert_eq!(buf.neighbors(0), &[1]);
        buf.build_from_pairs(3, []);
        assert_eq!((buf.num_nodes(), buf.num_edges()), (3, 0));
        assert!((0..3).all(|u| buf.neighbors(u).is_empty()));
    }

    /// Pair indices of a `G(n, p)` draw, ascending.
    fn random_pairs(n: usize, p: f64, rng: &mut ChaCha8Rng) -> Vec<u64> {
        let total = (n * (n - 1) / 2) as u64;
        (0..total).filter(|_| rng.gen_bool(p)).collect()
    }

    #[test]
    fn capacities_stabilise_after_warmup() {
        let mut buf = SnapshotBuf::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            buf.build_from_pairs(64, random_pairs(64, 0.2, &mut rng));
        }
        let warm = buf.capacities();
        for _ in 0..50 {
            buf.build_from_pairs(64, random_pairs(64, 0.2, &mut rng));
            assert_eq!(buf.capacities(), warm, "capacity drifted after warm-up");
        }
    }

    #[test]
    fn matches_adjacency_list_for_random_edge_streams() {
        // The pair-list build must be edge-set- and neighbor-order-identical
        // to adding the same ascending pairs to an AdjacencyList, and a row
        // copy of that list must give it back unchanged.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut buf = SnapshotBuf::new();
        for trial in 0..60 {
            let n = rng.gen_range(2..40usize);
            let mut picked = std::collections::BTreeSet::new();
            for _ in 0..rng.gen_range(0..80) {
                let u = rng.gen_range(0..n as u64);
                let v = rng.gen_range(0..n as u64);
                if u != v {
                    picked.insert(index_of_pair(n as u64, u, v));
                }
            }
            let mut adj = AdjacencyList::new(n);
            for &k in &picked {
                let (a, b) = generators::pair_from_index(n as u64, k);
                adj.add_edge_unchecked(a as Node, b as Node);
            }
            buf.build_from_pairs(n, picked.iter().copied());
            assert_eq!(buf.num_edges(), adj.num_edges(), "trial {trial}");
            for u in 0..n as Node {
                assert_eq!(buf.neighbors(u), adj.neighbors(u), "trial {trial} node {u}");
            }
            assert_eq!(buf.edges(), adj.edges(), "trial {trial}");
            let back = buf.to_adjacency();
            assert_eq!(back.edges(), adj.edges(), "trial {trial} round-trip");
            buf.copy_from_adjacency(&adj);
            for u in 0..n as Node {
                assert_eq!(
                    buf.neighbors(u),
                    adj.neighbors(u),
                    "trial {trial} row copy {u}"
                );
            }
        }
    }

    #[test]
    fn copy_from_adjacency_preserves_neighbor_order() {
        let mut g = AdjacencyList::new(5);
        // Deliberately scrambled insertion order.
        g.add_edge(3, 1);
        g.add_edge(1, 0);
        g.add_edge(4, 1);
        let mut buf = SnapshotBuf::new();
        buf.copy_from_adjacency(&g);
        assert_eq!(buf.num_edges(), 3);
        for u in 0..5u32 {
            assert_eq!(buf.neighbors(u), g.neighbors(u), "node {u}");
        }
        // Reuse for a different graph.
        let h = generators::cycle(7);
        buf.copy_from_adjacency(&h);
        assert_eq!(buf.num_nodes(), 7);
        assert_eq!(buf.num_edges(), 7);
        for u in 0..7u32 {
            assert_eq!(buf.neighbors(u), h.neighbors(u), "node {u}");
        }
    }

    #[test]
    fn build_rows_keeps_rows_as_written_and_stops_allocating_after_warmup() {
        // A 5-cycle whose rows list the successor first, each written in two
        // pieces, the first through an over-sized spare slice the way a
        // branchless compress uses it (junk past the committed count).
        let mut buf = SnapshotBuf::new();
        buf.build_rows(5, |u, row| {
            let slots = row.spare(3);
            slots[0] = (u + 1) % 5;
            slots[1] = 99;
            slots[2] = 99;
            row.commit(1);
            row.spare(1)[0] = (u + 4) % 5;
            row.commit(1);
        });
        assert_eq!(buf.num_nodes(), 5);
        assert_eq!(buf.num_edges(), 5);
        for u in 0..5u32 {
            assert_eq!(Graph::degree(&buf, u), 2);
            assert_eq!(buf.neighbors(u), &[(u + 1) % 5, (u + 4) % 5], "node {u}");
        }
        let g = buf.to_adjacency();
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 4]);

        // Random simple graphs rebuilt through rows: nothing is staged, and
        // the buffer's capacities stop moving once warmed up.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut rebuild = |buf: &mut SnapshotBuf| {
            let mut g = AdjacencyList::new(64);
            for u in 0..64u32 {
                for v in (u + 1)..64 {
                    if rng.gen_bool(0.2) {
                        g.add_edge_unchecked(u, v);
                    }
                }
            }
            buf.build_rows(64, |u, row| {
                let src = g.neighbors(u);
                row.spare(src.len() + 4)[..src.len()].copy_from_slice(src);
                row.commit(src.len());
            });
            assert_eq!(buf.num_edges(), g.num_edges());
            for u in 0..64u32 {
                assert_eq!(buf.neighbors(u), g.neighbors(u));
                assert_eq!(Graph::degree(buf, u), g.degree(u));
            }
        };
        for _ in 0..20 {
            rebuild(&mut buf);
        }
        let warm = buf.capacities();
        assert_eq!(warm.0, 0, "row builds count no degrees");
        for _ in 0..50 {
            rebuild(&mut buf);
            assert_eq!(buf.capacities(), warm, "capacity drifted after warm-up");
        }
    }

    #[test]
    fn build_from_pairs_lists_low_part_then_forward_part_and_stages_nothing() {
        // n = 5: pairs 0 (0,1), 3 (0,4), 4 (1,2), 6 (1,4), 9 (3,4).
        let mut buf = SnapshotBuf::new();
        buf.build_from_pairs(5, [0, 3, 4, 6, 9]);
        assert_eq!(buf.num_nodes(), 5);
        assert_eq!(buf.num_edges(), 5);
        assert_eq!(buf.neighbors(0), &[1, 4]);
        assert_eq!(buf.neighbors(1), &[0, 2, 4]);
        assert_eq!(buf.neighbors(2), &[1]);
        assert_eq!(buf.neighbors(3), &[4]);
        assert_eq!(buf.neighbors(4), &[0, 1, 3]);
        // The degree counts double as fill cursors: one per node, nothing
        // per edge.
        assert!(buf.capacities().0 < 2 * 5, "degree scratch grew past n");
        buf.build_from_pairs(3, []);
        assert_eq!((buf.num_nodes(), buf.num_edges()), (3, 0));
        assert!((0..3).all(|u| buf.neighbors(u).is_empty()));
    }

    #[test]
    #[should_panic(expected = "outside the triangle")]
    fn build_from_pairs_rejects_a_pair_index_past_the_triangle() {
        // C(5, 2) = 10, so index 10 names no pair.
        SnapshotBuf::new().build_from_pairs(5, [0, 4, 10]);
    }

    /// Copies `g`'s rows of the nodes in `rows` into `buf`, every other
    /// row left empty.
    fn copy_rows_of(buf: &mut SnapshotBuf, g: &AdjacencyList, rows: Option<&NodeSet>) {
        buf.build_rows_of(g.num_nodes(), rows, |u, row| {
            if rows.is_none_or(|r| r.contains(u)) {
                let src = g.neighbors(u);
                row.spare(src.len()).copy_from_slice(src);
                row.commit(src.len());
            }
        });
    }

    /// Rows 0 and 3 of a 6-node snapshot.
    fn rows_0_and_3() -> NodeSet {
        NodeSet::from_iter(6, [0, 3])
    }

    #[test]
    fn partial_builds_keep_the_rows_of_their_set_and_nothing_else() {
        let cycle = generators::cycle(6);
        let mut buf = SnapshotBuf::new();
        // Rows 0 and 3 of the 6-cycle: four arcs, none with its reverse.
        copy_rows_of(&mut buf, &cycle, Some(&rows_0_and_3()));
        assert_eq!((buf.num_nodes(), buf.num_arcs()), (6, 4));
        for u in [0, 3] {
            assert_eq!(buf.neighbors(u), cycle.neighbors(u), "row {u}");
            assert_eq!(Graph::degree(&buf, u), 2, "row {u}");
        }
        // An empty set builds no row at all.
        copy_rows_of(&mut buf, &cycle, Some(&NodeSet::new(6)));
        assert_eq!((buf.num_nodes(), buf.num_arcs()), (6, 0));
        // A build with a full set, with none, or through any other entry
        // point makes the snapshot whole again after a partial one.
        let whole: [&dyn Fn(&mut SnapshotBuf); 4] = [
            &|buf| copy_rows_of(buf, &cycle, Some(&NodeSet::full(6))),
            &|buf| copy_rows_of(buf, &cycle, None),
            &|buf| buf.copy_from_adjacency(&cycle),
            &|buf| {
                buf.build_from_pairs(
                    6,
                    cycle
                        .edges()
                        .iter()
                        .map(|&(u, v)| index_of_pair(6, u as u64, v as u64)),
                )
            },
        ];
        for build in whole {
            copy_rows_of(&mut buf, &cycle, Some(&rows_0_and_3()));
            build(&mut buf);
            assert_eq!((buf.num_edges(), buf.num_arcs()), (6, 12));
            assert_eq!(buf.to_adjacency().edges(), cycle.edges());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "row 2 of a partial snapshot was not built")]
    fn reading_a_row_a_partial_build_left_out_panics_in_debug_builds() {
        let mut buf = SnapshotBuf::new();
        copy_rows_of(&mut buf, &generators::cycle(6), Some(&rows_0_and_3()));
        assert_eq!(buf.neighbors(3), &[2, 4]);
        buf.neighbors(2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "edge count of a partial snapshot is unknown")]
    fn the_edge_count_of_a_partial_snapshot_panics_in_debug_builds() {
        let mut buf = SnapshotBuf::new();
        copy_rows_of(&mut buf, &generators::cycle(6), Some(&rows_0_and_3()));
        buf.num_edges();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a partial build wrote row 1, outside its row set")]
    fn a_partial_build_that_writes_outside_its_set_panics_in_debug_builds() {
        let mut buf = SnapshotBuf::new();
        copy_rows_of(&mut buf, &generators::cycle(6), None);
        let cycle = generators::cycle(6);
        buf.build_rows_of(6, Some(&rows_0_and_3()), |u, row| {
            let src = cycle.neighbors(u);
            row.spare(src.len()).copy_from_slice(src);
            row.commit(src.len());
        });
    }

    #[test]
    fn with_nodes_is_edgeless_and_queryable() {
        let buf = SnapshotBuf::with_nodes(6);
        assert_eq!(buf.num_nodes(), 6);
        assert_eq!(buf.num_edges(), 0);
        for u in 0..6u32 {
            assert!(buf.neighbors(u).is_empty());
        }
        let empty = SnapshotBuf::new();
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_edges(), 0);
    }
}
