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
//!   cache-friendly neighbor scans, no per-node storage;
//! * `edges: Vec<(Node, Node)>` is the staging area producers push into, and
//!   `deg: Vec<usize>` is the counting-sort scratch;
//! * [`begin`](SnapshotBuf::begin) / [`push_edge`](SnapshotBuf::push_edge) /
//!   [`build`](SnapshotBuf::build) only ever `clear()` and refill these four
//!   vectors, so once their capacities have grown to the high-water mark of
//!   the run (**warm-up**), a rebuild performs **zero** heap allocations.
//!
//! The build is a stable counting sort over the staged edge stream: node
//! `u`'s neighbors end up in exactly the order edges incident to `u` were
//! pushed. This matches the push order of the `AdjacencyList` construction it
//! replaces, which is what keeps RNG-consuming consumers (push–pull's random
//! neighbor choice, BFS-ball sampling) byte-identical across the migration.
//!
//! ## Delta maintenance
//!
//! The transition-stepping edge engines flip only `O(p·N + q·|E|)` edges per
//! round, so rebuilding the whole CSR would dominate them. For that path
//! [`build_with_slack`](SnapshotBuf::build_with_slack) reserves `slack` spare
//! target slots per row and [`apply_delta`](SnapshotBuf::apply_delta) edits
//! the CSR in place: deaths swap-remove within the live prefix of each
//! endpoint's row, births append into the row's slack. The row invariant is
//! `live degree = row_len[u] ≤ offsets[u+1] − offsets[u] = row capacity`;
//! queries only ever read the live prefix. When a birth lands on a row whose
//! slack is exhausted, `apply_delta` falls back to a full rebuild (gathering
//! the live edge set plus the pending births into the staging buffer) with
//! fresh slack — the fallback reuses the staging buffers, so even it
//! allocates nothing after warm-up. Within-row neighbor order is **not**
//! preserved across deltas (swap-remove scrambles it); consumers that need
//! order stability must use the rebuild path.

use crate::{AdjacencyList, Graph, Node};

/// How [`SnapshotBuf::apply_delta`] absorbed one round of edits — the signal
/// the metrics layer and the delta-consistency tests use to distinguish
/// cheap in-place patches from slack-exhaustion rebuilds. Returned rather
/// than recorded so `meg-graph` stays independent of the instrumentation
/// crate; callers forward it to `meg-obs` when a recorder is installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "callers should record or assert whether the delta patched or rebuilt"]
pub enum DeltaOutcome {
    /// Every edit landed inside the rows' live prefixes and slack slots.
    Patched,
    /// A birth found an endpoint row full: the remaining births were folded
    /// into a full rebuild with fresh slack.
    Rebuilt {
        /// Arc slots (`targets` entries, live + slack) written by the
        /// rebuild's fill pass.
        arc_slots: usize,
    },
}

impl DeltaOutcome {
    /// Whether this round took the slack-exhaustion rebuild fallback.
    pub fn is_rebuilt(self) -> bool {
        matches!(self, DeltaOutcome::Rebuilt { .. })
    }

    /// Bytes written by the rebuild's fill pass (0 for a patched round).
    pub fn rebuild_bytes(self) -> usize {
        match self {
            DeltaOutcome::Patched => 0,
            DeltaOutcome::Rebuilt { arc_slots } => arc_slots * std::mem::size_of::<Node>(),
        }
    }
}

/// A mutable, reusable CSR-style snapshot of an undirected simple graph.
///
/// Lifecycle: [`begin(n)`](SnapshotBuf::begin) →
/// [`push_edge`](SnapshotBuf::push_edge)`*` → [`build`](SnapshotBuf::build) →
/// query (via [`Graph`] or [`neighbors`](SnapshotBuf::neighbors)) → `begin`
/// again. Queries before `build` are a logic error (checked by
/// `debug_assert`).
///
/// Producers must push each undirected edge exactly once and never push
/// self-loops — the same contract as
/// [`AdjacencyList::add_edge_unchecked`].
///
/// ## Example
///
/// ```
/// use meg_graph::{Graph, SnapshotBuf};
///
/// let mut buf = SnapshotBuf::new();
/// for t in 0..3 {
///     buf.begin(4);
///     buf.push_edge(0, 1);
///     buf.push_edge(2, 3);
///     if t == 2 {
///         buf.push_edge(1, 2);
///     }
///     buf.build();
///     assert_eq!(buf.num_nodes(), 4);
///     assert!(buf.has_edge(0, 1));
/// }
/// assert_eq!(buf.num_edges(), 3);
/// assert_eq!(buf.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SnapshotBuf {
    n: usize,
    /// Staged edge stream of the snapshot under construction.
    edges: Vec<(Node, Node)>,
    /// Degree counts during staging; reused as fill cursors inside `build`.
    /// `u32` keeps the cursor array half the size of the offset array, which
    /// matters in the scatter-heavy fill pass (`2m` random writes driven
    /// through it).
    deg: Vec<u32>,
    /// CSR row *capacity* offsets (`n + 1` entries once built). Row `u` owns
    /// `targets[offsets[u]..offsets[u+1]]`; only the first `row_len[u]` slots
    /// are live.
    offsets: Vec<usize>,
    /// CSR column indices (`2·num_edges + n·slack` slots once built).
    targets: Vec<Node>,
    /// Live degree of each row (`≤` the row capacity; equal when slack is 0
    /// and no deltas have been applied).
    row_len: Vec<u32>,
    /// Live undirected edge count (kept exact across deltas; the staging
    /// `edges` length is only the *initial* count).
    m: usize,
    /// Per-row spare slots requested at the last build; reused by the
    /// slack-exhaustion fallback rebuild.
    slack: u32,
    /// Whether `edges` still mirrors the live edge set (false once a delta
    /// has edited rows in place).
    staging_valid: bool,
    built: bool,
}

impl SnapshotBuf {
    /// Creates an empty buffer (zero nodes, built state).
    pub fn new() -> Self {
        SnapshotBuf {
            n: 0,
            edges: Vec::new(),
            deg: Vec::new(),
            offsets: vec![0],
            targets: Vec::new(),
            row_len: Vec::new(),
            m: 0,
            slack: 0,
            staging_valid: true,
            built: true,
        }
    }

    /// Creates a built, edgeless snapshot over `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut buf = Self::new();
        buf.begin(n);
        buf.build();
        buf
    }

    /// Starts a new snapshot over `n` nodes, discarding the previous one.
    ///
    /// Reuses every internal buffer: after the capacities have reached the
    /// run's high-water mark this allocates nothing.
    pub fn begin(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
        self.deg.clear();
        self.deg.resize(n, 0);
        self.built = false;
    }

    /// Stages the undirected edge `{u, v}`.
    ///
    /// The caller guarantees `u != v`, both endpoints in range, and that the
    /// edge has not been pushed before (`debug_assert`ed where cheap — the
    /// same contract as [`AdjacencyList::add_edge_unchecked`]).
    #[inline]
    pub fn push_edge(&mut self, u: Node, v: Node) {
        debug_assert!(!self.built, "push_edge after build without begin");
        debug_assert_ne!(u, v, "self-loop ({u},{v})");
        debug_assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.deg[u as usize] += 1;
        self.deg[v as usize] += 1;
        self.edges.push((u, v));
    }

    /// Finalises the staged edges into CSR form (stable counting sort).
    pub fn build(&mut self) {
        self.finish_build(0);
    }

    /// Like [`build`](SnapshotBuf::build), but reserves `slack` spare target
    /// slots per row so later [`apply_delta`](SnapshotBuf::apply_delta) calls
    /// can append births without a rebuild. Row capacities are
    /// `degree + slack`; queries still only see the live prefix.
    pub fn build_with_slack(&mut self, slack: u32) {
        self.finish_build(slack);
    }

    fn finish_build(&mut self, slack: u32) {
        debug_assert!(!self.built, "build called twice without begin");
        let n = self.n;
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.row_len.clear();
        self.row_len.reserve(n);
        let mut acc = 0usize;
        self.offsets.push(0);
        for u in 0..n {
            // Reuse `deg` as the per-node fill cursor while accumulating the
            // offsets (one pass instead of prefix-sum + copy-back).
            let d = self.deg[u];
            self.row_len.push(d);
            self.deg[u] = acc as u32;
            acc += d as usize + slack as usize;
            self.offsets.push(acc);
        }
        assert!(
            acc <= u32::MAX as usize,
            "snapshot arc count {acc} exceeds the u32 cursor range"
        );
        // Resize without `clear()`: every live slot is overwritten by the
        // fill pass below (slack slots stay unread garbage), so re-zeroing
        // the kept prefix would be wasted work.
        self.targets.resize(acc, 0);
        for &(u, v) in &self.edges {
            self.targets[self.deg[u as usize] as usize] = v;
            self.deg[u as usize] += 1;
            self.targets[self.deg[v as usize] as usize] = u;
            self.deg[v as usize] += 1;
        }
        self.m = self.edges.len();
        self.slack = slack;
        self.staging_valid = true;
        self.built = true;
    }

    /// Edits the built CSR in place: removes every edge in `deaths`, then
    /// inserts every edge in `births` into the rows' slack slots.
    ///
    /// Deaths swap-remove within the live prefix of both endpoint rows (so
    /// within-row neighbor order is *not* preserved); births append. When a
    /// birth finds either endpoint row full, the remaining births are folded
    /// into a full rebuild with the slack requested at the last
    /// `build_with_slack` — semantically identical, just slower. All slices
    /// must be consistent with the current edge set: every death present,
    /// every birth absent, no duplicates. The returned [`DeltaOutcome`] says
    /// which path the round took (and how much the fallback rewrote).
    pub fn apply_delta(
        &mut self,
        births: &[(Node, Node)],
        deaths: &[(Node, Node)],
    ) -> DeltaOutcome {
        debug_assert!(self.built, "apply_delta before build");
        for &(u, v) in deaths {
            self.remove_arc(u, v);
            self.remove_arc(v, u);
            self.m -= 1;
        }
        if !deaths.is_empty() {
            self.staging_valid = false;
        }
        for (i, &(u, v)) in births.iter().enumerate() {
            debug_assert_ne!(u, v, "self-loop birth ({u},{v})");
            if self.row_has_slack(u) && self.row_has_slack(v) {
                self.push_arc(u, v);
                self.push_arc(v, u);
                self.m += 1;
                self.staging_valid = false;
            } else {
                self.rebuild_from_rows(&births[i..]);
                return DeltaOutcome::Rebuilt {
                    arc_slots: self.targets.len(),
                };
            }
        }
        DeltaOutcome::Patched
    }

    #[inline]
    fn remove_arc(&mut self, u: Node, v: Node) {
        let start = self.offsets[u as usize];
        let len = self.row_len[u as usize] as usize;
        let row = &mut self.targets[start..start + len];
        let pos = row
            .iter()
            .position(|&x| x == v)
            .expect("apply_delta: death of an absent edge");
        row.swap(pos, len - 1);
        self.row_len[u as usize] -= 1;
    }

    #[inline]
    fn row_has_slack(&self, u: Node) -> bool {
        let cap = self.offsets[u as usize + 1] - self.offsets[u as usize];
        (self.row_len[u as usize] as usize) < cap
    }

    #[inline]
    fn push_arc(&mut self, u: Node, v: Node) {
        let slot = self.offsets[u as usize] + self.row_len[u as usize] as usize;
        self.targets[slot] = v;
        self.row_len[u as usize] += 1;
    }

    /// Slack-exhaustion fallback: gathers the live edge set plus the still
    /// `pending` births into the staging buffer and rebuilds with the same
    /// per-row slack. Reuses `edges`/`deg`/`offsets`/`targets`, so after
    /// warm-up even this path allocates nothing.
    fn rebuild_from_rows(&mut self, pending: &[(Node, Node)]) {
        let n = self.n;
        self.edges.clear();
        self.deg.clear();
        self.deg.resize(n, 0);
        for u in 0..n {
            let start = self.offsets[u];
            for i in 0..self.row_len[u] as usize {
                let v = self.targets[start + i];
                if (u as Node) < v {
                    self.edges.push((u as Node, v));
                    self.deg[u] += 1;
                    self.deg[v as usize] += 1;
                }
            }
        }
        for &(u, v) in pending {
            self.edges.push((u, v));
            self.deg[u as usize] += 1;
            self.deg[v as usize] += 1;
        }
        let slack = self.slack;
        self.built = false;
        self.finish_build(slack);
    }

    /// Rebuilds the buffer as an exact copy of an adjacency list, preserving
    /// every neighbor list's order (used by the frozen/scheduled adapters).
    pub fn copy_from_adjacency(&mut self, g: &AdjacencyList) {
        let n = g.num_nodes();
        self.n = n;
        self.edges.clear();
        self.deg.clear();
        self.deg.resize(n, 0);
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.targets.clear();
        self.row_len.clear();
        self.row_len.reserve(n);
        let mut acc = 0usize;
        self.offsets.push(0);
        for u in 0..n {
            let d = g.neighbors(u as Node).len();
            self.row_len.push(d as u32);
            acc += d;
            self.offsets.push(acc);
        }
        self.targets.reserve(acc);
        for u in 0..n {
            self.targets.extend_from_slice(g.neighbors(u as Node));
        }
        // Recover the staged edge stream so `num_edges`/`edges` stay
        // consistent: each undirected edge once, in row order.
        for u in 0..n as Node {
            for &v in g.neighbors(u) {
                if u < v {
                    self.edges.push((u, v));
                }
            }
        }
        debug_assert_eq!(self.edges.len(), g.num_edges());
        self.m = self.edges.len();
        self.slack = 0;
        self.staging_valid = true;
        self.built = true;
    }

    /// Borrows the live neighbor slice of `u` (valid after `build`).
    #[inline]
    pub fn neighbors(&self, u: Node) -> &[Node] {
        debug_assert!(self.built, "query before build");
        &self.targets[self.offsets[u as usize]..][..self.row_len[u as usize] as usize]
    }

    /// Returns every edge `{u, v}` with `u < v`, in CSR row order
    /// (allocates; intended for tests and one-shot freezes, not the hot
    /// path).
    pub fn edges(&self) -> Vec<(Node, Node)> {
        debug_assert!(self.built, "query before build");
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

    /// Copies the snapshot into a fresh [`AdjacencyList`]
    /// (test/interop helper — allocates). While the staged edge stream still
    /// mirrors the live edge set it is replayed so per-node neighbor order is
    /// preserved; after in-place deltas the rows are walked directly instead.
    pub fn to_adjacency(&self) -> AdjacencyList {
        debug_assert!(self.built, "query before build");
        let mut g = AdjacencyList::new(self.n);
        if self.staging_valid {
            for &(u, v) in &self.edges {
                g.add_edge_unchecked(u, v);
            }
        } else {
            for u in 0..self.n as Node {
                for &v in self.neighbors(u) {
                    if u < v {
                        g.add_edge_unchecked(u, v);
                    }
                }
            }
        }
        g
    }

    /// Capacity snapshot `(edges, deg, offsets, targets)` — lets tests assert
    /// the no-allocation-after-warm-up invariant without a custom allocator.
    pub fn capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.edges.capacity(),
            self.deg.capacity(),
            self.offsets.capacity(),
            self.targets.capacity(),
        )
    }
}

impl Graph for SnapshotBuf {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn for_each_neighbor(&self, u: Node, f: &mut dyn FnMut(Node)) {
        for &v in self.neighbors(u) {
            f(v);
        }
    }

    fn degree(&self, u: Node) -> usize {
        debug_assert!(self.built, "query before build");
        self.row_len[u as usize] as usize
    }

    fn has_edge(&self, u: Node, v: Node) -> bool {
        // Scan the shorter of the two neighbor lists (same trick as
        // `AdjacencyList::has_edge`). Only the sparse edge engine's
        // transitions path calls this per birth candidate; its per-pair path
        // tests candidates against its sorted alive list instead.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).contains(&b)
    }

    fn neighbor_slice(&self, u: Node) -> Option<&[Node]> {
        Some(self.neighbors(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn build_and_query_matches_adjacency_semantics() {
        let mut buf = SnapshotBuf::new();
        buf.begin(5);
        for (u, v) in [(0, 1), (3, 2), (1, 4), (1, 2)] {
            buf.push_edge(u, v);
        }
        buf.build();
        assert_eq!(buf.num_nodes(), 5);
        assert_eq!(buf.num_edges(), 4);
        // Neighbor order = push order of incident edges.
        assert_eq!(buf.neighbors(1), &[0, 4, 2]);
        assert_eq!(buf.neighbors(2), &[3, 1]);
        assert_eq!(Graph::degree(&buf, 1), 3);
        assert!(buf.has_edge(2, 3) && buf.has_edge(3, 2));
        assert!(!buf.has_edge(0, 4));
        assert_eq!(buf.edges(), vec![(0, 1), (1, 4), (1, 2), (2, 3)]);
        assert_eq!(buf.neighbor_slice(1), Some(&[0, 4, 2][..]));
    }

    #[test]
    fn reuse_across_rebuilds_is_clean() {
        let mut buf = SnapshotBuf::new();
        buf.begin(3);
        buf.push_edge(0, 1);
        buf.push_edge(1, 2);
        buf.build();
        assert_eq!(buf.num_edges(), 2);
        buf.begin(4);
        buf.push_edge(2, 3);
        buf.build();
        assert_eq!(buf.num_nodes(), 4);
        assert_eq!(buf.num_edges(), 1);
        assert!(buf.neighbors(0).is_empty());
        assert!(buf.neighbors(1).is_empty());
        assert_eq!(buf.neighbors(3), &[2]);
    }

    #[test]
    fn capacities_stabilise_after_warmup() {
        let mut buf = SnapshotBuf::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let rebuild = |buf: &mut SnapshotBuf, rng: &mut ChaCha8Rng| {
            buf.begin(64);
            for u in 0..64u32 {
                for v in (u + 1)..64 {
                    if rng.gen_bool(0.2) {
                        buf.push_edge(u, v);
                    }
                }
            }
            buf.build();
        };
        for _ in 0..20 {
            rebuild(&mut buf, &mut rng);
        }
        let warm = buf.capacities();
        for _ in 0..50 {
            rebuild(&mut buf, &mut rng);
            assert_eq!(buf.capacities(), warm, "capacity drifted after warm-up");
        }
    }

    #[test]
    fn matches_adjacency_list_for_random_edge_streams() {
        // The CSR construction must be edge-set- and neighbor-order-identical
        // to pushing the same stream into an AdjacencyList.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut buf = SnapshotBuf::new();
        for trial in 0..60 {
            let n = rng.gen_range(2..40usize);
            let mut adj = AdjacencyList::new(n);
            buf.begin(n);
            let mut pushed = std::collections::BTreeSet::new();
            for _ in 0..rng.gen_range(0..80) {
                let u = rng.gen_range(0..n) as Node;
                let v = rng.gen_range(0..n) as Node;
                let (a, b) = (u.min(v), u.max(v));
                if a == b || !pushed.insert((a, b)) {
                    continue;
                }
                adj.add_edge_unchecked(a, b);
                buf.push_edge(a, b);
            }
            buf.build();
            assert_eq!(buf.num_edges(), adj.num_edges(), "trial {trial}");
            for u in 0..n as Node {
                assert_eq!(buf.neighbors(u), adj.neighbors(u), "trial {trial} node {u}");
            }
            assert_eq!(buf.edges(), adj.edges(), "trial {trial}");
            let back = buf.to_adjacency();
            assert_eq!(back.edges(), adj.edges(), "trial {trial} round-trip");
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

    fn sorted_rows(buf: &SnapshotBuf) -> Vec<Vec<Node>> {
        (0..buf.num_nodes() as Node)
            .map(|u| {
                let mut row = buf.neighbors(u).to_vec();
                row.sort_unstable();
                row
            })
            .collect()
    }

    #[test]
    fn build_with_slack_is_query_identical_to_plain_build() {
        let mut plain = SnapshotBuf::new();
        let mut slacked = SnapshotBuf::new();
        for buf in [&mut plain, &mut slacked] {
            buf.begin(6);
            for (u, v) in [(0, 1), (4, 2), (1, 4), (5, 0)] {
                buf.push_edge(u, v);
            }
        }
        plain.build();
        slacked.build_with_slack(3);
        assert_eq!(plain.num_edges(), slacked.num_edges());
        for u in 0..6u32 {
            assert_eq!(plain.neighbors(u), slacked.neighbors(u), "node {u}");
            assert_eq!(Graph::degree(&plain, u), Graph::degree(&slacked, u));
        }
        assert_eq!(plain.edges(), slacked.edges());
    }

    #[test]
    fn apply_delta_edits_in_place_and_falls_back_when_slack_runs_out() {
        let mut buf = SnapshotBuf::new();
        buf.begin(5);
        buf.push_edge(0, 1);
        buf.push_edge(1, 2);
        buf.push_edge(3, 4);
        buf.build_with_slack(1);
        // One death + one birth fit in the slack.
        let outcome = buf.apply_delta(&[(0, 2)], &[(1, 2)]);
        assert_eq!(outcome, DeltaOutcome::Patched);
        assert_eq!(outcome.rebuild_bytes(), 0);
        assert_eq!(buf.num_edges(), 3);
        assert!(buf.has_edge(0, 2) && !buf.has_edge(1, 2));
        assert_eq!(
            sorted_rows(&buf),
            vec![vec![1, 2], vec![0], vec![0], vec![4], vec![3]]
        );
        // Two more births on node 0 exhaust its single spare slot and force
        // the fallback rebuild; the result must still be the exact edge set.
        let outcome = buf.apply_delta(&[(0, 3), (0, 4)], &[]);
        assert!(outcome.is_rebuilt());
        // 5 edges = 10 live arc slots, + 1 slack slot per row.
        assert_eq!(outcome, DeltaOutcome::Rebuilt { arc_slots: 15 });
        assert_eq!(outcome.rebuild_bytes(), 15 * std::mem::size_of::<Node>(),);
        assert_eq!(buf.num_edges(), 5);
        assert_eq!(
            sorted_rows(&buf),
            vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0, 4], vec![0, 3]]
        );
        // The adjacency interop path must reflect the delta-edited rows.
        let g = buf.to_adjacency();
        assert_eq!(g.num_edges(), 5);
        assert!(g.has_edge(0, 4));
    }

    #[test]
    fn delta_sequences_match_from_scratch_rebuilds() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 24usize;
        for slack in [0u32, 1, 4] {
            let mut live = std::collections::BTreeSet::new();
            let mut buf = SnapshotBuf::new();
            buf.begin(n);
            for u in 0..n as Node {
                for v in (u + 1)..n as Node {
                    if rng.gen_bool(0.15) {
                        live.insert((u, v));
                        buf.push_edge(u, v);
                    }
                }
            }
            buf.build_with_slack(slack);
            for round in 0..40 {
                let deaths: Vec<(Node, Node)> =
                    live.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
                let mut births = Vec::new();
                for _ in 0..rng.gen_range(0..8) {
                    let u = rng.gen_range(0..n) as Node;
                    let v = rng.gen_range(0..n) as Node;
                    let (a, b) = (u.min(v), u.max(v));
                    if a != b && !live.contains(&(a, b)) && !births.contains(&(a, b)) {
                        births.push((a, b));
                    }
                }
                for d in &deaths {
                    live.remove(d);
                }
                for &b in &births {
                    live.insert(b);
                }
                let _ = buf.apply_delta(&births, &deaths);
                // Reference: a from-scratch build of the same edge set.
                let mut fresh = SnapshotBuf::new();
                fresh.begin(n);
                for &(u, v) in &live {
                    fresh.push_edge(u, v);
                }
                fresh.build();
                assert_eq!(
                    buf.num_edges(),
                    fresh.num_edges(),
                    "slack {slack} round {round}"
                );
                assert_eq!(
                    sorted_rows(&buf),
                    sorted_rows(&fresh),
                    "slack {slack} round {round}"
                );
            }
        }
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
