//! Snapshot construction: the graph induced by node positions and a
//! transmission radius, under either the square (Euclidean) or toroidal
//! metric.
//!
//! A uniform bucket grid with cell side `≥ R` reduces the candidate pairs to
//! nodes in the same or adjacent cells, so a snapshot costs
//! `O(n + #candidate pairs)` — the dominant cost of simulating geometric-MEG,
//! incurred once per time step. Every geometric node moves every round, so
//! each snapshot is a full rebuild.
//!
//! The construction is allocation-free on the hot path:
//! [`radius_graph_into`] fills a caller-owned [`SnapshotBuf`] using a
//! caller-owned [`RadiusGraphWorkspace`]. The bucket index is a **flat
//! counting sort**: bucket membership, node ids and the `x`/`y` coordinates
//! each live in one contiguous vector. The snapshot is then built **row by
//! row** ([`SnapshotBuf::build_rows`]): each node, in id order, scans the
//! buckets around its own and appends its in-range neighbours straight into
//! its CSR row through the fixed-lane gather kernel (`gather_close`): a
//! loop shaped for LLVM's autovectorizer with branchless hit compression,
//! safe code only (`docs/PERF.md` has the re-verify procedure and what it
//! finds on the current toolchain). Each edge is tested once from each end;
//! no edge is staged and nothing is sorted.
//!
//! ## Culling
//!
//! The index also records each bucket's node bounding box. A node skips
//! every neighbour bucket whose box lies more than `R` from it under the
//! plain metric: correctly rounded subtraction, squaring and addition are
//! monotone, so each node in such a box has a squared distance at least the
//! box's, and the per-pair test would reject it. Rows stay exact. Runs that
//! need the torus fold (wrapped bucket pairs, and every run at `k ≤ 3`) are
//! scanned whole.
//!
//! ## Row order
//!
//! Rows keep the order of the historical construction, a half-plane scan
//! that emitted each edge once into a stable counting sort (kept under
//! `#[cfg(test)]` as the order oracle). It walks buckets `h` in index order
//! and visits `(h, h)`, then `h`'s E, SW, S and SE neighbours — wrapped on
//! the torus, skipping a neighbour that wraps onto `h`, and with `k ≤ 3`
//! buckets per axis skipping a bucket pair already visited. Node `u`'s row
//! lists, visit by visit, the other bucket's in-range nodes in slot order
//! (for `u`'s own bucket: slot order without `u`). Each bucket's visits are
//! tabulated once per grid, consecutive bucket indices coalesced into one
//! contiguous slot range; on the square every node scans three ranges,
//! split where it skips a bucket.
//!
//! The distance test is symmetric bit for bit (`a − b = −(b − a)` exactly),
//! so both ends of a pair make the same accept decision. [`radius_graph`] is
//! the one-shot allocating form: [`radius_graph_into`] followed by
//! [`SnapshotBuf::to_adjacency`].
//!
//! ## Partial builds
//!
//! A reader that reads only some rows passes their set, and the gather skips
//! every other node ([`SnapshotBuf::build_rows_of`]). A row depends only on
//! its node's position and on the index, which is always built whole, so
//! each built row equals its row in a full build, in order. A skipped node
//! still moves its bucket's slot cursor, which the next node of its bucket
//! needs.

use meg_graph::{AdjacencyList, Node, NodeSet, RowWriter, SnapshotBuf};
use meg_mobility::space::{Point, Region};
use meg_obs as obs;

/// Reusable scratch for the bucket-grid construction.
///
/// The caller owns one workspace per evolving graph and every rebuild reuses
/// its flat vectors, which stop allocating once their capacities reach the
/// run's high-water mark; the per-bucket visit table is rebuilt only when
/// the grid shape changes.
#[derive(Clone, Debug, Default)]
pub struct RadiusGraphWorkspace {
    /// Per-bucket occupancy counts (counting-sort pass 1), then the
    /// per-bucket fill cursor (pass 2), then the per-bucket slot cursor of
    /// the row gather.
    counts: Vec<usize>,
    /// Per-bucket start offset into the three flat arrays (`k² + 1` entries).
    starts: Vec<usize>,
    /// Per-bucket node bounding box (`k²` entries).
    boxes: Vec<BucketBox>,
    /// Node ids, grouped by bucket, index order preserved inside each bucket.
    nodes: Vec<Node>,
    /// `x` coordinate of `nodes[i]` (flat, parallel to `nodes`).
    xs: Vec<f64>,
    /// `y` coordinate of `nodes[i]` (flat, parallel to `nodes`).
    ys: Vec<f64>,
    /// Node → bucket cache: written by the counting sort's first pass, read
    /// by its placement pass and by the row gather, so each node's bucket is
    /// computed once per snapshot.
    bucket_of: Vec<usize>,
    /// Every bucket's visit order as runs of consecutive buckets:
    /// `runs[run_starts[b]..run_starts[b + 1]]` for bucket `b`.
    runs: Vec<Run>,
    /// Per-bucket start offset into `runs` (`k² + 1` entries).
    run_starts: Vec<usize>,
    /// The `(k, wrap)` grid `runs` was tabulated for (`k == 0`: none yet).
    runs_grid: (usize, bool),
    /// Candidate distance tests the last build made (the
    /// `BucketScanVisits` count of one snapshot).
    scan_visits: u64,
}

/// The bounding box of one bucket's nodes: min and max `x` and `y` over the
/// coordinates it actually holds. An empty bucket has the empty box
/// ([`BucketBox::EMPTY`]), which lies beyond every radius.
#[derive(Clone, Copy, Debug)]
struct BucketBox {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl BucketBox {
    const EMPTY: BucketBox = BucketBox {
        x0: f64::INFINITY,
        x1: f64::NEG_INFINITY,
        y0: f64::INFINITY,
        y1: f64::NEG_INFINITY,
    };

    /// The smallest box holding `self` and `(x, y)`.
    #[inline]
    fn grow(self, x: f64, y: f64) -> BucketBox {
        BucketBox {
            x0: self.x0.min(x),
            x1: self.x1.max(x),
            y0: self.y0.min(y),
            y1: self.y1.max(y),
        }
    }

    /// Whether the box lies more than `√r2` from `(ux, uy)` under the plain
    /// metric. Each axis gap is one of the subtractions `within_square`
    /// makes against the box's nearest node on that axis (or 0), so when it
    /// holds, every node in the box fails `within_square`.
    #[inline(always)]
    fn beyond(&self, ux: f64, uy: f64, r2: f64) -> bool {
        let dx = (self.x0 - ux).max(ux - self.x1).max(0.0);
        let dy = (self.y0 - uy).max(uy - self.y1).max(0.0);
        dx * dx + dy * dy > r2
    }
}

/// Consecutive buckets `first..end` in one bucket's visit order: their nodes
/// form one contiguous slot range of the bucket index.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: usize,
    end: usize,
    /// Whether the plain squared distance decides this run. Always on the
    /// square. On the torus only with `k ≥ 4` and for bucket pairs that did
    /// not wrap: an unwrapped adjacent pair is then at most `side/2` apart
    /// per axis, where the torus fold `min(|d|, side − |d|)` picks `|d|`, and
    /// a pair that rounding pushes past `side/2` is at least `2R` apart under
    /// both metrics — so both make the same accept decision.
    plain: bool,
}

/// Squared-distance test over flat coordinate values — the single distance
/// check shared by every candidate loop.
#[inline(always)]
fn within_square(ax: f64, ay: f64, bx: f64, by: f64, r2: f64) -> bool {
    let dx = ax - bx;
    let dy = ay - by;
    dx * dx + dy * dy <= r2
}

/// Toroidal variant: folds each axis delta to its minimal wrap-around
/// representative, then applies the same squared test. The fold is the
/// branchless `d.min(side − d)`, which selects the *same value* as the
/// historical `if d > half { side − d }` on every input (for `d ≤ side/2`
/// the direct delta is the minimum, beyond it the complement is — and at
/// exactly `side/2` the two coincide), so accept/reject decisions are
/// bit-identical to `Region::Torus::distance_squared`. Branch-free matters
/// here: this predicate runs inside the lane kernel (`gather_close`), where
/// any data-dependent branch would block autovectorization.
#[inline(always)]
fn within_torus(ax: f64, ay: f64, bx: f64, by: f64, r2: f64, side: f64) -> bool {
    let dxa = (ax - bx).abs();
    let dx = dxa.min(side - dxa);
    let dya = (ay - by).abs();
    let dy = dya.min(side - dya);
    dx * dx + dy * dy <= r2
}

/// Metric predicate monomorphised into the candidate kernel: a small `Copy`
/// struct (not a closure) so each metric instantiates `gather_close` as a
/// named, inspectable monomorphization with a fully branchless `accept`.
trait LaneMetric: Copy {
    /// Is `b` within transmission range of `a`?
    fn accept(self, ax: f64, ay: f64, bx: f64, by: f64) -> bool;
}

/// Euclidean metric on the square, radius pre-squared.
#[derive(Clone, Copy)]
struct SquareMetric {
    r2: f64,
}

impl LaneMetric for SquareMetric {
    #[inline(always)]
    fn accept(self, ax: f64, ay: f64, bx: f64, by: f64) -> bool {
        within_square(ax, ay, bx, by, self.r2)
    }
}

/// Wrap-around metric on the torus, radius pre-squared.
#[derive(Clone, Copy)]
struct TorusMetric {
    r2: f64,
    side: f64,
}

impl LaneMetric for TorusMetric {
    #[inline(always)]
    fn accept(self, ax: f64, ay: f64, bx: f64, by: f64) -> bool {
        within_torus(ax, ay, bx, by, self.r2, self.side)
    }
}

/// Lane width of the chunked distance kernel. Candidate ranges are a few
/// buckets long; a narrow chunk vectorizes more of each range (fewer
/// candidates stranded in the scalar remainder) while still filling the
/// 2 × f64 SSE2 lanes of the x86-64 baseline twice over (and a 4 × f64 AVX
/// register exactly, under `-C target-cpu` builds).
const LANES: usize = 4;

/// The gather kernel: tests every candidate `(xs[j], ys[j])` against
/// `(ux, uy)` and compresses the ids `ids[j]` of the accepted ones, in
/// ascending `j`, into the front of `out`; returns how many.
///
/// Safe-code autovectorization contract (see `docs/PERF.md`): the hot loop
/// runs over `chunks_exact(LANES)` computing a `[bool; LANES]` mask — fixed
/// trip count, no data-dependent control flow, and fixed-size chunk views so
/// no bounds checks survive to block the vectorizer — the shape LLVM needs
/// for packed f64 compares (rustc 1.95 on the x86-64 baseline still emits
/// scalar ones). The mask is then compressed serially (an unconditional
/// store plus flag add per lane, no branch to mispredict); sub-chunk
/// leftovers take the scalar remainder loop, same branchless compress.
/// `out` must hold at least `xs.len()` slots.
#[inline]
fn gather_close<M: LaneMetric>(
    metric: M,
    ux: f64,
    uy: f64,
    xs: &[f64],
    ys: &[f64],
    ids: &[Node],
    out: &mut [Node],
) -> usize {
    debug_assert!(xs.len() == ys.len() && xs.len() == ids.len());
    let mut cnt = 0usize;
    let mut cx = xs.chunks_exact(LANES);
    let mut cy = ys.chunks_exact(LANES);
    let mut ci = ids.chunks_exact(LANES);
    for ((chunk_x, chunk_y), chunk_i) in cx.by_ref().zip(cy.by_ref()).zip(ci.by_ref()) {
        let chunk_x: &[f64; LANES] = chunk_x.try_into().expect("chunks_exact");
        let chunk_y: &[f64; LANES] = chunk_y.try_into().expect("chunks_exact");
        let chunk_i: &[Node; LANES] = chunk_i.try_into().expect("chunks_exact");
        let mut mask = [false; LANES];
        for l in 0..LANES {
            mask[l] = metric.accept(ux, uy, chunk_x[l], chunk_y[l]);
        }
        for (&id, &hit) in chunk_i.iter().zip(&mask) {
            out[cnt] = id;
            cnt += hit as usize;
        }
    }
    for ((&x, &y), &id) in cx
        .remainder()
        .iter()
        .zip(cy.remainder())
        .zip(ci.remainder())
    {
        out[cnt] = id;
        cnt += metric.accept(ux, uy, x, y) as usize;
    }
    cnt
}

/// Buckets per axis for `n` nodes in a region of side `side`: each bucket
/// has side `≥ radius`, so any pair within the radius lies in the same or an
/// adjacent bucket, and there are at most `n` buckets, so a tiny radius
/// cannot make the grid outgrow the nodes.
#[inline]
fn grid_k(side: f64, radius: f64, n: usize) -> usize {
    ((side / radius).floor() as usize).min(n.isqrt()).max(1)
}

/// Counting sort of the nodes into buckets: three flat arrays
/// (`nodes`/`xs`/`ys` grouped by bucket, `starts` delimiting each group),
/// node index order preserved within each bucket, then each bucket's node
/// bounding box.
fn build_bucket_index(
    positions: &[Point],
    k: usize,
    bucket_side: f64,
    ws: &mut RadiusGraphWorkspace,
) {
    let n = positions.len();
    let nb = k * k;
    ws.counts.clear();
    ws.counts.resize(nb, 0);
    let bucket_of = |p: Point| -> usize {
        let bx = ((p.0 / bucket_side) as usize).min(k - 1);
        let by = ((p.1 / bucket_side) as usize).min(k - 1);
        by * k + bx
    };
    ws.bucket_of.resize(n, 0);
    for (i, &p) in positions.iter().enumerate() {
        let b = bucket_of(p);
        ws.bucket_of[i] = b;
        ws.counts[b] += 1;
    }
    ws.starts.clear();
    ws.starts.reserve(nb + 1);
    let mut acc = 0usize;
    ws.starts.push(0);
    for &c in &ws.counts {
        acc += c;
        ws.starts.push(acc);
    }
    ws.counts.copy_from_slice(&ws.starts[..nb]);
    // Resize without `clear()`: the placement pass overwrites every slot, so
    // re-initialising the kept prefix would be wasted work.
    ws.nodes.resize(n, 0);
    ws.xs.resize(n, 0.0);
    ws.ys.resize(n, 0.0);
    for (i, &p) in positions.iter().enumerate() {
        let slot = &mut ws.counts[ws.bucket_of[i]];
        ws.nodes[*slot] = i as Node;
        ws.xs[*slot] = p.0;
        ws.ys[*slot] = p.1;
        *slot += 1;
    }
    ws.boxes.clear();
    ws.boxes.extend(ws.starts.windows(2).map(|w| {
        let (xs, ys) = (&ws.xs[w[0]..w[1]], &ws.ys[w[0]..w[1]]);
        xs.iter()
            .zip(ys)
            .fold(BucketBox::EMPTY, |b, (&x, &y)| b.grow(x, y))
    }));
}

/// Forward neighbour offsets of the half-plane scan: E, SW, S, SE.
const FORWARD: [(isize, isize); 4] = [(1, 0), (-1, 1), (0, 1), (1, 1)];

/// The half-plane scan's bucket pairs in visit order: for each bucket `h`
/// in index order, `(h, h)` and then its E, SW, S and SE neighbours `t`.
/// On the torus the offsets wrap (`wrapped` says whether this one did); a
/// neighbour that wraps onto `h` is skipped, and with `k ≤ 3` (where wrapped
/// offsets can repeat a pair) so is a bucket pair already visited.
fn half_scan_pairs(k: usize, wrap: bool, mut visit: impl FnMut(usize, usize, bool)) {
    let nb = k * k;
    // `k ≤ 3 ⇒ nb ≤ 9 ⇒ nb² ≤ 81`.
    let dedup_pairs = k <= 3;
    let mut visited_pair = [false; 81];
    let m = k as isize;
    for by in 0..k {
        for bx in 0..k {
            let h = by * k + bx;
            visit(h, h, false);
            for (dx, dy) in FORWARD {
                let (nx, ny) = (bx as isize + dx, by as isize + dy);
                let inside = (0..m).contains(&nx) && (0..m).contains(&ny);
                if !inside && !wrap {
                    continue;
                }
                let t = (ny.rem_euclid(m) * m + nx.rem_euclid(m)) as usize;
                if t == h {
                    continue;
                }
                if dedup_pairs {
                    let key = h.min(t) * nb + h.max(t);
                    if visited_pair[key] {
                        continue;
                    }
                    visited_pair[key] = true;
                }
                visit(h, t, !inside);
            }
        }
    }
}

impl RadiusGraphWorkspace {
    /// Tabulates every bucket's visits of the half-plane scan, in visit
    /// order, as runs of consecutive buckets. Runs once per grid shape.
    fn tabulate_runs(&mut self, k: usize, wrap: bool) {
        if self.runs_grid == (k, wrap) {
            return;
        }
        self.runs_grid = (k, wrap);
        let nb = k * k;
        let plain = |wrapped: bool| !wrap || (k >= 4 && !wrapped);
        // Each visit `(h, t)` is an entry of `h`'s list and, unless `t == h`,
        // of `t`'s: two passes of a counting sort over the visit sequence.
        let mut entry_starts = vec![0usize; nb + 1];
        half_scan_pairs(k, wrap, |h, t, _| {
            entry_starts[h + 1] += 1;
            if t != h {
                entry_starts[t + 1] += 1;
            }
        });
        for b in 0..nb {
            entry_starts[b + 1] += entry_starts[b];
        }
        let mut cursor = entry_starts[..nb].to_vec();
        let mut entries = vec![(0usize, false); entry_starts[nb]];
        half_scan_pairs(k, wrap, |h, t, wrapped| {
            entries[cursor[h]] = (t, plain(wrapped));
            cursor[h] += 1;
            if t != h {
                entries[cursor[t]] = (h, plain(wrapped));
                cursor[t] += 1;
            }
        });
        self.runs.clear();
        self.run_starts.clear();
        self.run_starts.push(0);
        for b in 0..nb {
            let first_run = self.runs.len();
            for &(bucket, plain) in &entries[entry_starts[b]..entry_starts[b + 1]] {
                match self.runs[first_run..].last_mut() {
                    Some(run) if run.end == bucket && run.plain == plain => run.end += 1,
                    _ => self.runs.push(Run {
                        first: bucket,
                        end: bucket + 1,
                        plain,
                    }),
                }
            }
            self.run_starts.push(self.runs.len());
        }
    }
}

/// The row gather over an already-built index and run table: node `u`'s
/// row is every run's in-range nodes, run by run, in slot order. Runs marked
/// `plain` are tested with `plain`, the others with `folded` (the region's
/// own metric). In a `plain` run, `u` skips each bucket whose box lies
/// beyond the radius and scans the kept buckets, consecutive ones coalesced
/// into one slot range. Only the rows of `rows` are gathered (every row
/// when `None`). Records the number of candidate tests made.
fn gather_rows<W: LaneMetric>(
    ws: &mut RadiusGraphWorkspace,
    rows: Option<&NodeSet>,
    out: &mut SnapshotBuf,
    plain: SquareMetric,
    folded: W,
) {
    let RadiusGraphWorkspace {
        counts,
        starts,
        boxes,
        nodes,
        xs,
        ys,
        bucket_of,
        runs,
        run_starts,
        scan_visits,
        ..
    } = ws;
    // Replay the placement pass's cursors: it filled each bucket in id
    // order, so node `u`'s slot is the next one of its bucket.
    let nb = counts.len();
    counts.copy_from_slice(&starts[..nb]);
    let n = bucket_of.len();
    // Every slot scanned, `u`'s own included; each built row skips itself.
    let mut scanned = 0usize;
    out.build_rows_of(n, rows, |u, row| {
        let b = bucket_of[u as usize];
        let own = counts[b];
        counts[b] += 1;
        if rows.is_some_and(|r| !r.contains(u)) {
            return;
        }
        let (ux, uy) = (xs[own], ys[own]);
        let gather = |lo: usize, hi: usize, plain_run: bool, row: &mut RowWriter<'_>| {
            let (cx, cy, ids) = (&xs[lo..hi], &ys[lo..hi], &nodes[lo..hi]);
            let slots = row.spare(hi - lo);
            let kept = if plain_run {
                gather_close(plain, ux, uy, cx, cy, ids, slots)
            } else {
                gather_close(folded, ux, uy, cx, cy, ids, slots)
            };
            row.commit(kept);
        };
        let mut scan = |lo: usize, hi: usize, plain_run: bool, row: &mut RowWriter<'_>| {
            scanned += hi - lo;
            if (lo..hi).contains(&own) {
                // The range holding `u`'s own bucket: scan around `u`.
                gather(lo, own, plain_run, row);
                gather(own + 1, hi, plain_run, row);
            } else {
                gather(lo, hi, plain_run, row);
            }
        };
        for run in &runs[run_starts[b]..run_starts[b + 1]] {
            let (mut lo, mut hi) = (starts[run.first], starts[run.end]);
            if run.plain {
                // `u`'s own box holds `u`, so its bucket is always kept.
                hi = lo;
                for t in run.first..run.end {
                    let end = starts[t + 1];
                    if end > hi && boxes[t].beyond(ux, uy, plain.r2) {
                        scan(lo, hi, true, row);
                        lo = end;
                    }
                    hi = end;
                }
            }
            scan(lo, hi, run.plain, row);
        }
    });
    *scan_visits = (scanned - rows.map_or(n, NodeSet::len)) as u64;
}

/// Builds the radius graph of `positions` **in place**: the snapshot lands in
/// the caller-owned `out` buffer, scratch lives in the caller-owned `ws`.
///
/// Nodes are connected iff their distance (Euclidean in a square, wrap-around
/// on a torus) is at most `radius`. With `rows` set, only the rows of its
/// nodes are built, each equal to its row in a full build, and the rest stay
/// empty: a partial snapshot ([`SnapshotBuf::build_rows_of`]). Performs zero
/// heap allocations once both buffers' capacities have warmed up — this is
/// the per-time-step hot path of every geometric evolving graph.
pub fn radius_graph_into(
    positions: &[Point],
    radius: f64,
    region: Region,
    rows: Option<&NodeSet>,
    ws: &mut RadiusGraphWorkspace,
    out: &mut SnapshotBuf,
) {
    let n = positions.len();
    if n == 0 || radius <= 0.0 {
        out.build_rows_of(n, rows, |_, _| {});
        ws.scan_visits = 0;
        return;
    }
    let side = region.side();
    let r2 = radius * radius;
    let wrap = region.is_torus();
    // Number of buckets per axis; each bucket has side ≥ radius so only the
    // 8-neighborhood needs to be examined. On a torus the neighborhood wraps.
    let k = grid_k(side, radius, n);
    build_bucket_index(positions, k, side / k as f64, ws);
    ws.tabulate_runs(k, wrap);
    // Monomorphise the gather per metric so the inner lane kernel carries no
    // per-pair branch on the region kind.
    let plain = SquareMetric { r2 };
    if wrap {
        gather_rows(ws, rows, out, plain, TorusMetric { r2, side });
    } else {
        gather_rows(ws, rows, out, plain, plain);
    }
    if obs::installed() {
        obs::add(obs::Counter::BucketScanVisits, ws.scan_visits);
        obs::add(
            obs::Counter::SkippedRows,
            rows.map_or(0, |r| n - r.len()) as u64,
        );
    }
}

/// Builds the radius graph of `positions` under the metric of `region`
/// (one-shot allocating form; same construction — and same neighbour order —
/// as [`radius_graph_into`]).
pub fn radius_graph(positions: &[Point], radius: f64, region: Region) -> AdjacencyList {
    let mut ws = RadiusGraphWorkspace::default();
    let mut buf = SnapshotBuf::new();
    radius_graph_into(positions, radius, region, None, &mut ws, &mut buf);
    buf.to_adjacency()
}

/// Brute-force reference implementation (O(n²)), used by tests and available
/// for very small inputs.
pub fn radius_graph_brute_force(positions: &[Point], radius: f64, region: Region) -> AdjacencyList {
    let n = positions.len();
    let mut g = AdjacencyList::new(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            if region.distance_squared(positions[u], positions[v]) <= r2 {
                g.add_edge_unchecked(u as Node, v as Node);
            }
        }
    }
    g
}

/// The order oracle: the historical half-plane scan, which emitted each
/// edge once, bucket pair by bucket pair, as `(min, max)` pairs into a
/// stable counting sort. Row-built snapshots must equal its rows exactly.
#[cfg(test)]
mod half_scan {
    use super::*;

    /// The lane kernel of the half-plane scan: compresses the slots (offset
    /// by `base`, ascending) of accepted candidates into `hits`.
    #[inline]
    fn compress_close<M: LaneMetric>(
        metric: M,
        ux: f64,
        uy: f64,
        xs: &[f64],
        ys: &[f64],
        base: usize,
        hits: &mut [usize],
    ) -> usize {
        debug_assert_eq!(xs.len(), ys.len());
        let mut cnt = 0usize;
        let mut off = 0usize;
        let mut cx = xs.chunks_exact(LANES);
        let mut cy = ys.chunks_exact(LANES);
        for (chunk_x, chunk_y) in cx.by_ref().zip(cy.by_ref()) {
            let chunk_x: &[f64; LANES] = chunk_x.try_into().expect("chunks_exact");
            let chunk_y: &[f64; LANES] = chunk_y.try_into().expect("chunks_exact");
            let mut mask = [false; LANES];
            for l in 0..LANES {
                mask[l] = metric.accept(ux, uy, chunk_x[l], chunk_y[l]);
            }
            for (l, &hit) in mask.iter().enumerate() {
                hits[cnt] = base + off + l;
                cnt += hit as usize;
            }
            off += LANES;
        }
        for (l, (&x, &y)) in cx.remainder().iter().zip(cy.remainder()).enumerate() {
            hits[cnt] = base + off + l;
            cnt += metric.accept(ux, uy, x, y) as usize;
        }
        cnt
    }

    /// The bucket-pair candidate scan over a built index; returns the number
    /// of candidate pairs it tested (each unordered pair once).
    fn scan_buckets<M: LaneMetric>(
        ws: &RadiusGraphWorkspace,
        k: usize,
        wrap: bool,
        metric: M,
        emit: &mut impl FnMut(Node, Node),
    ) -> u64 {
        let RadiusGraphWorkspace {
            starts,
            nodes,
            xs,
            ys,
            ..
        } = ws;
        let mut hits = vec![0usize; nodes.len()];
        let nb = k * k;
        let dedup_pairs = k <= 3;
        let mut visited_pair = [false; 81];
        let mut visits = 0u64;

        let m = k as isize;
        for by in 0..k {
            for bx in 0..k {
                let here_idx = by * k + bx;
                let hs = starts[here_idx];
                let he = starts[here_idx + 1];
                let cnt = (he - hs) as u64;
                visits += cnt * cnt.saturating_sub(1) / 2;
                for i in hs..he {
                    let (uxi, uyi) = (xs[i], ys[i]);
                    let cnt = compress_close(
                        metric,
                        uxi,
                        uyi,
                        &xs[i + 1..he],
                        &ys[i + 1..he],
                        i + 1,
                        &mut hits,
                    );
                    for &j in &hits[..cnt] {
                        let (u, v) = (nodes[i], nodes[j]);
                        emit(u.min(v), u.max(v));
                    }
                }
                for (dx, dy) in [(1isize, 0isize), (-1, 1), (0, 1), (1, 1)] {
                    let (nx, ny) = if wrap {
                        (
                            ((bx as isize + dx).rem_euclid(m)) as usize,
                            ((by as isize + dy).rem_euclid(m)) as usize,
                        )
                    } else {
                        let nx = bx as isize + dx;
                        let ny = by as isize + dy;
                        if nx < 0 || ny < 0 || nx >= m || ny >= m {
                            continue;
                        }
                        (nx as usize, ny as usize)
                    };
                    let there_idx = ny * k + nx;
                    if there_idx == here_idx {
                        continue;
                    }
                    if dedup_pairs {
                        let key = here_idx.min(there_idx) * nb + here_idx.max(there_idx);
                        if visited_pair[key] {
                            continue;
                        }
                        visited_pair[key] = true;
                    }
                    let ts = starts[there_idx];
                    let te = starts[there_idx + 1];
                    visits += (he - hs) as u64 * (te - ts) as u64;
                    for i in hs..he {
                        let (uxi, uyi) = (xs[i], ys[i]);
                        let cnt = compress_close(
                            metric,
                            uxi,
                            uyi,
                            &xs[ts..te],
                            &ys[ts..te],
                            ts,
                            &mut hits,
                        );
                        for &j in &hits[..cnt] {
                            let (u, v) = (nodes[i], nodes[j]);
                            emit(u.min(v), u.max(v));
                        }
                    }
                }
            }
        }
        visits
    }

    /// Emits every radius-graph edge once, in half-plane scan order; returns
    /// the scan's candidate-pair count.
    fn radius_graph_core(
        positions: &[Point],
        radius: f64,
        region: Region,
        ws: &mut RadiusGraphWorkspace,
        emit: &mut impl FnMut(Node, Node),
    ) -> u64 {
        let n = positions.len();
        if n == 0 || radius <= 0.0 {
            return 0;
        }
        let side = region.side();
        let r2 = radius * radius;
        let k = grid_k(side, radius, n);
        build_bucket_index(positions, k, side / k as f64, ws);
        if region.is_torus() {
            scan_buckets(ws, k, true, TorusMetric { r2, side }, emit)
        } else {
            scan_buckets(ws, k, false, SquareMetric { r2 }, emit)
        }
    }

    /// The historical construction: the half-plane scan's edge stream pushed
    /// into an adjacency list (same rows as its counting sort), plus the
    /// scan's candidate-pair count.
    pub(super) fn oracle(positions: &[Point], radius: f64, region: Region) -> (AdjacencyList, u64) {
        let mut ws = RadiusGraphWorkspace::default();
        let mut g = AdjacencyList::new(positions.len());
        let visits = radius_graph_core(positions, radius, region, &mut ws, &mut |u, v| {
            g.add_edge_unchecked(u, v)
        });
        (g, visits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meg_graph::Graph;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_positions(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect()
    }

    fn assert_same_graph(a: &AdjacencyList, b: &AdjacencyList) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for u in 0..a.num_nodes() as Node {
            let mut na = a.neighbors(u).to_vec();
            let mut nb = b.neighbors(u).to_vec();
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb, "neighbors of {u}");
        }
    }

    /// Row-for-row (order included) equality of a row-built snapshot with
    /// the half-scan oracle, whose edge set must also be the brute-force one.
    /// Returns the half scan's candidate-pair count.
    fn assert_rows_match_oracle(
        buf: &SnapshotBuf,
        pos: &[Point],
        radius: f64,
        region: Region,
        context: &str,
    ) -> u64 {
        let (oracle, half_visits) = half_scan::oracle(pos, radius, region);
        assert_eq!(buf.num_nodes(), oracle.num_nodes(), "{context}");
        assert_eq!(buf.num_edges(), oracle.num_edges(), "{context}");
        for u in 0..pos.len() as Node {
            assert_eq!(
                buf.neighbors(u),
                oracle.neighbors(u),
                "{context}: row of node {u}"
            );
        }
        assert_same_graph(&oracle, &radius_graph_brute_force(pos, radius, region));
        half_visits
    }

    /// The candidate tests the row gather must make over `ws`'s index,
    /// recounted from the positions: each node of `rows` (every node when
    /// `None`) scans its runs' buckets but itself, and in a `plain` run it
    /// skips a bucket whose node bounding box lies beyond the radius.
    /// Returns the count with that skip and the count without it.
    fn recount_visits(
        ws: &RadiusGraphWorkspace,
        pos: &[Point],
        radius: f64,
        rows: Option<&NodeSet>,
    ) -> (u64, u64) {
        let empty = (f64::INFINITY, f64::NEG_INFINITY);
        let mut boxes = vec![(empty, empty); ws.starts.len() - 1];
        for (&(x, y), &b) in pos.iter().zip(&ws.bucket_of) {
            let (bx, by) = &mut boxes[b];
            *bx = (bx.0.min(x), bx.1.max(x));
            *by = (by.0.min(y), by.1.max(y));
        }
        let gap = |(lo, hi): (f64, f64), c: f64| (lo - c).max(c - hi).max(0.0);
        let (mut culled, mut unculled) = (0u64, 0u64);
        for (u, (&(ux, uy), &b)) in pos.iter().zip(&ws.bucket_of).enumerate() {
            if rows.is_some_and(|r| !r.contains(u as Node)) {
                continue;
            }
            for run in &ws.runs[ws.run_starts[b]..ws.run_starts[b + 1]] {
                let sizes = ws.starts[run.first..=run.end].windows(2);
                for (&(bx, by), size) in boxes[run.first..run.end].iter().zip(sizes) {
                    let size = (size[1] - size[0]) as u64;
                    let (dx, dy) = (gap(bx, ux), gap(by, uy));
                    unculled += size;
                    if !run.plain || dx * dx + dy * dy <= radius * radius {
                        culled += size;
                    }
                }
            }
            culled -= 1;
            unculled -= 1;
        }
        (culled, unculled)
    }

    /// Builds `pos` into a fresh workspace and checks it: rows equal the
    /// oracle's, and the build's candidate-test count equals the recount and
    /// lies between twice the edge count and the unculled count, which is
    /// twice the half scan's. Returns the workspace, the snapshot and the
    /// unculled count.
    fn build_checked(
        pos: &[Point],
        radius: f64,
        region: Region,
        context: &str,
    ) -> (RadiusGraphWorkspace, SnapshotBuf, u64) {
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        radius_graph_into(pos, radius, region, None, &mut ws, &mut buf);
        let half_visits = assert_rows_match_oracle(&buf, pos, radius, region, context);
        let (culled, unculled) = recount_visits(&ws, pos, radius, None);
        assert_eq!(ws.scan_visits, culled, "{context}: candidate tests");
        assert_eq!(unculled, 2 * half_visits, "{context}: unculled tests");
        assert!(
            2 * buf.num_edges() as u64 <= culled,
            "{context}: tests < arcs"
        );
        (ws, buf, unculled)
    }

    #[test]
    fn square_metric_matches_brute_force() {
        let region = Region::Square { side: 20.0 };
        for (n, radius, seed) in [(150usize, 2.0f64, 1u64), (80, 5.0, 2), (60, 0.7, 3)] {
            let pos = random_positions(n, 20.0, seed);
            let fast = radius_graph(&pos, radius, region);
            let slow = radius_graph_brute_force(&pos, radius, region);
            assert_same_graph(&fast, &slow);
        }
    }

    #[test]
    fn torus_metric_matches_brute_force() {
        let region = Region::Torus { side: 20.0 };
        for (n, radius, seed) in [(150usize, 2.0f64, 4u64), (80, 5.0, 5), (50, 9.0, 6)] {
            let pos = random_positions(n, 20.0, seed);
            let fast = radius_graph(&pos, radius, region);
            let slow = radius_graph_brute_force(&pos, radius, region);
            assert_same_graph(&fast, &slow);
        }
    }

    #[test]
    fn in_place_form_matches_allocating_form_exactly() {
        // Same workspace and snapshot buffer reused across every
        // configuration (so the run table is re-tabulated whenever the grid
        // changes): the in-place construction must agree with the allocating
        // one and with the half-scan oracle row for row, on both metrics,
        // including tiny wrapped grids where bucket pairs collide.
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        let mut checked = 0usize;
        for seed in 0..25u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let n = rng.gen_range(1..120usize);
            let side = rng.gen_range(3.0..25.0f64);
            let radius = rng.gen_range(0.2..side); // spans k = 1 .. large
            for region in [Region::Square { side }, Region::Torus { side }] {
                let pos = random_positions(n, side, 2000 + seed);
                let reference = radius_graph(&pos, radius, region);
                radius_graph_into(&pos, radius, region, None, &mut ws, &mut buf);
                assert_eq!(buf.num_nodes(), reference.num_nodes());
                assert_eq!(buf.num_edges(), reference.num_edges(), "seed {seed}");
                for u in 0..n as Node {
                    assert_eq!(
                        buf.neighbors(u),
                        reference.neighbors(u),
                        "seed {seed} {region:?} node {u}"
                    );
                }
                assert_rows_match_oracle(&buf, &pos, radius, region, &format!("seed {seed}"));
                assert_eq!(ws.scan_visits, recount_visits(&ws, &pos, radius, None).0);
                checked += 1;
            }
        }
        assert_eq!(checked, 50);
    }

    /// Positions for the oracle property: uniform draws, then some snapped
    /// onto bucket edges, some made coincident with an earlier node, and
    /// some placed exactly `radius` from an earlier node along one axis.
    fn tricky_positions(n: usize, side: f64, radius: f64, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bucket_side = side / grid_k(side, radius, n) as f64;
        let mut pos: Vec<Point> = Vec::with_capacity(n);
        for i in 0..n {
            let mut p = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            match rng.gen_range(0..6u32) {
                0 => {
                    let snap = (p.0 / bucket_side).round() * bucket_side;
                    if snap < side {
                        p.0 = snap;
                    }
                }
                1 if i > 0 => p = pos[rng.gen_range(0..i)],
                2 if i > 0 => {
                    let q = pos[rng.gen_range(0..i)];
                    if q.0 + radius < side {
                        p = (q.0 + radius, q.1);
                    } else if q.1 - radius >= 0.0 {
                        p = (q.0, q.1 - radius);
                    }
                }
                _ => {}
            }
            pos.push(p);
        }
        pos
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Row-built snapshots equal the half-scan oracle row for row, for
        /// grids of k = 1 (including R beyond the side), 2, 3, 4 and ≥ 5
        /// buckets per axis (k capped at ⌊√n⌋) on both regions, with
        /// coincident nodes, nodes on bucket edges and pairs exactly R
        /// apart; the candidate-test count is exactly the culled recount.
        #[test]
        fn row_built_snapshots_equal_the_half_scan_oracle(
            n in 1usize..300,
            side in 2.0f64..30.0,
            k_sel in 0usize..9,
            torus in 0u32..2,
            seed in 0u64..1_000_000_000,
        ) {
            let radius = if k_sel == 0 {
                side * 1.3
            } else {
                side / (k_sel as f64 + 0.5)
            };
            prop_assert_eq!(grid_k(side, radius, n), k_sel.max(1).min(n.isqrt()));
            let region = if torus == 1 {
                Region::Torus { side }
            } else {
                Region::Square { side }
            };
            let pos = tricky_positions(n, side, radius, seed);
            build_checked(&pos, radius, region, &format!("{region:?} R={radius}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Partial builds over the same positions as the oracle property,
        /// k = 1 to 9 buckets per axis (the k ≤ 3 torus included), for row
        /// sets that are empty, one node, a random half and every node:
        /// each requested row equals the full build's row in order, every
        /// other row is empty (the requested rows hold every stored arc),
        /// and the candidate-test count equals a recount over the requested
        /// rows. One workspace and one buffer serve every build, so a build
        /// after a partial one is checked too.
        #[test]
        fn partial_builds_equal_the_full_build_on_their_rows(
            n in 1usize..300,
            side in 2.0f64..30.0,
            k_sel in 0usize..10,
            torus in 0u32..2,
            seed in 0u64..1_000_000_000,
        ) {
            let radius = if k_sel == 0 {
                side * 1.3
            } else {
                side / (k_sel as f64 + 0.5)
            };
            prop_assert_eq!(grid_k(side, radius, n), k_sel.max(1).min(n.isqrt()));
            let region = if torus == 1 {
                Region::Torus { side }
            } else {
                Region::Square { side }
            };
            let pos = tricky_positions(n, side, radius, seed);
            let mut ws = RadiusGraphWorkspace::default();
            let mut buf = SnapshotBuf::new();
            radius_graph_into(&pos, radius, region, None, &mut ws, &mut buf);
            let full = buf.to_adjacency();
            let mut rng = ChaCha8Rng::seed_from_u64(!seed);
            let one = rng.gen_range(0..n as Node);
            let half = NodeSet::from_iter(n, (0..n as Node).filter(|_| rng.gen_bool(0.5)));
            for rows in [NodeSet::new(n), NodeSet::singleton(n, one), half, NodeSet::full(n)] {
                radius_graph_into(&pos, radius, region, Some(&rows), &mut ws, &mut buf);
                let mut arcs = 0;
                for u in rows.iter() {
                    prop_assert_eq!(buf.neighbors(u), full.neighbors(u), "row {}", u);
                    arcs += full.degree(u);
                }
                prop_assert_eq!(buf.num_arcs(), arcs, "a row outside the set was built");
                prop_assert_eq!(
                    ws.scan_visits,
                    recount_visits(&ws, &pos, radius, Some(&rows)).0
                );
            }
            prop_assert_eq!(buf.num_edges(), full.num_edges());
        }
    }

    /// Pads `pos` to 16 nodes with fillers in the top bucket row of a
    /// side-20 region, so that a handful of test nodes still gets k = 4 at
    /// R = 5 (k is capped at ⌊√n⌋).
    fn with_top_row_fillers(mut pos: Vec<Point>) -> Vec<Point> {
        let fillers = 16usize.saturating_sub(pos.len());
        pos.extend((0..fillers).map(|i| (0.5 + 1.2 * i as f64, 17.5)));
        pos
    }

    #[test]
    fn culling_keeps_a_box_exactly_r_away_and_skips_one_ulp_beyond() {
        // Side 20, R = 5: k = 4 buckets of side 5. Node 0 sits at (2, 2) in
        // bucket (0, 0); each case puts one or two nodes into one
        // neighbour bucket (every other neighbour bucket stays empty) whose
        // box is exactly R from node 0 or one ulp beyond.
        let (side, radius) = (20.0f64, 5.0f64);
        let region = Region::Square { side };
        let cases: [(&str, Vec<Point>, Vec<Point>, bool); 4] = [
            (
                "along x",
                vec![(7.0, 2.0)],
                vec![(7.0f64.next_up(), 2.0)],
                true,
            ),
            (
                "along y",
                vec![(2.0, 7.0)],
                vec![(2.0, 7.0f64.next_up())],
                true,
            ),
            (
                "3-4-5 corner",
                vec![(5.0, 6.0)],
                vec![(5.0, 6.0f64.next_up())],
                true,
            ),
            // The box corner (5, 6) is no node: kept, but no edge.
            (
                "corner of two nodes",
                vec![(5.0, 9.0), (9.0, 6.0)],
                vec![(5.0f64.next_up(), 9.0), (9.0, 6.0)],
                false,
            ),
        ];
        for (name, at_r, beyond, edge) in cases {
            let mut tests = [0u64; 2];
            for (i, near) in [at_r, beyond].into_iter().enumerate() {
                let pos = with_top_row_fillers([vec![(2.0, 2.0)], near].concat());
                assert_eq!(grid_k(side, radius, pos.len()), 4);
                let context = format!("{name}, {}", ["at R", "one ulp beyond"][i]);
                let (ws, buf, _) = build_checked(&pos, radius, region, &context);
                assert_eq!(buf.has_edge(0, 1), edge && i == 0, "{context}");
                tests[i] = ws.scan_visits;
            }
            assert!(
                tests[1] < tests[0],
                "{name}: the box one ulp beyond is kept"
            );
        }
    }

    #[test]
    fn torus_culls_plain_runs_at_k4_and_scans_folded_runs_whole() {
        // Torus side 20, R = 5 (k = 4): node 0 at (0.5, 10) meets node 1 at
        // (19, 10) across the seam, through a wrapped run whose box lies
        // 18.5 away under the plain metric; node 2's bucket, 9.4 away in a
        // plain run, is skipped.
        let (side, radius) = (20.0f64, 5.0f64);
        let pos = with_top_row_fillers(vec![(0.5, 10.0), (19.0, 10.0), (9.9, 10.0)]);
        assert_eq!(grid_k(side, radius, pos.len()), 4);
        let (ws, buf, unculled) = build_checked(&pos, radius, Region::Torus { side }, "k = 4");
        assert!(buf.has_edge(0, 1));
        assert!(ws.scan_visits < unculled);
        // With k ≤ 3 every torus run keeps the fold: nothing is skipped.
        for (side, k) in [(10.0f64, 2usize), (15.0, 3)] {
            let pos = random_positions(60, side, k as u64);
            assert_eq!(grid_k(side, radius, pos.len()), k);
            let context = format!("k = {k}");
            let (ws, _, unculled) = build_checked(&pos, radius, Region::Torus { side }, &context);
            assert_eq!(ws.scan_visits, unculled, "{context}");
        }
    }

    #[test]
    fn crowded_buckets_are_culled_exactly() {
        // 100 to 200 nodes per bucket (k = 2, 3 and 4). Every square grid
        // and the k = 4 torus must skip some bucket; the k ≤ 3 torus none.
        for (n, side, radius) in [
            (800usize, 10.0f64, 3.4f64),
            (900, 15.0, 3.8),
            (1600, 20.0, 4.1),
        ] {
            let pos = random_positions(n, side, n as u64);
            let k = grid_k(side, radius, n);
            assert_eq!(n / (k * k), [200, 100, 100][k - 2]);
            for region in [Region::Square { side }, Region::Torus { side }] {
                let context = format!("{region:?} n = {n}");
                let (ws, _, unculled) = build_checked(&pos, radius, region, &context);
                if region.is_torus() && k <= 3 {
                    assert_eq!(ws.scan_visits, unculled, "{context}");
                } else {
                    assert!(ws.scan_visits < unculled, "{context}");
                }
            }
        }
    }

    #[test]
    fn a_tiny_radius_cannot_grow_the_grid_past_the_node_count() {
        // side/R = 10⁶ and 10¹²: unbounded, these grids would need 10¹² and
        // 10²⁴ buckets for 3 nodes; bounded by ⌊√3⌋ they have one.
        for (pos, radius, side, edges) in [
            (vec![(0.5, 0.5), (0.6, 0.5), (90.0, 90.0)], 1e-4, 100.0, 0),
            (
                vec![(0.5, 0.5), (0.5 + 5e-7, 0.5), (9e5, 9e5)],
                1e-6,
                1e6,
                1,
            ),
        ] {
            assert_eq!(grid_k(side, radius, pos.len()), 1);
            for region in [Region::Square { side }, Region::Torus { side }] {
                let (_, buf, _) = build_checked(&pos, radius, region, &format!("{region:?}"));
                assert_eq!(buf.num_edges(), edges);
            }
        }
    }

    #[test]
    fn torus_plain_metric_rule_holds_on_bucket_edges_at_k4() {
        // k = 4 on a torus of side 8 (bucket side 2, R just below): points
        // on and one ulp around every bucket edge, so unwrapped adjacent
        // pairs reach |d| ≈ side/2 on either axis and wrapped pairs straddle
        // the seam. Unwrapped runs are tested with the plain metric, wrapped
        // ones with the torus fold; rows must still equal the oracle's.
        let side = 8.0f64;
        let radius = 1.999_999_999;
        let region = Region::Torus { side };
        let mut coords = Vec::new();
        for edge in [0.0f64, 2.0, 4.0, 6.0, 8.0] {
            for c in [edge.next_down(), edge, edge.next_up(), edge + radius] {
                if (0.0..side).contains(&c) {
                    coords.push(c);
                }
            }
        }
        let pos: Vec<Point> = coords
            .iter()
            .flat_map(|&x| [(x, 1.0), (x, 5.0), (1.0, x), (x, x)])
            .collect();
        assert_eq!(grid_k(side, radius, pos.len()), 4);
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        radius_graph_into(&pos, radius, region, None, &mut ws, &mut buf);
        assert_rows_match_oracle(&buf, &pos, radius, region, "k = 4 bucket edges");
        // The seam is crossed: a node just below `side` meets one at 0.
        let high = pos
            .iter()
            .position(|&p| p == (8.0f64.next_down(), 1.0))
            .unwrap();
        let low = pos.iter().position(|&p| p == (0.0, 1.0)).unwrap();
        assert!(buf.has_edge(high as Node, low as Node));
        // The rule is in force: at k = 4 both kinds of run occur, while at
        // k ≤ 3 every torus run keeps the fold.
        assert!(ws.runs.iter().any(|r| r.plain) && ws.runs.iter().any(|r| !r.plain));
        ws.tabulate_runs(3, true);
        assert!(ws.runs.iter().all(|r| !r.plain));
    }

    #[test]
    fn workspace_capacities_stabilise_after_warmup() {
        let region = Region::Torus { side: 12.0 };
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        let pos = random_positions(400, 12.0, 9);
        for _ in 0..5 {
            radius_graph_into(&pos, 2.5, region, None, &mut ws, &mut buf);
        }
        let capacities = |ws: &RadiusGraphWorkspace, buf: &SnapshotBuf| {
            (
                (
                    ws.counts.capacity(),
                    ws.starts.capacity(),
                    ws.boxes.capacity(),
                ),
                (ws.nodes.capacity(), ws.xs.capacity(), ws.ys.capacity()),
                (ws.bucket_of.capacity(), ws.runs.capacity()),
                buf.capacities(),
            )
        };
        let warm = capacities(&ws, &buf);
        for _ in 0..20 {
            radius_graph_into(&pos, 2.5, region, None, &mut ws, &mut buf);
            assert_eq!(
                capacities(&ws, &buf),
                warm,
                "workspace capacity drifted after warm-up"
            );
        }
    }

    #[test]
    fn torus_connects_across_the_seam() {
        let region = Region::Torus { side: 10.0 };
        let pos = [(0.2, 5.0), (9.8, 5.0), (5.0, 5.0)];
        let g = radius_graph(&pos, 1.0, region);
        assert!(
            g.has_edge(0, 1),
            "nodes near opposite edges are close on the torus"
        );
        assert_eq!(g.num_edges(), 1);
        // Same positions under the square metric are far apart.
        let sq = radius_graph(&pos, 1.0, Region::Square { side: 10.0 });
        assert_eq!(sq.num_edges(), 0);
    }

    #[test]
    fn radius_larger_than_region_gives_complete_graph() {
        let region = Region::Square { side: 5.0 };
        let pos = random_positions(30, 5.0, 7);
        let g = radius_graph(&pos, 10.0, region);
        assert_eq!(g.num_edges(), 30 * 29 / 2);
        let torus = radius_graph(&pos, 10.0, Region::Torus { side: 5.0 });
        assert_eq!(torus.num_edges(), 30 * 29 / 2);
    }

    #[test]
    fn degenerate_inputs() {
        let region = Region::Square { side: 5.0 };
        assert_eq!(radius_graph(&[], 1.0, region).num_nodes(), 0);
        assert_eq!(radius_graph(&[(1.0, 1.0)], 1.0, region).num_edges(), 0);
        assert_eq!(
            radius_graph(&[(1.0, 1.0), (1.5, 1.0)], 0.0, region).num_edges(),
            0
        );
        let mut ws = RadiusGraphWorkspace::default();
        let mut buf = SnapshotBuf::new();
        radius_graph_into(&[], 1.0, region, None, &mut ws, &mut buf);
        assert_eq!(buf.num_nodes(), 0);
        radius_graph_into(
            &[(1.0, 1.0), (1.5, 1.0)],
            0.0,
            region,
            None,
            &mut ws,
            &mut buf,
        );
        assert_eq!(buf.num_nodes(), 2);
        assert_eq!(buf.num_edges(), 0);
    }
}
