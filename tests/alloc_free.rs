//! The no-allocation invariant of the snapshot pipeline, asserted with a
//! counting global allocator.
//!
//! `EvolvingGraph::advance()` fills a model-owned flat CSR buffer
//! ([`meg::graph::SnapshotBuf`]) in place. After a warm-up phase — during
//! which the buffer and workspace capacities grow to the run's high-water
//! mark — stepping the dense-edge and geometric evolving graphs must perform
//! **zero** heap allocations (the acceptance bar of the
//! allocation-free snapshot pipeline refactor). The dense engine steps 64
//! chains per word through the word-packed [`meg::graph::PairBits`] state
//! (fixed words reused in place) and fills its rows from the set bits
//! (`SnapshotBuf::build_from_pairs`). Geometric snapshots are built
//! row by row (`SnapshotBuf::build_rows`): each node gathers its own CSR row
//! from the bucket grid through the fixed-lane gather kernel of
//! `meg-geometric::radius_graph`, straight into the reused `targets` array.
//! The square-region section covers the Euclidean lanes and a torus-walkers
//! section covers the wrap-around lanes (the torus build mixes both metric
//! monomorphisations, so each region gets its own bar). The
//! sparse engine keeps its alive set in one flat reused `Vec` (an ascending
//! pair-index list merged in place), held to the same bar at fast and slow
//! churn.
//!
//! The protocol layer is held to the same bar at `epidemic_threshold`'s
//! operating point: `EpidemicMachine::step` on word-packed compartment sets
//! with buffers sized at construction. A geometric flood's partial builds
//! (`EvolvingGraph::advance_rows` with the informed set) are held to it too.
//!
//! The expansion probe keeps every per-sample buffer (the set, the BFS
//! queue, the marks, the Fisher–Yates table) in one scratch allocated per
//! `min_expansion_sampled` call, so a call allocates as often at 50 samples
//! as at 2.
//!
//! The test counts `alloc` / `realloc` / `alloc_zeroed` calls around the
//! measured loop on the test's own single thread; nothing else runs
//! concurrently in this integration-test binary (one `#[test]`), so a
//! non-zero delta is attributable to the measured call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn advance_is_allocation_free_after_warmup_on_dense_and_geometric_paths() {
    use meg::core::evolving::EvolvingGraph;
    use meg::edge::{DenseEdgeMeg, EdgeMegParams};
    use meg::geometric::{GeometricMeg, GeometricMegParams};
    use meg::graph::Graph;

    // --- dense edge-MEG ---------------------------------------------------
    let params = EdgeMegParams::with_stationary(256, 0.08, 0.4);
    let mut dense = DenseEdgeMeg::stationary(params, 7);
    // Warm-up: let every buffer reach its high-water capacity. The snapshot
    // size fluctuates around the stationary level, so a generous warm-up
    // covers the edge-count peaks the measured window will see.
    for _ in 0..100 {
        dense.advance();
    }
    let (dense_allocs, dense_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += dense.advance().num_edges();
        }
        total
    });
    assert!(dense_edges > 0, "dense workload degenerated");
    assert_eq!(
        dense_allocs, 0,
        "dense advance() allocated {dense_allocs} times after warm-up"
    );

    // --- geometric-MEG (grid walk, square metric) -------------------------
    let params = GeometricMegParams::new(512, 1.5, 4.0);
    let mut geo = GeometricMeg::from_params(params, 11);
    for _ in 0..100 {
        geo.advance();
    }
    let (geo_allocs, geo_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += geo.advance().num_edges();
        }
        total
    });
    assert!(geo_edges > 0, "geometric workload degenerated");
    assert_eq!(
        geo_allocs, 0,
        "geometric advance() allocated {geo_allocs} times after warm-up"
    );

    // --- geometric-MEG (torus walkers, wrap-around metric) ----------------
    // The torus metric is a distinct monomorphisation of the lane-compress
    // scan kernel, so it earns its own zero-allocation window.
    use meg::mobility::TorusWalkers;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut walker_rng = StdRng::seed_from_u64(17);
    let side = (512f64).sqrt() * 1.5;
    let walkers = TorusWalkers::new(512, side, 1.5, 1.0, &mut walker_rng);
    let mut torus = GeometricMeg::new(walkers, 4.0, 17);
    for _ in 0..100 {
        torus.advance();
    }
    let (torus_allocs, torus_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += torus.advance().num_edges();
        }
        total
    });
    assert!(torus_edges > 0, "torus geometric workload degenerated");
    assert_eq!(
        torus_allocs, 0,
        "torus geometric advance() allocated {torus_allocs} times after warm-up"
    );

    use meg::edge::SparseEdgeMeg;

    // --- sparse edge-MEG, per-pair stepping ------------------------------
    // Deaths mark the ascending alive list in place, and births merge into
    // it in one forward pass from a stack chunk, writing into the gap below
    // the list, so once the list and the gap have reached their high-water
    // capacity a round allocates nothing. Three operating points, all at
    // p̂ = 3·ln n/n: `epidemic_threshold`'s (n = 600, q = 0.5); slow churn
    // (n = 4000, q = 0.02), where most of the list moves in blocks; and
    // n = 16 000, q = 0.5, the largest gap `edge_vs_n` keeps. (n, q, warm-up
    // rounds, measured rounds):
    for (n, q, warm_up, rounds) in [
        (600usize, 0.5, 100, 200),
        (4000, 0.02, 20, 40),
        (16_000, 0.5, 4, 8),
    ] {
        let phat = 3.0 * (n as f64).ln() / n as f64;
        let params = EdgeMegParams::with_stationary(n, phat, q);
        let mut sparse_pp = SparseEdgeMeg::stationary(params, 19);
        for _ in 0..warm_up {
            sparse_pp.advance();
        }
        let (sparse_pp_allocs, sparse_pp_edges) = allocations_during(|| {
            let mut total = 0usize;
            for _ in 0..rounds {
                total += sparse_pp.advance().num_edges();
            }
            total
        });
        assert!(
            sparse_pp_edges > 0,
            "sparse per-pair workload degenerated at n = {n}"
        );
        assert_eq!(
            sparse_pp_allocs, 0,
            "sparse per-pair advance() at n = {n}, q = {q} allocated {sparse_pp_allocs} \
             times after warm-up"
        );
    }

    // --- epidemic round on `epidemic_threshold`'s operating point ---------
    // Its SIS cell (contagion 0.5, d = 2, w = 0) on a
    // fresh sparse per-pair edge-MEG: the machine's compartment sets, timers
    // and its row, infection and walk buffers are all sized for n at
    // construction, so only the substrate's capacities need the warm-up.
    use meg::core::protocols::{EpidemicMachine, ProtocolMachine};
    use rand_chacha::ChaCha8Rng;
    let phat = 3.0 * (600f64).ln() / 600.0;
    let params = EdgeMegParams::with_stationary(600, phat, 0.5);
    let mut contact = SparseEdgeMeg::stationary(params, 23);
    let mut sis = EpidemicMachine::new(600, 0, 0.5, 2, Some(0));
    let mut sis_rng = ChaCha8Rng::seed_from_u64(29);
    for _ in 0..100 {
        sis.step(contact.advance(), &mut sis_rng);
    }
    let infections_before = sis.infections();
    let mut sis_allocs = 0;
    for _ in 0..200 {
        let snapshot = contact.advance();
        sis_allocs += allocations_during(|| sis.step(snapshot, &mut sis_rng)).0;
    }
    assert!(
        sis.infectious_count() > 0 && sis.infections() > infections_before + 10_000,
        "the endemic SIS workload degenerated"
    );
    assert_eq!(
        sis_allocs, 0,
        "EpidemicMachine::step allocated {sis_allocs} times after warm-up"
    );

    // --- geometric flood with partial builds ------------------------------
    // While |I| ≤ n/2 a flooding round reads only the informed nodes' rows,
    // and `advance_rows` builds only those. `G_0` is built whole, so the arc
    // buffer reaches its full size in the first build and no partial build
    // outgrows it. After one flood of warm-up (which also sizes the debug
    // build's record of the rows left out), four more floods on the same
    // substrate advance without allocating; each flood's machine is made
    // outside the counted calls.
    use meg::core::protocols::FloodMachine;
    let mut flood_geo = GeometricMeg::from_params(GeometricMegParams::new(512, 1.5, 4.0), 43);
    let mut flood_rng = ChaCha8Rng::seed_from_u64(47);
    let (mut flood_allocs, mut partial_rounds) = (0, 0);
    for flood in 0..5u32 {
        let mut machine = FloodMachine::new(512, flood * 101, 1.0);
        for _ in 0..500 {
            if machine.is_complete() {
                break;
            }
            let rows = machine.rows_read();
            let partial = rows.is_some();
            let (allocs, snapshot) = allocations_during(|| flood_geo.advance_rows(rows));
            machine.step(snapshot, &mut flood_rng);
            if flood > 0 {
                flood_allocs += allocs;
                partial_rounds += usize::from(partial);
            }
        }
        assert!(machine.is_complete(), "flood {flood} did not complete");
    }
    assert!(
        partial_rounds >= 8,
        "only {partial_rounds} measured rounds built partial snapshots"
    );
    assert_eq!(
        flood_allocs, 0,
        "geometric advance_rows() allocated {flood_allocs} times after warm-up"
    );

    // --- expansion probe on `general_bound`'s geometric cell -------------
    // n = 1500 at the connectivity-threshold radius (R ≈ 5.41, r = R/2),
    // mean degree ~90. Per-sample state lives in the call's scratch, so the
    // allocation count does not grow with the sample count; h = 16 and
    // h = n/2 cover small sets and balls with large frontiers.
    use meg::graph::expansion::{min_expansion_sampled, SamplingStrategy};
    let mut probe_geo = GeometricMeg::from_params(GeometricMegParams::new(1500, 2.705, 5.41), 31);
    let snapshot = probe_geo.advance();
    assert!(snapshot.num_edges() > 30_000, "probe snapshot degenerated");
    for h in [16, 750] {
        for strategy in [
            SamplingStrategy::UniformSubsets,
            SamplingStrategy::BfsBalls,
            SamplingStrategy::Mixed,
        ] {
            let allocations = |samples| {
                let mut rng = ChaCha8Rng::seed_from_u64(37);
                allocations_during(|| {
                    min_expansion_sampled(snapshot, h, samples, strategy, &mut rng)
                })
                .0
            };
            let (few, many) = (allocations(2), allocations(50));
            assert_eq!(
                few, many,
                "min_expansion_sampled at h = {h}, {strategy:?} allocated {few} times at 2 \
                 samples and {many} at 50"
            );
        }
    }

    // --- recorder installed: observation must not allocate either ---------
    // The recorder's storage is entirely static: counters and gauges are
    // atomics, and span latencies land in fixed log2-bucket histograms
    // (`[u64; SPAN_HIST_BUCKETS]` per span), so with the recorder live the
    // counter adds, gauge samples, and span records on the advance() hot
    // paths must perform zero heap allocations. Reuses the already-warmed
    // dense and geometric models above — same loops, now observed, plus
    // partial builds of the flood's substrate (the skipped-row count).
    let half = meg::graph::NodeSet::from_iter(512, (0..512).step_by(2));
    meg::obs::install();
    for _ in 0..5 {
        dense.advance();
        geo.advance();
        flood_geo.advance_rows(Some(&half));
    }
    let (observed_allocs, observed_edges) = allocations_during(|| {
        let mut total = 0usize;
        for _ in 0..200 {
            total += dense.advance().num_edges();
            total += geo.advance().num_edges();
            total += flood_geo.advance_rows(Some(&half)).num_arcs();
        }
        total
    });
    assert!(observed_edges > 0, "observed workload degenerated");
    assert_eq!(
        observed_allocs, 0,
        "advance() with the recorder installed allocated {observed_allocs} times"
    );
    let snap = meg::obs::snapshot();
    assert!(
        snap.counter("edge_births") > 0,
        "dense flips were not recorded"
    );
    assert!(
        snap.counter("bucket_scan_visits") > 0,
        "geometric bucket scans were not recorded"
    );
    assert_eq!(
        snap.counter("skipped_rows"),
        205 * 256,
        "each partial build skips the 256 rows outside its set"
    );
    assert!(
        snap.span("advance").is_some_and(|s| s.count >= 400),
        "advance spans were not recorded"
    );
    // The histogram must account for every recorded span — each of the 400+
    // observations above incremented exactly one bucket, at zero allocations
    // (the measured window covers the records; the buckets are static).
    let advance = snap.span("advance").unwrap();
    let hist_total: u64 = advance.hist.iter().sum();
    assert_eq!(
        hist_total, advance.count,
        "histogram bucket counts must sum to the span count"
    );
    // Percentiles come back as bucket midpoints, so bracket with a factor-2
    // tolerance on each side of the observed [min, max] range.
    let p50 = advance.percentile_ns(0.50);
    let p99 = advance.percentile_ns(0.99);
    assert!(
        advance.min_ns / 2 <= p50 && p50 <= p99 && p99 <= advance.max_ns.saturating_mul(2),
        "percentiles must be ordered and bracketed by the observed range \
         (min {} · p50 {p50} · p99 {p99} · max {})",
        advance.min_ns,
        advance.max_ns
    );
    meg::obs::uninstall();
}
