//! # meg-obs
//!
//! Zero-overhead-when-off instrumentation for the meg workspace: monotonic
//! [`Counter`]s, per-round [`Gauge`]s, and [`span`] timings, plus
//! [`MetricsSnapshot`] rendering for the `meg-lab run --metrics` sinks.
//!
//! ## Design rules
//!
//! * **Off by default, cheap when off.** All recording entry points begin
//!   with one relaxed atomic load of the global enable flag and return
//!   immediately when no recorder is installed. No locks are taken, no
//!   clocks are read, and nothing allocates on the disabled path.
//! * **Deterministic under observation.** Recording never consumes RNG
//!   draws, never reorders work, and never feeds back into simulation
//!   branches; monotonic-clock reads happen strictly outside RNG-consuming
//!   code. Installing a recorder therefore cannot change a single emitted
//!   row byte — the `golden_rows_observed` suite enforces this.
//! * **Allocation-free recording.** Span timings land in fixed-size log2
//!   latency histograms ([`SPAN_HIST_BUCKETS`] buckets of `u64`), so the
//!   recording path never allocates — not even at [`install`], which only
//!   zeroes static state.
//! * **Aggregate, don't instrument iterations.** Hot loops accumulate into
//!   local variables and flush one counter add per call — per-iteration
//!   atomics are forbidden by the ≤5% overhead budget.
//! * **Mergeable.** [`MetricsSnapshot`] is a commutative monoid under
//!   [`MetricsSnapshot::merge`] with [`MetricsSnapshot::empty`] as identity:
//!   counters and histogram buckets are summed exactly (integer arithmetic
//!   throughout — no f64 in the stored statistics), so a sweep coordinator
//!   can pool snapshots shipped from worker processes in any order.
//!
//! ## Example
//!
//! ```
//! use meg_obs as obs;
//!
//! obs::install();
//! obs::add(obs::Counter::EdgeBirths, 3);
//! {
//!     let _guard = obs::span("advance");
//!     // ... timed work ...
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("edge_births"), 3);
//! assert_eq!(snap.span("advance").unwrap().count, 1);
//! obs::uninstall();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Registry: counters, gauges, spans

/// Monotonic event counters. Each increments forever while a recorder is
/// installed; [`install`] resets all of them to zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Edges born this run (edge-MEG stepping, both engines and modes).
    EdgeBirths,
    /// Edges that died this run.
    EdgeDeaths,
    /// Delta rounds applied through `SnapshotBuf::apply_delta`.
    DeltaRounds,
    /// Delta rounds absorbed in place within the per-row slack.
    DeltaPatched,
    /// Delta rounds that exhausted the slack and fell back to a rebuild.
    DeltaRebuilds,
    /// Arc-slot bytes written by slack-exhaustion snapshot rebuilds.
    RebuildBytes,
    /// RNG draws consumed by skip-sampling the flip calendar.
    RngDraws,
    /// Candidate distance tests of the geometric row gather: each node tests
    /// the nodes of its 3×3 bucket neighbourhood, so every unordered
    /// candidate pair counts twice (once from each end).
    BucketScanVisits,
    /// Protocol rounds driven across all trials.
    Rounds,
    /// Trials executed.
    Trials,
    /// Worker subprocesses respawned after a death.
    WorkerRespawns,
    /// Work items retried after a worker failure.
    WorkerRetries,
    /// Worker deaths detected (failed round trips).
    WorkerDeaths,
    /// Epidemic infection events (SIS/SIR/SIRS), initial seeds included.
    Infections,
    /// Epidemic recovery events (infectious → immune/removed/susceptible).
    Recoveries,
    /// Push transmissions performed by the push-only rumor protocol.
    RumorPushes,
    /// Honest nodes that adopted a tampered message from a Byzantine or
    /// tampered peer.
    TamperedAdoptions,
}

impl Counter {
    /// Every counter, in rendering order.
    pub const ALL: [Counter; 17] = [
        Counter::EdgeBirths,
        Counter::EdgeDeaths,
        Counter::DeltaRounds,
        Counter::DeltaPatched,
        Counter::DeltaRebuilds,
        Counter::RebuildBytes,
        Counter::RngDraws,
        Counter::BucketScanVisits,
        Counter::Rounds,
        Counter::Trials,
        Counter::WorkerRespawns,
        Counter::WorkerRetries,
        Counter::WorkerDeaths,
        Counter::Infections,
        Counter::Recoveries,
        Counter::RumorPushes,
        Counter::TamperedAdoptions,
    ];

    /// The counter's snake_case name, used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EdgeBirths => "edge_births",
            Counter::EdgeDeaths => "edge_deaths",
            Counter::DeltaRounds => "delta_rounds",
            Counter::DeltaPatched => "delta_patched",
            Counter::DeltaRebuilds => "delta_rebuilds",
            Counter::RebuildBytes => "rebuild_bytes",
            Counter::RngDraws => "rng_draws",
            Counter::BucketScanVisits => "bucket_scan_visits",
            Counter::Rounds => "rounds",
            Counter::Trials => "trials",
            Counter::WorkerRespawns => "worker_respawns",
            Counter::WorkerRetries => "worker_retries",
            Counter::WorkerDeaths => "worker_deaths",
            Counter::Infections => "infections",
            Counter::Recoveries => "recoveries",
            Counter::RumorPushes => "rumor_pushes",
            Counter::TamperedAdoptions => "tampered_adoptions",
        }
    }
}

/// Per-round gauges: repeated samples of an instantaneous value, summarized
/// as count/mean/min/max.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Informed-node count sampled once per protocol round.
    InformedPerRound,
    /// Work-queue depth sampled at each push and pop.
    QueueDepth,
    /// Trial threads of an in-process sweep, sampled once per sweep.
    TrialThreads,
}

impl Gauge {
    /// Every gauge, in rendering order.
    pub const ALL: [Gauge; 3] = [
        Gauge::InformedPerRound,
        Gauge::QueueDepth,
        Gauge::TrialThreads,
    ];

    /// The gauge's snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::InformedPerRound => "informed_per_round",
            Gauge::QueueDepth => "queue_depth",
            Gauge::TrialThreads => "trial_threads",
        }
    }
}

/// The fixed span vocabulary. [`span`] names outside this list are ignored
/// (with a debug assertion to catch typos). `sweep` is one in-process sweep
/// from its first queued trial to its last released row (a pool worker's
/// requests record none); `cell` runs from a cell's first trial start to its
/// row's release.
pub const SPAN_NAMES: [&str; 5] = ["advance", "trial", "cell", "worker_round_trip", "sweep"];

/// Buckets in each span's log2 latency histogram. Bucket 0 holds sub-ns
/// (zero) readings; bucket `b ≥ 1` holds durations in `[2^(b-1), 2^b)` ns;
/// the last bucket is open-ended (≥ 2^46 ns ≈ 19.5 h), so nothing is ever
/// dropped.
pub const SPAN_HIST_BUCKETS: usize = 48;

/// The histogram bucket a duration of `ns` nanoseconds falls into.
#[inline]
pub fn hist_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(SPAN_HIST_BUCKETS - 1)
    }
}

/// A representative duration (ns) for histogram bucket `b`: the arithmetic
/// midpoint of the bucket's range (lower bound × 1.5 for the open-ended top
/// bucket). Used when reading percentiles back out of the histogram.
#[inline]
pub fn hist_bucket_mid_ns(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => {
            let lower = 1u64 << (b - 1);
            lower + lower / 2
        }
    }
}

// ---------------------------------------------------------------------------
// Static recorder state

static ENABLED: AtomicBool = AtomicBool::new(false);

static COUNTERS: [AtomicU64; Counter::ALL.len()] =
    [const { AtomicU64::new(0) }; Counter::ALL.len()];

/// One gauge's aggregate state: sample count, sum, min, max.
struct GaugeCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

static GAUGES: [GaugeCell; Gauge::ALL.len()] = [const {
    GaugeCell {
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        min: AtomicU64::new(u64::MAX),
        max: AtomicU64::new(0),
    }
}; Gauge::ALL.len()];

/// One span's timing state: exact integer aggregates plus the log2 latency
/// histogram. Entirely fixed-size — no allocation anywhere in the recording
/// path. Mutex-protected: spans are coarse (per round at the finest), so an
/// uncontended lock per record is well inside budget.
struct SpanState {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    hist: [u64; SPAN_HIST_BUCKETS],
}

impl SpanState {
    const fn new() -> SpanState {
        SpanState {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist: [0; SPAN_HIST_BUCKETS],
        }
    }

    fn reset(&mut self) {
        *self = SpanState::new();
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.hist[hist_bucket(ns)] += 1;
    }
}

static SPANS: [Mutex<SpanState>; SPAN_NAMES.len()] =
    [const { Mutex::new(SpanState::new()) }; SPAN_NAMES.len()];

// ---------------------------------------------------------------------------
// Recording API

/// Whether a recorder is currently installed. The single branch every
/// recording entry point takes first; inlined so the disabled path costs one
/// relaxed load.
#[inline(always)]
pub fn installed() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Resets every counter, gauge, and span histogram and enables recording.
/// Purely zeroes static state — the recorder never allocates.
pub fn install() {
    ENABLED.store(false, Ordering::SeqCst);
    for c in &COUNTERS {
        c.store(0, Ordering::SeqCst);
    }
    for g in &GAUGES {
        g.count.store(0, Ordering::SeqCst);
        g.sum.store(0, Ordering::SeqCst);
        g.min.store(u64::MAX, Ordering::SeqCst);
        g.max.store(0, Ordering::SeqCst);
    }
    for s in &SPANS {
        s.lock().expect("span lock").reset();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables recording. Accumulated values stay readable via [`snapshot`]
/// until the next [`install`].
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Adds `n` to a counter. No-op unless a recorder is installed. Hot loops
/// should accumulate locally and call this once per round or per call.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if installed() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Records one snapshot-delta round: bumps [`Counter::DeltaRounds`] and the
/// patched/rebuilt split (plus [`Counter::RebuildBytes`] for a rebuild).
/// Takes plain values rather than `meg-graph`'s `DeltaOutcome` so the graph
/// crate stays below this one in the dependency DAG.
#[inline]
pub fn record_delta(rebuilt: bool, rebuild_bytes: u64) {
    if installed() {
        add(Counter::DeltaRounds, 1);
        if rebuilt {
            add(Counter::DeltaRebuilds, 1);
            add(Counter::RebuildBytes, rebuild_bytes);
        } else {
            add(Counter::DeltaPatched, 1);
        }
    }
}

/// Records one gauge sample. No-op unless a recorder is installed.
#[inline]
pub fn sample(gauge: Gauge, value: u64) {
    if installed() {
        let g = &GAUGES[gauge as usize];
        g.count.fetch_add(1, Ordering::Relaxed);
        g.sum.fetch_add(value, Ordering::Relaxed);
        g.min.fetch_min(value, Ordering::Relaxed);
        g.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// An in-flight span timing; records the elapsed wall time on drop. Inert
/// (no clock read, nothing recorded) when no recorder is installed.
#[must_use = "a span guard records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    slot: Option<(usize, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((slot, started)) = self.slot.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if installed() {
                SPANS[slot].lock().expect("span lock").record(ns);
            }
        }
    }
}

/// Records one span sample of an already measured duration: for spans whose
/// start and end are seen by different threads (a cell starts on a trial
/// thread and is released by the collecting one). Same naming rules as
/// [`span`]; a no-op unless a recorder is installed.
pub fn record_span(name: &'static str, elapsed: std::time::Duration) {
    if !installed() {
        return;
    }
    let slot = SPAN_NAMES.iter().position(|&s| s == name);
    debug_assert!(slot.is_some(), "unknown span name {name:?}");
    if let Some(slot) = slot {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        SPANS[slot].lock().expect("span lock").record(ns);
    }
}

/// Starts timing a span. `name` must be one of [`SPAN_NAMES`]; unknown
/// names are ignored (debug builds assert). The monotonic clock is read only
/// while a recorder is installed, and only here and at guard drop — never
/// inside RNG-consuming code.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !installed() {
        return SpanGuard { slot: None };
    }
    let slot = SPAN_NAMES.iter().position(|&s| s == name);
    debug_assert!(slot.is_some(), "unknown span name {name:?}");
    SpanGuard {
        slot: slot.map(|i| (i, Instant::now())),
    }
}

// ---------------------------------------------------------------------------
// Snapshots and rendering

/// Aggregate statistics of one gauge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaugeStats {
    /// Gauge name.
    pub name: &'static str,
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when no samples were recorded).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl GaugeStats {
    /// Mean sample value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn empty(name: &'static str) -> GaugeStats {
        GaugeStats {
            name,
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Pools another gauge's statistics into this one. Exact and
    /// order-independent: min/max treat a zero-count side as the identity.
    pub fn merge(&mut self, other: &GaugeStats) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Aggregate statistics of one span: exact integer-nanosecond aggregates
/// plus a [`SPAN_HIST_BUCKETS`]-bucket log2 latency histogram from which
/// p50/p90/p99 are read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanStats {
    /// Span name.
    pub name: &'static str,
    /// Number of timings recorded.
    pub count: u64,
    /// Total recorded nanoseconds.
    pub total_ns: u64,
    /// Fastest timing in nanoseconds (0 with no samples).
    pub min_ns: u64,
    /// Slowest timing in nanoseconds.
    pub max_ns: u64,
    /// Log2 latency histogram; see [`hist_bucket`] for the bucket scheme.
    pub hist: [u64; SPAN_HIST_BUCKETS],
}

impl SpanStats {
    fn empty(name: &'static str) -> SpanStats {
        SpanStats {
            name,
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            hist: [0; SPAN_HIST_BUCKETS],
        }
    }

    /// Total recorded milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Fastest timing in milliseconds.
    pub fn min_ms(&self) -> f64 {
        self.min_ns as f64 / 1e6
    }

    /// Slowest timing in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }

    /// The `q`-quantile (`0 < q ≤ 1`) read from the histogram, in
    /// nanoseconds: the representative midpoint of the bucket holding the
    /// `⌈q·count⌉`-th smallest sample. 0 with no samples.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return hist_bucket_mid_ns(b);
            }
        }
        hist_bucket_mid_ns(SPAN_HIST_BUCKETS - 1)
    }

    /// The `q`-quantile in milliseconds.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile_ns(q) as f64 / 1e6
    }

    /// Median latency (ms), from the histogram.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(0.50)
    }

    /// 90th-percentile latency (ms), from the histogram.
    pub fn p90_ms(&self) -> f64 {
        self.percentile_ms(0.90)
    }

    /// 99th-percentile latency (ms), from the histogram.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(0.99)
    }

    /// Pools another span's statistics into this one: counts, totals, and
    /// histogram buckets sum exactly; min/max treat a zero-count side as the
    /// identity. Integer arithmetic throughout, so pooling is associative
    /// and commutative.
    pub fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }
}

/// A point-in-time copy of every counter, gauge, and span.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every gauge's aggregate statistics, in [`Gauge::ALL`] order.
    pub gauges: Vec<GaugeStats>,
    /// Every span's aggregate statistics, in [`SPAN_NAMES`] order.
    pub spans: Vec<SpanStats>,
}

/// Reads the current value of every counter, gauge, and span. Valid whether
/// or not recording is currently enabled.
pub fn snapshot() -> MetricsSnapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), COUNTERS[c as usize].load(Ordering::SeqCst)))
        .collect();
    let gauges = Gauge::ALL
        .iter()
        .map(|&g| {
            let cell = &GAUGES[g as usize];
            let count = cell.count.load(Ordering::SeqCst);
            GaugeStats {
                name: g.name(),
                count,
                sum: cell.sum.load(Ordering::SeqCst),
                min: if count == 0 {
                    0
                } else {
                    cell.min.load(Ordering::SeqCst)
                },
                max: cell.max.load(Ordering::SeqCst),
            }
        })
        .collect();
    let spans = SPAN_NAMES
        .iter()
        .zip(&SPANS)
        .map(|(&name, state)| {
            let st = state.lock().expect("span lock");
            SpanStats {
                name,
                count: st.count,
                total_ns: st.total_ns,
                min_ns: if st.count == 0 { 0 } else { st.min_ns },
                max_ns: st.max_ns,
                hist: st.hist,
            }
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        spans,
    }
}

impl MetricsSnapshot {
    /// The all-zero snapshot over the full vocabulary: the identity element
    /// of [`MetricsSnapshot::merge`].
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL.iter().map(|&c| (c.name(), 0)).collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| GaugeStats::empty(g.name()))
                .collect(),
            spans: SPAN_NAMES.iter().map(|&s| SpanStats::empty(s)).collect(),
        }
    }

    /// Pools `other` into `self`: counters summed, gauge aggregates
    /// combined, span histograms added bucket-wise. Matching is by name, so
    /// the operand's ordering is irrelevant; names `self` does not carry are
    /// ignored. All-integer arithmetic makes the operation associative and
    /// commutative with [`MetricsSnapshot::empty`] as identity — worker
    /// snapshots can be merged in arrival order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &mut self.counters {
            *v += other.counter(name);
        }
        for g in &mut self.gauges {
            if let Some(og) = other.gauges.iter().find(|og| og.name == g.name) {
                g.merge(og);
            }
        }
        for s in &mut self.spans {
            if let Some(os) = other.spans.iter().find(|os| os.name == s.name) {
                s.merge(os);
            }
        }
    }

    /// The value of the named counter (0 for unknown names).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named span's statistics, if it recorded anything is irrelevant —
    /// `None` only for names outside [`SPAN_NAMES`].
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Counter deltas since `earlier` (saturating, so an `earlier` snapshot
    /// from a different install epoch degrades to the raw values).
    pub fn counter_deltas(&self, earlier: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
        self.counters
            .iter()
            .map(|&(name, v)| (name, v.saturating_sub(earlier.counter(name))))
            .collect()
    }

    /// A counters-only snapshot holding the deltas since `earlier` (gauges
    /// and spans zeroed). This is what workers ship with each response:
    /// counter deltas partition the stream exactly, so summing them on the
    /// coordinator reproduces the worker's totals.
    pub fn delta_counters_snapshot(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::empty();
        out.counters = self.counter_deltas(earlier);
        out
    }

    /// Zeroes every counter in place, keeping gauges and spans. Used when a
    /// worker's final full snapshot is folded over already-accumulated
    /// per-response counter deltas (the counters would otherwise double
    /// count).
    pub fn clear_counters(&mut self) {
        for (_, v) in &mut self.counters {
            *v = 0;
        }
    }

    /// Fraction of delta rounds that fell back to a rebuild, or `None` when
    /// no delta rounds ran.
    pub fn delta_fallback_rate(&self) -> Option<f64> {
        let rounds = self.counter("delta_rounds");
        if rounds == 0 {
            None
        } else {
            Some(self.counter("delta_rebuilds") as f64 / rounds as f64)
        }
    }

    /// Share of the trial threads' time spent inside trials: the `trial`
    /// span total over trial threads × the `sweep` span total, or `None`
    /// when no in-process sweep was recorded. Idle threads (waiting on the
    /// queue, or on a slow trial at a cell or checkpoint boundary) pull it
    /// below 1.
    pub fn trial_thread_utilization(&self) -> Option<f64> {
        let sweep = self.span("sweep").filter(|s| s.total_ns > 0)?;
        let threads = self
            .gauges
            .iter()
            .find(|g| g.name == Gauge::TrialThreads.name() && g.count > 0)?
            .mean();
        let trial_ns = self.span("trial").map_or(0, |s| s.total_ns);
        Some(trial_ns as f64 / (threads * sweep.total_ns as f64))
    }

    /// Renders the human-readable metrics report (the `--metrics report`
    /// sink). Counters with value 0 are listed too: an absent signal is
    /// itself a signal.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str("── metrics report ─────────────────────────────────────\n");
        out.push_str("counters\n");
        for &(name, v) in &self.counters {
            out.push_str(&format!("  {name:<22} {v}\n"));
        }
        let rate = self.delta_fallback_rate();
        let utilization = self.trial_thread_utilization();
        if rate.is_some() || utilization.is_some() {
            out.push_str("derived\n");
        }
        if let Some(rate) = rate {
            out.push_str(&format!(
                "  {:<22} {:.2}% ({} of {} delta rounds rebuilt)\n",
                "delta_fallback_rate",
                rate * 100.0,
                self.counter("delta_rebuilds"),
                self.counter("delta_rounds"),
            ));
        }
        if let Some(u) = utilization {
            out.push_str(&format!(
                "  trial-thread utilization {u:.3} (trial span / trial threads × sweep span)\n"
            ));
        }
        out.push_str("gauges                   count        mean   min   max\n");
        for g in &self.gauges {
            out.push_str(&format!(
                "  {:<22} {:>6} {:>11.2} {:>5} {:>5}\n",
                g.name,
                g.count,
                g.mean(),
                g.min,
                g.max
            ));
        }
        out.push_str(
            "spans                    count    total_ms      p50_ms      p90_ms      p99_ms\n",
        );
        for s in &self.spans {
            out.push_str(&format!(
                "  {:<22} {:>6} {:>11.3} {:>11.4} {:>11.4} {:>11.4}\n",
                s.name,
                s.count,
                s.total_ms(),
                s.p50_ms(),
                s.p90_ms(),
                s.p99_ms()
            ));
        }
        out
    }

    /// Renders the snapshot as one JSON line (the `--metrics jsonl` sink).
    /// The object is hand-rolled: every key is a fixed identifier, so no
    /// escaping is needed and `meg-obs` stays free of JSON dependencies.
    /// (The lossless transport codec lives in `meg-engine::metrics`; this
    /// sink is for human/script consumption and reports milliseconds.)
    pub fn render_jsonl(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|g| {
                format!(
                    "\"{}\":{{\"count\":{},\"mean\":{:.4},\"min\":{},\"max\":{}}}",
                    g.name,
                    g.count,
                    g.mean(),
                    g.min,
                    g.max
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "\"{}\":{{\"count\":{},\"total_ms\":{:.4},\"p50_ms\":{:.5},\"p90_ms\":{:.5},\"p99_ms\":{:.5},\"max_ms\":{:.5}}}",
                    s.name,
                    s.count,
                    s.total_ms(),
                    s.p50_ms(),
                    s.p90_ms(),
                    s.p99_ms(),
                    s.max_ms()
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"spans\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            spans.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so the whole lifecycle lives in one
    // test: parallel test threads toggling ENABLED would race each other.
    #[test]
    fn recorder_lifecycle_counters_gauges_spans_and_rendering() {
        // Disabled: everything is a no-op and snapshots read zeros.
        uninstall();
        add(Counter::EdgeBirths, 5);
        sample(Gauge::QueueDepth, 9);
        drop(span("advance"));
        install();
        let zero = snapshot();
        assert_eq!(zero.counter("edge_births"), 0);
        assert_eq!(zero.gauges[1].count, 0);
        assert_eq!(zero.span("advance").unwrap().count, 0);

        // Enabled: counters accumulate, gauges summarize, spans time.
        add(Counter::EdgeBirths, 5);
        add(Counter::EdgeBirths, 2);
        add(Counter::DeltaRounds, 4);
        add(Counter::DeltaRebuilds, 1);
        sample(Gauge::InformedPerRound, 10);
        sample(Gauge::InformedPerRound, 30);
        drop(span("advance"));
        drop(span("advance"));
        let snap = snapshot();
        assert_eq!(snap.counter("edge_births"), 7);
        assert_eq!(snap.delta_fallback_rate(), Some(0.25));
        let informed = snap.gauges[0];
        assert_eq!((informed.count, informed.min, informed.max), (2, 10, 30));
        assert_eq!(informed.mean(), 20.0);
        let adv = snap.span("advance").unwrap();
        assert_eq!(adv.count, 2);
        assert!(adv.min_ns <= adv.max_ns);
        assert_eq!(adv.hist.iter().sum::<u64>(), 2);
        assert!(adv.p50_ms() <= adv.p99_ms());

        // Deltas against an earlier snapshot.
        add(Counter::EdgeBirths, 3);
        let later = snapshot();
        let deltas = later.counter_deltas(&snap);
        assert!(deltas.contains(&("edge_births", 3)));
        assert!(deltas.contains(&("delta_rounds", 0)));
        let shipped = later.delta_counters_snapshot(&snap);
        assert_eq!(shipped.counter("edge_births"), 3);
        assert_eq!(shipped.span("advance").unwrap().count, 0);

        // Rendering mentions every registered name.
        let report = later.render_report();
        let jsonl = later.render_jsonl();
        for c in Counter::ALL {
            assert!(report.contains(c.name()), "report lacks {}", c.name());
            assert!(jsonl.contains(c.name()), "jsonl lacks {}", c.name());
        }
        for s in SPAN_NAMES {
            assert!(report.contains(s) && jsonl.contains(s));
        }
        assert!(report.contains("delta_fallback_rate"));
        assert!(report.contains("p50_ms") && jsonl.contains("p99_ms"));

        // Reinstalling resets; uninstalling freezes.
        install();
        assert_eq!(snapshot().counter("edge_births"), 0);
        add(Counter::Trials, 1);
        uninstall();
        add(Counter::Trials, 1);
        assert_eq!(snapshot().counter("trials"), 1);
    }

    #[test]
    fn histogram_bucket_scheme_covers_the_full_u64_range() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(1023), 10);
        assert_eq!(hist_bucket(1024), 11);
        assert_eq!(hist_bucket(u64::MAX), SPAN_HIST_BUCKETS - 1);
        // Every bucket's representative lies at its midpoint and the top
        // bucket is open-ended.
        assert_eq!(hist_bucket_mid_ns(0), 0);
        assert_eq!(hist_bucket_mid_ns(1), 1);
        assert_eq!(hist_bucket_mid_ns(3), 6); // [4, 8) → 6
        for b in 1..SPAN_HIST_BUCKETS - 1 {
            assert_eq!(hist_bucket(hist_bucket_mid_ns(b)), b);
        }
    }

    #[test]
    fn span_percentiles_read_back_from_the_histogram() {
        let mut st = SpanState::new();
        // 90 fast samples in [4, 8) ns, 10 slow ones in [1024, 2048) ns.
        for _ in 0..90 {
            st.record(5);
        }
        for _ in 0..10 {
            st.record(1500);
        }
        let stats = SpanStats {
            name: "advance",
            count: st.count,
            total_ns: st.total_ns,
            min_ns: st.min_ns,
            max_ns: st.max_ns,
            hist: st.hist,
        };
        assert_eq!(stats.count, 100);
        assert_eq!(stats.percentile_ns(0.50), 6); // bucket [4, 8)
        assert_eq!(stats.percentile_ns(0.90), 6); // rank 90 is the last fast one
        assert_eq!(stats.percentile_ns(0.99), 1536); // bucket [1024, 2048)
        assert_eq!(stats.percentile_ns(1.0), 1536);
    }

    #[test]
    fn trial_thread_utilization_divides_trial_time_by_thread_capacity() {
        let mut snap = MetricsSnapshot::empty();
        assert_eq!(snap.trial_thread_utilization(), None, "no sweep recorded");
        let set_total = |snap: &mut MetricsSnapshot, name: &str, ns: u64| {
            let s = snap.spans.iter_mut().find(|s| s.name == name).unwrap();
            s.count = 1;
            s.total_ns = ns;
        };
        // Two threads over a 100 ns sweep, 150 ns inside trials: 0.75.
        set_total(&mut snap, "sweep", 100);
        set_total(&mut snap, "trial", 150);
        assert_eq!(
            snap.trial_thread_utilization(),
            None,
            "thread count unknown"
        );
        let g = snap
            .gauges
            .iter_mut()
            .find(|g| g.name == "trial_threads")
            .unwrap();
        (g.count, g.sum, g.min, g.max) = (1, 2, 2, 2);
        assert_eq!(snap.trial_thread_utilization(), Some(0.75));
        assert!(snap
            .render_report()
            .contains("trial-thread utilization 0.750"));
    }

    #[test]
    fn merge_is_exact_and_treats_empty_as_identity() {
        let mut a = MetricsSnapshot::empty();
        a.counters[0].1 = 7; // edge_births
        a.gauges[0] = GaugeStats {
            name: a.gauges[0].name,
            count: 2,
            sum: 40,
            min: 10,
            max: 30,
        };
        a.spans[0].count = 1;
        a.spans[0].total_ns = 5;
        a.spans[0].min_ns = 5;
        a.spans[0].max_ns = 5;
        a.spans[0].hist[hist_bucket(5)] = 1;

        // Identity on both sides.
        let mut id_left = MetricsSnapshot::empty();
        id_left.merge(&a);
        assert_eq!(id_left, a);
        let mut with_id = a.clone();
        with_id.merge(&MetricsSnapshot::empty());
        assert_eq!(with_id, a);

        // Pooling combines min/max/count/sum and histogram buckets.
        let mut b = MetricsSnapshot::empty();
        b.counters[0].1 = 3;
        b.gauges[0] = GaugeStats {
            name: b.gauges[0].name,
            count: 1,
            sum: 2,
            min: 2,
            max: 2,
        };
        b.spans[0].count = 2;
        b.spans[0].total_ns = 3000;
        b.spans[0].min_ns = 1000;
        b.spans[0].max_ns = 2000;
        b.spans[0].hist[hist_bucket(1000)] += 1;
        b.spans[0].hist[hist_bucket(2000)] += 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.counter("edge_births"), 10);
        assert_eq!((ab.gauges[0].min, ab.gauges[0].max), (2, 30));
        let s = ab.span("advance").unwrap();
        assert_eq!((s.count, s.min_ns, s.max_ns), (3, 5, 2000));
        assert_eq!(s.hist.iter().sum::<u64>(), 3);
    }
}
