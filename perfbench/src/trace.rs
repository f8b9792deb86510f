//! The traced run: a replica of the engine's trial dispatch for the
//! substrate and protocol pairs the workloads use, with a span recorded from
//! this crate around each call into a layer.
//!
//! The replica makes the calls the engine makes, in the same order and on
//! the same RNG streams: `meg_stats::run_trials` with its per-trial
//! `trial_rng`, the `sub_seed` draw before a MEG is built, and
//! `probabilistic_flood` with β = 1 for flooding. Its rows must equal the
//! untraced rows byte for byte, or it timed different work. Each MEG is
//! wrapped in [`Timed`], which consumes no randomness and writes into a
//! buffer reserved before the trial starts, and each substrate is dropped
//! inside its teardown span. Spans stay in memory until the sweep ends.

use meg_core::analysis::{measure_expansion_sequence, ExpansionMeasurement};
use meg_core::evolving::{EvolvingGraph, FrozenGraph};
use meg_core::protocols::{probabilistic_flood, run_machine, EpidemicMachine};
use meg_edge::SparseEdgeMeg;
use meg_engine::run::{aggregate_row, cell_seed, resolve_cells, Cell, ResolvedSubstrate};
use meg_engine::{
    EdgeEngine, MobilityKind, Precision, Protocol, Scenario, StaticKind, TrialOutcome,
};
use meg_geometric::{GeometricMeg, GeometricMegParams};
use meg_graph::expansion::SamplingStrategy;
use meg_graph::{generators, Graph, SnapshotBuf};
use meg_stats::run_trials;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// The most `advance` spans reserved for one trial. A trial that needs more
/// would grow the buffer inside `advance`, so the sweep is rejected instead.
const MAX_RESERVED_ADVANCES: u64 = 1 << 16;

/// One recorded span. Times are nanoseconds since the sweep began.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `edge.advance` or `engine.aggregate`.
    pub name: &'static str,
    /// Start, in ns since the sweep began.
    pub start_ns: u64,
    /// End, in ns since the sweep began.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for the sweep itself).
    pub parent: Option<usize>,
    /// Benchmark-local number of the thread that ran it.
    pub thread: u32,
    /// Cell index, where the span belongs to one cell.
    pub cell: Option<usize>,
    /// Trial index within the cell, where the span belongs to one trial.
    pub trial: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Substrate layers a trial runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Substrate {
    /// meg-edge (with its meg-graph snapshot buffer and meg-markov chains).
    Edge,
    /// meg-geometric with meg-mobility.
    Geo,
    /// A meg-graph static generator frozen in place.
    Static,
}

impl Substrate {
    fn span_names(self) -> [&'static str; 3] {
        match self {
            Substrate::Edge => ["edge.init", "edge.advance", "edge.teardown"],
            Substrate::Geo => ["geo.init", "geo.advance", "geo.teardown"],
            Substrate::Static => ["static.init", "static.advance", "static.teardown"],
        }
    }
}

/// Totals of one substrate layer over a sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SubstrateLayer {
    /// Σ construction time.
    pub init_ns: u64,
    /// Every `advance` duration, ascending once the sweep is summarised.
    pub advance_ns: Vec<u64>,
    /// Σ drop time.
    pub teardown_ns: u64,
    /// Σ edges over every snapshot `advance` returned.
    pub snapshot_edges: u64,
}

/// Per-layer totals of one traced sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    /// Sweep wall time.
    pub wall_ns: u64,
    /// `resolve_cells`.
    pub resolve_ns: u64,
    /// Σ `aggregate_row` plus row rendering.
    pub aggregate_ns: u64,
    /// Wall time of each cell, in cell order.
    pub cell_ns: Vec<u64>,
    /// Σ trial span durations (thread busy time).
    pub trial_busy_ns: u64,
    /// Σ over cells of trial threads × trial-phase wall time.
    pub lane_ns: u64,
    /// meg-edge.
    pub edge: SubstrateLayer,
    /// meg-geometric + meg-mobility.
    pub geo: SubstrateLayer,
    /// Static graphs (only their construction is a reported layer).
    pub fixed: SubstrateLayer,
    /// Σ protocol span time, `advance` calls excluded.
    pub protocol_self_ns: u64,
    /// Σ protocol rounds.
    pub rounds: u64,
    /// Σ protocol messages.
    pub messages: u64,
    /// Σ probe span time, `advance` calls excluded.
    pub probe_self_ns: u64,
    /// Probe trials run.
    pub probe_calls: u64,
    /// Wall time covered by at least one layer span on any thread.
    pub attributed_ns: u64,
}

impl Layers {
    fn substrate(&mut self, s: Substrate) -> &mut SubstrateLayer {
        match s {
            Substrate::Edge => &mut self.edge,
            Substrate::Geo => &mut self.geo,
            Substrate::Static => &mut self.fixed,
        }
    }
}

/// One traced sweep.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Rendered rows, in cell order.
    pub lines: Vec<String>,
    /// Every span, the sweep itself first.
    pub spans: Vec<Span>,
    /// The per-layer summary of `spans`.
    pub layers: Layers,
}

impl Traced {
    /// Sweep wall time in seconds.
    pub fn wall_s(&self) -> f64 {
        self.layers.wall_ns as f64 * 1e-9
    }

    /// Writes every span as one tab-separated line under a header.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tthread\tcell\ttrial")?;
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                s.thread,
                opt(s.cell),
                opt(s.trial)
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds since the sweep began.
#[derive(Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A benchmark-local number for the calling thread.
fn thread_no() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    NO.with(|n| *n)
}

/// What one trial recorded, turned into spans once the sweep ends.
struct TrialRec {
    substrate: Substrate,
    thread: u32,
    trial: (u64, u64),
    init: (u64, u64),
    body: (&'static str, u64, u64),
    teardown: (u64, u64),
    advances: Vec<(u64, u64)>,
    edges: u64,
    rounds: u64,
    messages: u64,
}

/// An [`EvolvingGraph`] that times each `advance` of the MEG it wraps. It
/// consumes no randomness, and the buffers it writes were reserved before
/// the trial began.
struct Timed<'a, M> {
    inner: M,
    clock: Clock,
    advances: &'a mut Vec<(u64, u64)>,
    edges: &'a mut u64,
}

impl<M: EvolvingGraph> EvolvingGraph for Timed<'_, M> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let start = self.clock.now();
        let snapshot = self.inner.advance();
        let end = self.clock.now();
        self.advances.push((start, end));
        *self.edges += snapshot.num_edges() as u64;
        snapshot
    }

    fn time(&self) -> u64 {
        self.inner.time()
    }
}

/// Runs the protocol or probe of `cell` on `meg`, as the engine's
/// `protocol_trial` / `probe_trial` do for the pairs the workloads use.
/// Returns the outcome plus the protocol's rounds and messages.
fn drive<M: EvolvingGraph>(
    meg: &mut M,
    cell: &Cell,
    rng: &mut ChaCha8Rng,
) -> Result<(TrialOutcome, u64, u64), String> {
    let n = meg.num_nodes();
    let budget = cell.round_budget;
    let result = match cell.protocol {
        Protocol::Flooding => probabilistic_flood(meg, 0, 1.0, budget, rng),
        Protocol::Sis {
            contagion,
            infection_rounds,
            immunity_rounds,
        } => {
            let mut machine =
                EpidemicMachine::new(n, 0, contagion, infection_rounds, Some(immunity_rounds));
            run_machine(meg, &mut machine, budget, rng).into_protocol_result()
        }
        Protocol::Sir {
            contagion,
            infection_rounds,
        } => {
            let mut machine = EpidemicMachine::new(n, 0, contagion, infection_rounds, None);
            run_machine(meg, &mut machine, budget, rng).into_protocol_result()
        }
        Protocol::BoundProbe { snapshots, samples } => {
            let options = ExpansionMeasurement {
                snapshots: snapshots as usize,
                samples_per_size: samples as usize,
                strategy: SamplingStrategy::Mixed,
            };
            let bound = measure_expansion_sequence(meg, options, rng)
                .map(|seq| seq.flooding_bound())
                .ok()
                .filter(|b| b.is_finite());
            let outcome = TrialOutcome {
                completed: bound.is_some(),
                value: bound.unwrap_or(0.0),
                messages: 0.0,
            };
            return Ok((outcome, 0, 0));
        }
        other => return Err(format!("protocol `{}` is not replicated", other.label())),
    };
    let outcome = TrialOutcome {
        completed: result.completed,
        value: result.rounds as f64,
        messages: result.messages_sent as f64,
    };
    Ok((outcome, result.rounds, result.messages_sent))
}

/// Builds a MEG with `build` inside the init span, runs the cell's protocol
/// on it inside the body span, and drops it inside the teardown span.
fn run_on<M: EvolvingGraph>(
    substrate: Substrate,
    build: impl FnOnce(&mut ChaCha8Rng) -> M,
    cell: &Cell,
    rng: &mut ChaCha8Rng,
    clock: Clock,
    rec: &mut TrialRec,
) -> Result<TrialOutcome, String> {
    rec.substrate = substrate;
    let start = clock.now();
    let meg = build(rng);
    let built = clock.now();
    rec.init = (start, built);
    let mut timed = Timed {
        inner: meg,
        clock,
        advances: &mut rec.advances,
        edges: &mut rec.edges,
    };
    let driven = drive(&mut timed, cell, rng);
    let body_end = clock.now();
    drop(timed);
    rec.teardown = (body_end, clock.now());
    let name = if cell.protocol.is_probe() {
        "probe"
    } else {
        "protocol"
    };
    rec.body = (name, built, body_end);
    let (outcome, rounds, messages) = driven?;
    rec.rounds = rounds;
    rec.messages = messages;
    Ok(outcome)
}

/// One trial of `cell`, as the engine's `execute_trial` runs it.
fn traced_trial(
    cell: &Cell,
    rng: &mut ChaCha8Rng,
    clock: Clock,
) -> Result<(TrialOutcome, TrialRec), String> {
    let reserve = match cell.protocol {
        Protocol::BoundProbe { snapshots, .. } => snapshots.max(1),
        _ => cell.round_budget.min(MAX_RESERVED_ADVANCES),
    } as usize;
    let mut rec = TrialRec {
        substrate: Substrate::Static,
        thread: thread_no(),
        trial: (clock.now(), 0),
        init: (0, 0),
        body: ("protocol", 0, 0),
        teardown: (0, 0),
        advances: Vec::with_capacity(reserve),
        edges: 0,
        rounds: 0,
        messages: 0,
    };
    let reserved = rec.advances.capacity();
    let outcome = match cell.substrate {
        ResolvedSubstrate::Edge {
            engine: EdgeEngine::Sparse,
            params,
            init,
            stepping,
            ..
        } => run_on(
            Substrate::Edge,
            |rng| SparseEdgeMeg::with_stepping(params, init, stepping, rng.gen()),
            cell,
            rng,
            clock,
            &mut rec,
        ),
        ResolvedSubstrate::Geometric {
            n,
            mobility: MobilityKind::GridWalk,
            radius,
            move_radius,
        } if cell.protocol != Protocol::OccupancyProbe => run_on(
            Substrate::Geo,
            |rng| {
                GeometricMeg::from_params(
                    GeometricMegParams::new(n, move_radius, radius),
                    rng.gen(),
                )
            },
            cell,
            rng,
            clock,
            &mut rec,
        ),
        ResolvedSubstrate::Static { n, graph, p_hat } => run_on(
            Substrate::Static,
            |rng| {
                FrozenGraph::new(match graph {
                    StaticKind::ErdosRenyi { .. } => generators::erdos_renyi(n, p_hat, rng),
                    StaticKind::Grid2d => {
                        let side = (n as f64).sqrt().round() as usize;
                        generators::grid2d(side, side)
                    }
                })
            },
            cell,
            rng,
            clock,
            &mut rec,
        ),
        ref other => Err(format!("substrate {other:?} is not replicated")),
    }?;
    if rec.advances.capacity() != reserved {
        return Err(format!(
            "a trial of cell {} took more than {reserved} snapshots, so its span buffer grew inside advance",
            cell.index
        ));
    }
    rec.trial.1 = clock.now();
    Ok((outcome, rec))
}

/// Runs one traced sweep of `scenario` under `master_seed`: every cell in
/// order, each cell's trials through `meg_stats::run_trials` on the default
/// trial fan-out, then `aggregate_row` and the row rendering.
pub fn traced_sweep(scenario: &Scenario, master_seed: u64) -> Result<Traced, String> {
    if scenario.precision != Precision::FixedTrials {
        return Err("the traced replica runs fixed-trial scenarios only".into());
    }
    let clock = Clock(Instant::now());
    let main = thread_no();
    let span = |name, start_ns, end_ns, parent, cell| Span {
        name,
        start_ns,
        end_ns,
        parent,
        thread: main,
        cell,
        trial: None,
    };
    let mut spans = vec![span("sweep", 0, 0, None, None)];
    let start = clock.now();
    let cells = resolve_cells(scenario).map_err(|e| format!("resolve: {e}"))?;
    spans.push(span("engine.resolve", start, clock.now(), Some(0), None));

    let threads = rayon::current_num_threads();
    let mut layers = Layers::default();
    let mut lines = Vec::with_capacity(cells.len());
    let mut pending = Vec::with_capacity(cells.len());
    for cell in &cells {
        let cell_start = clock.now();
        let seed = cell_seed(&scenario.name, master_seed, cell.index);
        let start = clock.now();
        let results = run_trials(seed, cell.trials, |_, rng| traced_trial(cell, rng, clock));
        let end = clock.now();
        layers.lane_ns += (end - start) * threads.min(cell.trials) as u64;
        let (outcomes, recs): (Vec<_>, Vec<_>) = results.into_iter().collect::<Result<_, _>>()?;
        let aggregate_start = clock.now();
        lines.push(
            aggregate_row(scenario, cell, seed, &outcomes)
                .to_json()
                .render(),
        );
        let cell_end = clock.now();
        layers.aggregate_ns += cell_end - aggregate_start;
        layers.cell_ns.push(cell_end - cell_start);

        let cell_span = spans.len();
        let index = Some(cell.index);
        spans.push(span("engine.cell", cell_start, cell_end, Some(0), index));
        spans.push(span("runner.trials", start, end, Some(cell_span), index));
        spans.push(span(
            "engine.aggregate",
            aggregate_start,
            cell_end,
            Some(cell_span),
            index,
        ));
        pending.push((cell_span + 1, cell.index, recs));
    }
    spans[0].end_ns = clock.now();
    layers.wall_ns = spans[0].ns();
    layers.resolve_ns = spans[1].ns();
    for (runner_span, cell, recs) in pending {
        for (trial, rec) in recs.into_iter().enumerate() {
            emit(rec, &mut spans, &mut layers, runner_span, cell, trial);
        }
    }
    layers.edge.advance_ns.sort_unstable();
    layers.geo.advance_ns.sort_unstable();
    layers.fixed.advance_ns.sort_unstable();
    layers.attributed_ns = covered_ns(&spans);
    Ok(Traced {
        lines,
        spans,
        layers,
    })
}

/// Appends one trial's spans under `parent` and adds it to `layers`.
fn emit(
    rec: TrialRec,
    spans: &mut Vec<Span>,
    layers: &mut Layers,
    parent: usize,
    cell: usize,
    trial: usize,
) {
    let mut push = |name, (start_ns, end_ns): (u64, u64), parent| {
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            thread: rec.thread,
            cell: Some(cell),
            trial: Some(trial),
        });
        spans.len() - 1
    };
    let [init, advance, teardown] = rec.substrate.span_names();
    let trial_span = push("trial", rec.trial, parent);
    push(init, rec.init, trial_span);
    let (body, body_start, body_end) = rec.body;
    let body_span = push(body, (body_start, body_end), trial_span);
    let mut advance_ns = 0;
    for &interval in &rec.advances {
        push(advance, interval, body_span);
        advance_ns += interval.1 - interval.0;
    }
    push(teardown, rec.teardown, trial_span);

    layers.trial_busy_ns += rec.trial.1 - rec.trial.0;
    let body_self = (body_end - body_start).saturating_sub(advance_ns);
    if body == "probe" {
        layers.probe_self_ns += body_self;
        layers.probe_calls += 1;
    } else {
        layers.protocol_self_ns += body_self;
        layers.rounds += rec.rounds;
        layers.messages += rec.messages;
    }
    let sub = layers.substrate(rec.substrate);
    sub.init_ns += rec.init.1 - rec.init.0;
    sub.teardown_ns += rec.teardown.1 - rec.teardown.0;
    sub.snapshot_edges += rec.edges;
    sub.advance_ns
        .extend(rec.advances.iter().map(|(start, end)| end - start));
}

/// Wall time covered by at least one layer span on any thread: resolve,
/// aggregate, and each trial's init, protocol or probe, and teardown. The
/// rest of the sweep is time that no layer claims.
fn covered_ns(spans: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "engine.resolve" | "engine.aggregate" | "protocol" | "probe"
            ) || s.name.ends_with(".init")
                || s.name.ends_with(".teardown")
        })
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, 0);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            thread: 0,
            cell: None,
            trial: None,
        }
    }

    #[test]
    fn coverage_merges_overlapping_layer_spans_and_skips_containers() {
        let spans = [
            span("sweep", 0, 100),
            span("trial", 0, 100),
            span("edge.init", 10, 30),
            span("protocol", 20, 50),
            span("geo.teardown", 40, 60),
            span("engine.aggregate", 70, 80),
        ];
        assert_eq!(covered_ns(&spans), 50 + 10);
    }
}
