//! The sweep scheduler: one work queue, one control loop and one ordered
//! emitter behind every way the engine runs trials.
//!
//! A sweep is a set of cells, each with a [`Plan`]: the trial counts the
//! control loop stops at, and the adaptive stop rule. Execution has three
//! parts, shared by the in-process trial threads ([`run_jobs`]) and the
//! worker pool of [`crate::dist`]:
//!
//! * [`WorkQueue`] holds [`WorkItem`]s first in, first out. The control loop
//!   cuts each checkpoint step of `k` trials into `min(k, cut)` contiguous
//!   items in trial order, the first `k mod min(k, cut)` of them one trial
//!   longer ([`cut_step`]). A pool of `L` lanes cuts at `cut = L`, so every
//!   lane shares every step while each item stays one request round trip;
//!   trial threads cut with no cap, into `(cell, trial)` units. Every cell's
//!   first items are queued in cell order when it opens, so a fixed-trials
//!   sweep runs cell-major.
//!   Lanes (scoped threads) pop an item, execute it and send the reply to
//!   the calling thread. A lane holds one item at a time, so at most
//!   `lanes` items are in flight.
//! * [`drive`] runs the lanes and, on the calling thread, the control loop
//!   ([`Control`]): it gathers each cell's outcomes and, once every outcome
//!   up to a checkpoint is in, either queues the next batch of the doubling
//!   schedule or finalizes the cell.
//! * [`OrderedEmitter`] releases finished rows in ascending cell order.
//!
//! Lanes pull work across cell boundaries, so no thread idles while another
//! finishes the last trial of a cell. Trial `i` of a cell always draws
//! `trial_rng(cell_seed, i)`, and a checkpoint is decided only on the
//! complete prefix of outcomes, so neither the number of lanes nor the
//! order in which they finish can change a row byte. A lane that panics
//! shuts the queue down, so the other lanes and the control loop stop
//! instead of waiting for follow-up batches, and the sweep ends with that
//! panic. A trial count too large to hold is an input error: each step's
//! outcome slots and work items are reserved fallibly before any is
//! written, and the sweep ends with an error naming the cell.

use crate::dist::trace::TraceJournal;
use crate::run::{adaptive_stop, aggregate_row, Cell, Row, TrialOutcome};
use crate::scenario::{Precision, Scenario, ScenarioError};
use meg_obs as obs;
use meg_stats::precision_checkpoints;
use meg_stats::seeds::trial_rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, TryReserveError, VecDeque};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

/// One unit of work a lane takes off the queue: trials
/// `start .. start + count` of a cell, answered with their raw outcomes.
/// [`cut_step`] makes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WorkItem {
    pub(crate) cell: usize,
    pub(crate) start: usize,
    pub(crate) count: usize,
}

impl WorkItem {
    /// Label for this item's trace span.
    pub(crate) fn trace_name(&self) -> String {
        format!(
            "cell {} trials {}..{}",
            self.cell,
            self.start,
            self.start + self.count
        )
    }
}

/// A reply on its way to the control loop.
pub(crate) struct Reply {
    pub(crate) item: WorkItem,
    /// The item's trial outcomes, in trial order.
    pub(crate) outcomes: Vec<TrialOutcome>,
    /// When the lane began the item.
    pub(crate) started: Instant,
}

/// The channel lanes send replies (or their fatal error) on.
pub(crate) type Replies<E> = mpsc::Sender<Result<Reply, E>>;

/// The shared work queue. Unlike a plain deque, it knows how many cells are
/// still *open* (may yet grow): a lane finding the queue empty keeps waiting
/// while open cells exist, because the control loop may still queue
/// follow-up batches for them.
pub(crate) struct WorkQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    items: VecDeque<WorkItem>,
    open_cells: usize,
    shutdown: bool,
}

impl WorkQueue {
    pub(crate) fn new() -> WorkQueue {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                open_cells: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Takes the oldest item, blocking while the queue is empty but cells
    /// remain open. Returns `None` when drained or shut down.
    pub(crate) fn pop(&self) -> Option<WorkItem> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(item) = st.items.pop_front() {
                obs::sample(obs::Gauge::QueueDepth, st.items.len() as u64);
                return Some(item);
            }
            if st.open_cells == 0 {
                return None;
            }
            st = self.available.wait(st).expect("queue lock");
        }
    }

    /// Queues items and wakes the lanes waiting for them. Fails, queueing
    /// nothing, when the queue cannot grow to hold them.
    pub(crate) fn push(
        &self,
        items: impl ExactSizeIterator<Item = WorkItem>,
    ) -> Result<(), TryReserveError> {
        let mut st = self.state.lock().expect("queue lock");
        st.items.try_reserve(items.len())?;
        st.items.extend(items);
        obs::sample(obs::Gauge::QueueDepth, st.items.len() as u64);
        drop(st);
        self.available.notify_all();
        Ok(())
    }

    /// Marks one more cell open: lanes wait for its follow-up batches.
    fn hold_cell(&self) {
        self.state.lock().expect("queue lock").open_cells += 1;
    }

    /// Marks one open cell finalized; wakes every waiting lane once none
    /// remain so they can exit.
    fn finish_cell(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.open_cells = st.open_cells.saturating_sub(1);
        if st.open_cells == 0 {
            drop(st);
            self.available.notify_all();
        }
    }

    /// Stops the sweep: waiting lanes wake up, and every lane's next `pop`
    /// returns `None`.
    pub(crate) fn shut_down(&self) {
        self.state.lock().expect("queue lock").shutdown = true;
        self.available.notify_all();
    }

    /// Whether [`WorkQueue::shut_down`] was called.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.state.lock().expect("queue lock").shutdown
    }
}

/// Shuts the queue down when dropped, or only when dropped by a panic.
struct ShutDownOnDrop<'a> {
    queue: &'a WorkQueue,
    only_on_panic: bool,
}

impl Drop for ShutDownOnDrop<'_> {
    fn drop(&mut self) {
        if !self.only_on_panic || std::thread::panicking() {
            self.queue.shut_down();
        }
    }
}

/// How the control loop grows one cell's trial set.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Plan {
    /// The first trial index (0, except for a worker's batch request).
    first: usize,
    /// Trial counts to decide at, ascending; the last one is a hard budget.
    checkpoints: Vec<usize>,
    /// The adaptive target standard error (see [`adaptive_stop`]), consulted
    /// at every checkpoint but the last.
    eps: f64,
}

impl Plan {
    /// The plan the scenario's [`Precision`] gives `cell`: its trial count
    /// under fixed trials, the shared doubling schedule
    /// (`meg_stats::precision_checkpoints`) under adaptive precision.
    pub(crate) fn for_cell(precision: &Precision, cell: &Cell) -> Plan {
        match *precision {
            Precision::FixedTrials => Plan::range(0, cell.trials),
            Precision::TargetStderr {
                eps,
                min_trials,
                max_trials,
            } => Plan {
                first: 0,
                checkpoints: precision_checkpoints(min_trials, max_trials),
                eps,
            },
        }
    }

    /// Exactly trials `start .. start + count`, no stop rule.
    pub(crate) fn range(start: usize, count: usize) -> Plan {
        Plan {
            first: start,
            checkpoints: vec![start + count],
            eps: 0.0,
        }
    }

    /// Whether the cell may grow past its first checkpoint.
    fn grows(&self) -> bool {
        self.checkpoints.len() > 1
    }

    /// The most trials the plan can run.
    fn budget(&self) -> usize {
        self.checkpoints.last().map_or(0, |&end| end - self.first)
    }
}

/// Control-loop state of one open cell.
struct CellCtl {
    plan: Plan,
    /// Outcomes of trials `plan.first ..` in trial order; slots not yet
    /// reported hold a placeholder.
    outcomes: Vec<TrialOutcome>,
    /// Slots up to the current checkpoint still unreported.
    missing: usize,
    /// Index into `plan.checkpoints` of the checkpoint being filled.
    checkpoint: usize,
    /// When the cell's earliest item started.
    started: Option<Instant>,
}

/// Cuts trials `from .. to` of `cell` into `min(to - from, cut)` contiguous
/// items in trial order, the first `(to - from) mod min(to - from, cut)` of
/// them one trial longer than the rest.
fn cut_step(
    cell: usize,
    from: usize,
    to: usize,
    cut: usize,
) -> impl ExactSizeIterator<Item = WorkItem> {
    let items = (to - from).min(cut);
    let mut start = from;
    (0..items).map(move |i| {
        // The remaining trials shared among the remaining items, rounded up.
        let item = WorkItem {
            cell,
            start,
            count: (to - start).div_ceil(items - i),
        };
        start += item.count;
        item
    })
}

/// The adaptive control loop: per-cell outcome buffers and checkpoint
/// decisions. Runs on the calling thread only.
pub(crate) struct Control<'a> {
    queue: &'a WorkQueue,
    /// The most items one checkpoint step is cut into ([`cut_step`]): the
    /// pool size, or `usize::MAX` for trial threads (one-trial items).
    cut: usize,
    cells: BTreeMap<usize, CellCtl>,
    /// Journal and lane that checkpoint doublings are marked on.
    journal: Option<(&'a TraceJournal, usize)>,
}

impl<'a> Control<'a> {
    pub(crate) fn new(
        queue: &'a WorkQueue,
        cut: usize,
        journal: Option<(&'a TraceJournal, usize)>,
    ) -> Control<'a> {
        Control {
            queue,
            cut,
            cells: BTreeMap::new(),
            journal,
        }
    }

    /// Opens `cell` under `plan` and queues its trials up to the first
    /// checkpoint. The plan must run at least one trial. Fails, naming the
    /// cell, when that step does not fit in memory.
    pub(crate) fn open(&mut self, cell: usize, plan: Plan) -> Result<(), ScenarioError> {
        assert!(plan.budget() > 0, "cell {cell} has no trials to run");
        let grows = plan.grows();
        let mut st = CellCtl {
            plan,
            outcomes: Vec::new(),
            missing: 0,
            checkpoint: 0,
            started: None,
        };
        self.queue_to_checkpoint(cell, &mut st)?;
        if grows {
            self.queue.hold_cell();
        }
        self.cells.insert(cell, st);
        Ok(())
    }

    /// Queues the trials between what `st` holds and its current checkpoint.
    /// Their outcome slots and work items are reserved before any is
    /// written, so a step too large to hold is an error, not an abort.
    fn queue_to_checkpoint(&self, cell: usize, st: &mut CellCtl) -> Result<(), ScenarioError> {
        let from = st.plan.first + st.outcomes.len();
        let to = st.plan.checkpoints[st.checkpoint];
        let slots = to - st.plan.first;
        let too_many =
            |_| ScenarioError(format!("cell {cell}: {slots} trials do not fit in memory"));
        st.outcomes.try_reserve_exact(to - from).map_err(too_many)?;
        self.queue
            .push(cut_step(cell, from, to, self.cut))
            .map_err(too_many)?;
        st.outcomes.resize(slots, TrialOutcome::failed());
        st.missing = to - from;
        Ok(())
    }

    /// Takes the outcomes of trials `start ..` of `cell`. Once every outcome
    /// up to the current checkpoint is in, either queues the next batch (the
    /// target is unmet and budget is left) or finalizes the cell, returning
    /// its outcomes and when its first item started. Fails when the next
    /// batch does not fit in memory.
    fn absorb(
        &mut self,
        cell: usize,
        start: usize,
        outcomes: Vec<TrialOutcome>,
        started: Instant,
    ) -> Result<Option<(Vec<TrialOutcome>, Instant)>, ScenarioError> {
        let mut st = self.cells.remove(&cell).expect("reply for an open cell");
        st.started = Some(st.started.map_or(started, |t| t.min(started)));
        let offset = start - st.plan.first;
        st.missing -= outcomes.len();
        for (slot, outcome) in st.outcomes[offset..].iter_mut().zip(outcomes) {
            *slot = outcome;
        }
        if st.missing > 0 {
            self.cells.insert(cell, st);
            return Ok(None);
        }
        let last = st.checkpoint + 1 == st.plan.checkpoints.len();
        if !last && !adaptive_stop(st.plan.eps, &st.outcomes) {
            st.checkpoint += 1;
            if let Some((journal, lane)) = self.journal {
                let target = st.plan.checkpoints[st.checkpoint];
                journal.instant(
                    lane,
                    format!("double cell {cell} to {target} trials"),
                    Some(cell),
                );
            }
            self.queue_to_checkpoint(cell, &mut st)?;
            self.cells.insert(cell, st);
            return Ok(None);
        }
        if st.plan.grows() {
            self.queue.finish_cell();
        }
        Ok(Some((st.outcomes, st.started.unwrap_or(started))))
    }
}

/// Runs `lanes` copies of `lane` on scoped threads to drain `queue`, and the
/// control loop on the calling thread until `cells` cells are finished.
/// `on_done` receives each finished cell's outcomes in completion order,
/// with when its first item started.
///
/// A lane's error, an `on_done` error or a follow-up step too large to hold
/// stops the sweep and is returned once every lane has exited. A lane that
/// panics ends the sweep with its panic.
pub(crate) fn drive<E, L, D>(
    queue: &WorkQueue,
    control: &mut Control<'_>,
    cells: usize,
    lanes: usize,
    lane: L,
    mut on_done: D,
) -> Result<(), E>
where
    E: Send + From<ScenarioError>,
    L: Fn(usize, &Replies<E>) + Sync,
    D: FnMut(usize, Vec<TrialOutcome>, Instant) -> Result<(), E>,
{
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let lane = &lane;
        let handles: Vec<_> = (0..lanes)
            .map(|i| {
                let tx = tx.clone();
                scope.spawn(move || {
                    let _stop = ShutDownOnDrop {
                        queue,
                        only_on_panic: true,
                    };
                    lane(i, &tx)
                })
            })
            .collect();
        drop(tx);
        let finished = collect(queue, control, cells, &rx, &mut on_done);
        // Join explicitly so a lane's panic resumes with its own payload.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let finished = finished?;
        assert_eq!(finished, cells, "sweep lanes exited with cells unfinished");
        Ok(())
    })
}

/// The control loop proper; returns how many cells finished. Stops early
/// when every lane has exited (one of them panicked).
fn collect<E, D>(
    queue: &WorkQueue,
    control: &mut Control<'_>,
    cells: usize,
    rx: &mpsc::Receiver<Result<Reply, E>>,
    on_done: &mut D,
) -> Result<usize, E>
where
    E: From<ScenarioError>,
    D: FnMut(usize, Vec<TrialOutcome>, Instant) -> Result<(), E>,
{
    // However the loop ends, no lane may keep waiting for a follow-up batch.
    let _stop = ShutDownOnDrop {
        queue,
        only_on_panic: false,
    };
    let mut finished = 0;
    while finished < cells {
        let Ok(reply) = rx.recv() else {
            break;
        };
        let Reply {
            item,
            outcomes,
            started,
        } = reply?;
        if let Some((outcomes, started)) =
            control.absorb(item.cell, item.start, outcomes, started)?
        {
            finished += 1;
            on_done(item.cell, outcomes, started)?;
        }
    }
    Ok(finished)
}

/// Buffers out-of-order results and releases them in ascending assigned
/// order, so callers see the canonical row stream regardless of which lane
/// finished first.
pub(crate) struct OrderedEmitter<'a, T, F> {
    assigned: &'a [usize],
    next: usize,
    buffer: BTreeMap<usize, T>,
    on_row: F,
}

impl<'a, T, E, F: FnMut(usize, T) -> Result<(), E>> OrderedEmitter<'a, T, F> {
    pub(crate) fn new(assigned: &'a [usize], on_row: F) -> Self {
        OrderedEmitter {
            assigned,
            next: 0,
            buffer: BTreeMap::new(),
            on_row,
        }
    }

    /// Takes `cell`'s result and releases every result now at the head of
    /// the assigned order.
    pub(crate) fn offer(&mut self, cell: usize, value: T) -> Result<(), E> {
        self.buffer.insert(cell, value);
        while let Some(&expect) = self.assigned.get(self.next) {
            let Some(value) = self.buffer.remove(&expect) else {
                break;
            };
            self.next += 1;
            (self.on_row)(expect, value)?;
        }
        Ok(())
    }

    /// Flushes results stranded behind a gap (possible only under `limit`).
    pub(crate) fn finish(mut self) -> Result<(), E> {
        for (cell, value) in std::mem::take(&mut self.buffer) {
            (self.on_row)(cell, value)?;
        }
        Ok(())
    }
}

/// One cell of an in-process sweep: the cell, its seed and its plan.
pub(crate) struct Job<'a> {
    pub(crate) cell: &'a Cell,
    pub(crate) seed: u64,
    pub(crate) plan: Plan,
}

/// The lanes a sweep of `plans` runs on: `lanes`, capped at the most trials
/// the plans can run (a lane past that could never take an item).
pub(crate) fn lanes_for<'p>(plans: impl IntoIterator<Item = &'p Plan>, lanes: usize) -> usize {
    let budget: usize = plans.into_iter().map(Plan::budget).sum();
    lanes.clamp(1, budget.max(1))
}

/// The trial threads `jobs` run on ([`lanes_for`]).
fn trial_threads(jobs: &[Job<'_>], threads: usize) -> usize {
    lanes_for(jobs.iter().map(|j| &j.plan), threads)
}

/// Runs `jobs` (distinct cells) on [`trial_threads`] scoped threads and
/// passes each job's outcomes to `on_done` as it finishes (completion
/// order). `trial(cell, i, rng)` runs trial `i` of `cell` on
/// `rng = trial_rng(seed, i)`. With a journal, checkpoint doublings are
/// marked on lane 0. A cell whose step does not fit in memory fails the
/// sweep before any trial runs.
pub(crate) fn run_jobs<E, T, D>(
    jobs: &[Job<'_>],
    threads: usize,
    journal: Option<&TraceJournal>,
    trial: T,
    mut on_done: D,
) -> Result<(), E>
where
    E: Send + From<ScenarioError>,
    T: Fn(&Cell, usize, &mut ChaCha8Rng) -> TrialOutcome + Sync,
    D: FnMut(&Job<'_>, Vec<TrialOutcome>, Instant) -> Result<(), E>,
{
    let by_cell: BTreeMap<usize, &Job<'_>> = jobs.iter().map(|j| (j.cell.index, j)).collect();
    let queue = WorkQueue::new();
    let mut control = Control::new(&queue, usize::MAX, journal.map(|j| (j, 0)));
    for job in jobs {
        control.open(job.cell.index, job.plan.clone())?;
    }
    let lane = |_lane: usize, replies: &Replies<E>| {
        while let Some(item) = queue.pop() {
            let started = Instant::now();
            let job = by_cell[&item.cell];
            let outcomes = (item.start..item.start + item.count)
                .map(|i| trial(job.cell, i, &mut trial_rng(job.seed, i as u64)))
                .collect();
            let reply = Reply {
                item,
                outcomes,
                started,
            };
            if replies.send(Ok(reply)).is_err() {
                break;
            }
        }
    };
    drive(
        &queue,
        &mut control,
        jobs.len(),
        trial_threads(jobs, threads),
        lane,
        |cell, outcomes, started| on_done(by_cell[&cell], outcomes, started),
    )
}

/// [`run_jobs`] aggregated into rows and released to `on_row` in `jobs`
/// order. Each row's `cell` span runs from its first trial's start to its
/// release; with a journal, the same interval becomes the cell's complete
/// span on a packed lane.
pub(crate) fn run_rows<E, T, F>(
    scenario: &Scenario,
    jobs: &[Job<'_>],
    threads: usize,
    journal: Option<&TraceJournal>,
    trial: T,
    mut on_row: F,
) -> Result<(), E>
where
    E: Send + From<ScenarioError>,
    T: Fn(&Cell, usize, &mut ChaCha8Rng) -> TrialOutcome + Sync,
    F: FnMut(Row) -> Result<(), E>,
{
    let order: Vec<usize> = jobs.iter().map(|j| j.cell.index).collect();
    let mut emitter = OrderedEmitter::new(&order, |cell, (row, started): (Row, Instant)| {
        obs::record_span("cell", started.elapsed());
        if let Some(j) = journal {
            j.complete_packed(format!("cell {cell}"), started, Some(cell));
        }
        on_row(row)
    });
    run_jobs(jobs, threads, journal, trial, |job, outcomes, started| {
        let row = aggregate_row(scenario, job.cell, job.seed, &outcomes);
        emitter.offer(job.cell.index, (row, started))
    })
}

/// [`run_rows`] as one whole in-process sweep, which alone records the
/// `sweep` span and a `trial_threads` sample: a pool worker serves its
/// batch requests through [`run_jobs`] directly, so a pool's metrics report
/// no in-process sweep.
pub(crate) fn run_sweep<E, T, F>(
    scenario: &Scenario,
    jobs: &[Job<'_>],
    threads: usize,
    journal: Option<&TraceJournal>,
    trial: T,
    on_row: F,
) -> Result<(), E>
where
    E: Send + From<ScenarioError>,
    T: Fn(&Cell, usize, &mut ChaCha8Rng) -> TrialOutcome + Sync,
    F: FnMut(Row) -> Result<(), E>,
{
    let _sweep = obs::span("sweep");
    obs::sample(
        obs::Gauge::TrialThreads,
        trial_threads(jobs, threads) as u64,
    );
    run_rows(scenario, jobs, threads, journal, trial, on_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The items [`Control::open`] queues for trials `start .. start + k`
    /// of cell 3 under `cut`.
    fn queued(start: usize, k: usize, cut: usize) -> Vec<WorkItem> {
        let queue = WorkQueue::new();
        let mut control = Control::new(&queue, cut, None);
        control
            .open(3, Plan::range(start, k))
            .expect("a small step fits");
        std::iter::from_fn(|| queue.pop()).collect()
    }

    #[test]
    fn a_step_too_large_to_hold_is_an_error_naming_the_cell() {
        let queue = WorkQueue::new();
        for cut in [2, usize::MAX] {
            let mut control = Control::new(&queue, cut, None);
            let err = control
                .open(7, Plan::range(0, usize::MAX / 2))
                .expect_err("no buffer holds usize::MAX / 2 outcomes");
            assert!(err.0.starts_with("cell 7: "), "{err}");
            assert!(queue.pop().is_none(), "the cell queued work");
        }
    }

    proptest! {
        #[test]
        fn a_step_is_cut_into_balanced_contiguous_items(start in 0usize..1_000_000) {
            for k in 1..=64 {
                for lanes in 1..=8 {
                    let items = queued(start, k, lanes);
                    prop_assert_eq!(items.len(), k.min(lanes));
                    let mut next = start;
                    for item in &items {
                        prop_assert_eq!((item.cell, item.start), (3, next));
                        next += item.count;
                    }
                    prop_assert_eq!(next, start + k, "the items cover the step exactly once");
                    let longest = items[0].count;
                    prop_assert!(items.iter().all(|i| i.count > 0 && i.count + 1 >= longest));
                    prop_assert!(
                        items.windows(2).all(|w| w[0].count >= w[1].count),
                        "the longer items come first: {:?}", items
                    );
                }
                // Trial threads cut with no cap: one item per trial.
                let units = queued(start, k, usize::MAX);
                prop_assert_eq!(units.len(), k);
                prop_assert!(units
                    .iter()
                    .zip(start..)
                    .all(|(u, i)| u.start == i && u.count == 1));
            }
        }
    }

    #[test]
    fn lanes_are_capped_at_the_trial_budget() {
        let plans = [Plan::range(0, 2), Plan::range(4, 1)];
        assert_eq!(lanes_for(&plans, 2), 2);
        assert_eq!(lanes_for(&plans, 8), 3);
        assert_eq!(lanes_for(&plans[1..], 4), 1);
        assert_eq!(lanes_for(&[], 4), 1);
    }
}
