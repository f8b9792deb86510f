//! Structured trace journal: Chrome trace-event export for sweeps.
//!
//! The coordinator records per-cell lifecycle events while a sharded run
//! executes — a *complete* span for every work item a lane serves
//! (dispatch → rows → response), and *instant* markers for faults (worker
//! deaths, respawns, retries) and adaptive doubling steps. `meg-lab run
//! --trace out.json` writes the journal in the [Chrome trace-event JSON
//! format], loadable in Perfetto or `chrome://tracing`: one timeline lane
//! per worker (`tid = lane`), plus a coordinator lane for control-loop
//! events.
//!
//! An in-process run records one complete span per cell, from its first
//! trial's start to its row's release. Cells overlap in time there (the
//! trial threads pull trials across cell boundaries), so each span goes to
//! the lowest lane that is free over its whole extent
//! ([`TraceJournal::complete_packed`]): no two overlapping spans share a
//! lane.
//!
//! Timestamps are microseconds on the coordinator's monotonic clock,
//! anchored at journal creation. All clock reads happen strictly outside
//! RNG-consuming code (workers run in other processes; the in-process path
//! reads the clock only between trials), so tracing a run cannot change a
//! single emitted row byte.
//!
//! [Chrome trace-event JSON format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::Json;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded event: a complete-phase span (`ph: "X"`) or an instant
/// marker (`ph: "i"`).
#[derive(Clone, Debug)]
struct TraceEvent {
    name: String,
    lane: usize,
    ts_us: u64,
    /// `Some(duration)` for complete spans, `None` for instants.
    dur_us: Option<u64>,
    /// The global cell index the event concerns, when it concerns one.
    cell: Option<usize>,
}

/// An append-only, thread-shared event journal for one sharded run.
///
/// Lanes `0 .. workers` belong to the worker pool; lane `workers` is the
/// coordinator's control loop. For `workers == 0`, lane 0 doubles as the
/// coordinator lane, and the in-process cell spans fill lanes 0, 1, … as
/// they overlap ([`TraceJournal::complete_packed`]).
pub struct TraceJournal {
    start: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceJournal {
    /// Opens a journal; its creation instant anchors every timestamp.
    pub fn new() -> TraceJournal {
        TraceJournal {
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds elapsed since the journal opened. Use as the `start_us`
    /// of a later [`TraceJournal::complete`] call.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records a complete-phase span on `lane` that began at `start_us`
    /// (from [`TraceJournal::now_us`]) and ends now.
    pub fn complete(&self, lane: usize, name: String, start_us: u64, cell: Option<usize>) {
        let dur = self.now_us().saturating_sub(start_us);
        self.events.lock().expect("trace lock").push(TraceEvent {
            name,
            lane,
            ts_us: start_us,
            dur_us: Some(dur),
            cell,
        });
    }

    /// Records a complete-phase span that began at `started` and ends now on
    /// the lowest lane whose complete spans all ended by `started`, and
    /// returns that lane. For spans that overlap in time, such as the cells
    /// of one in-process sweep.
    pub fn complete_packed(&self, name: String, started: Instant, cell: Option<usize>) -> usize {
        let start_us = u64::try_from(started.saturating_duration_since(self.start).as_micros())
            .unwrap_or(u64::MAX);
        let end_us = self.now_us().max(start_us);
        let mut events = self.events.lock().expect("trace lock");
        let mut busy_until: Vec<u64> = Vec::new();
        for ev in events.iter() {
            if let Some(dur) = ev.dur_us {
                if busy_until.len() <= ev.lane {
                    busy_until.resize(ev.lane + 1, 0);
                }
                busy_until[ev.lane] = busy_until[ev.lane].max(ev.ts_us + dur);
            }
        }
        let lane = busy_until
            .iter()
            .position(|&end| end <= start_us)
            .unwrap_or(busy_until.len());
        events.push(TraceEvent {
            name,
            lane,
            ts_us: start_us,
            dur_us: Some(end_us - start_us),
            cell,
        });
        lane
    }

    /// Number of lanes any event was recorded on (highest lane + 1).
    pub fn lanes(&self) -> usize {
        let events = self.events.lock().expect("trace lock");
        events.iter().map(|ev| ev.lane + 1).max().unwrap_or(0)
    }

    /// Records an instant marker on `lane` at the current time.
    pub fn instant(&self, lane: usize, name: String, cell: Option<usize>) {
        let ts_us = self.now_us();
        self.events.lock().expect("trace lock").push(TraceEvent {
            name,
            lane,
            ts_us,
            dur_us: None,
            cell,
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the journal as a Chrome trace-event JSON document.
    /// `lane_names` labels the timeline rows (index = lane) via
    /// `thread_name` metadata events.
    pub fn to_chrome_json(&self, lane_names: &[String]) -> Json {
        let mut events: Vec<Json> = lane_names
            .iter()
            .enumerate()
            .map(|(lane, name)| {
                Json::obj([
                    ("name", Json::Str("thread_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(lane as f64)),
                    ("args", Json::obj([("name", Json::Str(name.clone()))])),
                ])
            })
            .collect();
        for ev in self.events.lock().expect("trace lock").iter() {
            let mut pairs = vec![
                ("name".to_string(), Json::Str(ev.name.clone())),
                (
                    "ph".to_string(),
                    Json::Str(if ev.dur_us.is_some() { "X" } else { "i" }.into()),
                ),
                ("ts".to_string(), Json::Num(ev.ts_us as f64)),
            ];
            if let Some(dur) = ev.dur_us {
                pairs.push(("dur".to_string(), Json::Num(dur as f64)));
            } else {
                // Instant scope: thread-local, the narrowest marker.
                pairs.push(("s".to_string(), Json::Str("t".into())));
            }
            pairs.push(("pid".to_string(), Json::Num(1.0)));
            pairs.push(("tid".to_string(), Json::Num(ev.lane as f64)));
            if let Some(cell) = ev.cell {
                pairs.push((
                    "args".to_string(),
                    Json::obj([("cell", Json::Num(cell as f64))]),
                ));
            }
            events.push(Json::Obj(pairs));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    /// Writes the journal to `path` as Chrome trace-event JSON.
    pub fn write(&self, path: &Path, lane_names: &[String]) -> Result<(), super::DistError> {
        std::fs::write(path, self.to_chrome_json(lane_names).render())
            .map_err(|e| super::io_err(path, e))
    }
}

impl Default for TraceJournal {
    fn default() -> Self {
        TraceJournal::new()
    }
}

/// Timeline lane labels for a run with `workers` subprocesses: one per
/// worker plus the trailing coordinator lane (a single `in-process` lane
/// when `workers == 0`; the coordinator names any further packed
/// in-process lanes `in-process k`).
pub fn lane_names(workers: usize) -> Vec<String> {
    if workers == 0 {
        return vec!["in-process".to_string()];
    }
    let mut names: Vec<String> = (0..workers).map(|i| format!("worker {i}")).collect();
    names.push("coordinator".to_string());
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_renders_valid_chrome_trace_json() {
        let j = TraceJournal::new();
        let t0 = j.now_us();
        j.complete(0, "cell 3".into(), t0, Some(3));
        j.instant(1, "worker died".into(), Some(5));
        j.complete(2, "cell 5".into(), j.now_us(), Some(5));
        assert_eq!(j.len(), 3);

        let doc = j.to_chrome_json(&lane_names(2));
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 lane-name metadata events + 3 recorded events.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["M", "M", "M", "X", "i", "X"]);
        // Complete spans carry non-negative durations and their cell.
        let span = &events[3];
        assert!(span.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(
            span.get("args").unwrap().get("cell").unwrap().as_usize(),
            Some(3)
        );
        // Lane labels land on distinct tids.
        assert_eq!(events[2].get("tid").unwrap().as_usize(), Some(2));
        assert_eq!(
            events[2].get("args").unwrap().get("name").unwrap().as_str(),
            Some("coordinator")
        );
    }

    #[test]
    fn packed_spans_never_overlap_on_a_lane() {
        let j = TraceJournal::new();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t1 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        // Both began before either ended: they overlap, so lanes differ.
        assert_eq!(j.complete_packed("cell 0".into(), t0, Some(0)), 0);
        assert_eq!(j.complete_packed("cell 1".into(), t1, Some(1)), 1);
        // A span starting after both ended reuses the lowest lane.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t2 = Instant::now();
        assert_eq!(j.complete_packed("cell 2".into(), t2, Some(2)), 0);
        assert_eq!(j.lanes(), 2);
    }

    #[test]
    fn lane_names_cover_workers_plus_coordinator() {
        assert_eq!(lane_names(0), ["in-process"]);
        assert_eq!(lane_names(2), ["worker 0", "worker 1", "coordinator"]);
    }

    #[test]
    fn write_round_trips_through_a_file() {
        let j = TraceJournal::new();
        j.complete(0, "cell 0".into(), 0, Some(0));
        let path = std::env::temp_dir().join(format!("meg-trace-{}.json", std::process::id()));
        j.write(&path, &lane_names(0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
