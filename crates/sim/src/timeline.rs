//! The shard-epoch flight recorder: typed wall-clock spans over the
//! sharded executor, with deterministic escalation attribution.
//!
//! The PR 3 metrics registry answers "how much?" in aggregate; this
//! module answers "where does wall-clock time go, and which access class
//! forces serialization?". A [`Timeline`] is a bounded ring of typed
//! [`Span`]s — per-epoch × per-lane phase A steps, phase B serial
//! replays, cache-tier/DRAM service intervals, crew worker park/run
//! intervals — plus escalation events tagged with an
//! [`EscalationCause`]. Like [`crate::tracelog::TraceLog`], the ring
//! drops **oldest-first** when full and counts what it dropped, so a
//! truncated timeline is always an honest suffix.
//!
//! # Determinism contract
//!
//! The recorder splits its content into two strata:
//!
//! * **Deterministic aggregates** — epoch counts, fast-slice counts, and
//!   the per-cause escalation counters. These are functions of simulated
//!   state alone (the batch composition and the A/B split never depend
//!   on host threads), so they are byte-identical at any `--jobs` /
//!   `--shards` value and feed the `cohesion-timeline/v1` summary
//!   document ([`TimelineSnapshot::summary_json`]).
//! * **Wall-clock spans** — host-time measurements that are *only*
//!   exported in the Chrome trace-event file, never in a deterministic
//!   document. Crew worker spans live in their own ring
//!   ([`CrewSpanLog`]) precisely so their host-dependent volume cannot
//!   perturb the main ring's deterministic drop counter.
//!
//! Disarmed (the default), every recording call is an inlined
//! early-return and the recorder allocates nothing — the same
//! zero-cost-when-off contract the metrics registry keeps.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::Cycle;

/// Default main-ring capacity in spans. Large enough to hold a tiny
/// run's full timeline; bigger runs keep an honest suffix (see
/// [`Timeline::dropped`]).
pub const DEFAULT_CAPACITY: usize = 65536;

/// Default per-worker capacity of the crew span ring.
pub const CREW_RING_CAPACITY: usize = 8192;

/// Why a slice left phase A for the serial path. The taxonomy follows
/// the escalation sites of the sharded executor: everything lane-local
/// stays in phase A, and each global resource that forces serialization
/// gets one cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscalationCause {
    /// A data or instruction line had to be fetched from the L3 and its
    /// home bank is owned by this lane, but a lane admission precondition
    /// failed (DRAM fill with a dirty victim, directory probe, profiled
    /// run, …) so the fetch still serialized.
    L3Local,
    /// A data or instruction line had to be fetched from an L3 bank
    /// owned by another lane — inherently cross-lane, always serial.
    L3Remote,
    /// A store needed the directory: an ownership upgrade, an HWcc miss
    /// transaction, or a non-silent victim bundled with the allocation.
    Directory,
    /// A software flush had a real writeback to send over the NoC.
    Noc,
    /// An atomic operation — uncached by design, always global.
    Atomic,
    /// Task dequeue or barrier arrival traffic (uncached atomics on the
    /// runtime's queue words).
    TaskQueue,
}

impl EscalationCause {
    /// Every cause, in label order as rendered in summaries.
    pub const ALL: [EscalationCause; 6] = [
        EscalationCause::Atomic,
        EscalationCause::Directory,
        EscalationCause::L3Local,
        EscalationCause::L3Remote,
        EscalationCause::Noc,
        EscalationCause::TaskQueue,
    ];

    /// Stable string label used in summaries and trace args.
    pub fn label(self) -> &'static str {
        match self {
            EscalationCause::L3Local => "l3-local",
            EscalationCause::L3Remote => "l3-remote",
            EscalationCause::Directory => "directory",
            EscalationCause::Noc => "noc",
            EscalationCause::Atomic => "atomic",
            EscalationCause::TaskQueue => "task-queue",
        }
    }

    /// Dense index for per-cause counter arrays.
    pub fn index(self) -> usize {
        match self {
            EscalationCause::L3Local => 0,
            EscalationCause::L3Remote => 1,
            EscalationCause::Directory => 2,
            EscalationCause::Noc => 3,
            EscalationCause::Atomic => 4,
            EscalationCause::TaskQueue => 5,
        }
    }

    /// The cause whose [`EscalationCause::index`] is `i`.
    pub fn from_index(i: usize) -> EscalationCause {
        match i {
            0 => EscalationCause::L3Local,
            1 => EscalationCause::L3Remote,
            2 => EscalationCause::Directory,
            3 => EscalationCause::Noc,
            4 => EscalationCause::Atomic,
            _ => EscalationCause::TaskQueue,
        }
    }
}

/// Number of escalation causes (length of per-cause counter arrays).
pub const CAUSES: usize = 6;

/// Which track a span belongs to in the exported trace: one per lane,
/// one per crew worker thread, and one serial track for phase B and the
/// global service path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The serial thread: phase B replay, L3/DRAM service.
    Serial,
    /// A cluster lane's phase A work (by lane index).
    Lane(u32),
    /// A crew worker thread (by worker index).
    Crew(u32),
}

/// One recorded interval (or instant, when `dur_us == 0` and the name
/// marks an event). Wall-clock fields are microseconds since the
/// recorder's epoch; `cycle` anchors the span in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Exported track.
    pub track: Track,
    /// Span kind (`"phase_a"`, `"phase_b"`, `"escalate"`,
    /// `"l3_service"`, `"dram_service"`, `"crew_run"`, `"crew_park"`).
    pub name: &'static str,
    /// Wall-clock start, microseconds since the recorder epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Simulated cycle the span is anchored to.
    pub cycle: Cycle,
    /// Escalation cause, for `"escalate"` events.
    pub cause: Option<EscalationCause>,
}

/// A frozen copy of a [`Timeline`], taken at end of run. The
/// wall-clock spans feed the Chrome trace export; the aggregate
/// counters feed the deterministic `cohesion-timeline/v1` summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSnapshot {
    /// Main-ring spans (lane/serial tracks), oldest first.
    pub spans: Vec<Span>,
    /// Spans dropped from the main ring (oldest-first eviction). A
    /// deterministic function of the run: the span *count* never
    /// depends on host threads, only their wall-clock fields do.
    pub dropped: u64,
    /// Crew worker park/run spans (host-dependent; trace export only).
    pub crew_spans: Vec<Span>,
    /// Spans dropped from the crew rings (host-dependent).
    pub crew_dropped: u64,
    /// Windows (epochs) pumped by the sharded executor.
    pub epochs: u64,
    /// Slices that completed entirely in phase A.
    pub fast_slices: u64,
    /// L2-miss line fetches serviced entirely in phase A on a
    /// lane-owned L3 bank — the events that would have been
    /// [`EscalationCause::L3Local`] escalations without bank ownership.
    pub l3_fast: u64,
    /// Escalated slices by [`EscalationCause::index`].
    pub escalated: [u64; CAUSES],
}

impl TimelineSnapshot {
    /// Total slices attempted in phase A.
    pub fn slices(&self) -> u64 {
        self.fast_slices + self.escalated_total()
    }

    /// Total escalations across all causes.
    pub fn escalated_total(&self) -> u64 {
        self.escalated.iter().sum()
    }

    /// The deterministic per-run summary object for the
    /// `cohesion-timeline/v1` document: counters and the escalation
    /// rate only — no wall-clock field ever appears here, which is what
    /// keeps the document byte-identical at any `--jobs`/`--shards`.
    pub fn summary_json(&self) -> String {
        let slices = self.slices();
        let rate = if slices == 0 {
            0.0
        } else {
            self.escalated_total() as f64 / slices as f64
        };
        let mut causes = String::new();
        for (i, c) in EscalationCause::ALL.iter().enumerate() {
            if i > 0 {
                causes.push_str(", ");
            }
            causes.push_str(&format!("\"{}\": {}", c.label(), self.escalated[c.index()]));
        }
        format!(
            "{{\"dropped_spans\": {}, \"epochs\": {}, \"escalated\": {{{}}}, \
             \"escalation_rate\": {:.6}, \"fast\": {}, \"l3_fast\": {}, \"slices\": {}}}",
            self.dropped, self.epochs, causes, rate, self.fast_slices, self.l3_fast, slices
        )
    }
}

/// The machine-owned flight recorder. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct Timeline {
    armed: bool,
    epoch: Instant,
    ring: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
    crew_spans: Vec<Span>,
    crew_dropped: u64,
    epochs: u64,
    fast_slices: u64,
    l3_fast: u64,
    escalated: [u64; CAUSES],
}

impl Timeline {
    /// A disarmed recorder: every call an early-return, no allocation.
    pub fn disarmed() -> Timeline {
        Timeline {
            armed: false,
            epoch: Instant::now(),
            ring: VecDeque::new(),
            capacity: 0,
            dropped: 0,
            crew_spans: Vec::new(),
            crew_dropped: 0,
            epochs: 0,
            fast_slices: 0,
            l3_fast: 0,
            escalated: [0; CAUSES],
        }
    }

    /// An armed recorder whose main ring holds up to `capacity` spans.
    pub fn armed(capacity: usize) -> Timeline {
        Timeline {
            armed: true,
            epoch: Instant::now(),
            ring: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity: capacity.max(1),
            ..Timeline::disarmed()
        }
    }

    /// Whether the recorder keeps anything at all.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The wall-clock instant all span timestamps are relative to.
    pub fn epoch_instant(&self) -> Instant {
        self.epoch
    }

    /// Microseconds elapsed since the recorder epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Starts a wall-clock measurement: `Some(now)` when armed, `None`
    /// (one branch, nothing measured) when disarmed.
    pub fn start(&self) -> Option<u64> {
        self.armed.then(|| self.now_us())
    }

    /// Pushes a span into the main ring, evicting oldest-first when the
    /// ring is full (the evicted span is counted in
    /// [`Timeline::dropped`]).
    pub fn push(&mut self, span: Span) {
        if !self.armed {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(span);
    }

    /// Records a serial-track service span that began at `start` (a
    /// token from [`Timeline::start`]); no-op when the token is `None`.
    pub fn service(&mut self, name: &'static str, start: Option<u64>, cycle: Cycle) {
        let Some(t0) = start else { return };
        let now = self.now_us();
        self.push(Span {
            track: Track::Serial,
            name,
            start_us: t0,
            dur_us: now.saturating_sub(t0),
            cycle,
            cause: None,
        });
    }

    /// Counts one executor window (epoch).
    pub fn note_window(&mut self) {
        if self.armed {
            self.epochs += 1;
        }
    }

    /// Drains a lane's window-local buffer into the main ring (call in
    /// fixed lane order for a deterministic drop sequence) and folds its
    /// deterministic counters.
    pub fn absorb_lane(&mut self, lane: &mut LaneTimeline) {
        if !self.armed || !lane.armed {
            return;
        }
        self.fast_slices += std::mem::take(&mut lane.fast);
        self.l3_fast += std::mem::take(&mut lane.l3_fast);
        for i in 0..CAUSES {
            self.escalated[i] += lane.escalated[i];
            lane.escalated[i] = 0;
        }
        for s in lane.spans.drain(..) {
            self.push(s);
        }
    }

    /// Drains the crew span rings (worker order) into the snapshot-only
    /// crew section. Crew volume is host-dependent, so it never touches
    /// the main ring or its deterministic drop counter.
    pub fn absorb_crew(&mut self, log: &CrewSpanLog) {
        if !self.armed {
            return;
        }
        let (spans, dropped) = log.drain();
        self.crew_spans.extend(spans);
        self.crew_dropped += dropped;
    }

    /// Spans dropped from the main ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Main-ring spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.ring.iter()
    }

    /// Freezes the recorder into a [`TimelineSnapshot`], or `None` when
    /// disarmed.
    pub fn snapshot(&self) -> Option<TimelineSnapshot> {
        if !self.armed {
            return None;
        }
        Some(TimelineSnapshot {
            spans: self.ring.iter().copied().collect(),
            dropped: self.dropped,
            crew_spans: self.crew_spans.clone(),
            crew_dropped: self.crew_dropped,
            epochs: self.epochs,
            fast_slices: self.fast_slices,
            l3_fast: self.l3_fast,
            escalated: self.escalated,
        })
    }
}

/// A lane's window-local recording buffer, absorbed into the machine
/// [`Timeline`] in fixed lane order after every window. Lives in the
/// lane scratch so phase A worker threads record without touching
/// shared state.
#[derive(Debug)]
pub struct LaneTimeline {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    fast: u64,
    l3_fast: u64,
    escalated: [u64; CAUSES],
}

impl LaneTimeline {
    /// A disarmed buffer (every call an early-return).
    pub fn disarmed() -> LaneTimeline {
        LaneTimeline {
            armed: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            fast: 0,
            l3_fast: 0,
            escalated: [0; CAUSES],
        }
    }

    /// An armed buffer sharing the machine recorder's `epoch` so its
    /// span timestamps land on the same clock.
    pub fn armed(epoch: Instant) -> LaneTimeline {
        LaneTimeline {
            armed: true,
            epoch,
            spans: Vec::new(),
            fast: 0,
            l3_fast: 0,
            escalated: [0; CAUSES],
        }
    }

    /// Whether the buffer records anything.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Microseconds since the shared epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Starts a wall-clock measurement (`None` when disarmed).
    pub fn start(&self) -> Option<u64> {
        self.armed.then(|| self.now_us())
    }

    /// Counts a slice that completed entirely in phase A.
    pub fn note_fast(&mut self) {
        if self.armed {
            self.fast += 1;
        }
    }

    /// Counts an L2-miss line fetch serviced entirely in phase A on a
    /// lane-owned L3 bank (an event that would have escalated as
    /// [`EscalationCause::L3Local`] without bank ownership).
    pub fn note_l3_fast(&mut self) {
        if self.armed {
            self.l3_fast += 1;
        }
    }

    /// Records a service span on the lane's own track that began at
    /// `start` (a token from [`LaneTimeline::start`]); no-op when the
    /// token is `None`. Used for `l3_service` spans serviced in phase A.
    pub fn service(&mut self, name: &'static str, lane: u32, start: Option<u64>, cycle: Cycle) {
        let Some(t0) = start else { return };
        let now = self.now_us();
        self.spans.push(Span {
            track: Track::Lane(lane),
            name,
            start_us: t0,
            dur_us: now.saturating_sub(t0),
            cycle,
            cause: None,
        });
    }

    /// Counts an escalation and records its instant event on the lane's
    /// track.
    pub fn note_escalation(&mut self, lane: u32, cycle: Cycle, cause: EscalationCause) {
        if !self.armed {
            return;
        }
        self.escalated[cause.index()] += 1;
        let now = self.now_us();
        self.spans.push(Span {
            track: Track::Lane(lane),
            name: "escalate",
            start_us: now,
            dur_us: 0,
            cycle,
            cause: Some(cause),
        });
    }

    /// Closes the lane's phase A span for this window; `start` is the
    /// token from [`LaneTimeline::start`].
    pub fn finish_phase_a(&mut self, lane: u32, start: Option<u64>, cycle: Cycle) {
        let Some(t0) = start else { return };
        let now = self.now_us();
        self.spans.push(Span {
            track: Track::Lane(lane),
            name: "phase_a",
            start_us: t0,
            dur_us: now.saturating_sub(t0),
            cycle,
            cause: None,
        });
    }
}

/// One crew worker's bounded span ring.
#[derive(Debug, Default)]
struct CrewRing {
    spans: VecDeque<Span>,
    dropped: u64,
}

/// Shared park/run recording for [`crate::crew::Crew`] worker threads.
/// Each worker owns one ring (its lock is uncontended in steady state);
/// rings are bounded with the same oldest-first drop accounting as the
/// main timeline, tracked separately because worker count — and hence
/// span volume — is host configuration, not simulated state.
#[derive(Debug)]
pub struct CrewSpanLog {
    epoch: Instant,
    capacity: usize,
    rings: Vec<Mutex<CrewRing>>,
}

impl CrewSpanLog {
    /// A log for `workers` crew threads, `capacity` spans per worker,
    /// timestamped against the machine recorder's `epoch`.
    pub fn new(workers: usize, epoch: Instant, capacity: usize) -> CrewSpanLog {
        CrewSpanLog {
            epoch,
            capacity: capacity.max(1),
            rings: (0..workers).map(|_| Mutex::new(CrewRing::default())).collect(),
        }
    }

    /// Microseconds since the shared epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one span on `worker`'s track. Out-of-range workers are
    /// ignored (defensive; the crew sizes the log).
    pub fn record(&self, worker: usize, name: &'static str, start_us: u64, dur_us: u64) {
        let Some(ring) = self.rings.get(worker) else { return };
        let mut r = ring.lock().unwrap();
        if r.spans.len() == self.capacity {
            r.spans.pop_front();
            r.dropped += 1;
        }
        r.spans.push_back(Span {
            track: Track::Crew(worker as u32),
            name,
            start_us,
            dur_us,
            cycle: 0,
            cause: None,
        });
    }

    /// Drains every ring (worker order) into `(spans, dropped_total)`.
    pub fn drain(&self) -> (Vec<Span>, u64) {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for ring in &self.rings {
            let mut r = ring.lock().unwrap();
            dropped += std::mem::take(&mut r.dropped);
            spans.extend(r.spans.drain(..));
        }
        (spans, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cycle: Cycle) -> Span {
        Span {
            track: Track::Serial,
            name,
            start_us: cycle,
            dur_us: 1,
            cycle,
            cause: None,
        }
    }

    #[test]
    fn disarmed_records_nothing() {
        let mut tl = Timeline::disarmed();
        tl.push(span("phase_b", 1));
        tl.note_window();
        assert!(tl.start().is_none());
        assert!(tl.snapshot().is_none());
        assert_eq!(tl.spans().count(), 0);
    }

    #[test]
    fn ring_drops_oldest_first_and_counts() {
        let mut tl = Timeline::armed(3);
        for c in 0..5 {
            tl.push(span("phase_b", c));
        }
        assert_eq!(tl.dropped(), 2, "two oldest evicted");
        let kept: Vec<Cycle> = tl.spans().map(|s| s.cycle).collect();
        assert_eq!(kept, vec![2, 3, 4], "the ring is a suffix");
        let snap = tl.snapshot().unwrap();
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.spans.len(), 3);
    }

    #[test]
    fn lane_counters_fold_in_and_reset() {
        let mut tl = Timeline::armed(16);
        let mut lane = LaneTimeline::armed(tl.epoch_instant());
        lane.note_fast();
        lane.note_fast();
        lane.note_l3_fast();
        lane.note_escalation(0, 7, EscalationCause::L3Remote);
        lane.note_escalation(0, 9, EscalationCause::TaskQueue);
        tl.absorb_lane(&mut lane);
        let snap = tl.snapshot().unwrap();
        assert_eq!(snap.fast_slices, 2);
        assert_eq!(snap.l3_fast, 1);
        assert_eq!(snap.escalated[EscalationCause::L3Remote.index()], 1);
        assert_eq!(snap.escalated[EscalationCause::TaskQueue.index()], 1);
        assert_eq!(snap.slices(), 4);
        assert_eq!(snap.spans.len(), 2, "escalation instants landed in the ring");
        // A second absorb adds nothing: the buffer was drained and reset.
        tl.absorb_lane(&mut lane);
        assert_eq!(tl.snapshot().unwrap().slices(), 4);
    }

    #[test]
    fn summary_json_is_deterministic_and_wall_free() {
        let snap = TimelineSnapshot {
            spans: vec![span("phase_a", 3)],
            dropped: 1,
            crew_spans: vec![span("crew_run", 0)],
            crew_dropped: 9,
            epochs: 4,
            fast_slices: 6,
            l3_fast: 3,
            escalated: {
                let mut e = [0; CAUSES];
                e[EscalationCause::Directory.index()] = 2;
                e
            },
        };
        let j = snap.summary_json();
        assert_eq!(
            j,
            "{\"dropped_spans\": 1, \"epochs\": 4, \"escalated\": {\"atomic\": 0, \
             \"directory\": 2, \"l3-local\": 0, \"l3-remote\": 0, \"noc\": 0, \
             \"task-queue\": 0}, \"escalation_rate\": 0.250000, \"fast\": 6, \
             \"l3_fast\": 3, \"slices\": 8}"
        );
        assert!(!j.contains("crew"), "crew (host) volume never in the summary");
        assert!(!j.contains("_us"), "no wall-clock field in the summary");
    }

    #[test]
    fn crew_log_bounds_each_worker_ring() {
        let log = CrewSpanLog::new(2, Instant::now(), 2);
        for i in 0..4 {
            log.record(0, "crew_run", i, 1);
        }
        log.record(1, "crew_park", 0, 5);
        log.record(99, "crew_run", 0, 1); // out of range: ignored
        let (spans, dropped) = log.drain();
        assert_eq!(dropped, 2);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| matches!(s.track, Track::Crew(0 | 1))));
        // Worker 0 kept the newest two.
        assert_eq!(spans[0].start_us, 2);
        assert_eq!(spans[1].start_us, 3);
    }

    #[test]
    fn cause_labels_round_trip_indices() {
        for c in EscalationCause::ALL {
            assert_eq!(EscalationCause::from_index(c.index()), c);
        }
        let labels: Vec<&str> = EscalationCause::ALL.iter().map(|c| c.label()).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted, "ALL is in label order");
    }
}
