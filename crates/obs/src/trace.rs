//! Span-based tracing: per-thread ring buffers drained into the bounded
//! trace store of the thread's attached [`Obs`].
//!
//! A request's trace id is minted in the event loop ([`next_trace_id`])
//! and carried to worker threads, which [`attach`] it before serving the
//! job; from there, [`Span::child`] guards picked up through thread-local
//! context build the phase tree (parse → admit → batch_wait → warm_check
//! → solve{generate, index, greedy} → serialize → flush). Finished spans
//! are `Copy` records pushed into a preallocated per-thread ring —
//! recording never allocates and never takes a contended lock. Rings
//! overwrite their oldest span when full; they drain into the `Obs`'s
//! [`TraceStore`] when a trace detaches with a half-full ring, and
//! force-drain when the `trace` RPC snapshots the store.
//!
//! Every span *times* unconditionally (construction captures
//! `Instant::now`, so spans double as the measurement source behind
//! `RrCacheStats`/`SolveTiming` accessors even under `--no-obs`);
//! *recording* happens only when an enabled `Obs` and a trace are both
//! attached.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::names::Counter;
use crate::{lock, Obs};

/// Spans kept per thread before the oldest is overwritten.
pub const RING_CAPACITY: usize = 256;

/// A ring past this fill level is drained into the store when its trace
/// detaches.
const DRAIN_THRESHOLD: usize = RING_CAPACITY / 2;

/// Traces retained in the store (FIFO eviction).
const MAX_TRACES: usize = 64;

/// Spans retained per trace (later spans are dropped, not torn).
const MAX_SPANS_PER_TRACE: usize = 128;

/// Slow/error traces pinned out of FIFO eviction (tail samples).
const MAX_PINNED: usize = 32;

/// Terminal outcomes remembered for status joins in trace views.
const MAX_OUTCOMES: usize = 256;

/// Finished requests needed before the rolling slow threshold arms;
/// below this everything is "not slow" (errors still pin).
const TAIL_MIN_SAMPLES: u64 = 32;

/// The rolling latency quantile a trace must exceed to be tail-sampled.
const TAIL_QUANTILE: f64 = 0.90;

/// Finished requests between rotations of the rolling latency window
/// (two generations: the threshold reflects the last 1–2 windows).
const TAIL_ROTATE_EVERY: u64 = 512;

/// Inline key/value fields carried by a span.
pub const MAX_FIELDS: usize = 2;

/// One finished span. `Copy` so ring pushes are plain stores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to (never 0).
    pub trace: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id, 0 for phase-tree roots.
    pub parent: u64,
    /// Phase name (a [`crate::names`] constant).
    pub name: &'static str,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Inline numeric fields; only the first `nfields` are meaningful.
    pub fields: [(&'static str, f64); MAX_FIELDS],
    /// Number of populated `fields`.
    pub nfields: u8,
}

impl SpanRecord {
    /// The populated fields.
    pub fn fields(&self) -> &[(&'static str, f64)] {
        &self.fields[..self.nfields as usize]
    }
}

/// How a trace's request ended, if its completion was observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceStatus {
    /// No terminal outcome recorded (in flight, or status aged out).
    #[default]
    Unknown,
    /// The response was delivered without an error.
    Ok,
    /// The response carried this wire error code.
    Error(u32),
}

/// All spans of one trace, in arrival order.
#[derive(Clone, Debug, Default)]
pub struct TraceView {
    /// The trace id.
    pub trace: u64,
    /// Spans recorded under it (start-ordered by [`Obs::traces`]).
    pub spans: Vec<SpanRecord>,
    /// Terminal status joined from [`Obs::finish_trace`].
    pub status: TraceStatus,
    /// Whether the trace sits in the tail-sample (pinned) store.
    pub pinned: bool,
}

impl TraceView {
    /// Wall-clock extent of the trace: latest end minus earliest start.
    pub fn total_us(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = self
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0);
        end.saturating_sub(start)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros_since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_micros() as u64
}

/// Now, in µs since the process trace epoch — the clock span records
/// and exemplar timestamps share.
pub fn micros_now() -> u64 {
    micros_since_epoch(Instant::now())
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh nonzero trace id (called once per request, in the event
/// loop).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// `(trace, current span id)` — the ambient context [`Span::child`]
    /// parents itself under. `(0, _)` means no trace attached.
    static CONTEXT: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// One trace grouped in the store.
struct TraceEntry {
    trace: u64,
    spans: Vec<SpanRecord>,
}

/// The bounded trace store: FIFO over traces, capped per trace,
/// plus the tail-sample (pinned) store and a terminal-status journal.
#[derive(Default)]
struct TraceStore {
    entries: std::collections::VecDeque<TraceEntry>,
    /// Slow/error traces copied out of FIFO eviction at finish time.
    pinned: std::collections::VecDeque<TraceEntry>,
    /// `(trace, status)` of recently finished requests, oldest first.
    outcomes: std::collections::VecDeque<(u64, TraceStatus)>,
}

impl TraceStore {
    fn absorb(&mut self, records: Vec<SpanRecord>) {
        for rec in records {
            if !self.entries.iter().rev().any(|e| e.trace == rec.trace) {
                while self.entries.len() >= MAX_TRACES {
                    self.entries.pop_front();
                }
                self.entries.push_back(TraceEntry {
                    trace: rec.trace,
                    spans: Vec::new(),
                });
            }
            let entry = self.entries.iter_mut().rev().find(|e| e.trace == rec.trace);
            if let Some(entry) = entry {
                if entry.spans.len() < MAX_SPANS_PER_TRACE {
                    entry.spans.push(rec);
                }
            }
        }
    }

    fn status_of(&self, trace: u64) -> TraceStatus {
        self.outcomes
            .iter()
            .rev()
            .find(|(t, _)| *t == trace)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    fn record_outcome(&mut self, trace: u64, status: TraceStatus) {
        while self.outcomes.len() >= MAX_OUTCOMES {
            self.outcomes.pop_front();
        }
        self.outcomes.push_back((trace, status));
    }

    /// Copy `trace`'s spans from the FIFO into the pinned store (no-op
    /// when the trace is already pinned or recorded no spans).
    fn pin(&mut self, trace: u64) -> bool {
        if self.pinned.iter().any(|e| e.trace == trace) {
            return false;
        }
        let Some(entry) = self.entries.iter().find(|e| e.trace == trace) else {
            return false;
        };
        while self.pinned.len() >= MAX_PINNED {
            self.pinned.pop_front();
        }
        self.pinned.push_back(TraceEntry {
            trace: entry.trace,
            spans: entry.spans.clone(),
        });
        true
    }
}

/// The rolling end-to-end latency window behind the tail-sampling
/// threshold. Separate from the store lock (taken first, released
/// before any store work) so the hot finish path never serializes on
/// span drains.
struct TailStats {
    current: crate::histogram::LogHistogram,
    previous: crate::histogram::LogHistogram,
    finished: u64,
    threshold_secs: f64,
}

impl Default for TailStats {
    fn default() -> Self {
        TailStats {
            current: crate::histogram::LogHistogram::new(),
            previous: crate::histogram::LogHistogram::new(),
            finished: 0,
            threshold_secs: f64::INFINITY,
        }
    }
}

/// The trace half of an [`Obs`]: the span store and the tail sampler.
#[derive(Default)]
pub(crate) struct TraceState {
    store: Mutex<TraceStore>,
    tail: Mutex<TailStats>,
}

/// How traces are ordered by [`Obs::traces`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSort {
    /// Most recently started first.
    Recent,
    /// Longest wall-clock extent first.
    Slow,
}

fn view_of(store: &TraceStore, entry: &TraceEntry, pinned: bool) -> TraceView {
    let mut spans = entry.spans.clone();
    spans.sort_by_key(|s| (s.start_us, s.id));
    TraceView {
        trace: entry.trace,
        spans,
        status: store.status_of(entry.trace),
        pinned,
    }
}

impl Obs {
    /// The current rolling slow threshold in seconds; `f64::INFINITY`
    /// until [`TAIL_MIN_SAMPLES`] requests have finished.
    pub fn tail_threshold_secs(&self) -> f64 {
        lock(&self.traces.tail).threshold_secs
    }

    /// Traces currently held in the tail-sample store.
    pub fn pinned_count(&self) -> usize {
        lock(&self.traces.store).pinned.len()
    }

    /// Record the terminal outcome of `trace`'s request: joins status
    /// into trace views and **tail-samples** the trace — slow (end-to-end
    /// latency above the rolling [`TAIL_QUANTILE`] of the last 1–2
    /// windows) or error traces are pinned into a bounded store that FIFO
    /// eviction cannot touch, so the trace behind a tail exemplar stays
    /// retrievable.
    pub fn finish_trace(&self, trace: u64, total_secs: f64, error_code: u32) {
        if trace == 0 || !self.enabled() {
            return;
        }
        let slow = {
            let mut stats = lock(&self.traces.tail);
            stats.current.record(total_secs.max(0.0));
            stats.finished += 1;
            if stats.finished.is_multiple_of(TAIL_ROTATE_EVERY) {
                stats.previous = std::mem::take(&mut stats.current);
            }
            // Recompute the threshold periodically — a quantile walk over
            // the merged generations is cheap but not free.
            if stats.finished.is_multiple_of(16) || stats.finished == TAIL_MIN_SAMPLES {
                let mut merged = stats.previous.clone();
                merged.merge(&stats.current);
                stats.threshold_secs = if merged.count() >= TAIL_MIN_SAMPLES {
                    merged.quantile_secs(TAIL_QUANTILE)
                } else {
                    f64::INFINITY
                };
            }
            stats.finished >= TAIL_MIN_SAMPLES && total_secs > stats.threshold_secs
        };
        let status = if error_code == 0 {
            TraceStatus::Ok
        } else {
            TraceStatus::Error(error_code)
        };
        let pin = slow || error_code != 0;
        if pin {
            // Pull the trace's spans out of thread rings before copying,
            // so the pinned entry is complete as of finish time.
            self.drain_all();
        }
        let mut guard = lock(&self.traces.store);
        guard.record_outcome(trace, status);
        if pin && guard.pin(trace) {
            drop(guard);
            self.metrics.counter(Counter::TracesPinnedTotal).add(1);
        }
    }

    /// Drain every thread ring into the store (RPC-time barrier, so
    /// `trace` responses see spans from all threads).
    pub fn drain_all(&self) {
        let mut drained = Vec::new();
        for bufs in self.all_thread_bufs() {
            drained.append(&mut lock(&bufs.spans).take());
        }
        if !drained.is_empty() {
            lock(&self.traces.store).absorb(drained);
        }
    }

    /// Snapshot up to `limit` traces from the store (after a full
    /// drain), spans start-ordered within each trace. Pinned tail samples
    /// are included alongside the FIFO (a trace living in both appears
    /// once, flagged pinned).
    pub fn traces(&self, limit: usize, sort: TraceSort) -> Vec<TraceView> {
        self.drain_all();
        let guard = lock(&self.traces.store);
        let pinned_ids: std::collections::BTreeSet<u64> =
            guard.pinned.iter().map(|e| e.trace).collect();
        let mut views: Vec<TraceView> = guard
            .pinned
            .iter()
            .map(|e| view_of(&guard, e, true))
            .chain(
                guard
                    .entries
                    .iter()
                    .filter(|e| !pinned_ids.contains(&e.trace))
                    .map(|e| view_of(&guard, e, false)),
            )
            .collect();
        drop(guard);
        match sort {
            TraceSort::Recent => views.reverse(),
            TraceSort::Slow => views.sort_by_key(|v| std::cmp::Reverse(v.total_us())),
        }
        views.truncate(limit);
        views
    }

    /// All spans recorded under one trace id (after a full drain). The
    /// tail-sample store is searched first, so pinned traces resolve long
    /// after FIFO eviction would have dropped them.
    pub fn trace_by_id(&self, trace: u64) -> Option<TraceView> {
        self.drain_all();
        let guard = lock(&self.traces.store);
        if let Some(e) = guard.pinned.iter().find(|e| e.trace == trace) {
            return Some(view_of(&guard, e, true));
        }
        guard
            .entries
            .iter()
            .find(|e| e.trace == trace)
            .map(|e| view_of(&guard, e, false))
    }
}

/// Attaches `trace` as the thread's ambient context for the guard's
/// lifetime; [`Span::child`] spans opened underneath parent into it.
pub struct TraceGuard {
    prev: (u64, u64),
}

/// Make `trace` the calling thread's ambient trace. Pass the id minted
/// by the event loop before serving a job.
pub fn attach(trace: u64) -> TraceGuard {
    let prev = CONTEXT.with(|c| c.replace((trace, 0)));
    TraceGuard { prev }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
        // Opportunistic drain: move a half-full ring into the store now,
        // while the pushes are cache-hot, instead of at RPC time.
        crate::with_thread_bufs(|obs, bufs| {
            let full = lock(&bufs.spans).len() >= DRAIN_THRESHOLD;
            if full {
                obs.drain_all();
            }
        });
    }
}

/// A timing guard. Always measures; records into the trace store only
/// when an enabled [`Obs`] and a trace were attached at construction.
pub struct Span {
    name: &'static str,
    start: Instant,
    /// 0 ⇒ inert (no recording on drop).
    trace: u64,
    id: u64,
    prev: (u64, u64),
    fields: [(&'static str, f64); MAX_FIELDS],
    nfields: u8,
}

impl Span {
    fn inert(name: &'static str, start: Instant) -> Span {
        Span {
            name,
            start,
            trace: 0,
            id: 0,
            prev: (0, 0),
            fields: [("", 0.0); MAX_FIELDS],
            nfields: 0,
        }
    }

    /// Open a span under the thread's ambient context ([`attach`]).
    /// Becomes the ambient parent for nested children until dropped.
    pub fn child(name: &'static str) -> Span {
        let start = Instant::now();
        let (trace, parent) = CONTEXT.with(|c| c.get());
        if trace == 0 || !crate::recording() {
            return Span::inert(name, start);
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        CONTEXT.with(|c| c.set((trace, id)));
        Span {
            name,
            start,
            trace,
            id,
            prev: (trace, parent),
            fields: [("", 0.0); MAX_FIELDS],
            nfields: 0,
        }
    }

    /// Open a root span of an explicit trace without touching the
    /// thread's ambient context (event-loop side, where requests
    /// interleave on one thread).
    pub fn detached(trace: u64, name: &'static str) -> Span {
        let start = Instant::now();
        if trace == 0 || !crate::recording() {
            return Span::inert(name, start);
        }
        Span {
            name,
            start,
            trace,
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            prev: (0, 0),
            fields: [("", 0.0); MAX_FIELDS],
            nfields: 0,
        }
    }

    /// Attach a numeric field (silently dropped past [`MAX_FIELDS`]).
    pub fn field(&mut self, name: &'static str, value: f64) {
        if (self.nfields as usize) < MAX_FIELDS {
            self.fields[self.nfields as usize] = (name, value);
            self.nfields += 1;
        }
    }

    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Close the span and return its measured duration.
    pub fn finish(self) -> Duration {
        let d = self.start.elapsed();
        drop(self);
        d
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.trace == 0 {
            return;
        }
        if self.prev.0 != 0 {
            CONTEXT.with(|c| c.set(self.prev));
        }
        let rec = SpanRecord {
            trace: self.trace,
            id: self.id,
            parent: if self.prev.0 != 0 { self.prev.1 } else { 0 },
            name: self.name,
            start_us: micros_since_epoch(self.start),
            dur_us: self.start.elapsed().as_micros() as u64,
            fields: self.fields,
            nfields: self.nfields,
        };
        crate::with_thread_bufs(|_, bufs| lock(&bufs.spans).push(rec));
    }
}

/// Record an already-measured phase (e.g. queue wait, known only when
/// the worker dequeues the job) as a closed span of `trace`.
pub fn record_closed(trace: u64, parent: u64, name: &'static str, start: Instant, dur: Duration) {
    if trace == 0 {
        return;
    }
    crate::with_thread_bufs(|_, bufs| {
        let rec = SpanRecord {
            trace,
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_us: micros_since_epoch(start),
            dur_us: dur.as_micros() as u64,
            fields: [("", 0.0); MAX_FIELDS],
            nfields: 0,
        };
        lock(&bufs.spans).push(rec);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ring;
    use std::sync::Arc;

    /// A fresh enabled `Obs`, attached to the test thread.
    fn attached() -> (Arc<Obs>, crate::ObsGuard) {
        let obs = Obs::new(true);
        let guard = obs.attach();
        (obs, guard)
    }

    #[test]
    fn ring_wraparound_drops_oldest_without_tearing() {
        let mut ring = Ring::new(RING_CAPACITY);
        let mk = |i: u64| SpanRecord {
            trace: 999_000,
            id: i,
            parent: 0,
            name: "t",
            start_us: i,
            dur_us: 1,
            fields: [("", 0.0); MAX_FIELDS],
            nfields: 0,
        };
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(mk(i));
        }
        let drained = ring.take();
        assert_eq!(drained.len(), RING_CAPACITY);
        // Oldest 10 dropped; survivors contiguous and in order.
        for (k, rec) in drained.iter().enumerate() {
            assert_eq!(rec.id, 10 + k as u64);
        }
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn child_spans_nest_under_the_attached_trace() {
        let (obs, _attached) = attached();
        let trace = next_trace_id();
        let (root_id, child_name);
        {
            let _guard = attach(trace);
            let root = Span::child("warm_check");
            root_id = root.id;
            {
                let child = Span::child("generate");
                child_name = child.name;
                assert_eq!(child.prev, (trace, root_id));
            }
        }
        let view = obs.trace_by_id(trace).expect("trace recorded");
        assert_eq!(view.spans.len(), 2);
        let child = view.spans.iter().find(|s| s.name == "generate").unwrap();
        let root = view.spans.iter().find(|s| s.name == "warm_check").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, 0);
        assert_eq!(root.id, root_id);
        assert_eq!(child_name, "generate");
    }

    #[test]
    fn detached_and_closed_spans_join_the_same_trace() {
        let (obs, _attached) = attached();
        let trace = next_trace_id();
        let t0 = Instant::now();
        {
            let mut s = Span::detached(trace, "parse");
            s.field("bytes", 128.0);
        }
        record_closed(trace, 0, "batch_wait", t0, Duration::from_micros(250));
        let view = obs.trace_by_id(trace).expect("trace recorded");
        let names: Vec<&str> = view.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"parse") && names.contains(&"batch_wait"));
        let parse = view.spans.iter().find(|s| s.name == "parse").unwrap();
        assert_eq!(parse.fields(), &[("bytes", 128.0)]);
    }

    #[test]
    fn error_traces_pin_and_survive_fifo_eviction() {
        let (obs, _attached) = attached();
        let trace = next_trace_id();
        record_closed(
            trace,
            0,
            "solve",
            Instant::now(),
            Duration::from_micros(900),
        );
        obs.finish_trace(trace, 0.0009, 7);
        let view = obs.trace_by_id(trace).expect("error trace pinned");
        assert!(view.pinned);
        assert_eq!(view.status, TraceStatus::Error(7));
        assert_eq!(obs.pinned_count(), 1);
        assert_eq!(obs.counter(Counter::TracesPinnedTotal), 1);
        // Push 2×MAX_TRACES fresh traces through the FIFO: the pinned
        // copy must still resolve.
        for _ in 0..(2 * MAX_TRACES) {
            record_closed(
                next_trace_id(),
                0,
                "solve",
                Instant::now(),
                Duration::from_micros(1),
            );
        }
        obs.drain_all();
        let view = obs
            .trace_by_id(trace)
            .expect("pinned trace survives eviction");
        assert!(view.pinned);
        assert_eq!(view.spans.len(), 1);
    }

    #[test]
    fn ok_finishes_join_status_without_pinning() {
        let (obs, _attached) = attached();
        let trace = next_trace_id();
        record_closed(trace, 0, "solve", Instant::now(), Duration::from_micros(5));
        obs.finish_trace(trace, 5e-6, 0);
        let view = obs.trace_by_id(trace).expect("trace recorded");
        assert_eq!(view.status, TraceStatus::Ok);
        // A single fast ok finish must not pin (threshold unarmed ⇒
        // infinite, and no error code).
        assert!(!view.pinned);
        assert_eq!(obs.pinned_count(), 0);
    }

    #[test]
    fn slow_finishes_pin_once_the_rolling_threshold_arms() {
        let (obs, _attached) = attached();
        // Arm the threshold with a population of fast finishes, then
        // finish one trace far in the tail.
        assert!(obs.tail_threshold_secs().is_infinite());
        for _ in 0..(TAIL_MIN_SAMPLES + 16) {
            obs.finish_trace(next_trace_id(), 0.001, 0);
        }
        assert!(obs.tail_threshold_secs().is_finite());
        let slow = next_trace_id();
        record_closed(slow, 0, "solve", Instant::now(), Duration::from_secs(1));
        obs.finish_trace(slow, 1.0, 0);
        let view = obs.trace_by_id(slow).expect("slow trace retrievable");
        assert!(view.pinned, "1 s against a 1 ms population must pin");
        assert_eq!(view.status, TraceStatus::Ok);
    }

    #[test]
    fn store_evicts_whole_traces_fifo() {
        let (obs, _attached) = attached();
        let ids: Vec<u64> = (0..2 * MAX_TRACES).map(|_| next_trace_id()).collect();
        for &id in &ids {
            record_closed(id, 0, "solve", Instant::now(), Duration::from_micros(1));
        }
        obs.drain_all();
        assert!(obs.trace_by_id(ids[0]).is_none(), "oldest trace evicted");
        assert!(obs.trace_by_id(ids[ids.len() - 1]).is_some());
        assert_eq!(obs.traces(usize::MAX, TraceSort::Recent).len(), MAX_TRACES);
    }
}
