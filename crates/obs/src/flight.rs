//! The flight recorder: per-thread fixed-size rings of tiny `Copy`
//! event records, continuously overwritten, snapshotted on demand.
//!
//! Where spans answer "what phases did *this request* go through", the
//! flight recorder answers "what was the *server* doing around the
//! anomaly": connection churn, backpressure pauses, memo invalidations,
//! batch formations, snapshot persists. Recording mirrors the span-ring
//! discipline — a [`record`] is a relaxed sequence fetch-add plus a
//! plain store into the calling thread's preallocated ring in its
//! attached [`Obs`], no contended lock and nothing at all under
//! `--no-obs`.
//!
//! Unlike span rings, a snapshot ([`Obs::flight`]) is **non-destructive**:
//! it copies every ring and sorts by the global sequence number, so
//! repeated `flight` RPCs and anomaly dumps see the same stable-order
//! recent history.
//!
//! The event vocabulary is closed: `kind` must be one of the
//! flight-recorder constants in [`crate::names`] (lint rule R6 checks
//! call sites), and the two numeric payload slots are documented there
//! per kind.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{lock, Obs};

/// Events kept per thread before the oldest is overwritten.
pub const FLIGHT_CAPACITY: usize = 256;

/// One recorded event. `Copy` so ring pushes are plain stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event kind (a [`crate::names`] flight constant).
    pub kind: &'static str,
    /// Global total order of the event across all threads.
    pub seq: u64,
    /// Recording time, µs since the process trace epoch.
    pub at_us: u64,
    /// First payload word; meaning is per-kind (see [`crate::names`]).
    pub a: u64,
    /// Second payload word; meaning is per-kind.
    pub b: u64,
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// Record one event on the calling thread's attached [`Obs`]. `kind`
/// must be a flight constant from [`crate::names`]; `a`/`b` are the
/// per-kind payload words.
pub fn record(kind: &'static str, a: u64, b: u64) {
    crate::with_thread_bufs(|_, bufs| {
        let event = FlightEvent {
            kind,
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            at_us: crate::trace::micros_now(),
            a,
            b,
        };
        lock(&bufs.flight).push(event);
    });
}

impl Obs {
    /// Copy the recent history out of every thread ring, in global
    /// sequence order (ties impossible: the sequence is process-unique).
    /// The rings are left untouched, so back-to-back snapshots agree on
    /// their overlap.
    pub fn flight(&self) -> Vec<FlightEvent> {
        let mut events = Vec::new();
        for bufs in self.all_thread_bufs() {
            events.extend(lock(&bufs.flight).copy_all());
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, Ring};

    #[test]
    fn ring_overwrites_oldest_and_copies_in_order() {
        let mut ring = Ring::new(FLIGHT_CAPACITY);
        let mk = |i: u64| FlightEvent {
            kind: names::BATCH_FORM,
            seq: i,
            at_us: i,
            a: 0,
            b: 0,
        };
        for i in 0..(FLIGHT_CAPACITY as u64 + 7) {
            ring.push(mk(i));
        }
        let copied = ring.copy_all();
        assert_eq!(copied.len(), FLIGHT_CAPACITY);
        for (k, e) in copied.iter().enumerate() {
            assert_eq!(e.seq, 7 + k as u64);
        }
        // Non-destructive: a second copy sees the same events.
        assert_eq!(ring.copy_all(), copied);
    }

    #[test]
    fn recorded_events_come_back_in_global_sequence_order() {
        let obs = Obs::new(true);
        let attached = obs.attach();
        record(names::CONN_OPEN, 11, 0);
        record(names::BACKPRESSURE_PAUSE, 11, 4096);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _attached = obs.attach();
                record(names::BACKPRESSURE_RESUME, 11, 0);
            });
        });
        record(names::CONN_CLOSE, 11, 0);
        drop(attached);
        record(names::CONN_OPEN, 12, 0); // no Obs attached: dropped
        let events = obs.flight();
        assert_eq!(events.len(), 4, "only this Obs's events: {events:?}");
        let mine: Vec<&FlightEvent> = events.iter().filter(|e| e.a == 11).collect();
        assert_eq!(mine.len(), 4);
        assert_eq!(mine[2].kind, names::BACKPRESSURE_RESUME);
        assert_eq!(mine[0].kind, names::CONN_OPEN);
        assert_eq!(mine[3].kind, names::CONN_CLOSE);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "global order is by seq");
        }
    }
}
