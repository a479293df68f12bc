//! `rmsa-obs` — the workspace observability layer.
//!
//! Dependency-free (std only) so every crate down to `rmsa-store` can
//! instrument itself. All recorded state lives in an [`Obs`]: one per
//! serving daemon, so two daemons in one process never share a metric,
//! a trace or a flight event. Pieces:
//!
//! * [`metrics`] — a fixed table of sharded counters, gauges and atomic
//!   log-bucket histograms, indexed by the typed ids of the [`names`]
//!   catalog ([`Counter`], [`Gauge`], [`Histogram`]); a hot-path
//!   increment is one relaxed atomic add.
//! * [`trace`] — `Span` guards recording (name, parent, start,
//!   duration, fields) into per-thread ring buffers drained into the
//!   `Obs`'s bounded trace store; one request yields one phase tree.
//! * [`histogram`] — the log-bucket [`LogHistogram`].
//! * [`flight`] — the flight recorder: per-thread rings of tiny `Copy`
//!   server events (connection churn, backpressure, batch formations),
//!   snapshotted in stable global order on anomaly or on demand.
//!
//! Library code records through free functions and id methods
//! (`Counter::MemoHits.inc()`, `Span::child`, `flight::record`) that act
//! on the `Obs` [attached](Obs::attach) to the calling thread. With no
//! `Obs` attached, or a disabled one (`rmsa serve --no-obs`), recording
//! does nothing and allocates nothing; spans still *time* (they back
//! `RrCacheStats`/`SolveTiming` accessors).

pub mod flight;
pub mod histogram;
pub mod metrics;
pub mod names;
pub mod trace;

pub use flight::FlightEvent;
pub use histogram::LogHistogram;
pub use metrics::{Exemplar, MetricsSnapshot};
pub use names::{Counter, Gauge, Histogram};
pub use trace::{Span, SpanRecord, TraceSort, TraceStatus, TraceView};

use std::cell::{OnceCell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

/// The observability state of one daemon: its metric table, trace store
/// and tail-sampling stats, the per-thread span and flight rings of
/// every thread attached to it, and whether recording is on at all.
pub struct Obs {
    enabled: bool,
    pub(crate) metrics: metrics::MetricTable,
    pub(crate) traces: trace::TraceState,
    /// One buffer pair per thread that has recorded into this `Obs`.
    threads: Mutex<Vec<Arc<ThreadBufs>>>,
}

impl Obs {
    /// Fresh obs state; `enabled = false` (`--no-obs`) records nothing
    /// and reports nothing.
    pub fn new(enabled: bool) -> Arc<Obs> {
        Arc::new(Obs {
            enabled,
            metrics: metrics::MetricTable::default(),
            traces: trace::TraceState::default(),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Make this `Obs` the calling thread's current one until the guard
    /// drops (the previous attachment, if any, is then restored).
    pub fn attach(self: &Arc<Self>) -> ObsGuard {
        let attached = Attached {
            obs: Arc::clone(self),
            bufs: OnceCell::new(),
        };
        let prev = CURRENT.with(|c| c.replace(Some(attached)));
        ObsGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// The calling thread's buffers in this `Obs`, created on first use.
    fn thread_bufs(&self) -> Arc<ThreadBufs> {
        let me = std::thread::current().id();
        let mut threads = lock(&self.threads);
        if let Some(bufs) = threads.iter().find(|b| b.thread == me) {
            return Arc::clone(bufs);
        }
        let bufs = Arc::new(ThreadBufs {
            thread: me,
            spans: Mutex::new(Ring::new(trace::RING_CAPACITY)),
            flight: Mutex::new(Ring::new(flight::FLIGHT_CAPACITY)),
        });
        threads.push(Arc::clone(&bufs));
        bufs
    }

    /// Every thread's buffers, so a drain or snapshot reaches threads
    /// that have gone idle.
    pub(crate) fn all_thread_bufs(&self) -> Vec<Arc<ThreadBufs>> {
        lock(&self.threads).clone()
    }
}

/// Restores the thread's previous [`Obs`] attachment on drop.
pub struct ObsGuard {
    prev: Option<Attached>,
    /// The attachment is thread-local, so the guard must stay put.
    _not_send: PhantomData<*const ()>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let ours = CURRENT.with(|c| c.replace(prev));
        drop(ours);
    }
}

struct Attached {
    obs: Arc<Obs>,
    bufs: OnceCell<Arc<ThreadBufs>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Attached>> = const { RefCell::new(None) };
}

/// Run `f` on the calling thread's `Obs` if one is attached and enabled.
pub(crate) fn with_current(f: impl FnOnce(&Obs)) {
    CURRENT.with(|c| match &*c.borrow() {
        Some(a) if a.obs.enabled => f(&a.obs),
        _ => {}
    });
}

/// Run `f` on the calling thread's `Obs` and its buffers there, if an
/// enabled `Obs` is attached.
pub(crate) fn with_thread_bufs(f: impl FnOnce(&Obs, &ThreadBufs)) {
    CURRENT.with(|c| match &*c.borrow() {
        Some(a) if a.obs.enabled => f(&a.obs, a.bufs.get_or_init(|| a.obs.thread_bufs())),
        _ => {}
    });
}

/// Whether the calling thread records at all (an enabled `Obs` is
/// attached).
pub(crate) fn recording() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|a| a.obs.enabled))
}

/// One thread's span ring and flight ring inside one [`Obs`].
pub(crate) struct ThreadBufs {
    thread: ThreadId,
    pub(crate) spans: Mutex<Ring<SpanRecord>>,
    pub(crate) flight: Mutex<Ring<FlightEvent>>,
}

/// A fixed-capacity ring of `Copy` records; `head` is the next
/// overwrite position once the ring is full.
pub(crate) struct Ring<T: Copy> {
    buf: Vec<T>,
    capacity: usize,
    head: usize,
}

impl<T: Copy> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Copy out every record, oldest first, leaving the ring untouched.
    pub(crate) fn copy_all(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Remove and return every record, oldest first.
    pub(crate) fn take(&mut self) -> Vec<T> {
        let out = self.copy_all();
        self.buf.clear();
        self.head = 0;
        out
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
