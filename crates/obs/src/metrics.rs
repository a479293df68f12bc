//! The metric table of an [`Obs`]: sharded counters, gauges, and atomic
//! log-bucket histograms in three fixed arrays indexed by the typed ids
//! of the [`crate::names`] catalog.
//!
//! Hot-path discipline: recording through an id ([`Counter::add`],
//! [`Gauge::set`], [`Histogram::observe`], …) is one thread-local read
//! (the attached [`Obs`]), one enabled check and one relaxed atomic on a
//! preallocated cell — no lock, no lookup, no allocation.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use crate::histogram::{self, LogHistogram};
use crate::names::{Counter, Gauge, Histogram};
use crate::Obs;

/// Counter shards; 8 covers the worker-pool widths we run.
const SHARDS: usize = 8;

/// A cache-line padded atomic cell, so counter shards do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Stable small id for the calling thread, assigned on first use.
fn shard_index() -> usize {
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|slot| {
        let cached = slot.get();
        if cached != usize::MAX {
            return cached;
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let idx = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
        slot.set(idx);
        idx
    })
}

/// A monotonically increasing counter, sharded per thread.
///
/// Relaxed `fetch_add`s on distinct shards still sum exactly: every
/// increment lands in exactly one shard and
/// [`value`](ShardedCounter::value) reads all of them.
#[derive(Default)]
pub(crate) struct ShardedCounter {
    shards: [PaddedU64; SHARDS],
}

impl ShardedCounter {
    /// Add `n`.
    pub(crate) fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all shards.
    pub(crate) fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// Exemplar slots kept per histogram bucket. Two means a bucket keeps
/// the most recent exemplar even while a concurrent writer holds the
/// other slot mid-publish.
const EXEMPLAR_SLOTS_PER_BUCKET: usize = 2;

/// One exemplar read back out of a reservoir: a concrete sample in a
/// bucket, linked to the trace that produced it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exemplar {
    /// Trace id of the request that recorded the sample (never 0).
    pub trace: u64,
    /// The exact sample value, seconds.
    pub value_secs: f64,
    /// Recording time, µs since the process trace epoch.
    pub at_us: u64,
}

/// A lock-free exemplar slot: a seqlock over three payload words.
///
/// Writers claim the slot by CAS-ing the sequence from even to odd
/// (losing the race just drops the exemplar — sampling, not accounting),
/// store the payload, then publish by bumping the sequence back to even.
/// Readers retry/skip on an odd or changed sequence, so a torn
/// `(trace, value, at)` triple can never be observed.
#[derive(Default)]
struct ExemplarSlot {
    seq: AtomicU64,
    trace: AtomicU64,
    value_bits: AtomicU64,
    at_us: AtomicU64,
}

impl ExemplarSlot {
    fn publish(&self, trace: u64, value_secs: f64, at_us: u64) -> bool {
        let seq = self.seq.load(Ordering::Relaxed);
        if seq % 2 == 1 {
            return false; // a writer is mid-publish; drop the exemplar
        }
        if self
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.trace.store(trace, Ordering::Relaxed);
        self.value_bits
            .store(value_secs.to_bits(), Ordering::Relaxed);
        self.at_us.store(at_us, Ordering::Relaxed);
        self.seq.store(seq + 2, Ordering::Release);
        true
    }

    fn read(&self) -> Option<Exemplar> {
        for _ in 0..4 {
            let before = self.seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                return None;
            }
            let trace = self.trace.load(Ordering::Relaxed);
            let value_bits = self.value_bits.load(Ordering::Relaxed);
            let at_us = self.at_us.load(Ordering::Relaxed);
            if self.seq.load(Ordering::Acquire) == before {
                if trace == 0 {
                    return None; // never written
                }
                return Some(Exemplar {
                    trace,
                    value_secs: f64::from_bits(value_bits),
                    at_us,
                });
            }
        }
        None
    }
}

/// An atomic counterpart of [`LogHistogram`]: same bucket layout, but
/// recordable from any thread without a lock.
///
/// The running sum and max keep f64 bit patterns in atomics — the sum
/// via a CAS loop, the max via `fetch_max`, which orders correctly
/// because non-negative IEEE-754 doubles compare like their bits. Each
/// bucket additionally carries a tiny seqlock reservoir of
/// [`Exemplar`]s, so any bucket of the live histogram links back to a
/// concrete retrievable trace.
pub(crate) struct ConcurrentHistogram {
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
    exemplars: Vec<ExemplarSlot>,
}

impl Default for ConcurrentHistogram {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(histogram::NUM_BUCKETS);
        buckets.resize_with(histogram::NUM_BUCKETS, AtomicU64::default);
        let mut exemplars = Vec::with_capacity(histogram::NUM_BUCKETS * EXEMPLAR_SLOTS_PER_BUCKET);
        exemplars.resize_with(
            histogram::NUM_BUCKETS * EXEMPLAR_SLOTS_PER_BUCKET,
            ExemplarSlot::default,
        );
        ConcurrentHistogram {
            buckets,
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            max_bits: AtomicU64::new(0.0f64.to_bits()),
            exemplars,
        }
    }
}

impl ConcurrentHistogram {
    /// Record one sample (clamped to ≥ 0, like [`LogHistogram::record`])
    /// and, when `trace` is nonzero, stash a `(trace, value, time)`
    /// exemplar into the sample's bucket reservoir. Lock-free and allocation-free; a lost publish race
    /// silently drops the exemplar, never the sample.
    pub(crate) fn observe_traced(&self, secs: f64, trace: u64) {
        let secs = secs.max(0.0);
        let bucket = LogHistogram::bucket_of(secs);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + secs).to_bits())
            });
        self.max_bits.fetch_max(secs.to_bits(), Ordering::Relaxed);
        if trace != 0 {
            let at_us = crate::trace::micros_now();
            let base = bucket * EXEMPLAR_SLOTS_PER_BUCKET;
            for slot in &self.exemplars[base..base + EXEMPLAR_SLOTS_PER_BUCKET] {
                if slot.publish(trace, secs, at_us) {
                    break;
                }
            }
        }
    }

    /// Every currently readable exemplar, slowest first. Bounded by
    /// `buckets × slots`; in practice only touched buckets contribute.
    pub(crate) fn exemplars(&self) -> Vec<Exemplar> {
        let mut out: Vec<Exemplar> = self
            .exemplars
            .iter()
            .filter_map(ExemplarSlot::read)
            .collect();
        out.sort_by(|a, b| {
            b.value_secs
                .total_cmp(&a.value_secs)
                .then(b.at_us.cmp(&a.at_us))
        });
        out
    }

    /// A point-in-time [`LogHistogram`] copy for quantile queries.
    pub(crate) fn snapshot(&self) -> LogHistogram {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total = counts.iter().sum();
        LogHistogram::from_parts(
            counts,
            total,
            f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        )
    }
}

/// The fixed metric cells of one [`Obs`], one per catalog id.
#[derive(Default)]
pub(crate) struct MetricTable {
    counters: [ShardedCounter; Counter::ALL.len()],
    gauges: [AtomicI64; Gauge::ALL.len()],
    histograms: [ConcurrentHistogram; Histogram::ALL.len()],
}

impl MetricTable {
    pub(crate) fn counter(&self, id: Counter) -> &ShardedCounter {
        &self.counters[id as usize]
    }

    fn gauge(&self, id: Gauge) -> &AtomicI64 {
        &self.gauges[id as usize]
    }

    fn histogram(&self, id: Histogram) -> &ConcurrentHistogram {
        &self.histograms[id as usize]
    }
}

impl Counter {
    /// Add 1 on the calling thread's attached [`Obs`].
    pub fn inc(self) {
        self.add(1);
    }

    /// Add `n` on the calling thread's attached [`Obs`].
    pub fn add(self, n: u64) {
        crate::with_current(|obs| obs.metrics.counter(self).add(n));
    }
}

impl Gauge {
    /// Add `delta` (may be negative) on the calling thread's attached
    /// [`Obs`].
    pub fn add(self, delta: i64) {
        crate::with_current(|obs| {
            obs.metrics.gauge(self).fetch_add(delta, Ordering::Relaxed);
        });
    }

    /// Overwrite the value on the calling thread's attached [`Obs`].
    pub fn set(self, value: i64) {
        crate::with_current(|obs| obs.metrics.gauge(self).store(value, Ordering::Relaxed));
    }
}

impl Histogram {
    /// Record one sample on the calling thread's attached [`Obs`].
    pub fn observe(self, secs: f64) {
        self.observe_traced(secs, 0);
    }

    /// Record one sample with an exemplar link to `trace` (nonzero): a
    /// lock-free per-bucket reservoir keeps recent `(trace, value)`
    /// pairs, so a histogram bucket leads back to a retrievable trace.
    pub fn observe_traced(self, secs: f64, trace: u64) {
        crate::with_current(|obs| obs.metrics.histogram(self).observe_traced(secs, trace));
    }

    /// Record a [`std::time::Duration`] sample.
    pub fn observe_duration(self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Run `f`, recording its wall-clock duration as one sample. The
    /// timer always runs (it is not observable from `f`); only the
    /// recording depends on an enabled [`Obs`] being attached.
    pub fn time<T>(self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.observe_duration(start.elapsed());
        out
    }
}

/// A point-in-time copy of every catalog metric, name-sorted.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(&'static str, i64)>,
    /// `(name, histogram)` for every histogram.
    pub histograms: Vec<(&'static str, LogHistogram)>,
    /// `(name, exemplars)` for every histogram, aligned with
    /// [`histograms`](Self::histograms); exemplars are slowest-first.
    pub exemplars: Vec<(&'static str, Vec<Exemplar>)>,
}

/// `(name, value)` for every id in `ids`, sorted by name.
fn by_name<I: Copy, V>(
    ids: &[I],
    name: fn(I) -> &'static str,
    value: impl Fn(I) -> V,
) -> Vec<(&'static str, V)> {
    let mut out: Vec<_> = ids.iter().map(|&id| (name(id), value(id))).collect();
    out.sort_by_key(|(name, _)| *name);
    out
}

impl Obs {
    /// Snapshot every catalog metric, zeros included, sorted by name; a
    /// disabled `Obs` reports nothing.
    pub fn metrics(&self) -> MetricsSnapshot {
        if !self.enabled() {
            return MetricsSnapshot::default();
        }
        let m = &self.metrics;
        MetricsSnapshot {
            counters: by_name(Counter::ALL, Counter::name, |id| m.counter(id).value()),
            gauges: by_name(Gauge::ALL, Gauge::name, |id| self.gauge(id)),
            histograms: by_name(Histogram::ALL, Histogram::name, |id| self.histogram(id)),
            exemplars: by_name(Histogram::ALL, Histogram::name, |id| {
                m.histogram(id).exemplars()
            }),
        }
    }

    /// The current total of one counter.
    pub fn counter(&self, id: Counter) -> u64 {
        self.metrics.counter(id).value()
    }

    /// The current value of one gauge.
    pub fn gauge(&self, id: Gauge) -> i64 {
        self.metrics.gauge(id).load(Ordering::Relaxed)
    }

    /// A point-in-time copy of one histogram.
    pub fn histogram(&self, id: Histogram) -> LogHistogram {
        self.metrics.histogram(id).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counter_sums_exactly() {
        let c = ShardedCounter::default();
        c.add(3);
        c.add(4);
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn gauge_tracks_add_sub_set() {
        let obs = Obs::new(true);
        let _attached = obs.attach();
        Gauge::QueueDepth.add(10);
        Gauge::QueueDepth.add(-4);
        assert_eq!(obs.gauge(Gauge::QueueDepth), 6);
        Gauge::QueueDepth.set(-1);
        assert_eq!(obs.gauge(Gauge::QueueDepth), -1);
    }

    #[test]
    fn concurrent_histogram_snapshot_matches_serial_recording() {
        let ch = ConcurrentHistogram::default();
        let mut serial = LogHistogram::new();
        for i in 1..=100 {
            let v = i as f64 * 1e-3;
            ch.observe_traced(v, 0);
            serial.record(v);
        }
        let snap = ch.snapshot();
        assert_eq!(snap.count(), serial.count());
        assert_eq!(snap.max_secs(), serial.max_secs());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(snap.quantile_secs(q), serial.quantile_secs(q));
        }
    }

    #[test]
    fn exemplars_link_buckets_back_to_traces() {
        let ch = ConcurrentHistogram::default();
        ch.observe_traced(1e-3, 0); // untraced: no exemplar
        ch.observe_traced(2e-3, 41);
        ch.observe_traced(64e-3, 42);
        let ex = ch.exemplars();
        assert_eq!(ex.len(), 2);
        // Slowest first, exact values and trace links preserved.
        assert_eq!(ex[0].trace, 42);
        assert_eq!(ex[0].value_secs, 64e-3);
        assert_eq!(ex[1].trace, 41);
        assert_eq!(ex[1].value_secs, 2e-3);
        // A newer sample in the same bucket replaces an older slot
        // eventually (two slots per bucket; the third write reuses one).
        ch.observe_traced(2e-3, 43);
        ch.observe_traced(2e-3, 44);
        let ex = ch.exemplars();
        assert!(ex.len() <= 1 + EXEMPLAR_SLOTS_PER_BUCKET);
        assert!(ex.iter().any(|e| e.trace == 44));
    }

    #[test]
    fn catalog_ids_address_their_own_cells() {
        let obs = Obs::new(true);
        {
            let _attached = obs.attach();
            Counter::MemoHits.add(2);
            Histogram::BatchSize.observe(3.0);
        }
        // Detached again: recording goes nowhere.
        Counter::MemoHits.inc();
        assert_eq!(obs.counter(Counter::MemoHits), 2);
        assert_eq!(obs.counter(Counter::MemoMisses), 0);
        assert_eq!(obs.histogram(Histogram::BatchSize).count(), 1);

        // Every catalog metric is reported from the start, zeros
        // included, name-sorted, under unique names.
        let snap = obs.metrics();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), Counter::ALL.len());
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert!(snap.counters.contains(&("memo_hits", 2)));
        assert!(snap.counters.contains(&("responses_total", 0)));
        assert_eq!(snap.gauges.len(), Gauge::ALL.len());
        assert_eq!(snap.histograms.len(), Histogram::ALL.len());
        assert_eq!(snap.exemplars.len(), Histogram::ALL.len());

        // A disabled Obs records and reports nothing.
        let off = Obs::new(false);
        let _attached = off.attach();
        Counter::MemoHits.inc();
        assert_eq!(off.counter(Counter::MemoHits), 0);
        let empty = off.metrics();
        assert!(empty.counters.is_empty() && empty.gauges.is_empty());
        assert!(empty.histograms.is_empty());
    }
}
