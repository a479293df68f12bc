//! Metric-table and trace-store behavior under real thread contention.
//! Every test owns its [`Obs`], so tests running in parallel in this
//! binary never see each other's records.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmsa_obs::trace::{self, RING_CAPACITY};
use rmsa_obs::{Counter, Gauge, Histogram, Obs, Span};

const THREADS: usize = 8;
const PER_THREAD: u64 = 50_000;

/// Run `work(t)` on `THREADS` threads, each attached to `obs`, released
/// together so they contend.
fn on_threads(obs: &Arc<Obs>, work: impl Fn(u64) + Sync) {
    let go = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 1..=THREADS as u64 {
            let (go, work) = (&go, &work);
            s.spawn(move || {
                let _attached = obs.attach();
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                work(t);
            });
        }
        go.store(true, Ordering::Release);
    });
}

#[test]
fn counter_increments_from_8_threads_sum_exactly() {
    let obs = Obs::new(true);
    on_threads(&obs, |_| {
        for _ in 0..PER_THREAD {
            Counter::RequestsTotal.add(1);
        }
    });
    assert_eq!(
        obs.counter(Counter::RequestsTotal),
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn histogram_increments_from_8_threads_sum_exactly() {
    let obs = Obs::new(true);
    // Values exact in binary so the CAS-looped f64 sum is
    // order-independent.
    let values = [0.5f64, 0.25, 0.125, 1.0];
    on_threads(&obs, |t| {
        for i in 0..PER_THREAD {
            Histogram::RpcSolveSecs.observe(values[(t + i) as usize % values.len()]);
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    let snap = obs.histogram(Histogram::RpcSolveSecs);
    assert_eq!(snap.count(), total);
    assert_eq!(snap.max_secs(), 1.0);
    let expected_sum: f64 = (0.5 + 0.25 + 0.125 + 1.0) / 4.0 * total as f64;
    assert_eq!(snap.mean_secs() * total as f64, expected_sum);
}

#[test]
fn exemplar_reservoir_under_8_thread_contention_stays_untorn_and_bounded() {
    let obs = Obs::new(true);
    // Every thread hammers the SAME two buckets with values encoding
    // the writing trace, so torn (trace, value) pairs are detectable:
    // value 2^-t µs-scale offsets make each (trace, value) pair unique.
    on_threads(&obs, |t| {
        // Two buckets: ~1 ms and ~100 ms; the fractional tail encodes
        // the trace id exactly in binary.
        for i in 0..10_000u64 {
            let base = if i % 2 == 0 { 1e-3 } else { 100e-3 };
            Histogram::RpcSolveSecs.observe_traced(base * (1.0 + t as f64 / 1024.0), t);
        }
    });
    let (_, exemplars) = obs
        .metrics()
        .exemplars
        .into_iter()
        .find(|(name, _)| *name == Histogram::RpcSolveSecs.name())
        .expect("every catalog histogram is reported");
    // Bounded: at most slots-per-bucket exemplars per touched bucket
    // (two buckets here, but neighbouring bucket spill from the ×(1+t/1024)
    // factor is possible — the hard bound is the reservoir size).
    assert!(!exemplars.is_empty(), "contended writes still publish");
    assert!(
        exemplars.len() <= 8,
        "reservoir stays bounded: {exemplars:?}"
    );
    // Untorn: every surviving exemplar's value must be exactly the
    // value its trace wrote — a torn record would pair trace t with
    // another thread's value bits.
    for e in &exemplars {
        assert!((1..=THREADS as u64).contains(&e.trace));
        let small = 1e-3 * (1.0 + e.trace as f64 / 1024.0);
        let big = 100e-3 * (1.0 + e.trace as f64 / 1024.0);
        assert!(
            e.value_secs == small || e.value_secs == big,
            "torn exemplar: trace {} with value {}",
            e.trace,
            e.value_secs
        );
    }
}

#[test]
fn gauge_adds_from_8_threads_cancel_exactly() {
    let obs = Obs::new(true);
    on_threads(&obs, |_| {
        for _ in 0..PER_THREAD {
            Gauge::QueueDepth.add(3);
            Gauge::QueueDepth.add(-3);
        }
    });
    assert_eq!(obs.gauge(Gauge::QueueDepth), 0);
}

#[test]
fn ring_overflow_on_one_thread_keeps_the_newest_spans() {
    // Push far more spans than one ring holds, under a single trace, on
    // a dedicated thread (rings are per-thread). The wraparound must
    // keep the newest RING_CAPACITY records intact — ids in order, no
    // torn or duplicated records.
    let obs = Obs::new(true);
    let producer = Arc::clone(&obs);
    let trace_id = std::thread::spawn(move || {
        let _attached = producer.attach();
        let t = trace::next_trace_id();
        let start = Instant::now();
        for _ in 0..(3 * RING_CAPACITY) {
            trace::record_closed(t, 0, "solve", start, Duration::from_micros(1));
        }
        t
    })
    .join()
    .expect("producer joins");
    let view = obs
        .trace_by_id(trace_id)
        .expect("trace survives wraparound");
    // The store caps spans per trace below RING_CAPACITY; what matters
    // is that the drained records are the *newest* window, in order.
    let ids: Vec<u64> = view.spans.iter().map(|s| s.id).collect();
    assert!(!ids.is_empty());
    // Ids are strictly increasing (not necessarily contiguous — span
    // ids are process-wide, and other tests in this binary mint them
    // concurrently).
    for w in ids.windows(2) {
        assert!(w[1] > w[0], "drained span ids stay in push order");
    }
    assert!(view.spans.iter().all(|s| s.trace == trace_id));
}

#[test]
fn concurrent_span_recording_from_8_threads_loses_nothing_under_capacity() {
    // Each thread records a modest number of spans (below every cap) on
    // its own trace; all of them must land in the store untorn.
    let obs = Obs::new(true);
    let per_thread = 32u64;
    let traces = std::sync::Mutex::new(Vec::new());
    on_threads(&obs, |_| {
        let t = trace::next_trace_id();
        {
            let _guard = trace::attach(t);
            for _ in 0..per_thread {
                let mut s = Span::child("generate");
                s.field("n", 1.0);
            }
        }
        traces.lock().expect("traces").push(t);
    });
    let traces = traces.into_inner().expect("traces");
    assert_eq!(traces.len(), THREADS);
    for t in traces {
        let view = obs.trace_by_id(t).expect("trace present");
        assert_eq!(view.spans.len(), per_thread as usize);
        assert!(view
            .spans
            .iter()
            .all(|s| s.name == "generate" && s.fields() == [("n", 1.0)]));
    }
}

#[test]
fn two_obs_recording_concurrently_never_mix() {
    // Two daemons' worth of obs state, each recorded from its own
    // threads at the same time: every record lands in its own Obs.
    let (a, b) = (Obs::new(true), Obs::new(true));
    std::thread::scope(|s| {
        s.spawn(|| on_threads(&a, |_| Counter::MemoHits.add(1)));
        s.spawn(|| {
            on_threads(&b, |_| {
                Counter::MemoMisses.add(1);
                rmsa_obs::flight::record(rmsa_obs::names::BATCH_FORM, 1, 0);
            })
        });
    });
    assert_eq!(a.counter(Counter::MemoHits), THREADS as u64);
    assert_eq!(a.counter(Counter::MemoMisses), 0);
    assert!(a.flight().is_empty());
    assert_eq!(b.counter(Counter::MemoHits), 0);
    assert_eq!(b.counter(Counter::MemoMisses), THREADS as u64);
    assert_eq!(b.flight().len(), THREADS);
}
