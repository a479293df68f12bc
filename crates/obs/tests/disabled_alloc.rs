//! The `--no-obs` promise: with recording disabled — a disabled `Obs`
//! attached, or no `Obs` attached at all — the per-request obs path
//! performs zero heap allocations.
//!
//! A counting global allocator measures the allocation delta across a
//! burst of metric increments and span guards. Runs in its own
//! integration binary so the allocator cannot interfere with other
//! tests; each case measures on a thread of its own and counts only
//! that thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use rmsa_obs::{flight, names, trace, Counter, Gauge, Histogram, Obs, Span};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread while it measures (`None` when it
    /// does not), so tests measuring on parallel threads never see each
    /// other's allocations, nor the harness's.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by 1000 simulated requests on the calling thread,
/// after one warm-up request initializes anything lazily created
/// (thread-locals, the trace epoch).
fn allocations_per_1000_requests(obs: Option<&Obs>) -> u64 {
    simulated_request(trace::next_trace_id(), obs);
    ALLOCATIONS.with(|n| n.set(Some(0)));
    for _ in 0..1_000 {
        simulated_request(trace::next_trace_id(), obs);
    }
    ALLOCATIONS.with(|n| n.take()).unwrap_or_default()
}

#[test]
fn disabled_obs_path_allocates_nothing_per_request() {
    let obs = Obs::new(false);
    let delta = std::thread::spawn(move || {
        let _attached = obs.attach();
        allocations_per_1000_requests(Some(&obs))
    })
    .join()
    .expect("measuring thread joins");
    assert_eq!(
        delta, 0,
        "disabled obs path must not allocate ({delta} allocations across 1000 requests)"
    );
}

#[test]
fn unattached_thread_allocates_nothing_per_request() {
    let delta = std::thread::spawn(|| allocations_per_1000_requests(None))
        .join()
        .expect("measuring thread joins");
    assert_eq!(
        delta, 0,
        "recording with no Obs attached must not allocate ({delta} allocations across 1000 requests)"
    );
}

/// The full per-request obs surface: counters, gauges, histograms
/// (traced and untraced), an attached trace with nested spans, a
/// closed-span record, flight events, and the terminal finish on the
/// daemon's `Obs` (when there is one).
fn simulated_request(trace_id: u64, obs: Option<&Obs>) {
    Counter::RequestsTotal.inc();
    Gauge::QueueDepth.add(1);
    flight::record(names::BATCH_FORM, 1, 0);
    let enqueued = Instant::now();
    {
        let _guard = trace::attach(trace_id);
        trace::record_closed(trace_id, 0, names::BATCH_WAIT, enqueued, enqueued.elapsed());
        let warm = Span::child(names::WARM_CHECK);
        drop(warm);
        let mut solve = Span::child(names::SOLVE);
        solve.field("rr", 1000.0);
        let greedy = Span::child(names::GREEDY);
        let d = greedy.finish();
        Histogram::RpcSolveSecs.observe_duration(d);
        Histogram::RpcSolveSecs.observe_traced(d.as_secs_f64(), trace_id);
        drop(solve);
    }
    if let Some(obs) = obs {
        obs.finish_trace(trace_id, enqueued.elapsed().as_secs_f64(), 0);
    }
    Gauge::QueueDepth.add(-1);
}
