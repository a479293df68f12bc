//! The single-threaded readiness event loop behind `rmsa serve`.
//!
//! One thread owns the listening socket and every connection. Each
//! iteration: wait on the [`Poller`], pick up [`Completion`]s workers
//! pushed through the wake pipe, read whatever sockets are readable,
//! parse newline-delimited requests, and flush whatever responses are
//! ready to leave — all non-blocking, so no client can stall the loop
//! and no solver ever touches a socket.
//!
//! **Pipelining ordering invariant.** Every parsed request line gets the
//! next per-connection sequence number; responses park in an ordered
//! buffer keyed by that sequence and are appended to the write buffer
//! strictly in sequence order. Clients may therefore keep hundreds of
//! requests in flight on one connection and still match responses to
//! requests positionally — the echoed `id` is a convenience, not a
//! requirement. Cheap control requests (`ping`, `stats`, `shutdown`) are
//! answered inline by the loop but travel through the same ordered
//! buffer, so they never overtake an earlier solve on the same
//! connection. Every answer, whichever path gave it, ends in
//! `close_request`: counted in `responses_total` (and `errors_total`),
//! with its trace finished.
//!
//! **Inline memo hits.** A solve is answered inline too when memoization
//! is on, its session is already resident (never built or waited for
//! here), warm, and holds a memo entry of the current warm epoch for the
//! request's class. The line splices the entry's pre-rendered result
//! bytes with an all-zero timing block (`batch_size: 0`), parks in the
//! same ordered buffer, and is accounted like a worker response
//! (`memo_hits`, `responses_total`, `rpc_solve_secs`, trace, SLO checks).
//! Misses, cold sessions and warm-ups go through the admission queue;
//! `requests_total` and `inflight` count only those.
//!
//! **Backpressure.** A connection pauses reading (its registration is
//! muted, bytes accumulate in the kernel) while `max_inflight` of its
//! parsed requests have not reached the write buffer — queued jobs and
//! finished lines parked behind an unfinished one alike — or while more
//! than [`WRITE_PAUSE_BYTES`] of responses are unflushed. A slow reader
//! throttles only itself, and a client that floods inline requests
//! behind a cold solve parks at most the window. Solver threads hand
//! finished responses back as pre-rendered lines via the poller's wake
//! pipe; they never block on, or even see, a socket.
//!
//! **Shutdown drain.** After a `shutdown` request (or
//! [`crate::ServiceHandle::shutdown`]) the loop stops accepting, refuses
//! new requests with `shutting-down` errors, serves everything already
//! admitted, flushes every connection, and exits — or gives up after a
//! grace period if a dead client never drains its responses.

use crate::lock_unpoisoned;
use crate::net::{Event, Interest, Poller, WAKE_TOKEN};
use crate::server::{
    enqueue, error_code_of, render_solve_line, shutting_down_error, Job, JobKind, Reply, Shared,
};
use crate::session::SessionKey;
use crate::wire::{ErrorCode, Request, Response, SolveTiming, WireError, WIRE_MIN_SCHEMA_VERSION};
use rmsa_obs::{flight, names, trace, Counter, Gauge, Histogram, Span};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Token of the listening socket; connection tokens are `slot index + 1`.
const LISTENER_TOKEN: u64 = 0;

/// Hard cap on one request line; beyond it the connection is answered
/// with a `bad-request` error and drained no further.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Unflushed-response bytes beyond which a connection stops reading.
const WRITE_PAUSE_BYTES: usize = 256 << 10;

/// Poller timeout while serving; bounds how stale the shutdown-flag
/// check can get even if no event ever arrives.
const IDLE_WAIT_MS: i32 = 500;

/// Poller timeout while draining for shutdown.
const DRAIN_WAIT_MS: i32 = 20;

/// Error budget of the latency objective: 99 % of solves within
/// `--slo-ms`, so over-threshold fraction 0.01 sustains burn 1000.
const SLO_BUDGET: f64 = 0.01;

/// Seconds of per-second delta history behind the burn windows.
const SLO_SLOTS: usize = 60;

/// Minimum spacing between anomaly flight dumps (shutdown bypasses it).
const FLIGHT_DUMP_SPACING: Duration = Duration::from_secs(1);

/// How long the drain waits for clients to read their last responses
/// before the daemon exits anyway.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

struct Conn {
    stream: TcpStream,
    /// Guards stale completions: a worker's [`Reply`] only routes back
    /// here if the slot was not reused by a newer connection meanwhile.
    generation: u64,
    interest: Interest,
    /// Unparsed request bytes (no complete line yet, or reading paused).
    rbuf: Vec<u8>,
    /// Rendered response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Sequence number the next parsed request line will get.
    next_seq: u64,
    /// Sequence number the next flushed response must have.
    flush_seq: u64,
    /// Finished responses waiting for their turn in sequence order.
    done: BTreeMap<u64, String>,
    /// Requests handed to the admission queue and not yet completed.
    inflight: usize,
    eof: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            interest: Interest::READ,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            flush_seq: 0,
            done: BTreeMap::new(),
            inflight: 0,
            eof: false,
            dead: false,
        }
    }

    /// Response bytes queued but not yet written to the socket.
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Park a finished response line at its sequence slot. A line whose
    /// turn has come moves straight on to the write buffer, so
    /// `parked_responses` only ever counts lines behind an unfinished
    /// request.
    fn finish(&mut self, seq: u64, line: String) {
        self.done.insert(seq, line);
        Gauge::ParkedResponses.add(1);
        self.stage();
    }

    /// Requests parsed whose answers have not reached the write buffer:
    /// queued jobs plus finished lines parked behind an unfinished one.
    fn outstanding(&self) -> usize {
        (self.next_seq - self.flush_seq) as usize
    }

    /// Move every finished line whose turn has come to the write buffer.
    fn stage(&mut self) {
        let (seq, bytes) = (self.flush_seq, self.wbuf.len());
        while let Some(line) = self.done.remove(&self.flush_seq) {
            self.wbuf.extend_from_slice(line.as_bytes());
            self.wbuf.push(b'\n');
            self.flush_seq += 1;
        }
        if self.flush_seq != seq {
            Gauge::ParkedResponses.add(-((self.flush_seq - seq) as i64));
            Gauge::WriteBufferBytes.add((self.wbuf.len() - bytes) as i64);
        }
    }

    /// Whether the pipelining window admits another request. Every parsed
    /// request holds a slot until its line reaches the write buffer, so
    /// inline answers parked behind an unfinished solve count like queued
    /// jobs and a non-reading client cannot grow `done` without bound.
    fn window_open(&mut self, max_inflight: usize) -> bool {
        self.stage();
        self.outstanding() < max_inflight
    }

    /// Nothing left to read, serve, or flush.
    fn drained(&self) -> bool {
        self.inflight == 0 && self.done.is_empty() && self.pending_write() == 0
    }
}

/// Rolling SLO accounting plus anomaly flight-dump throttling, owned by
/// the event loop. Once a second it snapshots the solve-latency
/// histogram, banks the per-second (total, over-threshold) deltas in a
/// 60-slot ring, and refreshes the `slo_burn_{1s,10s,60s}_milli`
/// gauges. The threshold is bucket-granular ([`rmsa_obs::LogHistogram`]
/// `count_over`), which is exactly the resolution the histogram has.
struct SloState {
    total: [u64; SLO_SLOTS],
    over: [u64; SLO_SLOTS],
    pos: usize,
    seen_total: u64,
    seen_over: u64,
    last_tick: Instant,
    last_dump: Option<Instant>,
}

impl SloState {
    fn new() -> SloState {
        SloState {
            total: [0; SLO_SLOTS],
            over: [0; SLO_SLOTS],
            pos: 0,
            seen_total: 0,
            seen_over: 0,
            last_tick: Instant::now(),
            last_dump: None,
        }
    }

    /// Bank one per-second delta and refresh the burn gauges; a no-op
    /// until a second has passed since the last tick (the poller wakes
    /// the loop at least every [`IDLE_WAIT_MS`]).
    fn tick(&mut self, shared: &Shared) {
        if !shared.obs.enabled() || self.last_tick.elapsed() < Duration::from_secs(1) {
            return;
        }
        self.last_tick = Instant::now();
        let snap = shared.obs.histogram(Histogram::RpcSolveSecs);
        let total = snap.count();
        let over = snap.count_over(shared.slo_secs);
        self.pos = (self.pos + 1) % SLO_SLOTS;
        self.total[self.pos] = total.saturating_sub(self.seen_total);
        self.over[self.pos] = over.saturating_sub(self.seen_over);
        self.seen_total = total;
        self.seen_over = over;
        Gauge::SloBurn1s.set(self.burn_milli(1));
        Gauge::SloBurn10s.set(self.burn_milli(10));
        Gauge::SloBurn60s.set(self.burn_milli(60));
    }

    /// Burn rate over the trailing `window` slots, milli-units.
    fn burn_milli(&self, window: usize) -> i64 {
        let mut total = 0u64;
        let mut over = 0u64;
        for k in 0..window.min(SLO_SLOTS) {
            let i = (self.pos + SLO_SLOTS - k) % SLO_SLOTS;
            total += self.total[i];
            over += self.over[i];
        }
        if total == 0 {
            0
        } else {
            ((over as f64 / total as f64) / SLO_BUDGET * 1000.0).round() as i64
        }
    }

    /// Write the flight recorder to the `--flight-dump` file, at most
    /// once per [`FLIGHT_DUMP_SPACING`] unless forced (shutdown).
    fn dump(&mut self, shared: &Shared, reason: &str, trace: u64, detail: u64, force: bool) {
        let Some(path) = shared.flight_dump.as_deref() else {
            return;
        };
        if !force
            && self
                .last_dump
                .is_some_and(|at| at.elapsed() < FLIGHT_DUMP_SPACING)
        {
            return;
        }
        self.last_dump = Some(Instant::now());
        write_flight_dump(shared, path, reason, trace, detail);
    }
}

/// Dump the flight recorder to `path` (tmp file + rename, so readers
/// never see a torn document).
fn write_flight_dump(shared: &Shared, path: &Path, reason: &str, trace: u64, detail: u64) {
    let doc = crate::obs_report::flight_dump_json(&shared.obs, reason, trace, detail);
    let tmp = path.with_extension("tmp");
    let written =
        std::fs::write(&tmp, doc.render_pretty() + "\n").and_then(|()| std::fs::rename(&tmp, path));
    match written {
        Ok(()) => Counter::FlightDumpsTotal.inc(),
        Err(e) => eprintln!("rmsa serve: flight dump to {} failed: {e}", path.display()),
    }
}

#[cfg(unix)]
fn fd_of<T: std::os::fd::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    // The scan backend (the only one off unix) never dereferences fds;
    // it only needs distinct registration slots, which tokens provide.
    -1
}

/// Run the loop until shutdown completes. Takes ownership of the
/// listener and poller; `shared` connects it to the worker pool.
pub(crate) fn run(listener: TcpListener, mut poller: Poller, shared: &Shared) {
    let listener_fd = fd_of(&listener);
    poller.register(listener_fd, LISTENER_TOKEN, Interest::READ);
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut generations: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut accepting = true;
    let mut drain_deadline: Option<Instant> = None;
    let mut slo = SloState::new();

    loop {
        events.clear();
        let timeout = if drain_deadline.is_some() {
            DRAIN_WAIT_MS
        } else {
            IDLE_WAIT_MS
        };
        poller.wait(&mut events, timeout);

        // Route worker completions first so this iteration's write pass
        // can flush them (and so freed pipeline slots resume reading).
        deliver_completions(shared, &mut slots, &mut slo);
        slo.tick(shared);

        for event in &events {
            match event.token {
                WAKE_TOKEN => {} // already handled above
                LISTENER_TOKEN => {
                    if accepting {
                        accept_ready(
                            &listener,
                            &mut poller,
                            &mut slots,
                            &mut free,
                            &mut generations,
                        );
                    }
                }
                token => {
                    let index = (token - 1) as usize;
                    if let Some(conn) = slots.get_mut(index).and_then(Option::as_mut) {
                        if event.readable && !conn.dead {
                            read_ready(shared, conn, token, &mut slo);
                        }
                    }
                }
            }
        }

        // Per-connection progress pass: resume paused parsers, move
        // in-order responses to the write buffer, push bytes, retire
        // finished or broken connections, refresh registrations.
        for (index, slot) in slots.iter_mut().enumerate() {
            let token = index as u64 + 1;
            let mut close = false;
            if let Some(conn) = slot.as_mut() {
                if !conn.dead {
                    process_lines(shared, conn, token, &mut slo);
                }
                advance_writes(conn);
                close = conn.dead || (conn.eof && conn.drained());
                if !close {
                    update_interest(&mut poller, conn, token, shared);
                }
            }
            if close {
                if let Some(conn) = slot.take() {
                    // Keep the aggregate gauges honest for work this
                    // connection takes to the grave.
                    Gauge::Inflight.add(-(conn.inflight as i64));
                    Gauge::WriteBufferBytes.add(-(conn.pending_write() as i64));
                    Gauge::ParkedResponses.add(-(conn.done.len() as i64));
                    poller.deregister(fd_of(&conn.stream));
                    flight::record(names::CONN_CLOSE, token, 0);
                    free.push(index);
                }
            }
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            if accepting {
                accepting = false;
                poller.deregister(listener_fd);
                drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                flight::record(names::ANOMALY_SHUTDOWN, 0, 0);
                slo.dump(shared, "shutdown", 0, 0, true);
            }
            let queue_empty = lock_unpoisoned(&shared.queue).is_empty();
            let completions_empty = lock_unpoisoned(&shared.completions).is_empty();
            let flushed = slots.iter().flatten().all(Conn::drained);
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if (queue_empty && completions_empty && flushed) || expired {
                break;
            }
        }
    }
}

/// Accept until `WouldBlock`, registering each connection read-only.
fn accept_ready(
    listener: &TcpListener,
    poller: &mut Poller,
    slots: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    generations: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Responses are whole lines; coalescing them behind Nagle
                // only adds tail latency.
                let _ = stream.set_nodelay(true);
                *generations += 1;
                let conn = Conn::new(stream, *generations);
                let index = match free.pop() {
                    Some(index) => index,
                    None => {
                        slots.push(None);
                        slots.len() - 1
                    }
                };
                poller.register(fd_of(&conn.stream), index as u64 + 1, conn.interest);
                flight::record(names::CONN_OPEN, index as u64 + 1, 0);
                slots[index] = Some(conn);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Transient accept errors (aborted handshakes, fd pressure):
            // give up for this readiness event, the next one retries.
            Err(_) => break,
        }
    }
}

/// Hand every pending worker completion to its connection, unless the
/// connection died (or its slot was reused) while the job was in flight.
/// The `flush` span closes here, and the request's life ends in
/// [`close_request`].
fn deliver_completions(shared: &Shared, slots: &mut [Option<Conn>], slo: &mut SloState) {
    let completions = std::mem::take(&mut *lock_unpoisoned(&shared.completions));
    for completion in completions {
        let index = (completion.reply.token.max(1) - 1) as usize;
        if let Some(conn) = slots.get_mut(index).and_then(Option::as_mut) {
            if conn.generation == completion.reply.generation {
                conn.inflight = conn.inflight.saturating_sub(1);
                Gauge::Inflight.add(-1);
                // The flush phase: from the worker finishing the render
                // to the event loop handing the line to the ordered
                // write path. Its duration becomes the `flush_secs`
                // estimate sealed into the *next* responses' lines.
                let flush_wait = completion.rendered_at.elapsed();
                trace::record_closed(
                    completion.reply.trace,
                    0,
                    names::FLUSH,
                    completion.rendered_at,
                    flush_wait,
                );
                shared
                    .last_flush_bits
                    .store(flush_wait.as_secs_f64().to_bits(), Ordering::Relaxed);
                let total_secs = completion.enqueued.elapsed().as_secs_f64();
                close_request(
                    shared,
                    slo,
                    completion.reply.trace,
                    total_secs,
                    completion.error_code,
                );
                conn.finish(completion.reply.seq, completion.line);
            }
        }
    }
}

/// Where every request's life ends for observability, whichever path
/// answered it (a worker, the inline memo path, or the loop itself for
/// control requests and refusals): the response is counted, the trace
/// finishes (joining its terminal status and feeding the tail sampler),
/// and anomalies — an error response or an end-to-end latency past
/// `--slo-ms` — fire flight-recorder events and (rate-limited) flight
/// dumps.
fn close_request(
    shared: &Shared,
    slo: &mut SloState,
    trace_id: u64,
    total_secs: f64,
    error_code: u32,
) {
    Counter::ResponsesTotal.inc();
    shared.obs.finish_trace(trace_id, total_secs, error_code);
    if error_code != 0 {
        Counter::ErrorsTotal.inc();
        flight::record(names::ANOMALY_ERROR, trace_id, error_code as u64);
        slo.dump(shared, "error", trace_id, error_code as u64, false);
    } else if total_secs > shared.slo_secs {
        let total_us = (total_secs * 1e6) as u64;
        flight::record(names::ANOMALY_SLOW, trace_id, total_us);
        slo.dump(shared, "slow", trace_id, total_us, false);
    }
}

/// Drain the socket's read half until `WouldBlock`, EOF, or backpressure.
fn read_ready(shared: &Shared, conn: &mut Conn, token: u64, slo: &mut SloState) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if !conn.window_open(shared.max_inflight) || conn.pending_write() >= WRITE_PAUSE_BYTES {
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                process_lines(shared, conn, token, slo);
                if conn.dead || conn.eof {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Parse complete request lines out of the read buffer, stopping at the
/// pipelining window so a burst larger than `max_inflight` stays
/// buffered until responses drain (the progress pass resumes it).
fn process_lines(shared: &Shared, conn: &mut Conn, token: u64, slo: &mut SloState) {
    let mut parsed = 0;
    while !conn.dead && conn.window_open(shared.max_inflight) {
        let Some(rel) = conn.rbuf[parsed..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let end = parsed + rel;
        let line = String::from_utf8_lossy(&conn.rbuf[parsed..end]).into_owned();
        parsed = end + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            // Blank lines are not requests: skipped without a sequence
            // number, exactly like the blocking server ignored them.
            continue;
        }
        handle_request(shared, conn, token, trimmed, slo);
    }
    conn.rbuf.drain(..parsed);
    if conn.rbuf.len() > MAX_LINE_BYTES && !conn.rbuf.contains(&b'\n') {
        // A line longer than any legal request: answer once, stop
        // reading, flush, close. Anything else would buffer without
        // bound on behalf of a hostile client.
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let error = Response::error(
            0,
            WireError::new(
                ErrorCode::BadRequest,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ),
        );
        close_request(shared, slo, 0, 0.0, error_code_of(&error));
        conn.finish(seq, error.render_for(WIRE_MIN_SCHEMA_VERSION));
        conn.rbuf.clear();
        conn.eof = true;
    }
}

/// Dispatch one request line under the next sequence number: control
/// requests and memo hits complete inline, other session work goes to the
/// admission queue. Every inline answer closes its request here.
fn handle_request(shared: &Shared, conn: &mut Conn, token: u64, line: &str, slo: &mut SloState) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    // The trace is minted here, before parsing, so the parse span itself
    // belongs to the request's phase tree; queued work carries the id in
    // its Reply and echoes it in SolveTiming::trace.
    let trace_id = trace::next_trace_id();
    let received = Instant::now();
    let parse_span = Span::detached(trace_id, names::PARSE);
    let parsed = Request::parse_versioned(line);
    drop(parse_span);
    let (version, response) = match parsed {
        Err(failure) => (failure.version, Response::error(failure.id, failure.error)),
        Ok((version, request)) if shared.shutdown.load(Ordering::SeqCst) => {
            (version, shutting_down_error(request.id()))
        }
        Ok((version, request)) => {
            let response = match request {
                Request::Ping { id } => Response::Pong { id },
                Request::Stats { id } => Response::Stats {
                    id,
                    sessions: shared.registry.stats(),
                    evictions: shared.registry.evictions(),
                },
                Request::Metrics { id } => Response::Metrics {
                    id,
                    report: crate::obs_report::metrics_report(&shared.obs),
                },
                Request::Trace {
                    id,
                    limit,
                    slowest,
                    trace,
                } => {
                    let traces = if trace != 0 {
                        crate::obs_report::trace_report_by_id(&shared.obs, trace)
                    } else {
                        crate::obs_report::trace_reports(&shared.obs, limit, slowest)
                    };
                    Response::Trace { id, traces }
                }
                Request::Flight { id } => Response::Flight {
                    id,
                    events: crate::obs_report::flight_events(&shared.obs),
                },
                Request::Shutdown { id } => {
                    shared.begin_shutdown();
                    Response::ShuttingDown { id }
                }
                Request::Solve(solve) => {
                    let key = SessionKey::from(&solve);
                    let admitted = Instant::now();
                    let hit = if shared.memoize {
                        shared
                            .registry
                            .resident(key)
                            .and_then(|session| session.memo_hit(&solve))
                    } else {
                        None
                    };
                    if let Some(hit) = hit {
                        // A warm session's memoized answer: spliced from its
                        // pre-rendered bytes with an all-zero timing block
                        // (`batch_size: 0` marks the inline path), accounted
                        // as a worker response is in `deliver_completions`.
                        let timing = SolveTiming {
                            trace: trace_id,
                            ..SolveTiming::default()
                        };
                        let line = render_solve_line(
                            version,
                            solve.id,
                            &key.label(),
                            &hit.rendered,
                            timing,
                        );
                        let total_secs = admitted.elapsed().as_secs_f64();
                        Histogram::RpcSolveSecs.observe_traced(total_secs, trace_id);
                        close_request(shared, slo, trace_id, total_secs, 0);
                        conn.finish(seq, line);
                        return;
                    }
                    let job = JobKind::Solve(solve);
                    match submit(shared, conn, token, seq, version, trace_id, key, job) {
                        Some(refusal) => refusal,
                        None => return,
                    }
                }
                Request::Warm(warm) => {
                    // A client may warm up to the serving θ, not grow the RR
                    // cache (and every later solve's posting walks) without
                    // bound.
                    let cap = shared.registry.ctx().rma_max_rr;
                    if let Some(target) = warm.target_rr.filter(|&target| target > cap) {
                        let error = WireError::new(
                            ErrorCode::InvalidParameter,
                            format!("target_rr {target} exceeds the serving cap of {cap} RR-sets"),
                        );
                        Response::error(warm.id, error)
                    } else {
                        let key = SessionKey::from(&warm);
                        let job = JobKind::Warm(warm);
                        match submit(shared, conn, token, seq, version, trace_id, key, job) {
                            Some(refusal) => refusal,
                            None => return,
                        }
                    }
                }
            };
            (version, response)
        }
    };
    let total_secs = received.elapsed().as_secs_f64();
    close_request(shared, slo, trace_id, total_secs, error_code_of(&response));
    conn.finish(seq, response.render_for(version));
}

/// Enqueue session work; a refusal (shutdown raced us) comes back as the
/// inline answer.
#[allow(clippy::too_many_arguments)]
fn submit(
    shared: &Shared,
    conn: &mut Conn,
    token: u64,
    seq: u64,
    version: u32,
    trace_id: u64,
    key: SessionKey,
    kind: JobKind,
) -> Option<Response> {
    let id = match &kind {
        JobKind::Solve(solve) => solve.id,
        JobKind::Warm(warm) => warm.id,
    };
    let reply = Reply {
        token,
        generation: conn.generation,
        seq,
        version,
        trace: trace_id,
    };
    conn.inflight += 1;
    let admit_span = Span::detached(trace_id, names::ADMIT);
    let job = Job {
        key,
        kind,
        enqueued: Instant::now(),
        reply,
    };
    let refused = enqueue(shared, job);
    drop(admit_span);
    if refused.is_some() {
        conn.inflight = conn.inflight.saturating_sub(1);
        return Some(shutting_down_error(id));
    }
    Counter::RequestsTotal.inc();
    Gauge::Inflight.add(1);
    None
}

/// Append every response whose turn has come to the write buffer, then
/// push bytes until the socket stops accepting them.
fn advance_writes(conn: &mut Conn) {
    conn.stage();
    let before = conn.pending_write() as i64;
    while conn.wpos < conn.wbuf.len() && !conn.dead {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => conn.dead = true,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => conn.dead = true,
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > (64 << 10) {
        // Reclaim the flushed prefix of a large buffer without shifting
        // bytes on every partial write.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    Gauge::WriteBufferBytes.add(conn.pending_write() as i64 - before);
}

/// Re-register the connection for exactly what it can make progress on:
/// reads unless paused (EOF, pipeline full, or too much unflushed
/// output), writes only while flushing is actually blocked.
fn update_interest(poller: &mut Poller, conn: &mut Conn, token: u64, shared: &Shared) {
    let want = Interest {
        readable: !conn.eof
            && conn.outstanding() < shared.max_inflight
            && conn.pending_write() < WRITE_PAUSE_BYTES,
        writable: conn.pending_write() > 0,
    };
    if want != conn.interest {
        // A read-interest flip on a live stream is the backpressure
        // boundary: the pipeline window or write buffer filled (pause)
        // or drained back under the limits (resume).
        if want.readable != conn.interest.readable && !conn.eof {
            if want.readable {
                flight::record(
                    names::BACKPRESSURE_RESUME,
                    token,
                    conn.pending_write() as u64,
                );
            } else {
                flight::record(
                    names::BACKPRESSURE_PAUSE,
                    token,
                    conn.pending_write() as u64,
                );
            }
        }
        poller.modify(fd_of(&conn.stream), token, want);
        conn.interest = want;
    }
}
