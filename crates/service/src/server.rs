//! The `rmsa serve` daemon: readiness event loop, admission/batching
//! queue, and the worker pool.
//!
//! One thread runs the [`crate::event_loop`]: it owns the listening
//! socket and every connection, parses newline-delimited requests out of
//! per-connection read buffers, answers cheap control requests (`ping`,
//! `stats`, `shutdown`) and memo hits on warm resident sessions inline,
//! and enqueues the rest of the session work. All cache-touching work
//! (warm-ups, and solves that miss the memo) flows through one admission
//! queue; workers pop it in *fingerprint batches* — the front job plus
//! every queued job sharing its [`SessionKey`] — warm that session once,
//! and serve the whole batch, so N concurrent cold-session requests
//! trigger exactly one RR-cache extension. Finished responses travel
//! back to the loop as pre-rendered [`Completion`] lines through the
//! poller's wake pipe: a worker never writes to a socket, so a slow
//! client can never block a solver. Both paths render a solve line
//! through [`render_solve_line`] around the result's compact JSON, which
//! a memo entry holds pre-rendered, so an inline hit and a worker answer
//! for the same result differ only in their timing blocks. Either way the
//! answer takes its per-connection sequence slot, and it holds a slot of
//! the pipelining window until it reaches the write buffer (see
//! [`crate::event_loop`]).
//!
//! Determinism: solves only ever run on a warmed session (see
//! [`crate::session`]), so the result payload of every response is
//! independent of the worker count, of pipelining depth, and of how
//! client requests interleave — the integration tests assert
//! bit-identical canonical responses for 1 and 8 workers under pipelined
//! concurrent clients.

use crate::lock_unpoisoned;
use crate::net::{Poller, Waker};
use crate::session::{solve_class, RenderedResult, SessionKey, SessionRegistry, SolveClass};
use crate::wire::{
    render_solve_head, ErrorCode, Response, SolveRequest, SolveTiming, WarmRequest, WireError,
};
use rmsa_bench::ExperimentContext;
use rmsa_core::RmError;
use rmsa_obs::{flight, names, trace, Gauge, Histogram, Obs, Span};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Validated configuration of one daemon instance. Construct through
/// [`ServerConfig::builder`]; the defaults of [`ServerConfig::new`] are
/// valid by construction.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    ctx: ExperimentContext,
    workers: usize,
    max_sessions: usize,
    max_inflight: usize,
    memoize: bool,
    snapshot_dir: Option<PathBuf>,
    verify_snapshots: bool,
    obs: bool,
    obs_snapshot: Option<PathBuf>,
    obs_snapshot_secs: u64,
    slo_ms: u64,
    flight_dump: Option<PathBuf>,
}

impl ServerConfig {
    /// Config with the default worker count
    /// ([`rmsa_core::default_num_threads`]), 4 resident sessions, a
    /// 256-request pipelining window, memoization on, and no snapshot
    /// persistence.
    pub fn new(ctx: ExperimentContext) -> Self {
        ServerConfig {
            ctx,
            workers: rmsa_core::default_num_threads(),
            max_sessions: 4,
            max_inflight: 256,
            memoize: true,
            snapshot_dir: None,
            verify_snapshots: false,
            obs: true,
            obs_snapshot: None,
            obs_snapshot_secs: 5,
            slo_ms: 50,
            flight_dump: None,
        }
    }

    /// A builder seeded with the defaults of [`ServerConfig::new`].
    pub fn builder(ctx: ExperimentContext) -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::new(ctx),
        }
    }

    /// Context sessions are built under (seed, scale, RR targets, …).
    pub fn ctx(&self) -> &ExperimentContext {
        &self.ctx
    }

    /// Worker threads draining the admission queue.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// LRU bound on resident sessions.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Per-connection pipelining window: requests in flight beyond this
    /// pause reading from that connection until responses drain.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Whether warm solves are served from the per-class memo (see
    /// [`crate::session::Session::solve_memoized`]).
    pub fn memoize(&self) -> bool {
        self.memoize
    }

    /// Snapshot directory (`--snapshot-dir`); `None` disables
    /// persistence.
    pub fn snapshot_dir(&self) -> Option<&Path> {
        self.snapshot_dir.as_deref()
    }

    /// Whether snapshots are fully hashed before warm-starting
    /// (`--verify-snapshots`).
    pub fn verify_snapshots(&self) -> bool {
        self.verify_snapshots
    }

    /// Whether the daemon's [`Obs`] records (metrics + traces + flight
    /// events); `--no-obs` turns it off: spans still time, nothing is
    /// recorded or reported.
    pub fn obs(&self) -> bool {
        self.obs
    }

    /// Periodic obs dump file (`--obs-snapshot`); `None` disables it.
    pub fn obs_snapshot(&self) -> Option<&Path> {
        self.obs_snapshot.as_deref()
    }

    /// Seconds between `--obs-snapshot` dumps (`--obs-snapshot-secs`).
    pub fn obs_snapshot_secs(&self) -> u64 {
        self.obs_snapshot_secs
    }

    /// The latency objective (`--slo-ms`): solves slower than this burn
    /// the error budget behind the `slo_burn_*` gauges, and breaching it
    /// is a flight-recorder anomaly trigger.
    pub fn slo_ms(&self) -> u64 {
        self.slo_ms
    }

    /// Anomaly flight-dump file (`--flight-dump`); `None` disables
    /// anomaly dumps (the `flight` RPC still works).
    pub fn flight_dump(&self) -> Option<&Path> {
        self.flight_dump.as_deref()
    }
}

/// Builder for [`ServerConfig`]; [`ServerConfigBuilder::build`] validates
/// and never panics (lint R1).
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Worker threads draining the admission queue (≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// LRU bound on resident sessions (≥ 1).
    pub fn max_sessions(mut self, max_sessions: usize) -> Self {
        self.config.max_sessions = max_sessions;
        self
    }

    /// Per-connection pipelining window (≥ 1).
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        self.config.max_inflight = max_inflight;
        self
    }

    /// Serve repeated warm solve classes from the memo (default `true`;
    /// `--no-memo` turns it off to force every solve through the solver).
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.config.memoize = memoize;
        self
    }

    /// Warm-start from and persist to `dir`.
    pub fn snapshot_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.config.snapshot_dir = dir;
        self
    }

    /// Hash every snapshot section before warm-starting from it.
    pub fn verify_snapshots(mut self, verify: bool) -> Self {
        self.config.verify_snapshots = verify;
        self
    }

    /// Turn obs recording on/off (default `true`; `--no-obs`).
    pub fn obs(mut self, obs: bool) -> Self {
        self.config.obs = obs;
        self
    }

    /// Periodically dump the daemon's metrics and trace store to `path`.
    pub fn obs_snapshot(mut self, path: Option<PathBuf>) -> Self {
        self.config.obs_snapshot = path;
        self
    }

    /// Seconds between `--obs-snapshot` dumps (≥ 1).
    pub fn obs_snapshot_secs(mut self, secs: u64) -> Self {
        self.config.obs_snapshot_secs = secs;
        self
    }

    /// Latency objective in milliseconds (≥ 1).
    pub fn slo_ms(mut self, ms: u64) -> Self {
        self.config.slo_ms = ms;
        self
    }

    /// Dump the flight recorder to `path` on anomalies.
    pub fn flight_dump(mut self, path: Option<PathBuf>) -> Self {
        self.config.flight_dump = path;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServerConfig, RmError> {
        let c = &self.config;
        if c.workers == 0 {
            return Err(RmError::invalid_parameter(
                "workers",
                0.0,
                "at least one worker thread is required",
            ));
        }
        if c.max_sessions == 0 {
            return Err(RmError::invalid_parameter(
                "max_sessions",
                0.0,
                "at least one resident session is required",
            ));
        }
        if c.max_inflight == 0 {
            return Err(RmError::invalid_parameter(
                "max_inflight",
                0.0,
                "the pipelining window must admit at least one request",
            ));
        }
        if c.obs_snapshot_secs == 0 {
            return Err(RmError::invalid_parameter(
                "obs_snapshot_secs",
                0.0,
                "the obs snapshot interval must be at least one second",
            ));
        }
        if c.slo_ms == 0 {
            return Err(RmError::invalid_parameter(
                "slo_ms",
                0.0,
                "the latency objective must be at least one millisecond",
            ));
        }
        Ok(self.config)
    }
}

/// Routing slip of one queued request: which connection (token +
/// generation guard), which per-connection sequence slot, and which wire
/// schema version to render the answer in.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Reply {
    pub(crate) token: u64,
    pub(crate) generation: u64,
    pub(crate) seq: u64,
    pub(crate) version: u32,
    /// Obs trace id minted at admission (0 when tracing is off).
    pub(crate) trace: u64,
}

/// A finished response on its way back to the event loop, already
/// rendered so the loop only ever copies bytes.
pub(crate) struct Completion {
    pub(crate) reply: Reply,
    pub(crate) line: String,
    /// When the worker finished rendering — the event loop closes the
    /// request's `flush` span against this.
    pub(crate) rendered_at: Instant,
    /// When the request was admitted; the event loop finishes the trace
    /// against this for end-to-end tail sampling.
    pub(crate) enqueued: Instant,
    /// [`ErrorCode::code_point`] of an error response, 0 otherwise —
    /// errors pin their trace and trigger an anomaly flight dump.
    pub(crate) error_code: u32,
}

/// One queued unit of session work.
pub(crate) struct Job {
    pub(crate) key: SessionKey,
    pub(crate) kind: JobKind,
    pub(crate) enqueued: Instant,
    pub(crate) reply: Reply,
}

impl Job {
    /// The job's session, and its solve class (`None` for a `warm`): what
    /// [`take_batch`] batches on.
    fn batch_class(&self) -> (SessionKey, Option<SolveClass>) {
        let class = match &self.kind {
            JobKind::Solve(solve) => Some(solve_class(solve)),
            JobKind::Warm(_) => None,
        };
        (self.key, class)
    }
}

pub(crate) enum JobKind {
    Solve(SolveRequest),
    Warm(WarmRequest),
}

pub(crate) struct Shared {
    /// This daemon's metrics, traces and flight recorder.
    pub(crate) obs: Arc<Obs>,
    pub(crate) registry: SessionRegistry,
    pub(crate) queue: Mutex<VecDeque<Job>>,
    pub(crate) available: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) memoize: bool,
    pub(crate) max_inflight: usize,
    /// Finished responses awaiting pickup by the event loop.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Wakes the event loop's poller (wake pipe / flag).
    pub(crate) waker: Waker,
    /// In-flight background snapshot writes; joined on shutdown so a
    /// `shutdown` right after a warm-up never truncates a persist.
    pub(crate) persists: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The latency objective, seconds (`--slo-ms`).
    pub(crate) slo_secs: f64,
    /// Anomaly flight-dump path (`--flight-dump`).
    pub(crate) flight_dump: Option<PathBuf>,
    /// f64 bits of the most recently completed event-loop flush
    /// hand-off; workers seal it into `SolveTiming::flush_secs` as the
    /// estimate for their own (not-yet-happened) flush.
    pub(crate) last_flush_bits: AtomicU64,
}

impl Shared {
    /// Flag the shutdown, wake idle workers, and wake the event loop so
    /// it stops accepting and starts draining.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        self.waker.wake();
    }

    /// Hand a finished warm or error response back to the event loop,
    /// rendered in the requester's schema version.
    pub(crate) fn complete(&self, reply: Reply, enqueued: Instant, response: &Response) {
        let error_code = error_code_of(response);
        let span = Span::detached(reply.trace, names::SERIALIZE);
        let line = response.render_for(reply.version);
        drop(span);
        self.hand_back(reply, enqueued, line, error_code);
    }

    /// Stash a rendered line for the event loop and wake its poller.
    fn hand_back(&self, reply: Reply, enqueued: Instant, line: String, error_code: u32) {
        {
            let mut completions = lock_unpoisoned(&self.completions);
            completions.push(Completion {
                reply,
                line,
                rendered_at: Instant::now(),
                enqueued,
                error_code,
            });
        }
        self.waker.wake();
    }
}

/// [`ErrorCode::code_point`] of an error response, 0 for any other.
pub(crate) fn error_code_of(response: &Response) -> u32 {
    match response {
        Response::Error { code, .. } => code.code_point(),
        _ => 0,
    }
}

/// Render one solve response line around an already rendered `result`
/// object: the same bytes as [`Response::render_for`]. Every solve line
/// comes from here — worker completions and the memo hits the event loop
/// answers inline alike. The head (envelope + result) is timed under the
/// `serialize` span, and the measured duration is sealed into the line's
/// own `timing.serialize_secs`, which works because `timing` is the last
/// key of a solve response.
pub(crate) fn render_solve_line(
    version: u32,
    id: u64,
    session: &str,
    result: &str,
    mut timing: SolveTiming,
) -> String {
    let span = Span::detached(timing.trace, names::SERIALIZE);
    let head = render_solve_head(version, id, session, result);
    timing.serialize_secs = span.finish().as_secs_f64();
    head + &timing.render_tail_for(version)
}

/// A running daemon; dropping the handle does **not** stop it — call
/// [`ServiceHandle::shutdown`] (or send a `shutdown` request) and then
/// [`ServiceHandle::wait`].
pub struct ServiceHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
    obs_dump: Option<std::thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound address (useful with `--addr 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session registry (exposed for tests and stats).
    pub fn registry(&self) -> &SessionRegistry {
        &self.shared.registry
    }

    /// Ask the daemon to stop: admitted queue entries are still served
    /// and flushed, new connections and requests are refused.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the event loop, all workers and any in-flight
    /// background snapshot writes have finished.
    pub fn wait(self) {
        let _ = self.event_loop.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(dump) = self.obs_dump {
            let _ = dump.join();
        }
        let persists = std::mem::take(&mut *lock_unpoisoned(&self.shared.persists));
        for persist in persists {
            let _ = persist.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start the
/// event loop plus `config.workers()` queue workers. The daemon gets an
/// [`Obs`] of its own, attached to every thread it runs on.
pub fn start(addr: &str, config: ServerConfig) -> std::io::Result<ServiceHandle> {
    let obs = Obs::new(config.obs);
    let _attached = obs.attach();
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // The poller (and with it the wake pipe) must exist before any worker
    // can finish a job, so `Shared` is assembled around its waker.
    let poller = Poller::new();
    let shared = Arc::new(Shared {
        obs,
        registry: SessionRegistry::new(config.ctx.clone(), config.max_sessions)
            .with_snapshot_dir(config.snapshot_dir.clone())
            .with_snapshot_verify(if config.verify_snapshots {
                rmsa_store::VerifyMode::Eager
            } else {
                rmsa_store::VerifyMode::Lazy
            }),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        shutdown: AtomicBool::new(false),
        memoize: config.memoize,
        max_inflight: config.max_inflight,
        completions: Mutex::new(Vec::new()),
        waker: poller.waker(),
        persists: Mutex::new(Vec::new()),
        slo_secs: config.slo_ms as f64 / 1000.0,
        flight_dump: config.flight_dump.clone(),
        last_flush_bits: AtomicU64::new(0),
    });
    Gauge::SloThresholdMs.set(config.slo_ms as i64);
    let workers = (0..config.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("rmsa-worker-{i}"))
                .spawn(move || {
                    let _attached = shared.obs.attach();
                    worker_loop(&shared)
                })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let event_loop = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("rmsa-event-loop".to_string())
            .spawn(move || {
                let _attached = shared.obs.attach();
                crate::event_loop::run(listener, poller, &shared)
            })?
    };
    let obs_dump = match config.obs_snapshot.filter(|_| config.obs) {
        Some(path) => {
            let shared = shared.clone();
            let interval = Duration::from_secs(config.obs_snapshot_secs);
            Some(
                std::thread::Builder::new()
                    .name("rmsa-obs-dump".to_string())
                    .spawn(move || {
                        let _attached = shared.obs.attach();
                        obs_dump_loop(&shared, &path, interval)
                    })?,
            )
        }
        None => None,
    };
    Ok(ServiceHandle {
        addr,
        shared,
        event_loop,
        workers,
        obs_dump,
    })
}

/// Periodically dump the daemon's metrics and traces to `path` (tmp file +
/// rename, so readers never see a torn document), with a final dump on
/// shutdown. The interval is `--obs-snapshot-secs` (validated ≥ 1s by
/// the config builder).
fn obs_dump_loop(shared: &Shared, path: &Path, interval: Duration) {
    let tick = Duration::from_millis(100);
    let mut since_dump = interval;
    while !shared.shutdown.load(Ordering::SeqCst) {
        if since_dump >= interval {
            write_obs_dump(&shared.obs, path);
            since_dump = Duration::ZERO;
        }
        std::thread::sleep(tick);
        since_dump += tick;
    }
    write_obs_dump(&shared.obs, path);
}

fn write_obs_dump(obs: &Obs, path: &Path) {
    let doc = crate::obs_report::dump_json(obs);
    let tmp = path.with_extension("tmp");
    let written =
        std::fs::write(&tmp, doc.render_pretty() + "\n").and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        eprintln!("rmsa serve: obs dump to {} failed: {e}", path.display());
    }
}

/// Admit a job to the queue, or hand it back when the daemon is
/// draining. The authoritative shutdown check happens here, under the
/// queue lock: workers only exit after observing the flag with the lock
/// held and an empty queue, so a job admitted while the flag is still
/// unset is guaranteed a worker — no request can be stranded unanswered.
pub(crate) fn enqueue(shared: &Shared, job: Job) -> Option<Job> {
    let refused = {
        let mut queue = lock_unpoisoned(&shared.queue);
        if shared.shutdown.load(Ordering::SeqCst) {
            Some(job)
        } else {
            queue.push_back(job);
            None
        }
    };
    if refused.is_none() {
        Gauge::QueueDepth.add(1);
        shared.available.notify_one();
    }
    refused
}

/// The error every refused or late request gets; the message is the v1
/// wire string, verbatim.
pub(crate) fn shutting_down_error(id: u64) -> Response {
    Response::error(
        id,
        WireError::new(ErrorCode::ShuttingDown, "server is shutting down"),
    )
}

fn worker_loop(shared: &Shared) {
    loop {
        let (batch, queue_left) = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if !queue.is_empty() {
                    let batch = take_batch(&mut queue, Job::batch_class);
                    break (batch, queue.len());
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // The pop instant splits end-to-end wait into `queue_secs`
        // (enqueue → pop) and `batch_wait_secs` (pop → this job's turn).
        let popped_at = Instant::now();
        Gauge::QueueDepth.add(-(batch.len() as i64));
        flight::record(names::BATCH_FORM, batch.len() as u64, queue_left as u64);
        serve_batch(shared, batch, popped_at);
    }
}

/// Remove from `queue` the jobs one worker serves next, in arrival order.
/// `class` gives a job's session and solve class (`None` for a `warm`).
///
/// A solve at the front takes along the later solves of its session and
/// class: their results are the same bytes, so one solver run answers
/// them all, while solves of other classes stay queued for the other
/// workers. The scan stops at a warm of its session, since a solve moved
/// ahead of an earlier warm could return another result. A warm at the
/// front takes along every later job of its session, to be served after it.
fn take_batch<T, K: PartialEq, C: PartialEq>(
    queue: &mut VecDeque<T>,
    class: impl Fn(&T) -> (K, Option<C>),
) -> Vec<T> {
    let Some(front) = queue.pop_front() else {
        return Vec::new();
    };
    let (session, front_class) = class(&front);
    let mut batch = vec![front];
    let mut i = 0;
    while i < queue.len() {
        let (job_session, job_class) = class(&queue[i]);
        let take = match (&front_class, job_class) {
            _ if job_session != session => false,
            (None, _) => true,
            (Some(_), None) => break,
            (Some(front_class), Some(job_class)) => *front_class == job_class,
        };
        if take {
            batch.extend(queue.remove(i));
        } else {
            i += 1;
        }
    }
    batch
}

/// Persist `session` to the registry's snapshot directory on a background
/// thread (never on the serving path). Called after a warm-up actually
/// extended the cache; the handle is joined on shutdown.
fn persist_in_background(shared: &Shared, session: Arc<crate::session::Session>) {
    let Some(dir) = shared.registry.snapshot_dir().map(Path::to_path_buf) else {
        return;
    };
    let obs = Arc::clone(&shared.obs);
    let handle = std::thread::Builder::new()
        .name("rmsa-snapshot".to_string())
        .spawn(move || {
            let _attached = obs.attach();
            match session.save_snapshot(&dir) {
                Ok(path) => {
                    flight::record(names::SNAPSHOT_PERSIST_DONE, 1, 0);
                    eprintln!(
                        "rmsa serve: persisted {} to {}",
                        session.key().label(),
                        path.display()
                    );
                }
                Err(e) => {
                    flight::record(names::SNAPSHOT_PERSIST_DONE, 0, 0);
                    eprintln!(
                        "rmsa serve: failed to persist {}: {e}",
                        session.key().label()
                    );
                }
            }
        });
    if let Ok(handle) = handle {
        let mut persists = lock_unpoisoned(&shared.persists);
        // Reap completed persists so a long-lived daemon under churn does
        // not accumulate one handle per warm-up forever.
        persists.retain(|h| !h.is_finished());
        persists.push(handle);
    }
}

fn serve_batch(shared: &Shared, batch: Vec<Job>, popped_at: Instant) {
    let Some(key) = batch.first().map(|job| job.key) else {
        return;
    };
    let session = shared.registry.session(key);
    let batch_size = batch.len();
    Histogram::BatchSize.observe(batch_size as f64);
    for job in batch {
        // The job's trace becomes this thread's ambient context: spans
        // opened here and anywhere below (session, diffusion, store)
        // parent into the request's phase tree.
        let _trace = trace::attach(job.reply.trace);
        // Phase split: `queue_secs` is enqueue → batch pop, and
        // `batch_wait_secs` is pop → this job's serving turn (earlier
        // members of the same batch being served).
        let queue_secs = popped_at
            .saturating_duration_since(job.enqueued)
            .as_secs_f64();
        let serving_from = Instant::now();
        let batch_wait_secs = serving_from
            .saturating_duration_since(popped_at)
            .as_secs_f64();
        trace::record_closed(
            job.reply.trace,
            0,
            names::BATCH_WAIT,
            job.enqueued,
            serving_from.saturating_duration_since(job.enqueued),
        );
        match job.kind {
            JobKind::Warm(warm) => {
                let warm_span = Span::child(names::WARM_CHECK);
                let outcome = session.ensure_warm(warm.target_rr);
                drop(warm_span);
                if !outcome.already_warm {
                    persist_in_background(shared, session.clone());
                }
                Histogram::RpcWarmSecs
                    .observe_traced(job.enqueued.elapsed().as_secs_f64(), job.reply.trace);
                shared.complete(
                    job.reply,
                    job.enqueued,
                    &Response::Warm(crate::wire::WarmResponse {
                        id: warm.id,
                        session: key.label(),
                        target_rr: outcome.target_rr,
                        generated: outcome.generated,
                        already_warm: outcome.already_warm,
                    }),
                );
            }
            JobKind::Solve(solve) => {
                // Warm before solving — a no-op for every batch member
                // but (at most) the first. When the warm-up did real
                // cache work, persist the freshly warmed session so the
                // next restart skips it.
                let warm_span = Span::child(names::WARM_CHECK);
                let outcome = session.ensure_warm(None);
                let warm_secs = warm_span.finish().as_secs_f64();
                if !outcome.already_warm {
                    persist_in_background(shared, session.clone());
                }
                // The span is the timing source: `solve_secs` is its
                // measured duration, traced or not.
                let solve_span = Span::child(names::SOLVE);
                let solved = if shared.memoize {
                    session.solve_rendered(&solve)
                } else {
                    session
                        .solve(&solve)
                        .map(|r| Arc::new(RenderedResult::new(r)))
                };
                let solve_secs = solve_span.finish().as_secs_f64();
                // Observe before handing the response over, so a client that
                // asks for metrics right after its answer sees this solve.
                Histogram::RpcSolveSecs
                    .observe_traced(job.enqueued.elapsed().as_secs_f64(), job.reply.trace);
                match solved {
                    Ok(result) => {
                        let timing = SolveTiming {
                            queue_secs,
                            solve_secs,
                            batch_size,
                            batch_wait_secs,
                            warm_secs,
                            // Sealed by `render_solve_line`, which times
                            // the head render.
                            serialize_secs: 0.0,
                            // This line's flush has not happened yet: the
                            // most recently completed one is the estimate.
                            flush_secs: f64::from_bits(
                                shared.last_flush_bits.load(Ordering::Relaxed),
                            ),
                            trace: job.reply.trace,
                        };
                        let line = render_solve_line(
                            job.reply.version,
                            solve.id,
                            &key.label(),
                            &result.rendered,
                            timing,
                        );
                        shared.hand_back(job.reply, job.enqueued, line, 0);
                    }
                    Err(e) => shared.complete(
                        job.reply,
                        job.enqueued,
                        &Response::error(
                            solve.id,
                            WireError::new(ErrorCode::SolveFailed, e.to_string()),
                        ),
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_ctx;

    #[test]
    fn builder_applies_and_validates() {
        let config = ServerConfig::builder(tiny_ctx())
            .workers(3)
            .max_sessions(2)
            .max_inflight(16)
            .memoize(false)
            .verify_snapshots(true)
            .build()
            .unwrap();
        assert_eq!(config.workers(), 3);
        assert_eq!(config.max_sessions(), 2);
        assert_eq!(config.max_inflight(), 16);
        assert!(!config.memoize());
        assert!(config.verify_snapshots());
        assert!(config.snapshot_dir().is_none());

        for broken in [
            ServerConfig::builder(tiny_ctx()).workers(0),
            ServerConfig::builder(tiny_ctx()).max_sessions(0),
            ServerConfig::builder(tiny_ctx()).max_inflight(0),
            ServerConfig::builder(tiny_ctx()).obs_snapshot_secs(0),
            ServerConfig::builder(tiny_ctx()).slo_ms(0),
        ] {
            assert!(matches!(
                broken.build(),
                Err(RmError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn defaults_are_valid_by_construction() {
        let config = ServerConfig::new(tiny_ctx());
        assert!(config.workers() >= 1);
        assert_eq!(config.max_sessions(), 4);
        assert_eq!(config.max_inflight(), 256);
        assert!(config.memoize());
        assert_eq!(config.obs_snapshot_secs(), 5);
        assert_eq!(config.slo_ms(), 50);
        assert!(config.flight_dump().is_none());
    }

    #[test]
    fn builder_applies_obs_knobs() {
        let config = ServerConfig::builder(tiny_ctx())
            .obs_snapshot_secs(2)
            .slo_ms(25)
            .flight_dump(Some(PathBuf::from("/tmp/flight.json")))
            .build()
            .unwrap();
        assert_eq!(config.obs_snapshot_secs(), 2);
        assert_eq!(config.slo_ms(), 25);
        assert_eq!(config.flight_dump(), Some(Path::new("/tmp/flight.json")));
    }
    /// Batches hold one solve class of one session, and no solve passes a
    /// warm of its session queued before it.
    #[test]
    fn batches_take_duplicates_of_the_front_class_only() {
        // (id, session, class); class `None` is a warm.
        let take = |queue: &mut VecDeque<(u32, u8, Option<char>)>| {
            let batch = take_batch(queue, |&(_, session, class)| (session, class));
            batch.into_iter().map(|(id, ..)| id).collect::<Vec<_>>()
        };
        let mut queue: VecDeque<_> = [
            (0, 1, Some('a')),
            (1, 1, Some('b')),
            (2, 2, Some('a')),
            (3, 1, Some('a')),
            (4, 1, None),
            (5, 1, Some('a')),
            (6, 1, Some('b')),
            (7, 2, Some('a')),
        ]
        .into();
        // Session 1's `a` solves up to its warm; session 2's `a` is
        // another session's.
        assert_eq!(take(&mut queue), [0, 3]);
        assert_eq!(take(&mut queue), [1]);
        assert_eq!(take(&mut queue), [2, 7]);
        // The warm takes every later job of its session along.
        assert_eq!(take(&mut queue), [4, 5, 6]);
        assert!(queue.is_empty());
        assert!(take(&mut queue).is_empty());
    }
}
