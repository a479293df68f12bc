//! The central catalog of metric and span names.
//!
//! Every name threaded through the registry or the trace store is a
//! `'static` lowercase-snake literal declared here — never built with
//! `format!` on a hot path. Lint rule R6 enforces that call sites of
//! the obs constructors reference this module, so the full vocabulary
//! of the live `metrics`/`trace` RPC surface is readable in one file.

// --- span names (the per-request phase tree) ------------------------------

/// Event loop: parsing one request line off the socket.
pub const PARSE: &str = "parse";
/// Event loop: admission — session-key routing plus queue submit.
pub const ADMIT: &str = "admit";
/// Time a job sat in the shared queue before a worker picked it up.
pub const BATCH_WAIT: &str = "batch_wait";
/// Worker: warm-invariant check (and extension) before solving.
pub const WARM_CHECK: &str = "warm_check";
/// Worker: the solve itself (memo lookup, solver run, evaluation).
pub const SOLVE: &str = "solve";
/// RR-cache: sampling new RR sets into the arena.
pub const GENERATE: &str = "generate";
/// RR-cache: extending the coverage index over fresh RR sets.
pub const INDEX: &str = "index";
/// Solver execution inside the workbench (greedy family).
pub const GREEDY: &str = "greedy";
/// Monte-Carlo evaluation of the chosen allocation.
pub const EVALUATE: &str = "evaluate";
/// Rendering the response line (worker side).
pub const SERIALIZE: &str = "serialize";
/// Completion hand-off back through the event loop to the socket.
pub const FLUSH: &str = "flush";
/// Session/RR-cache snapshot load from disk.
pub const SNAPSHOT_LOAD: &str = "snapshot_load";
/// Snapshot parse + staleness checks + workbench rebuild (inside a
/// load).
pub const SNAPSHOT_PARSE: &str = "snapshot_parse";
/// Background snapshot persist.
pub const SNAPSHOT_PERSIST: &str = "snapshot_persist";

// --- counters -------------------------------------------------------------

/// Requests admitted into the queue (solve + warm).
pub const REQUESTS_TOTAL: &str = "requests_total";
/// Responses delivered to sockets.
pub const RESPONSES_TOTAL: &str = "responses_total";
/// Error responses rendered (any code).
pub const ERRORS_TOTAL: &str = "errors_total";
/// Warm-epoch memo hits in `solve_memoized`.
pub const MEMO_HITS: &str = "memo_hits";
/// Warm-epoch memo misses in `solve_memoized`.
pub const MEMO_MISSES: &str = "memo_misses";
/// Solve classes evicted from a session memo at its capacity.
pub const MEMO_EVICTIONS: &str = "memo_evictions";
/// RR sets sampled across all sessions.
pub const RR_GENERATED_TOTAL: &str = "rr_generated_total";
/// RR sets folded into coverage indexes across all sessions.
pub const INDEX_EXTENDED_TOTAL: &str = "index_extended_total";
/// Snapshot files persisted in the background.
pub const SNAPSHOTS_PERSISTED: &str = "snapshots_persisted";
/// Snapshot loads that took the zero-copy mmap path.
pub const SNAPSHOTS_MAPPED: &str = "snapshots_mapped";

/// Traces pinned into the tail-sample store (slow or error traces).
pub const TRACES_PINNED_TOTAL: &str = "traces_pinned_total";
/// Flight-recorder dumps written on anomaly triggers.
pub const FLIGHT_DUMPS_TOTAL: &str = "flight_dumps_total";

// --- gauges ---------------------------------------------------------------

/// Jobs currently sitting in the shared worker queue.
pub const QUEUE_DEPTH: &str = "queue_depth";
/// Requests admitted but not yet flushed, across all connections.
pub const INFLIGHT: &str = "inflight";
/// Bytes buffered in per-connection write buffers.
pub const WRITE_BUFFER_BYTES: &str = "write_buffer_bytes";
/// Finished responses parked behind an earlier unfinished request on
/// their connection, across all connections.
pub const PARKED_RESPONSES: &str = "parked_responses";
/// Heap-resident RR arena bytes across all cached sessions.
pub const ARENA_RESIDENT_BYTES: &str = "arena_resident_bytes";
/// mmap-backed RR arena bytes across all cached sessions.
pub const ARENA_MAPPED_BYTES: &str = "arena_mapped_bytes";
/// The serving latency objective, milliseconds (`rmsa serve --slo-ms`).
pub const SLO_THRESHOLD_MS: &str = "slo_threshold_ms";
/// SLO burn rate over the trailing 1 s window, in milli-burn units
/// (1000 ⇒ the error budget is burning exactly at the sustainable rate).
pub const SLO_BURN_1S: &str = "slo_burn_1s_milli";
/// SLO burn rate over the trailing 10 s window, milli-burn units.
pub const SLO_BURN_10S: &str = "slo_burn_10s_milli";
/// SLO burn rate over the trailing 60 s window, milli-burn units.
pub const SLO_BURN_60S: &str = "slo_burn_60s_milli";

// --- histograms -----------------------------------------------------------

/// End-to-end solve latency (queue + solve), seconds.
pub const RPC_SOLVE_SECS: &str = "rpc_solve_secs";
/// End-to-end warm latency (queue + warm), seconds.
pub const RPC_WARM_SECS: &str = "rpc_warm_secs";
/// Fingerprint-batch sizes popped by workers (a count, not seconds).
pub const BATCH_SIZE: &str = "batch_size";
/// RR generation phase duration, seconds.
pub const GENERATE_SECS: &str = "generate_secs";
/// Coverage-index extension duration, seconds.
pub const INDEX_SECS: &str = "index_secs";
/// Snapshot load (read + verify + adopt) duration, seconds.
pub const SNAPSHOT_LOAD_SECS: &str = "snapshot_load_secs";
/// Snapshot persist duration, seconds.
pub const SNAPSHOT_PERSIST_SECS: &str = "snapshot_persist_secs";
/// Store-level snapshot file read/decode duration, seconds.
pub const STORE_READ_SECS: &str = "store_read_secs";
/// Store-level snapshot file write duration, seconds.
pub const STORE_WRITE_SECS: &str = "store_write_secs";

// --- flight-recorder event kinds ------------------------------------------
//
// The closed vocabulary of [`crate::flight::record`] call sites. Each
// event carries two numeric payload slots (`a`, `b`); the meaning per
// kind is documented on the constant.

/// A connection was accepted; `a` = connection token.
pub const CONN_OPEN: &str = "conn_open";
/// A connection closed (EOF, error, or drain); `a` = connection token.
pub const CONN_CLOSE: &str = "conn_close";
/// Reads paused on a connection (inflight cap or write-buffer bound);
/// `a` = connection token, `b` = buffered write bytes.
pub const BACKPRESSURE_PAUSE: &str = "backpressure_pause";
/// Reads resumed on a previously paused connection; `a` = token.
pub const BACKPRESSURE_RESUME: &str = "backpressure_resume";
/// A warm-epoch memo was invalidated; `a` = entries dropped.
pub const MEMO_INVALIDATE: &str = "memo_invalidate";
/// A worker popped a fingerprint batch; `a` = batch size, `b` = queue
/// depth left behind.
pub const BATCH_FORM: &str = "batch_form";
/// A background snapshot persist finished; `a` = 1 on success else 0.
pub const SNAPSHOT_PERSIST_DONE: &str = "snapshot_persist_done";
/// An error response was delivered; `a` = trace id, `b` = error code.
pub const ANOMALY_ERROR: &str = "anomaly_error";
/// A response breached the latency objective; `a` = trace id,
/// `b` = latency in µs.
pub const ANOMALY_SLOW: &str = "anomaly_slow";
/// The server began shutting down.
pub const ANOMALY_SHUTDOWN: &str = "anomaly_shutdown";
