//! The central catalog of metric, span and flight-event names.
//!
//! Metrics are three typed ids ([`Counter`], [`Gauge`], [`Histogram`]):
//! each variant indexes a fixed array of the owning [`crate::Obs`], and
//! its `name()` is the lowercase-snake wire string, so a metric that is
//! not in this catalog does not compile. Span and flight-event names are
//! `'static` string constants; lint rule R6 checks that the call sites of
//! `Span::child`, `Span::detached`, `record_closed` and `flight::record`
//! reference this module. The full vocabulary of the live
//! `metrics`/`trace`/`flight` RPC surface is readable in one file.

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

// --- metrics (typed catalogs) ---------------------------------------------

/// Declares one typed metric catalog: a fieldless enum whose variants
/// index the fixed metric arrays of an [`crate::Obs`], and whose
/// [`name`](Counter::name) is the metric's wire string.
macro_rules! catalog {
    ($(#[$doc:meta])* $ty:ident { $($(#[$vdoc:meta])* $variant:ident => $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$vdoc])* $variant,)*
        }

        impl $ty {
            /// Every id, in declaration order (`id as usize` indexes it).
            pub const ALL: &'static [$ty] = &[$($ty::$variant),*];

            /// The wire name the `metrics` RPC reports.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

catalog! {
    /// Monotonic counters.
    Counter {
        /// Requests admitted into the queue (solve + warm).
        RequestsTotal => "requests_total",
        /// Responses delivered to sockets, whichever path answered.
        ResponsesTotal => "responses_total",
        /// Error responses delivered (any code).
        ErrorsTotal => "errors_total",
        /// Warm-epoch memo hits, on the inline event-loop path and the
        /// worker path alike.
        MemoHits => "memo_hits",
        /// Warm-epoch memo misses in `solve_memoized`.
        MemoMisses => "memo_misses",
        /// Solve classes evicted from a session memo at its capacity.
        MemoEvictions => "memo_evictions",
        /// RR sets sampled across all sessions.
        RrGeneratedTotal => "rr_generated_total",
        /// RR sets folded into coverage indexes across all sessions.
        IndexExtendedTotal => "index_extended_total",
        /// Snapshot files persisted in the background.
        SnapshotsPersisted => "snapshots_persisted",
        /// Snapshot loads that took the zero-copy mmap path.
        SnapshotsMapped => "snapshots_mapped",
        /// Traces pinned into the tail-sample store (slow or error traces).
        TracesPinnedTotal => "traces_pinned_total",
        /// Flight-recorder dumps written on anomaly triggers.
        FlightDumpsTotal => "flight_dumps_total",
    }
}

catalog! {
    /// Signed instantaneous values.
    Gauge {
        /// Jobs currently sitting in the shared worker queue.
        QueueDepth => "queue_depth",
        /// Requests admitted but not yet flushed, across all connections.
        Inflight => "inflight",
        /// Bytes buffered in per-connection write buffers.
        WriteBufferBytes => "write_buffer_bytes",
        /// Finished responses parked behind an earlier unfinished request
        /// on their connection, across all connections.
        ParkedResponses => "parked_responses",
        /// Heap-resident RR arena bytes across all cached sessions.
        ArenaResidentBytes => "arena_resident_bytes",
        /// mmap-backed RR arena bytes across all cached sessions.
        ArenaMappedBytes => "arena_mapped_bytes",
        /// The serving latency objective, milliseconds (`rmsa serve
        /// --slo-ms`).
        SloThresholdMs => "slo_threshold_ms",
        /// SLO burn rate over the trailing 1 s window, in milli-burn units
        /// (1000 ⇒ the error budget is burning exactly at the sustainable
        /// rate).
        SloBurn1s => "slo_burn_1s_milli",
        /// SLO burn rate over the trailing 10 s window, milli-burn units.
        SloBurn10s => "slo_burn_10s_milli",
        /// SLO burn rate over the trailing 60 s window, milli-burn units.
        SloBurn60s => "slo_burn_60s_milli",
    }
}

catalog! {
    /// Log-bucket histograms, in seconds unless noted.
    Histogram {
        /// End-to-end solve latency (queue + solve), seconds.
        RpcSolveSecs => "rpc_solve_secs",
        /// End-to-end warm latency (queue + warm), seconds.
        RpcWarmSecs => "rpc_warm_secs",
        /// Fingerprint-batch sizes popped by workers (a count, not
        /// seconds).
        BatchSize => "batch_size",
        /// RR generation phase duration, seconds.
        GenerateSecs => "generate_secs",
        /// Coverage-index extension duration, seconds.
        IndexSecs => "index_secs",
        /// Snapshot load (read + verify + adopt) duration, seconds.
        SnapshotLoadSecs => "snapshot_load_secs",
        /// Snapshot persist duration, seconds.
        SnapshotPersistSecs => "snapshot_persist_secs",
        /// Store-level snapshot file read/decode duration, seconds.
        StoreReadSecs => "store_read_secs",
        /// Store-level snapshot file write duration, seconds.
        StoreWriteSecs => "store_write_secs",
    }
}

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
