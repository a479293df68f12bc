//! The versioned newline-delimited JSON wire protocol of `rmsa serve`.
//!
//! One request per line, one response per line, both JSON objects encoded
//! with [`rmsa_bench::json`] (stable key order, golden-file friendly — the
//! same machinery behind `BENCH_*.json`). Every message carries
//! `schema_version` and a client-chosen numeric `id` that the response
//! echoes, so clients may pipeline many requests on one connection and
//! match answers to requests; the server writes responses in per-connection
//! request order.
//!
//! Two schema versions are live:
//!
//! * **v2** ([`WIRE_SCHEMA_VERSION`]) — the current envelope. Errors are
//!   machine-readable `{code, message}` objects ([`ErrorCode`] has the
//!   closed catalog), and `ping` answers carry a `protocol` field naming
//!   the highest version the server speaks.
//! * **v1** ([`WIRE_MIN_SCHEMA_VERSION`]) — still accepted and **answered
//!   in v1 shape**: string errors, no `protocol` field. A v1 client never
//!   sees a v2 byte. Both shapes are pinned by golden files in
//!   `tests/golden/`.
//!
//! Responses separate the **deterministic result payload** from
//! **timing**: for a fixed server seed and warm target, the `result`
//! object of a [`SolveResponse`] is a pure function of the request — it is
//! bit-identical no matter how many worker threads serve it or how client
//! requests interleave (see `DESIGN.md`, "Event-loop serving"). The
//! `timing` object (queue delay, solve wall-clock, batch size) is the only
//! part allowed to vary; [`SolveResponse::canonical_json`] strips it, and
//! the serving determinism tests diff exactly those canonical bytes.

use rmsa_bench::json::{self, Json};
use rmsa_datasets::{DatasetKind, IncentiveModel};
use rmsa_diffusion::RrStrategy;

/// Highest wire schema version emitted and accepted by this build.
pub const WIRE_SCHEMA_VERSION: u32 = 2;

/// Oldest wire schema version still accepted (and answered in kind).
pub const WIRE_MIN_SCHEMA_VERSION: u32 = 1;

/// The closed catalog of machine-readable error codes (wire names are
/// kebab-case). v1 responses carry only the message; v2 responses carry
/// `{code, message}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not a well-formed request envelope (bad JSON, missing
    /// or mistyped required fields, oversized line).
    BadRequest,
    /// `schema_version` outside the accepted range.
    UnsupportedSchema,
    /// Unknown `op`.
    UnknownOp,
    /// Unknown dataset name.
    UnknownDataset,
    /// Unknown algorithm name.
    UnknownAlgorithm,
    /// Unknown RR-strategy name.
    UnknownStrategy,
    /// Unknown incentive-model name.
    UnknownIncentive,
    /// A parameter value outside its admissible range (e.g. a negative
    /// or non-finite α).
    InvalidParameter,
    /// The daemon is draining and refused the request.
    ShuttingDown,
    /// The solver rejected an admitted request.
    SolveFailed,
}

impl ErrorCode {
    /// Wire name (kebab-case).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnsupportedSchema => "unsupported-schema",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::UnknownDataset => "unknown-dataset",
            ErrorCode::UnknownAlgorithm => "unknown-algorithm",
            ErrorCode::UnknownStrategy => "unknown-strategy",
            ErrorCode::UnknownIncentive => "unknown-incentive",
            ErrorCode::InvalidParameter => "invalid-parameter",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::SolveFailed => "solve-failed",
        }
    }

    /// The closed catalog, in wire order.
    pub fn all() -> [ErrorCode; 10] {
        [
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedSchema,
            ErrorCode::UnknownOp,
            ErrorCode::UnknownDataset,
            ErrorCode::UnknownAlgorithm,
            ErrorCode::UnknownStrategy,
            ErrorCode::UnknownIncentive,
            ErrorCode::InvalidParameter,
            ErrorCode::ShuttingDown,
            ErrorCode::SolveFailed,
        ]
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        ErrorCode::all().into_iter().find(|c| c.name() == name)
    }

    /// Stable nonzero numeric code point (1-based catalog position) —
    /// the representation `rmsa_obs::Obs::finish_trace` stores, since
    /// the obs crate cannot depend on this enum.
    pub fn code_point(self) -> u32 {
        ErrorCode::all()
            .iter()
            .position(|c| *c == self)
            .map(|i| i as u32 + 1)
            .unwrap_or(1)
    }

    /// Inverse of [`code_point`](Self::code_point).
    pub fn from_code_point(point: u32) -> Option<ErrorCode> {
        ErrorCode::all()
            .get(point.wrapping_sub(1) as usize)
            .copied()
    }
}

/// A typed wire-level failure: the machine-readable [`ErrorCode`] plus
/// the human-readable message v1 clients receive verbatim.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable message (the complete v1 error string).
    pub message: String,
}

impl WireError {
    /// Construct an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.message
    }
}

/// Why (and in which shape to answer when) a request line failed to
/// parse: [`Request::parse_versioned`] extracts the id and schema version
/// best-effort even from rejected lines, so the error response can echo
/// the right id in the right version's rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseFailure {
    /// Schema version to answer in (clamped to a supported one).
    pub version: u32,
    /// Best-effort extracted request id (0 when unextractable).
    pub id: u64,
    /// The typed error.
    pub error: WireError,
}

/// Solver selectable through the wire protocol.
///
/// Only solvers whose result is a deterministic function of the request
/// under a warm cache are exposed; the oracle-mode solvers are
/// experiment-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Progressive-sampling RMA (Algorithm 6).
    Rma,
    /// One-batch variant (Section 4.3) at the session's serving θ.
    OneBatch,
    /// TI-CARM baseline (private per-advertiser collections).
    TiCarm,
    /// TI-CSRM baseline (cost-sensitive variant).
    TiCsrm,
}

impl Algorithm {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Rma => "rma",
            Algorithm::OneBatch => "one-batch",
            Algorithm::TiCarm => "ti-carm",
            Algorithm::TiCsrm => "ti-csrm",
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Result<Algorithm, WireError> {
        match name {
            "rma" => Ok(Algorithm::Rma),
            "one-batch" => Ok(Algorithm::OneBatch),
            "ti-carm" => Ok(Algorithm::TiCarm),
            "ti-csrm" => Ok(Algorithm::TiCsrm),
            other => Err(WireError::new(
                ErrorCode::UnknownAlgorithm,
                format!("unknown algorithm {other:?}"),
            )),
        }
    }

    /// All wire-selectable algorithms.
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Rma,
            Algorithm::OneBatch,
            Algorithm::TiCarm,
            Algorithm::TiCsrm,
        ]
    }
}

/// One revenue-maximization query: which session fingerprint to route to
/// (`dataset` + `strategy`) plus the instance parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen correlation id, echoed by the response.
    pub id: u64,
    /// Dataset of the target session.
    pub dataset: DatasetKind,
    /// RR-set generation strategy of the target session.
    pub strategy: RrStrategy,
    /// Solver to run.
    pub algorithm: Algorithm,
    /// Incentive cost model of the instance.
    pub incentive: IncentiveModel,
    /// Incentive scale α of the instance.
    pub alpha: f64,
    /// Measure the allocation on the session's independent evaluation
    /// collection (default `true`).
    pub evaluate: bool,
}

/// Pre-extend a session's RR cache to a target collection size.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmRequest {
    /// Client-chosen correlation id.
    pub id: u64,
    /// Dataset of the target session.
    pub dataset: DatasetKind,
    /// RR-set strategy of the target session.
    pub strategy: RrStrategy,
    /// Target RR-sets per solver stream; `None` warms to the server's
    /// default serving θ, and the server rejects a target above it.
    pub target_rr: Option<usize>,
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Solve a revenue-maximization query.
    Solve(SolveRequest),
    /// Warm a session's RR cache.
    Warm(WarmRequest),
    /// Report per-session cache statistics and memory.
    Stats {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Liveness probe; the v2 answer names the server's protocol version.
    Ping {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Ask the daemon to stop accepting work and exit.
    Shutdown {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Snapshot the daemon's live metrics (v2-only op).
    Metrics {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Fetch recent request traces from the trace store (v2-only op).
    Trace {
        /// Client-chosen correlation id.
        id: u64,
        /// Maximum number of traces to return.
        limit: usize,
        /// Order by wall-clock extent instead of recency.
        slowest: bool,
        /// Look one trace up by id instead (0 ⇒ no filter). Pinned tail
        /// samples resolve here long after FIFO eviction.
        trace: u64,
    },
    /// Snapshot the flight recorder's recent event history (v2-only op).
    Flight {
        /// Client-chosen correlation id.
        id: u64,
    },
}

/// A raw `schema_version` field as a schema this build speaks. Values
/// outside `u32` are unsupported, never truncated into range.
fn supported_version(raw: i64) -> Option<u32> {
    u32::try_from(raw)
        .ok()
        .filter(|v| (WIRE_MIN_SCHEMA_VERSION..=WIRE_SCHEMA_VERSION).contains(v))
}

impl Request {
    /// The correlation id of any request.
    pub fn id(&self) -> u64 {
        match self {
            Request::Solve(r) => r.id,
            Request::Warm(r) => r.id,
            Request::Stats { id }
            | Request::Ping { id }
            | Request::Shutdown { id }
            | Request::Metrics { id }
            | Request::Trace { id, .. }
            | Request::Flight { id } => *id,
        }
    }

    /// Encode as a JSON document in the given schema version. The
    /// request envelope is field-identical across v1 and v2; only the
    /// `schema_version` value differs.
    pub fn to_json_for(&self, version: u32) -> Json {
        let mut doc = Json::obj();
        doc.set("schema_version", Json::Int(version as i64));
        match self {
            Request::Solve(r) => {
                doc.set("op", Json::Str("solve".into()))
                    .set("id", Json::Int(r.id as i64))
                    .set("dataset", Json::Str(r.dataset.name().into()))
                    .set("strategy", Json::Str(strategy_name(r.strategy).into()))
                    .set("algorithm", Json::Str(r.algorithm.name().into()))
                    .set("incentive", Json::Str(r.incentive.label().into()))
                    .set("alpha", Json::Num(r.alpha))
                    .set("evaluate", Json::Bool(r.evaluate));
            }
            Request::Warm(r) => {
                doc.set("op", Json::Str("warm".into()))
                    .set("id", Json::Int(r.id as i64))
                    .set("dataset", Json::Str(r.dataset.name().into()))
                    .set("strategy", Json::Str(strategy_name(r.strategy).into()));
                if let Some(t) = r.target_rr {
                    doc.set("target_rr", Json::Int(t as i64));
                }
            }
            Request::Stats { id } => {
                doc.set("op", Json::Str("stats".into()))
                    .set("id", Json::Int(*id as i64));
            }
            Request::Ping { id } => {
                doc.set("op", Json::Str("ping".into()))
                    .set("id", Json::Int(*id as i64));
            }
            Request::Shutdown { id } => {
                doc.set("op", Json::Str("shutdown".into()))
                    .set("id", Json::Int(*id as i64));
            }
            Request::Metrics { id } => {
                doc.set("op", Json::Str("metrics".into()))
                    .set("id", Json::Int(*id as i64));
            }
            Request::Trace {
                id,
                limit,
                slowest,
                trace,
            } => {
                doc.set("op", Json::Str("trace".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("limit", Json::Int(*limit as i64))
                    .set(
                        "sort",
                        Json::Str(if *slowest { "slow" } else { "recent" }.into()),
                    );
                if *trace != 0 {
                    doc.set("trace", Json::Int(*trace as i64));
                }
            }
            Request::Flight { id } => {
                doc.set("op", Json::Str("flight".into()))
                    .set("id", Json::Int(*id as i64));
            }
        }
        doc
    }

    /// Encode in the current schema version ([`WIRE_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Json {
        self.to_json_for(WIRE_SCHEMA_VERSION)
    }

    /// Render as a single wire line (no trailing newline) in the given
    /// schema version.
    pub fn render_for(&self, version: u32) -> String {
        self.to_json_for(version).render_compact()
    }

    /// Render in the current schema version.
    pub fn render(&self) -> String {
        self.to_json().render_compact()
    }

    /// Parse one wire line, returning the schema version it was written
    /// in alongside the request — the server answers in that version.
    pub fn parse_versioned(line: &str) -> Result<(u32, Request), ParseFailure> {
        // Best-effort context first, so even a rejected line gets its id
        // echoed in a version-appropriate error response.
        let doc = match json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                return Err(ParseFailure {
                    version: WIRE_MIN_SCHEMA_VERSION,
                    id: 0,
                    error: WireError::new(ErrorCode::BadRequest, e),
                })
            }
        };
        let id = doc.get("id").and_then(|v| v.as_i64()).unwrap_or(0).max(0) as u64;
        let raw_version = doc.get("schema_version").and_then(|v| v.as_i64());
        // Answer-version: the request's own when supported; otherwise the
        // newest we speak (an unsupported-schema client at least gets a
        // self-describing v2 error).
        let version = raw_version
            .and_then(supported_version)
            .unwrap_or(WIRE_SCHEMA_VERSION);
        let fail = |error: WireError| ParseFailure { version, id, error };
        let bad = |message: String| ParseFailure {
            version,
            id,
            error: WireError::new(ErrorCode::BadRequest, message),
        };
        let Some(raw) = raw_version else {
            return Err(bad("request is missing schema_version".to_string()));
        };
        if supported_version(raw).is_none() {
            return Err(fail(WireError::new(
                ErrorCode::UnsupportedSchema,
                format!("unsupported wire schema {raw}"),
            )));
        }
        if doc.get("id").and_then(|v| v.as_i64()).is_none() {
            return Err(bad("request is missing id".to_string()));
        }
        let Some(op) = doc.get("op").and_then(|v| v.as_str()) else {
            return Err(bad("request is missing op".to_string()));
        };
        let request = match op {
            "solve" => Request::Solve(SolveRequest {
                id,
                dataset: parse_dataset(req_str(&doc, "dataset").map_err(&fail)?).map_err(&fail)?,
                strategy: parse_strategy(
                    doc.get("strategy")
                        .and_then(|v| v.as_str())
                        .unwrap_or("standard"),
                )
                .map_err(&fail)?,
                algorithm: Algorithm::parse(req_str(&doc, "algorithm").map_err(&fail)?)
                    .map_err(&fail)?,
                incentive: parse_incentive(
                    doc.get("incentive")
                        .and_then(|v| v.as_str())
                        .unwrap_or("linear"),
                )
                .map_err(&fail)?,
                alpha: parse_alpha(
                    doc.get("alpha")
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| bad("solve request is missing alpha".to_string()))?,
                )
                .map_err(&fail)?,
                evaluate: doc
                    .get("evaluate")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(true),
            }),
            "warm" => Request::Warm(WarmRequest {
                id,
                dataset: parse_dataset(req_str(&doc, "dataset").map_err(&fail)?).map_err(&fail)?,
                strategy: parse_strategy(
                    doc.get("strategy")
                        .and_then(|v| v.as_str())
                        .unwrap_or("standard"),
                )
                .map_err(&fail)?,
                target_rr: doc
                    .get("target_rr")
                    .and_then(|v| v.as_i64())
                    .map(parse_target_rr)
                    .transpose()
                    .map_err(&fail)?,
            }),
            "stats" => Request::Stats { id },
            "ping" => Request::Ping { id },
            "shutdown" => Request::Shutdown { id },
            // The obs surface is v2-only: a v1 "metrics"/"trace" line
            // falls through to the same unknown-op error those ops always
            // produced under v1, byte for byte.
            "metrics" if version > WIRE_MIN_SCHEMA_VERSION => Request::Metrics { id },
            "trace" if version > WIRE_MIN_SCHEMA_VERSION => Request::Trace {
                id,
                limit: doc
                    .get("limit")
                    .and_then(|v| v.as_i64())
                    .map(|v| v.clamp(1, 64) as usize)
                    .unwrap_or(10),
                slowest: doc.get("sort").and_then(|v| v.as_str()) == Some("slow"),
                trace: doc
                    .get("trace")
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0)
                    .max(0) as u64,
            },
            "flight" if version > WIRE_MIN_SCHEMA_VERSION => Request::Flight { id },
            other => {
                return Err(fail(WireError::new(
                    ErrorCode::UnknownOp,
                    format!("unknown op {other:?}"),
                )))
            }
        };
        Ok((version, request))
    }

    /// Parse one wire line of any supported schema version, discarding
    /// the version (clients that only need the request).
    pub fn parse(line: &str) -> Result<Request, String> {
        Request::parse_versioned(line)
            .map(|(_, request)| request)
            .map_err(|failure| failure.error.message)
    }
}

/// The deterministic payload of a solve: everything here is a pure
/// function of the request for a fixed server seed and warm target.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveResult {
    /// Solver name as reported by the [`rmsa::prelude::Solver`].
    pub algorithm: String,
    /// Revenue on the session's independent evaluation collection
    /// (`None` when the request opted out of evaluation).
    pub revenue: Option<f64>,
    /// The solver's own revenue estimate.
    pub revenue_estimate: f64,
    /// Certified lower bound where the solver provides one (RMA).
    pub revenue_lower_bound: Option<f64>,
    /// Total seed-incentive cost.
    pub seeding_cost: f64,
    /// Number of selected seeds.
    pub seeds: usize,
    /// Whether the solver's budget-feasibility check passed.
    pub feasible: bool,
    /// Whether a sample-size cap truncated the run.
    pub capped: bool,
    /// Progressive rounds executed.
    pub iterations: usize,
    /// RR-sets backing the answer.
    pub rr_used: usize,
    /// RR-sets freshly generated during the solve (0 on a warm session).
    pub rr_generated: usize,
    /// RR-sets newly indexed during the solve (0 on a warm session).
    pub index_extended: usize,
    /// Order-independent digest of the selected allocation (hex), so
    /// bit-identical seed sets are checkable without shipping them.
    pub allocation_digest: String,
}

/// The non-deterministic part of a solve response.
///
/// v1 renders exactly the original three fields (`queue_secs`,
/// `solve_secs`, `batch_size`); everything else is additive v2-only.
/// The v2 per-phase fields decompose end-to-end latency —
/// queue → batch_wait → warm_check → solve → serialize → flush — which
/// is what the loadgen's attribution columns aggregate.
///
/// A memo hit the event loop answers inline never reaches the queue or a
/// worker: its block is all zeros except `serialize_secs` and `trace`,
/// and `batch_size: 0` is what marks it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveTiming {
    /// Seconds the request waited in the admission queue before a worker
    /// popped its batch.
    pub queue_secs: f64,
    /// Seconds the solve (and evaluation) took.
    pub solve_secs: f64,
    /// Number of same-fingerprint requests in the batch that served this
    /// request; 0 when the event loop answered it inline from the memo.
    pub batch_size: usize,
    /// Seconds between the batch pop and this request's serving start
    /// (earlier jobs of the same batch being served). v2-only.
    pub batch_wait_secs: f64,
    /// Seconds of warm-invariant check (and extension). v2-only.
    pub warm_secs: f64,
    /// Seconds rendering this response line. v2-only.
    pub serialize_secs: f64,
    /// Estimated seconds for the event-loop flush hand-off, from the
    /// most recently completed flush (the response line is sealed before
    /// its own flush happens). v2-only.
    pub flush_secs: f64,
    /// Obs trace id minted for this request (0 when tracing was off).
    /// Rendered in v2 only; `rmsa trace` looks the phase tree up by it.
    pub trace: u64,
}

/// Response to a [`SolveRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct SolveResponse {
    /// Echoed request id.
    pub id: u64,
    /// Label of the session that served the request
    /// (`"<dataset>/<strategy>"`).
    pub session: String,
    /// Deterministic result payload.
    pub result: SolveResult,
    /// Timing (excluded from [`SolveResponse::canonical_json`]).
    pub timing: SolveTiming,
}

impl SolveResponse {
    /// The response without its timing object: the bytes that must be
    /// identical across worker-thread counts and client interleavings.
    /// Version-independent by construction (no `schema_version` field).
    pub fn canonical_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("id", Json::Int(self.id as i64))
            .set("session", Json::Str(self.session.clone()))
            .set("result", result_to_json(&self.result));
        doc
    }

    /// The solve response document without its timing object.
    fn head_json_for(&self, version: u32) -> Json {
        let mut doc = solve_envelope_for(version, self.id, &self.session);
        doc.set("result", result_to_json(&self.result));
        doc
    }

    /// The response line up to (but excluding) the timing object and the
    /// closing brace — the part whose rendering cost `serialize_secs`
    /// measures. Concatenating with [`SolveTiming::render_tail_for`]
    /// yields exactly [`Response::render_for`]'s bytes: the full render is
    /// implemented through this split, so the server can time the head
    /// and still seal the measured duration *inside* the line (timing is
    /// the last key of a solve response).
    pub fn render_head_for(&self, version: u32) -> String {
        render_solve_head(
            version,
            self.id,
            &self.session,
            &render_result(&self.result),
        )
    }
}

/// The `{schema_version, op, id, ok, session}` envelope of a solve
/// response; the result payload and the timing object follow it.
fn solve_envelope_for(version: u32, id: u64, session: &str) -> Json {
    let mut doc = Json::obj();
    doc.set("schema_version", Json::Int(version as i64))
        .set("op", Json::Str("solve".into()))
        .set("id", Json::Int(id as i64))
        .set("ok", Json::Bool(true))
        .set("session", Json::Str(session.to_string()));
    doc
}

/// The compact `result` object of a solve response. The server renders a
/// memoized result once, when it is memoized, and splices these bytes
/// into every later response through [`render_solve_head`].
pub(crate) fn render_result(result: &SolveResult) -> String {
    result_to_json(result).render_compact()
}

/// [`SolveResponse::render_head_for`] around an already rendered `result`
/// object (see [`render_result`]): the same bytes, without rebuilding the
/// result's JSON tree.
pub(crate) fn render_solve_head(version: u32, id: u64, session: &str, result: &str) -> String {
    let mut head = solve_envelope_for(version, id, session).render_compact();
    head.pop(); // reopen the object; the timing tail closes it
    head.push_str(",\"result\":");
    head.push_str(result);
    head
}

impl SolveTiming {
    /// The timing object in the given schema version.
    pub fn to_json_for(&self, version: u32) -> Json {
        let mut t = Json::obj();
        t.set("queue_secs", Json::Num(self.queue_secs))
            .set("solve_secs", Json::Num(self.solve_secs))
            .set("batch_size", Json::Int(self.batch_size as i64));
        if version > WIRE_MIN_SCHEMA_VERSION {
            // Additive v2 fields; the v1 timing object stays
            // byte-identical to the pre-obs wire.
            t.set("batch_wait_secs", Json::Num(self.batch_wait_secs))
                .set("warm_secs", Json::Num(self.warm_secs))
                .set("serialize_secs", Json::Num(self.serialize_secs))
                .set("flush_secs", Json::Num(self.flush_secs))
                .set("trace", Json::Int(self.trace as i64));
        }
        t
    }

    /// The `,"timing":{...}}` tail completing a solve response head. A
    /// method on the (Copy) timing so the server can patch
    /// `serialize_secs`/`flush_secs` after timing the head render
    /// without cloning the result payload.
    pub fn render_tail_for(&self, version: u32) -> String {
        format!(
            ",\"timing\":{}}}",
            self.to_json_for(version).render_compact()
        )
    }
}

/// Response to a [`WarmRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct WarmResponse {
    /// Echoed request id.
    pub id: u64,
    /// Label of the warmed session.
    pub session: String,
    /// Serving θ after the warm-up.
    pub target_rr: usize,
    /// RR-sets generated by this warm-up (0 when already warm).
    pub generated: usize,
    /// True when the session already held the target.
    pub already_warm: bool,
}

/// Per-session block of a [`Response::Stats`] payload.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionStatsEntry {
    /// Session label (`"<dataset>/<strategy>"`).
    pub session: String,
    /// Solve requests served.
    pub served: usize,
    /// Warm-ups that actually extended the cache.
    pub warm_extensions: usize,
    /// Serving θ (RR-sets per solver stream).
    pub warm_target: usize,
    /// RR-sets generated since session creation.
    pub rr_generated: usize,
    /// RR-sets requested by solves since session creation.
    pub rr_requested: usize,
    /// RR-sets appended to coverage indexes since creation.
    pub index_extended: usize,
    /// Exact heap footprint of the session's arenas and indexes.
    pub memory_bytes: usize,
    /// True when the session was warm-started from a disk snapshot
    /// (`rmsa serve --snapshot-dir`).
    pub loaded_from_snapshot: bool,
    /// Seconds spent loading that snapshot (0 for cold-built sessions).
    pub snapshot_load_secs: f64,
}

/// One histogram exemplar on the wire: a concrete sample linked to the
/// trace that produced it (`rmsa trace --id` resolves it).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExemplarEntry {
    /// Trace id of the recording request.
    pub trace: u64,
    /// Exact sample value, seconds.
    pub value_secs: f64,
    /// Recording time, µs since the server's trace epoch.
    pub at_us: u64,
}

/// Quantile digest of one daemon histogram, as shipped by the
/// `metrics` RPC.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramStats {
    /// Metric name (an `obs::names` catalog id on the server side).
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Exact mean, seconds.
    pub mean_secs: f64,
    /// p50, bucketed (≈9 % relative error).
    pub p50_secs: f64,
    /// p90, bucketed.
    pub p90_secs: f64,
    /// p99, bucketed.
    pub p99_secs: f64,
    /// Exact maximum, seconds.
    pub max_secs: f64,
    /// Bucket exemplars, slowest first (additive field; empty pre-PR-10
    /// and for never-traced histograms).
    pub exemplars: Vec<ExemplarEntry>,
}

/// Payload of a `metrics` response: every metric of the daemon,
/// name-sorted (empty under `--no-obs`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// Quantile digests per histogram.
    pub histograms: Vec<HistogramStats>,
}

/// One span of a `trace` response.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanEntry {
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Phase name.
    pub name: String,
    /// Start, µs since the server's trace epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Numeric span fields.
    pub fields: Vec<(String, f64)>,
}

/// One request's phase tree, as shipped by the `trace` RPC.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// The trace id (echoed in `SolveTiming::trace`).
    pub trace: u64,
    /// Wall-clock extent (latest end − earliest start), µs.
    pub total_us: u64,
    /// Terminal status: `"unknown"` (in flight / aged out), `"ok"`, or
    /// the [`ErrorCode`] wire name of the error response. Additive
    /// field; `"unknown"` when absent.
    pub status: String,
    /// Whether the trace sits in the tail-sample (pinned) store.
    pub pinned: bool,
    /// Spans, start-ordered.
    pub spans: Vec<SpanEntry>,
}

/// One flight-recorder event on the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightEventEntry {
    /// Event kind (an `obs::names` flight constant on the server side).
    pub kind: String,
    /// Global total order across all server threads.
    pub seq: u64,
    /// Recording time, µs since the server's trace epoch.
    pub at_us: u64,
    /// First per-kind payload word.
    pub a: u64,
    /// Second per-kind payload word.
    pub b: u64,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Solve result.
    Solve(SolveResponse),
    /// Warm-up result.
    Warm(WarmResponse),
    /// Registry statistics.
    Stats {
        /// Echoed request id.
        id: u64,
        /// Sessions currently resident, most recently used last.
        sessions: Vec<SessionStatsEntry>,
        /// Sessions evicted by the LRU bound since startup.
        evictions: usize,
    },
    /// Liveness answer; v2 renderings carry `protocol`.
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Shutdown acknowledged; the daemon exits after flushing.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
    /// The daemon's metrics snapshot (v2-only op).
    Metrics {
        /// Echoed request id.
        id: u64,
        /// Every metric of the daemon.
        report: MetricsReport,
    },
    /// Recent/slowest request traces (v2-only op).
    Trace {
        /// Echoed request id.
        id: u64,
        /// Phase trees, in the requested order.
        traces: Vec<TraceReport>,
    },
    /// Flight-recorder history, in global sequence order (v2-only op).
    Flight {
        /// Echoed request id.
        id: u64,
        /// Recent events, oldest first.
        events: Vec<FlightEventEntry>,
    },
    /// The request failed. v1 renders the message alone; v2 renders the
    /// full `{code, message}` object.
    Error {
        /// Echoed request id (0 when the request was unparseable).
        id: u64,
        /// Machine-readable code (v2 wire field).
        code: ErrorCode,
        /// Human-readable message (the whole v1 wire field).
        message: String,
    },
}

impl Response {
    /// An error response from a typed [`WireError`].
    pub fn error(id: u64, error: WireError) -> Response {
        Response::Error {
            id,
            code: error.code,
            message: error.message,
        }
    }

    /// Encode as a JSON document in the given schema version.
    pub fn to_json_for(&self, version: u32) -> Json {
        let v1 = version <= WIRE_MIN_SCHEMA_VERSION;
        let mut doc = Json::obj();
        doc.set("schema_version", Json::Int(version as i64));
        match self {
            Response::Solve(r) => {
                doc = r.head_json_for(version);
                doc.set("timing", r.timing.to_json_for(version));
            }
            Response::Warm(r) => {
                doc.set("op", Json::Str("warm".into()))
                    .set("id", Json::Int(r.id as i64))
                    .set("ok", Json::Bool(true))
                    .set("session", Json::Str(r.session.clone()))
                    .set("target_rr", Json::Int(r.target_rr as i64))
                    .set("generated", Json::Int(r.generated as i64))
                    .set("already_warm", Json::Bool(r.already_warm));
            }
            Response::Stats {
                id,
                sessions,
                evictions,
            } => {
                doc.set("op", Json::Str("stats".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("ok", Json::Bool(true))
                    .set(
                        "sessions",
                        Json::Arr(sessions.iter().map(session_stats_to_json).collect()),
                    )
                    .set("evictions", Json::Int(*evictions as i64));
            }
            Response::Pong { id } => {
                doc.set("op", Json::Str("ping".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("ok", Json::Bool(true));
                if !v1 {
                    doc.set("protocol", Json::Int(WIRE_SCHEMA_VERSION as i64));
                }
            }
            Response::ShuttingDown { id } => {
                doc.set("op", Json::Str("shutdown".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("ok", Json::Bool(true));
            }
            Response::Metrics { id, report } => {
                doc.set("op", Json::Str("metrics".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("ok", Json::Bool(true));
                let mut counters = Json::obj();
                for (name, value) in &report.counters {
                    counters.set(name, Json::Int(*value as i64));
                }
                let mut gauges = Json::obj();
                for (name, value) in &report.gauges {
                    gauges.set(name, Json::Int(*value));
                }
                doc.set("counters", counters).set("gauges", gauges).set(
                    "histograms",
                    Json::Arr(
                        report
                            .histograms
                            .iter()
                            .map(histogram_stats_to_json)
                            .collect(),
                    ),
                );
            }
            Response::Trace { id, traces } => {
                doc.set("op", Json::Str("trace".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("ok", Json::Bool(true))
                    .set(
                        "traces",
                        Json::Arr(traces.iter().map(trace_report_to_json).collect()),
                    );
            }
            Response::Flight { id, events } => {
                doc.set("op", Json::Str("flight".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("ok", Json::Bool(true))
                    .set(
                        "events",
                        Json::Arr(events.iter().map(flight_event_to_json).collect()),
                    );
            }
            Response::Error { id, code, message } => {
                doc.set("op", Json::Str("error".into()))
                    .set("id", Json::Int(*id as i64))
                    .set("ok", Json::Bool(false));
                if v1 {
                    doc.set("error", Json::Str(message.clone()));
                } else {
                    let mut e = Json::obj();
                    e.set("code", Json::Str(code.name().into()))
                        .set("message", Json::Str(message.clone()));
                    doc.set("error", e);
                }
            }
        }
        doc
    }

    /// Encode in the current schema version.
    pub fn to_json(&self) -> Json {
        self.to_json_for(WIRE_SCHEMA_VERSION)
    }

    /// Render as a single wire line (no trailing newline) in the given
    /// schema version. Solve responses render through the
    /// head/timing-tail split, so the bytes are identical whether the
    /// server sealed `serialize_secs` mid-render or rendered in one go.
    pub fn render_for(&self, version: u32) -> String {
        if let Response::Solve(r) = self {
            let mut line = r.render_head_for(version);
            line.push_str(&r.timing.render_tail_for(version));
            return line;
        }
        self.to_json_for(version).render_compact()
    }

    /// Render in the current schema version.
    pub fn render(&self) -> String {
        self.render_for(WIRE_SCHEMA_VERSION)
    }

    /// Parse one wire line of any supported schema version.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = json::parse(line)?;
        let version = doc
            .get("schema_version")
            .and_then(|v| v.as_i64())
            .ok_or("response is missing schema_version")?;
        if supported_version(version).is_none() {
            return Err(format!("unsupported wire schema {version}"));
        }
        let id = doc.get("id").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
        let op = doc
            .get("op")
            .and_then(|v| v.as_str())
            .ok_or("response is missing op")?;
        match op {
            "solve" => {
                let timing = doc.get("timing").ok_or("solve response missing timing")?;
                Ok(Response::Solve(SolveResponse {
                    id,
                    session: req_str(&doc, "session")?.to_string(),
                    result: result_from_json(
                        doc.get("result").ok_or("solve response missing result")?,
                    )?,
                    timing: SolveTiming {
                        queue_secs: num_field(timing, "queue_secs")?,
                        solve_secs: num_field(timing, "solve_secs")?,
                        batch_size: int_field(timing, "batch_size")?,
                        // Additive v2 phase fields: absent pre-attribution
                        // and in v1 renderings.
                        batch_wait_secs: opt_num(timing, "batch_wait_secs"),
                        warm_secs: opt_num(timing, "warm_secs"),
                        serialize_secs: opt_num(timing, "serialize_secs"),
                        flush_secs: opt_num(timing, "flush_secs"),
                        // Absent pre-obs and in v1 renderings.
                        trace: timing
                            .get("trace")
                            .and_then(|v| v.as_i64())
                            .unwrap_or(0)
                            .max(0) as u64,
                    },
                }))
            }
            "warm" => Ok(Response::Warm(WarmResponse {
                id,
                session: req_str(&doc, "session")?.to_string(),
                target_rr: int_field(&doc, "target_rr")?,
                generated: int_field(&doc, "generated")?,
                already_warm: doc
                    .get("already_warm")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false),
            })),
            "stats" => Ok(Response::Stats {
                id,
                sessions: doc
                    .get("sessions")
                    .and_then(|v| v.as_arr())
                    .ok_or("stats response missing sessions")?
                    .iter()
                    .map(session_stats_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
                evictions: int_field(&doc, "evictions")?,
            }),
            "ping" => Ok(Response::Pong { id }),
            "shutdown" => Ok(Response::ShuttingDown { id }),
            "metrics" => Ok(Response::Metrics {
                id,
                report: MetricsReport {
                    counters: obj_entries(&doc, "counters")?
                        .iter()
                        .map(|(k, v)| {
                            let n = v
                                .as_i64()
                                .ok_or_else(|| format!("counter {k:?} is not an integer"))?;
                            Ok((k.clone(), n.max(0) as u64))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    gauges: obj_entries(&doc, "gauges")?
                        .iter()
                        .map(|(k, v)| {
                            let n = v
                                .as_i64()
                                .ok_or_else(|| format!("gauge {k:?} is not an integer"))?;
                            Ok((k.clone(), n))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    histograms: doc
                        .get("histograms")
                        .and_then(|v| v.as_arr())
                        .ok_or("metrics response missing histograms")?
                        .iter()
                        .map(histogram_stats_from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                },
            }),
            "trace" => Ok(Response::Trace {
                id,
                traces: doc
                    .get("traces")
                    .and_then(|v| v.as_arr())
                    .ok_or("trace response missing traces")?
                    .iter()
                    .map(trace_report_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "flight" => Ok(Response::Flight {
                id,
                events: doc
                    .get("events")
                    .and_then(|v| v.as_arr())
                    .ok_or("flight response missing events")?
                    .iter()
                    .map(flight_event_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "error" => {
                let error = doc.get("error").ok_or("error response missing error")?;
                // v2 nests {code, message}; v1 is the bare message string
                // (no code on the wire — BadRequest is the neutral
                // stand-in so the enum stays total).
                if let Some(message) = error.as_str() {
                    Ok(Response::Error {
                        id,
                        code: ErrorCode::BadRequest,
                        message: message.to_string(),
                    })
                } else {
                    let code_name = error
                        .get("code")
                        .and_then(|v| v.as_str())
                        .ok_or("error response missing code")?;
                    Ok(Response::Error {
                        id,
                        code: ErrorCode::parse(code_name)
                            .ok_or_else(|| format!("unknown error code {code_name:?}"))?,
                        message: error
                            .get("message")
                            .and_then(|v| v.as_str())
                            .ok_or("error response missing message")?
                            .to_string(),
                    })
                }
            }
            other => Err(format!("unknown response op {other:?}")),
        }
    }
}

fn result_to_json(r: &SolveResult) -> Json {
    let mut doc = Json::obj();
    doc.set("algorithm", Json::Str(r.algorithm.clone()))
        .set(
            "revenue",
            match r.revenue {
                Some(v) => Json::Num(v),
                None => Json::Null,
            },
        )
        .set("revenue_estimate", Json::Num(r.revenue_estimate))
        .set(
            "revenue_lower_bound",
            match r.revenue_lower_bound {
                Some(v) => Json::Num(v),
                None => Json::Null,
            },
        )
        .set("seeding_cost", Json::Num(r.seeding_cost))
        .set("seeds", Json::Int(r.seeds as i64))
        .set("feasible", Json::Bool(r.feasible))
        .set("capped", Json::Bool(r.capped))
        .set("iterations", Json::Int(r.iterations as i64))
        .set("rr_used", Json::Int(r.rr_used as i64))
        .set("rr_generated", Json::Int(r.rr_generated as i64))
        .set("index_extended", Json::Int(r.index_extended as i64))
        .set("allocation_digest", Json::Str(r.allocation_digest.clone()));
    doc
}

fn result_from_json(doc: &Json) -> Result<SolveResult, String> {
    Ok(SolveResult {
        algorithm: req_str(doc, "algorithm")?.to_string(),
        revenue: doc.get("revenue").and_then(|v| v.as_f64()),
        revenue_estimate: num_field(doc, "revenue_estimate")?,
        revenue_lower_bound: doc.get("revenue_lower_bound").and_then(|v| v.as_f64()),
        seeding_cost: num_field(doc, "seeding_cost")?,
        seeds: int_field(doc, "seeds")?,
        feasible: bool_field(doc, "feasible")?,
        capped: bool_field(doc, "capped")?,
        iterations: int_field(doc, "iterations")?,
        rr_used: int_field(doc, "rr_used")?,
        rr_generated: int_field(doc, "rr_generated")?,
        index_extended: int_field(doc, "index_extended")?,
        allocation_digest: req_str(doc, "allocation_digest")?.to_string(),
    })
}

/// The key/value entries of object field `key` (empty when absent, so
/// metrics from a quiet server still parse).
fn obj_entries<'a>(doc: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    match doc.get(key) {
        Some(Json::Obj(entries)) => Ok(entries),
        Some(_) => Err(format!("{key} is not an object")),
        None => Ok(&[]),
    }
}

fn exemplar_to_json(e: &ExemplarEntry) -> Json {
    let mut doc = Json::obj();
    doc.set("trace", Json::Int(e.trace as i64))
        .set("value_secs", Json::Num(e.value_secs))
        .set("at_us", Json::Int(e.at_us as i64));
    doc
}

fn exemplar_from_json(doc: &Json) -> Result<ExemplarEntry, String> {
    Ok(ExemplarEntry {
        trace: int_field(doc, "trace")? as u64,
        value_secs: num_field(doc, "value_secs")?,
        at_us: int_field(doc, "at_us")? as u64,
    })
}

fn histogram_stats_to_json(h: &HistogramStats) -> Json {
    let mut doc = Json::obj();
    doc.set("name", Json::Str(h.name.clone()))
        .set("count", Json::Int(h.count as i64))
        .set("mean_secs", Json::Num(h.mean_secs))
        .set("p50_secs", Json::Num(h.p50_secs))
        .set("p90_secs", Json::Num(h.p90_secs))
        .set("p99_secs", Json::Num(h.p99_secs))
        .set("max_secs", Json::Num(h.max_secs));
    if !h.exemplars.is_empty() {
        doc.set(
            "exemplars",
            Json::Arr(h.exemplars.iter().map(exemplar_to_json).collect()),
        );
    }
    doc
}

fn histogram_stats_from_json(doc: &Json) -> Result<HistogramStats, String> {
    Ok(HistogramStats {
        name: req_str(doc, "name")?.to_string(),
        count: int_field(doc, "count")? as u64,
        mean_secs: num_field(doc, "mean_secs")?,
        p50_secs: num_field(doc, "p50_secs")?,
        p90_secs: num_field(doc, "p90_secs")?,
        p99_secs: num_field(doc, "p99_secs")?,
        max_secs: num_field(doc, "max_secs")?,
        // Additive: absent in pre-exemplar payloads.
        exemplars: match doc.get("exemplars").and_then(|v| v.as_arr()) {
            Some(entries) => entries
                .iter()
                .map(exemplar_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        },
    })
}

fn flight_event_to_json(e: &FlightEventEntry) -> Json {
    let mut doc = Json::obj();
    doc.set("kind", Json::Str(e.kind.clone()))
        .set("seq", Json::Int(e.seq as i64))
        .set("at_us", Json::Int(e.at_us as i64))
        .set("a", Json::Int(e.a as i64))
        .set("b", Json::Int(e.b as i64));
    doc
}

fn flight_event_from_json(doc: &Json) -> Result<FlightEventEntry, String> {
    Ok(FlightEventEntry {
        kind: req_str(doc, "kind")?.to_string(),
        seq: int_field(doc, "seq")? as u64,
        at_us: int_field(doc, "at_us")? as u64,
        a: int_field(doc, "a")? as u64,
        b: int_field(doc, "b")? as u64,
    })
}

fn span_entry_to_json(s: &SpanEntry) -> Json {
    let mut doc = Json::obj();
    doc.set("id", Json::Int(s.id as i64))
        .set("parent", Json::Int(s.parent as i64))
        .set("name", Json::Str(s.name.clone()))
        .set("start_us", Json::Int(s.start_us as i64))
        .set("dur_us", Json::Int(s.dur_us as i64));
    if !s.fields.is_empty() {
        let mut fields = Json::obj();
        for (k, v) in &s.fields {
            fields.set(k, Json::Num(*v));
        }
        doc.set("fields", fields);
    }
    doc
}

fn span_entry_from_json(doc: &Json) -> Result<SpanEntry, String> {
    Ok(SpanEntry {
        id: int_field(doc, "id")? as u64,
        parent: int_field(doc, "parent")? as u64,
        name: req_str(doc, "name")?.to_string(),
        start_us: int_field(doc, "start_us")? as u64,
        dur_us: int_field(doc, "dur_us")? as u64,
        fields: obj_entries(doc, "fields")?
            .iter()
            .map(|(k, v)| {
                let n = v
                    .as_f64()
                    .ok_or_else(|| format!("span field {k:?} is not a number"))?;
                Ok((k.clone(), n))
            })
            .collect::<Result<Vec<_>, String>>()?,
    })
}

fn trace_report_to_json(t: &TraceReport) -> Json {
    let mut doc = Json::obj();
    doc.set("trace", Json::Int(t.trace as i64))
        .set("total_us", Json::Int(t.total_us as i64))
        .set("status", Json::Str(t.status.clone()))
        .set("pinned", Json::Bool(t.pinned))
        .set(
            "spans",
            Json::Arr(t.spans.iter().map(span_entry_to_json).collect()),
        );
    doc
}

fn trace_report_from_json(doc: &Json) -> Result<TraceReport, String> {
    Ok(TraceReport {
        trace: int_field(doc, "trace")? as u64,
        total_us: int_field(doc, "total_us")? as u64,
        // Additive: pre-status payloads carry neither field.
        status: doc
            .get("status")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string(),
        pinned: doc.get("pinned").and_then(|v| v.as_bool()).unwrap_or(false),
        spans: doc
            .get("spans")
            .and_then(|v| v.as_arr())
            .ok_or("trace report missing spans")?
            .iter()
            .map(span_entry_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn session_stats_to_json(s: &SessionStatsEntry) -> Json {
    let mut doc = Json::obj();
    doc.set("session", Json::Str(s.session.clone()))
        .set("served", Json::Int(s.served as i64))
        .set("warm_extensions", Json::Int(s.warm_extensions as i64))
        .set("warm_target", Json::Int(s.warm_target as i64))
        .set("rr_generated", Json::Int(s.rr_generated as i64))
        .set("rr_requested", Json::Int(s.rr_requested as i64))
        .set("index_extended", Json::Int(s.index_extended as i64))
        .set("memory_bytes", Json::Int(s.memory_bytes as i64))
        .set("loaded_from_snapshot", Json::Bool(s.loaded_from_snapshot))
        .set("snapshot_load_secs", Json::Num(s.snapshot_load_secs));
    doc
}

fn session_stats_from_json(doc: &Json) -> Result<SessionStatsEntry, String> {
    Ok(SessionStatsEntry {
        session: req_str(doc, "session")?.to_string(),
        served: int_field(doc, "served")?,
        warm_extensions: int_field(doc, "warm_extensions")?,
        warm_target: int_field(doc, "warm_target")?,
        rr_generated: int_field(doc, "rr_generated")?,
        rr_requested: int_field(doc, "rr_requested")?,
        index_extended: int_field(doc, "index_extended")?,
        memory_bytes: int_field(doc, "memory_bytes")?,
        // Additive v1 fields: stats written before the snapshot subsystem
        // simply lack them.
        loaded_from_snapshot: doc
            .get("loaded_from_snapshot")
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
        snapshot_load_secs: doc
            .get("snapshot_load_secs")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
    })
}

/// Wire name of an RR strategy.
pub fn strategy_name(strategy: RrStrategy) -> &'static str {
    match strategy {
        RrStrategy::Standard => "standard",
        RrStrategy::Subsim => "subsim",
    }
}

/// Parse a strategy wire name.
pub fn parse_strategy(name: &str) -> Result<RrStrategy, WireError> {
    match name {
        "standard" => Ok(RrStrategy::Standard),
        "subsim" => Ok(RrStrategy::Subsim),
        other => Err(WireError::new(
            ErrorCode::UnknownStrategy,
            format!("unknown strategy {other:?}"),
        )),
    }
}

/// Parse a dataset wire name.
pub fn parse_dataset(name: &str) -> Result<DatasetKind, WireError> {
    DatasetKind::all()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownDataset,
                format!("unknown dataset {name:?}"),
            )
        })
}

/// Validate the incentive scale of a solve request at the wire boundary:
/// a negative or non-finite α would turn into negative/NaN seed costs and
/// reach the solvers, so it is refused with a typed error before a worker
/// ever sees the request.
pub fn parse_alpha(alpha: f64) -> Result<f64, WireError> {
    if alpha.is_finite() && alpha >= 0.0 {
        Ok(alpha)
    } else {
        Err(WireError::new(
            ErrorCode::InvalidParameter,
            format!("alpha must be finite and >= 0, got {alpha}"),
        ))
    }
}

/// Validate a warm request's `target_rr`: a count of RR-sets, so never
/// negative. The upper bound is the server's serving θ, checked on
/// admission.
pub fn parse_target_rr(target_rr: i64) -> Result<usize, WireError> {
    usize::try_from(target_rr).map_err(|_| {
        WireError::new(
            ErrorCode::InvalidParameter,
            format!("target_rr must be >= 0, got {target_rr}"),
        )
    })
}

/// Parse an incentive-model wire name.
pub fn parse_incentive(name: &str) -> Result<IncentiveModel, WireError> {
    IncentiveModel::all()
        .into_iter()
        .find(|m| m.label() == name)
        .ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownIncentive,
                format!("unknown incentive model {name:?}"),
            )
        })
}

fn req_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, WireError> {
    doc.get(key).and_then(|v| v.as_str()).ok_or_else(|| {
        WireError::new(
            ErrorCode::BadRequest,
            format!("missing string field {key:?}"),
        )
    })
}

/// An optional numeric field, 0 when absent (additive-field parses).
fn opt_num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn num_field(doc: &Json, key: &str) -> Result<f64, WireError> {
    doc.get(key).and_then(|v| v.as_f64()).ok_or_else(|| {
        WireError::new(
            ErrorCode::BadRequest,
            format!("missing number field {key:?}"),
        )
    })
}

fn int_field(doc: &Json, key: &str) -> Result<usize, WireError> {
    doc.get(key)
        .and_then(|v| v.as_i64())
        .map(|i| i.max(0) as usize)
        .ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                format!("missing integer field {key:?}"),
            )
        })
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, WireError> {
    doc.get(key).and_then(|v| v.as_bool()).ok_or_else(|| {
        WireError::new(
            ErrorCode::BadRequest,
            format!("missing boolean field {key:?}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_solve_request() -> SolveRequest {
        SolveRequest {
            id: 7,
            dataset: DatasetKind::LastfmSyn,
            strategy: RrStrategy::Standard,
            algorithm: Algorithm::Rma,
            incentive: IncentiveModel::Linear,
            alpha: 0.3,
            evaluate: true,
        }
    }

    #[test]
    fn requests_roundtrip_in_both_versions() {
        let requests = [
            Request::Solve(sample_solve_request()),
            Request::Warm(WarmRequest {
                id: 8,
                dataset: DatasetKind::FlixsterSyn,
                strategy: RrStrategy::Subsim,
                target_rr: Some(50_000),
            }),
            Request::Warm(WarmRequest {
                id: 9,
                dataset: DatasetKind::LastfmSyn,
                strategy: RrStrategy::Standard,
                target_rr: None,
            }),
            Request::Stats { id: 10 },
            Request::Ping { id: 11 },
            Request::Shutdown { id: 12 },
        ];
        for request in requests {
            for version in [1u32, 2] {
                let line = request.render_for(version);
                assert!(!line.contains('\n'), "wire lines must be single lines");
                let (parsed_version, parsed) = Request::parse_versioned(&line).unwrap();
                assert_eq!(parsed_version, version);
                assert_eq!(parsed, request);
                assert_eq!(parsed.id(), request.id());
            }
            // The untyped path still accepts either version.
            assert_eq!(Request::parse(&request.render()).unwrap(), request);
        }
    }

    #[test]
    fn responses_roundtrip_in_both_versions() {
        let responses = [
            Response::Solve(SolveResponse {
                id: 7,
                session: "lastfm-syn/standard".into(),
                result: SolveResult {
                    algorithm: "RMA".into(),
                    revenue: Some(123.5),
                    revenue_estimate: 120.0,
                    revenue_lower_bound: Some(110.25),
                    seeding_cost: 30.5,
                    seeds: 12,
                    feasible: true,
                    capped: false,
                    iterations: 3,
                    rr_used: 40_000,
                    rr_generated: 0,
                    index_extended: 0,
                    allocation_digest: "00ff12ab34cd56ef".into(),
                },
                timing: SolveTiming {
                    queue_secs: 0.001,
                    solve_secs: 0.25,
                    batch_size: 4,
                    // v2-only fields zero so the v1 rendering (which
                    // lacks them) still roundtrips; the nonzero case is
                    // pinned in `phase_timing_is_v2_only`.
                    ..SolveTiming::default()
                },
            }),
            Response::Warm(WarmResponse {
                id: 8,
                session: "flixster-syn/subsim".into(),
                target_rr: 50_000,
                generated: 100_000,
                already_warm: false,
            }),
            Response::Stats {
                id: 10,
                sessions: vec![SessionStatsEntry {
                    session: "lastfm-syn/standard".into(),
                    served: 9,
                    warm_extensions: 1,
                    warm_target: 20_000,
                    rr_generated: 44_000,
                    rr_requested: 500_000,
                    index_extended: 44_000,
                    memory_bytes: 1 << 22,
                    loaded_from_snapshot: false,
                    snapshot_load_secs: 0.0,
                }],
                evictions: 2,
            },
            Response::Pong { id: 11 },
            Response::ShuttingDown { id: 12 },
            Response::Error {
                id: 3,
                code: ErrorCode::UnknownDataset,
                message: "unknown dataset \"nope\"".into(),
            },
        ];
        for response in responses {
            // v2 roundtrips losslessly, error code included.
            let line = response.render();
            assert!(!line.contains('\n'));
            assert_eq!(Response::parse(&line).unwrap(), response);
            // v1 parses back too; the code is not on a v1 wire, so only
            // id and message survive for errors.
            let v1_line = response.render_for(1);
            let parsed = Response::parse(&v1_line).unwrap();
            if let (
                Response::Error { id, message, .. },
                Response::Error {
                    id: pid,
                    message: pmessage,
                    code: pcode,
                },
            ) = (&response, &parsed)
            {
                assert_eq!((id, message), (pid, pmessage));
                assert_eq!(*pcode, ErrorCode::BadRequest, "v1 neutral default");
            } else {
                assert_eq!(parsed, response);
            }
        }
    }

    #[test]
    fn v2_envelope_carries_codes_and_protocol() {
        let error = Response::Error {
            id: 9,
            code: ErrorCode::UnknownAlgorithm,
            message: "unknown algorithm \"simplex\"".into(),
        };
        let v2 = error.render_for(2);
        assert!(v2.contains(r#""error":{"code":"unknown-algorithm""#));
        let v1 = error.render_for(1);
        assert!(v1.contains(r#""error":"unknown algorithm \"simplex\""#));
        assert!(!v1.contains("unknown-algorithm"));

        let pong = Response::Pong { id: 4 };
        assert!(pong.render_for(2).contains(r#""protocol":2"#));
        assert!(!pong.render_for(1).contains("protocol"));
    }

    #[test]
    fn parse_failures_carry_codes_ids_and_answer_versions() {
        for (line, code, id, version) in [
            ("not json", ErrorCode::BadRequest, 0, 1),
            ("{}", ErrorCode::BadRequest, 0, 2),
            (
                r#"{"schema_version":3,"id":9,"op":"ping"}"#,
                ErrorCode::UnsupportedSchema,
                9,
                2,
            ),
            (
                r#"{"schema_version":1,"id":7,"op":"warp"}"#,
                ErrorCode::UnknownOp,
                7,
                1,
            ),
            (
                r#"{"schema_version":2,"id":8,"op":"solve","dataset":"nope","algorithm":"rma","alpha":0.1}"#,
                ErrorCode::UnknownDataset,
                8,
                2,
            ),
            (
                r#"{"schema_version":1,"id":2,"op":"solve","dataset":"lastfm-syn","algorithm":"rma"}"#,
                ErrorCode::BadRequest,
                2,
                1,
            ),
            (
                r#"{"schema_version":1,"id":2,"op":"solve","dataset":"lastfm-syn","algorithm":"rma","alpha":-0.5}"#,
                ErrorCode::InvalidParameter,
                2,
                1,
            ),
            (
                r#"{"schema_version":2,"id":2,"op":"solve","dataset":"lastfm-syn","algorithm":"simplex","alpha":0.5}"#,
                ErrorCode::UnknownAlgorithm,
                2,
                2,
            ),
            (
                r#"{"schema_version":1,"id":3,"op":"warm","dataset":"lastfm-syn","target_rr":-1}"#,
                ErrorCode::InvalidParameter,
                3,
                1,
            ),
        ] {
            let failure = Request::parse_versioned(line).unwrap_err();
            assert_eq!(failure.error.code, code, "{line}");
            assert_eq!(failure.id, id, "{line}");
            assert_eq!(failure.version, version, "{line}");
            assert!(Request::parse(line).is_err());
        }
    }

    #[test]
    fn canonical_json_strips_timing_only() {
        let response = SolveResponse {
            id: 1,
            session: "lastfm-syn/standard".into(),
            result: SolveResult {
                algorithm: "RMA".into(),
                revenue: None,
                revenue_estimate: 1.0,
                revenue_lower_bound: None,
                seeding_cost: 0.0,
                seeds: 0,
                feasible: true,
                capped: false,
                iterations: 1,
                rr_used: 10,
                rr_generated: 0,
                index_extended: 0,
                allocation_digest: "0".into(),
            },
            timing: SolveTiming {
                queue_secs: 0.5,
                solve_secs: 1.5,
                batch_size: 2,
                trace: 17,
                ..SolveTiming::default()
            },
        };
        let canonical = response.canonical_json().render_compact();
        assert!(!canonical.contains("timing"));
        assert!(!canonical.contains("solve_secs"));
        assert!(!canonical.contains("schema_version"));
        assert!(canonical.contains("allocation_digest"));
        // Two responses differing only in timing canonicalise identically.
        let mut other = response.clone();
        other.timing.solve_secs = 99.0;
        assert_eq!(canonical, other.canonical_json().render_compact());
    }

    #[test]
    fn solve_defaults_are_applied() {
        for version in [1, 2] {
            let line = format!(
                r#"{{"schema_version":{version},"id":4,"op":"solve","dataset":"lastfm-syn","algorithm":"one-batch","alpha":0.2}}"#
            );
            let Request::Solve(r) = Request::parse(&line).unwrap() else {
                panic!("expected solve");
            };
            assert_eq!(r.strategy, RrStrategy::Standard);
            assert_eq!(r.incentive, IncentiveModel::Linear);
            assert!(r.evaluate);
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedSchema,
            ErrorCode::UnknownOp,
            ErrorCode::UnknownDataset,
            ErrorCode::UnknownAlgorithm,
            ErrorCode::UnknownStrategy,
            ErrorCode::UnknownIncentive,
            ErrorCode::InvalidParameter,
            ErrorCode::ShuttingDown,
            ErrorCode::SolveFailed,
        ] {
            assert_eq!(ErrorCode::parse(code.name()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn obs_requests_are_v2_only() {
        let requests = [
            Request::Metrics { id: 21 },
            Request::Trace {
                id: 22,
                limit: 5,
                slowest: true,
                trace: 0,
            },
            Request::Trace {
                id: 23,
                limit: 1,
                slowest: false,
                trace: 41,
            },
            Request::Flight { id: 24 },
        ];
        for request in requests {
            let line = request.render_for(2);
            let (version, parsed) = Request::parse_versioned(&line).unwrap();
            assert_eq!(version, 2);
            assert_eq!(parsed, request);
            // The same op under schema_version 1 is an unknown op: v1
            // predates the obs RPCs and its surface stays frozen.
            let v1_line = line.replace("\"schema_version\":2", "\"schema_version\":1");
            let failure = Request::parse_versioned(&v1_line).unwrap_err();
            assert_eq!(failure.error.code, ErrorCode::UnknownOp);
            assert_eq!(failure.version, 1);
        }
    }

    #[test]
    fn trace_limit_is_clamped_and_sort_defaults_to_recent() {
        let line = r#"{"schema_version":2,"id":5,"op":"trace","limit":10000}"#;
        let (_, parsed) = Request::parse_versioned(line).unwrap();
        assert_eq!(
            parsed,
            Request::Trace {
                id: 5,
                limit: 64,
                slowest: false,
                trace: 0,
            }
        );
        let line = r#"{"schema_version":2,"id":6,"op":"trace"}"#;
        let (_, parsed) = Request::parse_versioned(line).unwrap();
        assert_eq!(
            parsed,
            Request::Trace {
                id: 6,
                limit: 10,
                slowest: false,
                trace: 0,
            }
        );
    }

    #[test]
    fn trace_id_renders_in_v2_and_not_v1() {
        let response = Response::Solve(SolveResponse {
            id: 2,
            session: "lastfm-syn/standard".into(),
            result: SolveResult {
                algorithm: "RMA".into(),
                revenue: None,
                revenue_estimate: 1.0,
                revenue_lower_bound: None,
                seeding_cost: 0.0,
                seeds: 0,
                feasible: true,
                capped: false,
                iterations: 1,
                rr_used: 10,
                rr_generated: 0,
                index_extended: 0,
                allocation_digest: "0".into(),
            },
            timing: SolveTiming {
                queue_secs: 0.1,
                solve_secs: 0.2,
                batch_size: 1,
                trace: 42,
                ..SolveTiming::default()
            },
        });
        let v2 = response.render_for(2);
        assert!(v2.contains(r#""trace":42"#));
        let Response::Solve(parsed) = Response::parse(&v2).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(parsed.timing.trace, 42);
        // The v1 timing block is byte-identical to the pre-obs wire.
        let v1 = response.render_for(1);
        assert!(!v1.contains("trace"));
        let Response::Solve(parsed) = Response::parse(&v1).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(parsed.timing.trace, 0);
    }

    #[test]
    fn metrics_and_trace_responses_roundtrip() {
        let responses = [
            Response::Metrics {
                id: 31,
                report: MetricsReport {
                    counters: vec![("requests_total".into(), 9)],
                    gauges: vec![("queue_depth".into(), -1)],
                    histograms: vec![HistogramStats {
                        name: "rpc_solve_secs".into(),
                        count: 4,
                        mean_secs: 0.25,
                        p50_secs: 0.2,
                        p90_secs: 0.5,
                        p99_secs: 0.5,
                        max_secs: 0.5,
                        exemplars: vec![ExemplarEntry {
                            trace: 99,
                            value_secs: 0.5,
                            at_us: 1234,
                        }],
                    }],
                },
            },
            Response::Trace {
                id: 32,
                traces: vec![TraceReport {
                    trace: 7,
                    total_us: 1500,
                    status: "deadline".into(),
                    pinned: true,
                    spans: vec![
                        SpanEntry {
                            id: 1,
                            parent: 0,
                            name: "solve".into(),
                            start_us: 10,
                            dur_us: 1400,
                            fields: vec![],
                        },
                        SpanEntry {
                            id: 2,
                            parent: 1,
                            name: "greedy".into(),
                            start_us: 20,
                            dur_us: 900,
                            fields: vec![("rr".into(), 4000.0)],
                        },
                    ],
                }],
            },
        ];
        for response in responses {
            let line = response.render();
            assert!(!line.contains('\n'));
            assert_eq!(Response::parse(&line).unwrap(), response);
        }
        // Empty exemplar lists render no key at all, so pre-exemplar
        // consumers see byte-identical metrics lines.
        let bare = Response::Metrics {
            id: 33,
            report: MetricsReport {
                counters: vec![],
                gauges: vec![],
                histograms: vec![HistogramStats {
                    name: "rpc_warm_secs".into(),
                    count: 0,
                    mean_secs: 0.0,
                    p50_secs: 0.0,
                    p90_secs: 0.0,
                    p99_secs: 0.0,
                    max_secs: 0.0,
                    exemplars: vec![],
                }],
            },
        };
        assert!(!bare.render().contains("exemplars"));
    }

    #[test]
    fn phase_timing_is_v2_only() {
        let response = Response::Solve(SolveResponse {
            id: 51,
            session: "karate/rmsa".into(),
            result: SolveResult {
                algorithm: "RMA".into(),
                revenue: Some(1.0),
                revenue_estimate: 1.0,
                revenue_lower_bound: None,
                seeding_cost: 0.5,
                seeds: 1,
                feasible: true,
                capped: false,
                iterations: 1,
                rr_used: 10,
                rr_generated: 0,
                index_extended: 0,
                allocation_digest: "00ff".into(),
            },
            timing: SolveTiming {
                queue_secs: 0.001,
                solve_secs: 0.25,
                batch_size: 1,
                batch_wait_secs: 0.002,
                warm_secs: 0.003,
                serialize_secs: 0.004,
                flush_secs: 0.005,
                trace: 9,
            },
        });
        let v2 = response.render_for(2);
        for key in [
            "batch_wait_secs",
            "warm_secs",
            "serialize_secs",
            "flush_secs",
        ] {
            assert!(v2.contains(key), "v2 carries {key}");
        }
        let Response::Solve(parsed) = Response::parse(&v2).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(parsed.timing.batch_wait_secs, 0.002);
        assert_eq!(parsed.timing.flush_secs, 0.005);
        // v1 stays exactly the original three timing fields.
        let v1 = response.render_for(1);
        assert!(!v1.contains("batch_wait_secs"));
        assert!(!v1.contains("warm_secs"));
        assert!(!v1.contains("serialize_secs"));
        assert!(!v1.contains("flush_secs"));
        let Response::Solve(parsed) = Response::parse(&v1).unwrap() else {
            panic!("expected solve");
        };
        assert_eq!(parsed.timing.warm_secs, 0.0);
    }

    #[test]
    fn split_render_equals_full_render_in_both_versions() {
        let response = Response::Solve(SolveResponse {
            id: 52,
            session: "karate/rmsa".into(),
            result: SolveResult {
                algorithm: "TI-CARM".into(),
                revenue: Some(2.5),
                revenue_estimate: 2.25,
                revenue_lower_bound: Some(2.0),
                seeding_cost: 2.0,
                seeds: 3,
                feasible: true,
                capped: true,
                iterations: 2,
                rr_used: 64,
                rr_generated: 64,
                index_extended: 64,
                allocation_digest: "abcd".into(),
            },
            timing: SolveTiming {
                queue_secs: 0.01,
                solve_secs: 0.02,
                batch_size: 3,
                batch_wait_secs: 0.001,
                warm_secs: 0.0005,
                serialize_secs: 0.0001,
                flush_secs: 0.0002,
                trace: 77,
            },
        });
        let Response::Solve(inner) = &response else {
            unreachable!()
        };
        for version in [1u32, 2] {
            let split = format!(
                "{}{}",
                inner.render_head_for(version),
                inner.timing.render_tail_for(version)
            );
            assert_eq!(split, response.render_for(version));
            assert_eq!(
                split,
                response.to_json_for(version).render_compact(),
                "split render is byte-identical to the full v{version} document"
            );
        }
    }

    #[test]
    fn flight_request_and_response_roundtrip_in_v2_only() {
        let request = Request::Flight { id: 61 };
        let line = request.render_for(2);
        let (version, parsed) = Request::parse_versioned(&line).unwrap();
        assert_eq!(version, 2);
        assert_eq!(parsed, request);
        // v1 parsers must reject the op outright.
        let v1_line = line.replace(r#""schema_version":2"#, r#""schema_version":1"#);
        assert!(Request::parse_versioned(&v1_line).is_err());

        let response = Response::Flight {
            id: 61,
            events: vec![
                FlightEventEntry {
                    kind: "batch_form".into(),
                    seq: 4,
                    at_us: 1000,
                    a: 3,
                    b: 1,
                },
                FlightEventEntry {
                    kind: "backpressure_pause".into(),
                    seq: 5,
                    at_us: 1100,
                    a: 12,
                    b: 262144,
                },
            ],
        };
        let line = response.render();
        assert!(!line.contains('\n'));
        assert_eq!(Response::parse(&line).unwrap(), response);
    }

    #[test]
    fn trace_by_id_filter_renders_only_when_set() {
        let bare = Request::Trace {
            id: 71,
            limit: 10,
            slowest: false,
            trace: 0,
        };
        // (`"trace":` with the colon — the op itself renders as "trace".)
        assert!(!bare.render_for(2).contains(r#""trace":"#));
        let filtered = Request::Trace {
            id: 72,
            limit: 10,
            slowest: false,
            trace: 500,
        };
        let line = filtered.render_for(2);
        assert!(line.contains(r#""trace":500"#));
        let (_, parsed) = Request::parse_versioned(&line).unwrap();
        assert_eq!(parsed, filtered);
    }

    #[test]
    fn error_code_points_roundtrip_and_stay_stable() {
        for (k, code) in ErrorCode::all().iter().enumerate() {
            assert_eq!(code.code_point(), k as u32 + 1);
            assert_eq!(ErrorCode::from_code_point(code.code_point()), Some(*code));
        }
        assert_eq!(ErrorCode::from_code_point(0), None);
        assert_eq!(ErrorCode::from_code_point(999), None);
        // The catalog order is wire-frozen: code points persist in flight
        // dumps and trace statuses, so position changes are breaking.
        assert_eq!(ErrorCode::BadRequest.code_point(), 1);
        assert_eq!(ErrorCode::SolveFailed.code_point(), 10);
    }

    #[test]
    fn schema_versions_outside_u32_are_unsupported_not_truncated() {
        // 2^32 + 1 and 2^32 + 2 truncate to the supported v1 and v2.
        for raw in [4_294_967_297i64, 4_294_967_298, -1, 0, 3] {
            let response = format!(r#"{{"schema_version":{raw},"id":1,"op":"ping","ok":true}}"#);
            assert_eq!(
                Response::parse(&response),
                Err(format!("unsupported wire schema {raw}"))
            );
            let request = format!(r#"{{"schema_version":{raw},"id":1,"op":"ping"}}"#);
            let failure = Request::parse_versioned(&request).unwrap_err();
            assert_eq!(failure.error.code, ErrorCode::UnsupportedSchema);
            assert_eq!(failure.version, WIRE_SCHEMA_VERSION);
        }
        for version in [1, 2] {
            let response =
                format!(r#"{{"schema_version":{version},"id":1,"op":"ping","ok":true}}"#);
            assert_eq!(Response::parse(&response), Ok(Response::Pong { id: 1 }));
        }
    }
}
