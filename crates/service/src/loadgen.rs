//! The built-in load generator behind `rmsa loadgen` — closed-loop and
//! open-loop.
//!
//! **Closed loop** ([`Mode::ClosedLoop`]): `clients` threads each hold
//! one connection and run send → block → record → repeat. Throughput is
//! whatever the server sustains; latency excludes queueing the client
//! itself caused by not sending.
//!
//! **Open loop** ([`Mode::OpenLoop`]): requests are *scheduled* at a
//! fixed arrival rate — request `k` is due at `(k-1)/rate_hz` — and sent
//! over a small set of pipelined connections regardless of whether
//! earlier responses came back. Latency is measured from the **intended
//! send time**, not the actual write, so a server that falls behind
//! accrues the queueing delay it actually caused instead of hiding it by
//! slowing the client (no coordinated omission). A sender that oversleeps
//! catches up back-to-back, preserving the schedule's mean rate.
//!
//! In both modes the request mix is a pure function of
//! `(master seed, request id)` ([`LoadgenPlan::request_for_id`]) — the
//! *set* of requests sent is identical run over run regardless of
//! scheduling, which is what lets the determinism test diff canonical
//! response bytes across server worker counts.
//!
//! Results aggregate into a [`rmsa_bench::BenchReport`]
//! (`BENCH_service.json` closed-loop / `BENCH_service_open.json`
//! open-loop): per-(dataset, algorithm) revenue classes (deterministic,
//! gated tightly by `rmsa compare`), latency quantiles from the
//! [`LogHistogram`], and a throughput row — which in the open-loop
//! report carries the sustained rate in its gated `revenue` column, so
//! a throughput collapse fails CI.

use crate::client::ServiceClient;
use crate::wire::{Algorithm, Request, Response, SolveRequest, SolveResponse};
use crate::{into_inner_unpoisoned, lock_unpoisoned};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;
use rmsa_bench::report::{BenchPoint, BenchReport, RunManifest};
use rmsa_bench::AlgoOutcome;
use rmsa_core::RmError;
use rmsa_datasets::{DatasetKind, IncentiveModel};
use rmsa_diffusion::RrStrategy;
use rmsa_obs::LogHistogram;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pipelined connections an open-loop run spreads its schedule over.
const OPEN_CONNECTIONS: usize = 2;

/// Per-connection cap on in-flight requests in the open loop. Past this
/// point the sender holds back (charging the hold to `send_lags`, and to
/// the request's latency via its intended send time) instead of growing
/// an unbounded client-side backlog that would measure socket buffering
/// rather than server queueing.
const OPEN_MAX_OUTSTANDING: usize = 64;

/// The request population a load run draws from.
#[derive(Clone, Debug)]
pub struct LoadMix {
    /// Candidate datasets.
    pub datasets: Vec<DatasetKind>,
    /// RR strategy of every request.
    pub strategy: RrStrategy,
    /// Candidate algorithms.
    pub algorithms: Vec<Algorithm>,
    /// Candidate incentive models.
    pub incentives: Vec<IncentiveModel>,
    /// Candidate α values.
    pub alphas: Vec<f64>,
    /// Whether requests ask for independent evaluation.
    pub evaluate: bool,
}

impl LoadMix {
    /// The CI / smoke mix: one tiny dataset, RMA + one-batch + TI-CARM.
    pub fn quick() -> LoadMix {
        LoadMix {
            datasets: vec![DatasetKind::LastfmSyn],
            strategy: RrStrategy::Standard,
            algorithms: vec![Algorithm::Rma, Algorithm::OneBatch, Algorithm::TiCarm],
            incentives: vec![IncentiveModel::Linear, IncentiveModel::SuperLinear],
            alphas: vec![0.1, 0.3],
            evaluate: true,
        }
    }

    /// The default full mix: both TIC datasets, all four wire algorithms,
    /// all incentive models, the paper's α grid.
    pub fn full() -> LoadMix {
        LoadMix {
            datasets: vec![DatasetKind::LastfmSyn, DatasetKind::FlixsterSyn],
            strategy: RrStrategy::Standard,
            algorithms: Algorithm::all().to_vec(),
            incentives: IncentiveModel::all().to_vec(),
            alphas: rmsa_bench::sweeps::ALPHAS.to_vec(),
            evaluate: true,
        }
    }
}

/// How requests are issued.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// `clients` connections, each send → block → repeat.
    ClosedLoop {
        /// Concurrent closed-loop clients.
        clients: usize,
    },
    /// Fixed arrival rate from a seeded schedule over pipelined
    /// connections; latency from intended send time.
    OpenLoop {
        /// Scheduled arrivals per second.
        rate_hz: f64,
    },
}

/// Validated parameters of one load run. Construct through
/// [`LoadgenPlan::builder`]; [`LoadgenPlan::quick`] is the CI profile.
#[derive(Clone, Debug)]
pub struct LoadgenPlan {
    mode: Mode,
    requests: usize,
    seed: u64,
    mix: LoadMix,
}

impl LoadgenPlan {
    /// A builder seeded with the closed-loop CI profile: 4 clients × 6
    /// requests over [`LoadMix::quick`].
    pub fn builder(seed: u64) -> LoadgenPlanBuilder {
        LoadgenPlanBuilder {
            plan: LoadgenPlan {
                mode: Mode::ClosedLoop { clients: 4 },
                requests: 6,
                seed,
                mix: LoadMix::quick(),
            },
        }
    }

    /// The closed-loop CI profile (4 × 6 over the quick mix), identical
    /// request-for-request to the pre-event-loop load generator.
    pub fn quick(seed: u64) -> LoadgenPlan {
        LoadgenPlan {
            mode: Mode::ClosedLoop { clients: 4 },
            requests: 6,
            seed,
            mix: LoadMix::quick(),
        }
    }

    /// The issue mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Requests **per client** in closed loop; **total** in open loop.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Master seed of the request mix.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The request population.
    pub fn mix(&self) -> &LoadMix {
        &self.mix
    }

    /// Total requests the run will issue.
    pub fn total_requests(&self) -> usize {
        match self.mode {
            Mode::ClosedLoop { clients } => clients * self.requests,
            Mode::OpenLoop { .. } => self.requests,
        }
    }

    /// The deterministic request with id `id` (ids start at 1): one RNG
    /// per request, seeded from `(master seed, id)` alone, so the mix is
    /// the same pure function in both modes.
    pub fn request_for_id(&self, id: u64) -> SolveRequest {
        let mut rng = Pcg64Mcg::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pick = |rng: &mut Pcg64Mcg, len: usize| rng.gen_range(0..len);
        let mix = &self.mix;
        SolveRequest {
            id,
            dataset: mix.datasets[pick(&mut rng, mix.datasets.len())],
            strategy: mix.strategy,
            algorithm: mix.algorithms[pick(&mut rng, mix.algorithms.len())],
            incentive: mix.incentives[pick(&mut rng, mix.incentives.len())],
            alpha: mix.alphas[pick(&mut rng, mix.alphas.len())],
            evaluate: mix.evaluate,
        }
    }

    /// The deterministic request of closed-loop client `client`, index
    /// `index` — id layout `client * requests + index + 1`, unchanged
    /// from the pre-event-loop generator.
    pub fn request(&self, client: usize, index: usize) -> SolveRequest {
        self.request_for_id((client * self.requests + index + 1) as u64)
    }

    /// The full open-loop schedule: `(id, intended send time in seconds
    /// from run start)`, in send order. Pure in the plan — asserted
    /// identical across reruns by the determinism test.
    pub fn schedule(&self) -> Vec<(u64, f64)> {
        match self.mode {
            Mode::ClosedLoop { .. } => Vec::new(),
            Mode::OpenLoop { rate_hz } => (1..=self.requests as u64)
                .map(|id| (id, (id - 1) as f64 / rate_hz))
                .collect(),
        }
    }
}

/// Builder for [`LoadgenPlan`]; [`LoadgenPlanBuilder::build`] validates
/// and never panics (lint R1).
#[derive(Clone, Debug)]
pub struct LoadgenPlanBuilder {
    plan: LoadgenPlan,
}

impl LoadgenPlanBuilder {
    /// Set the issue mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.plan.mode = mode;
        self
    }

    /// Requests per client (closed loop) / total requests (open loop).
    pub fn requests(mut self, requests: usize) -> Self {
        self.plan.requests = requests;
        self
    }

    /// Replace the request population.
    pub fn mix(mut self, mix: LoadMix) -> Self {
        self.plan.mix = mix;
        self
    }

    /// Validate and produce the plan.
    pub fn build(self) -> Result<LoadgenPlan, RmError> {
        let plan = &self.plan;
        match plan.mode {
            Mode::ClosedLoop { clients: 0 } => {
                return Err(RmError::invalid_parameter(
                    "clients",
                    0.0,
                    "closed loop needs at least one client",
                ));
            }
            Mode::OpenLoop { rate_hz } if !(rate_hz.is_finite() && rate_hz > 0.0) => {
                return Err(RmError::invalid_parameter(
                    "rate_hz",
                    rate_hz,
                    "the open-loop arrival rate must be finite and positive",
                ));
            }
            _ => {}
        }
        if plan.requests == 0 {
            return Err(RmError::invalid_parameter(
                "requests",
                0.0,
                "at least one request is required",
            ));
        }
        if plan.mix.datasets.is_empty()
            || plan.mix.algorithms.is_empty()
            || plan.mix.incentives.is_empty()
            || plan.mix.alphas.is_empty()
        {
            return Err(RmError::invalid_parameter(
                "mix",
                0.0,
                "every mix dimension needs at least one candidate",
            ));
        }
        Ok(self.plan)
    }
}

/// Everything one load run measured.
pub struct LoadgenOutcome {
    /// Solve responses paired with their measured latency, sorted by
    /// request id.
    pub responses: Vec<(SolveResponse, f64)>,
    /// End-to-end latency histogram (open loop: from intended send time).
    pub latency: LogHistogram,
    /// Wall-clock of the whole run.
    pub wall_secs: f64,
    /// Error strings of failed requests (empty on a healthy run).
    pub errors: Vec<String>,
    /// Total session memory reported by a final `stats` call.
    pub session_memory_bytes: usize,
    /// Open loop only: per-request sender lag (actual send minus
    /// intended send), keyed by request id so it joins back to
    /// [`responses`](Self::responses). Empty in the closed loop, where
    /// the client by definition sends the instant it is ready.
    pub send_lags: Vec<(u64, f64)>,
}

impl LoadgenOutcome {
    /// Requests served per second.
    pub fn throughput(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.responses.len() as f64 / self.wall_secs
        }
    }

    /// Canonical response lines (timing stripped), sorted by request id:
    /// the bytes that must be identical across server worker counts and
    /// client interleavings.
    pub fn canonical_lines(&self) -> Vec<String> {
        self.responses
            .iter()
            .map(|(r, _)| r.canonical_json().render_compact())
            .collect()
    }

    /// Human-readable summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} responses in {:.2}s — {:.1} req/s, {} error(s)",
            self.responses.len(),
            self.wall_secs,
            self.throughput(),
            self.errors.len(),
        );
        let _ = writeln!(
            out,
            "latency: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
            self.latency.quantile_secs(0.50) * 1e3,
            self.latency.quantile_secs(0.90) * 1e3,
            self.latency.quantile_secs(0.99) * 1e3,
            self.latency.max_secs() * 1e3,
        );
        let _ = writeln!(
            out,
            "sessions: {:.1} MiB resident",
            self.session_memory_bytes as f64 / (1024.0 * 1024.0)
        );
        out
    }
}

/// Run the plan against a daemon at `addr`.
pub fn run(addr: &str, plan: &LoadgenPlan) -> Result<LoadgenOutcome, String> {
    match plan.mode {
        Mode::ClosedLoop { clients } => run_closed(addr, plan, clients),
        Mode::OpenLoop { rate_hz } => run_open(addr, plan, rate_hz),
    }
}

fn run_closed(addr: &str, plan: &LoadgenPlan, clients: usize) -> Result<LoadgenOutcome, String> {
    let collected: Mutex<Vec<(SolveResponse, f64)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let latency: Mutex<LogHistogram> = Mutex::new(LogHistogram::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let collected = &collected;
            let errors = &errors;
            let latency = &latency;
            scope.spawn(move || {
                let mut connection = match ServiceClient::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        lock_unpoisoned(errors).push(e);
                        return;
                    }
                };
                let mut local_hist = LogHistogram::new();
                let mut local: Vec<(SolveResponse, f64)> = Vec::new();
                for index in 0..plan.requests {
                    let request = plan.request(client, index);
                    let sent = Instant::now();
                    match connection.call(&Request::Solve(request)) {
                        Ok(Response::Solve(response)) => {
                            let secs = sent.elapsed().as_secs_f64();
                            local_hist.record(secs);
                            local.push((response, secs));
                        }
                        Ok(Response::Error { id, message, .. }) => {
                            lock_unpoisoned(errors).push(format!("request {id}: {message}"))
                        }
                        Ok(other) => {
                            lock_unpoisoned(errors).push(format!("unexpected response {other:?}"))
                        }
                        Err(e) => {
                            lock_unpoisoned(errors).push(e);
                            return;
                        }
                    }
                }
                lock_unpoisoned(collected).extend(local);
                lock_unpoisoned(latency).merge(&local_hist);
            });
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut responses = into_inner_unpoisoned(collected);
    responses.sort_by_key(|(r, _)| r.id);
    Ok(LoadgenOutcome {
        responses,
        latency: into_inner_unpoisoned(latency),
        wall_secs,
        errors: into_inner_unpoisoned(errors),
        session_memory_bytes: probe_session_memory(addr),
        send_lags: Vec::new(),
    })
}

fn run_open(addr: &str, plan: &LoadgenPlan, rate_hz: f64) -> Result<LoadgenOutcome, String> {
    let _ = rate_hz; // already baked into the schedule
    let connections = OPEN_CONNECTIONS.min(plan.requests.max(1));
    // Round-robin the schedule over the connections; each keeps its slice
    // in schedule order, so per-connection pipelining stays in id order
    // while the union follows the global arrival schedule.
    let schedule = plan.schedule();
    let mut per_conn: Vec<Vec<(u64, f64)>> = vec![Vec::new(); connections];
    for (i, entry) in schedule.iter().enumerate() {
        per_conn[i % connections].push(*entry);
    }
    // Connect up front so a dead server fails the run instead of
    // producing an empty report.
    let mut streams: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::new();
    for _ in 0..connections {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        streams.push((writer, reader));
    }

    let collected: Mutex<Vec<(SolveResponse, f64)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let latency: Mutex<LogHistogram> = Mutex::new(LogHistogram::new());
    let send_lags: Mutex<Vec<(u64, f64)>> = Mutex::new(Vec::new());
    let outstanding_slots: Vec<AtomicUsize> =
        (0..connections).map(|_| AtomicUsize::new(0)).collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (conn, ((mut writer, mut reader), slice)) in
            streams.into_iter().zip(&per_conn).enumerate()
        {
            let collected = &collected;
            let errors = &errors;
            let latency = &latency;
            let send_lags = &send_lags;
            let outstanding = &outstanding_slots[conn];
            // Sender: fire every request of the slice at its intended
            // time, never waiting for responses (that is the open loop).
            // An oversleeping sender catches up back-to-back, preserving
            // the schedule's mean rate.
            scope.spawn(move || {
                let mut local_lags: Vec<(u64, f64)> = Vec::with_capacity(slice.len());
                for (id, intended_secs) in slice.iter() {
                    let due = Duration::from_secs_f64(*intended_secs);
                    if let Some(wait) = due.checked_sub(started.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    while outstanding.load(Ordering::Acquire) >= OPEN_MAX_OUTSTANDING {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    local_lags.push((
                        *id,
                        (started.elapsed().as_secs_f64() - intended_secs).max(0.0),
                    ));
                    outstanding.fetch_add(1, Ordering::AcqRel);
                    let mut line = Request::Solve(plan.request_for_id(*id)).render();
                    line.push('\n');
                    if let Err(e) = writer
                        .write_all(line.as_bytes())
                        .and_then(|()| writer.flush())
                    {
                        lock_unpoisoned(errors).push(format!("send request {id}: {e}"));
                        break;
                    }
                }
                lock_unpoisoned(send_lags).extend(local_lags);
            });
            // Reader: the server answers in per-connection request
            // order, so the k-th response line pairs with the k-th
            // scheduled send. Latency is completion minus *intended*
            // send time — queueing delay the server caused is charged
            // to it even when the sender fell behind.
            scope.spawn(move || {
                let mut local_hist = LogHistogram::new();
                let mut local: Vec<(SolveResponse, f64)> = Vec::new();
                for (id, intended_secs) in slice.iter() {
                    let mut answer = String::new();
                    match reader.read_line(&mut answer) {
                        Ok(0) => {
                            lock_unpoisoned(errors)
                                .push(format!("request {id}: server closed the connection"));
                            break;
                        }
                        Ok(_) => {}
                        Err(e) => {
                            lock_unpoisoned(errors).push(format!("request {id}: receive: {e}"));
                            break;
                        }
                    }
                    outstanding.fetch_sub(1, Ordering::AcqRel);
                    let secs = (started.elapsed().as_secs_f64() - intended_secs).max(0.0);
                    match Response::parse(answer.trim_end()) {
                        Ok(Response::Solve(response)) => {
                            local_hist.record(secs);
                            local.push((response, secs));
                        }
                        Ok(Response::Error { id, message, .. }) => {
                            lock_unpoisoned(errors).push(format!("request {id}: {message}"))
                        }
                        Ok(other) => {
                            lock_unpoisoned(errors).push(format!("unexpected response {other:?}"))
                        }
                        Err(e) => {
                            lock_unpoisoned(errors).push(e);
                            break;
                        }
                    }
                }
                lock_unpoisoned(collected).extend(local);
                lock_unpoisoned(latency).merge(&local_hist);
            });
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut responses = into_inner_unpoisoned(collected);
    responses.sort_by_key(|(r, _)| r.id);
    Ok(LoadgenOutcome {
        responses,
        latency: into_inner_unpoisoned(latency),
        wall_secs,
        errors: into_inner_unpoisoned(errors),
        session_memory_bytes: probe_session_memory(addr),
        send_lags: into_inner_unpoisoned(send_lags),
    })
}

/// Total resident session memory, via one `stats` round trip.
fn probe_session_memory(addr: &str) -> usize {
    match ServiceClient::connect(addr).and_then(|mut c| c.call(&Request::Stats { id: u64::MAX })) {
        Ok(Response::Stats { sessions, .. }) => sessions.iter().map(|s| s.memory_bytes).sum(),
        _ => 0,
    }
}

/// Build the `BENCH_service[_open].json` report of a load run.
///
/// Point layout (all matched by `(job, key, algorithm)` in
/// `rmsa compare`):
///
/// * one row per `(dataset, algorithm)` class — revenue-style metrics are
///   deterministic means over the class's responses, so the 5 % revenue
///   gate really bites;
/// * `latency,` rows at keys 50/90/99 — the histogram quantiles land in
///   `wall_secs`, where the compare gate applies its generous time
///   tolerance and absolute floor;
/// * one `throughput,` row whose `wall_secs` is the whole run. In the
///   **open-loop** report the sustained req/s additionally lands in the
///   gated `revenue` column: open-loop throughput ≈ the offered rate
///   whenever the server keeps up, so a drop beyond tolerance means the
///   server stopped keeping up — exactly what the gate should catch.
pub fn report(outcome: &LoadgenOutcome, plan: &LoadgenPlan, quick: bool) -> BenchReport {
    let (scenario, title, threads) = match plan.mode {
        Mode::ClosedLoop { clients } => ("service", "rmsa serve — loadgen", clients),
        Mode::OpenLoop { .. } => (
            "service_open",
            "rmsa serve — open-loop loadgen",
            OPEN_CONNECTIONS,
        ),
    };
    let mut points: Vec<BenchPoint> = Vec::new();
    // Classes, in the canonical (dataset, algorithm) mix order.
    for dataset in &plan.mix.datasets {
        for algorithm in &plan.mix.algorithms {
            let class: Vec<&(SolveResponse, f64)> = outcome
                .responses
                .iter()
                .filter(|(r, _)| {
                    r.session.starts_with(dataset.name())
                        && r.result.algorithm == algorithm_report_name(*algorithm)
                })
                .collect();
            if class.is_empty() {
                continue;
            }
            let count = class.len() as f64;
            let mean = |f: &dyn Fn(&SolveResponse) -> f64| {
                class.iter().map(|(r, _)| f(r)).sum::<f64>() / count
            };
            let lower_bounds: Vec<f64> = class
                .iter()
                .filter_map(|(r, _)| r.result.revenue_lower_bound)
                .collect();
            points.push(BenchPoint {
                job: format!("{},", dataset.name()),
                key: 0.0,
                outcome: AlgoOutcome {
                    algorithm: algorithm_report_name(*algorithm).to_string(),
                    revenue: mean(&|r| r.result.revenue.unwrap_or(r.result.revenue_estimate)),
                    revenue_lower_bound: (lower_bounds.len() == class.len())
                        .then(|| lower_bounds.iter().sum::<f64>() / lower_bounds.len() as f64),
                    seeding_cost: mean(&|r| r.result.seeding_cost),
                    seeds: mean(&|r| r.result.seeds as f64).round() as usize,
                    time_secs: class.iter().map(|(_, secs)| secs).sum::<f64>() / count,
                    rr_sets: mean(&|r| r.result.rr_used as f64).round() as usize,
                    rr_generated: class.iter().map(|(r, _)| r.result.rr_generated).sum(),
                    index_secs: 0.0,
                    loaded_from_snapshot: 0,
                    snapshot_load_secs: 0.0,
                    memory_bytes: 0,
                    resident_bytes: 0,
                    mapped_bytes: 0,
                    memory_mib: 0.0,
                    budget_usage_pct: 0.0,
                    rate_of_return_pct: 0.0,
                    phases: Vec::new(),
                },
            });
        }
    }
    // Latency rows carry the per-phase attribution: the phase columns
    // are the mean breakdown over the cohort of requests that *define*
    // that end-to-end quantile (quantiles of independently measured
    // phases do not compose — the p99 of `queue` and the p99 of `solve`
    // belong to different requests), and the gated `revenue` column
    // holds the attribution share — how much of the cohort's end-to-end
    // latency the phase columns add up to, in percent, capped at 100. A
    // committed baseline near 100 makes `rmsa compare`'s downward-drift
    // gate fail the run when phase accounting stops covering the tail
    // (e.g. a new unattributed stall).
    for (quantile, key) in [(0.50, 50.0), (0.90, 90.0), (0.99, 99.0)] {
        let mut o = meta_outcome(outcome.latency.quantile_secs(quantile), 0);
        if let Some((phases, cohort_e2e)) = phase_breakdown(outcome, quantile) {
            let attributed: f64 = phases.iter().map(|(_, secs)| secs).sum();
            o.phases = phases;
            o.revenue = if cohort_e2e > 0.0 {
                (attributed / cohort_e2e).min(1.0) * 100.0
            } else {
                0.0
            };
        }
        points.push(BenchPoint {
            job: "latency,".to_string(),
            key,
            outcome: o,
        });
    }
    points.push(BenchPoint {
        job: "throughput,".to_string(),
        key: 0.0,
        outcome: {
            let mut o = meta_outcome(outcome.wall_secs, outcome.session_memory_bytes);
            o.rate_of_return_pct = outcome.throughput();
            if matches!(plan.mode, Mode::OpenLoop { .. }) {
                // Gate the sustained rate: `revenue` is compared with the
                // downward-drift tolerance, unlike rate_of_return_pct.
                o.revenue = outcome.throughput();
            }
            o
        },
    });
    BenchReport {
        scenario: scenario.to_string(),
        title: title.to_string(),
        points,
        total_wall_secs: outcome.wall_secs,
        run: RunManifest::collect(plan.seed, threads, 1.0, quick),
    }
}

/// A latency/throughput row: only `wall_secs` (and informational fields)
/// carry signal; revenue-style metrics are zero on both sides of a
/// compare, which never trips the gate.
fn meta_outcome(wall_secs: f64, memory_bytes: usize) -> AlgoOutcome {
    AlgoOutcome {
        algorithm: "loadgen".to_string(),
        revenue: 0.0,
        revenue_lower_bound: None,
        seeding_cost: 0.0,
        seeds: 0,
        time_secs: wall_secs,
        rr_sets: 0,
        rr_generated: 0,
        index_secs: 0.0,
        loaded_from_snapshot: 0,
        snapshot_load_secs: 0.0,
        memory_bytes,
        resident_bytes: memory_bytes,
        mapped_bytes: 0,
        memory_mib: memory_bytes as f64 / (1024.0 * 1024.0),
        budget_usage_pct: 0.0,
        rate_of_return_pct: 0.0,
        phases: Vec::new(),
    }
}

/// The per-phase breakdown of the requests that define the end-to-end
/// `quantile`, plus the cohort's mean end-to-end latency; `None` when
/// the run produced no responses.
///
/// The cohort is the nearest-rank request of the e2e-sorted run plus
/// the ~1 % of requests right behind it, so single-request noise does
/// not swing the tail rows. Each phase column is the cohort mean, in
/// request-pipeline order: `send_lag` (open loop only — sender behind
/// schedule or held at the in-flight cap), the server's wire-v2 phase
/// timings, then `delivery` — the request's measured-by-subtraction
/// remainder (end-to-end minus every instrumented phase): transport
/// both ways, event-loop dispatch, and client reader queueing. With the
/// residual included the breakdown accounts for the cohort's whole
/// life, so the attribution share derived from it stays pinned near
/// 100 %.
fn phase_breakdown(outcome: &LoadgenOutcome, quantile: f64) -> Option<(Vec<(String, f64)>, f64)> {
    if outcome.responses.is_empty() {
        return None;
    }
    let lag_by_id: std::collections::BTreeMap<u64, f64> =
        outcome.send_lags.iter().copied().collect();
    let open_loop = !outcome.send_lags.is_empty();
    // (e2e, send_lag, queue, batch_wait, warm, solve, serialize, flush,
    // delivery) per response, e2e-sorted.
    let mut rows: Vec<[f64; 9]> = outcome
        .responses
        .iter()
        .map(|(r, secs)| {
            let t = &r.timing;
            let lag = lag_by_id.get(&r.id).copied().unwrap_or(0.0);
            let instrumented = lag
                + t.queue_secs
                + t.batch_wait_secs
                + t.warm_secs
                + t.solve_secs
                + t.serialize_secs
                + t.flush_secs;
            [
                *secs,
                lag,
                t.queue_secs,
                t.batch_wait_secs,
                t.warm_secs,
                t.solve_secs,
                t.serialize_secs,
                t.flush_secs,
                (*secs - instrumented).max(0.0),
            ]
        })
        .collect();
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let n = rows.len();
    let rank = ((n as f64 * quantile).ceil() as usize).clamp(1, n) - 1;
    let cohort = &rows[rank..(rank + (n / 100).max(1)).min(n)];
    let mean = |i: usize| cohort.iter().map(|row| row[i]).sum::<f64>() / cohort.len() as f64;
    let mut phases: Vec<(String, f64)> = Vec::new();
    if open_loop {
        phases.push(("send_lag".to_string(), mean(1)));
    }
    for (i, name) in [
        (2, "queue"),
        (3, "batch_wait"),
        (4, "warm_check"),
        (5, "solve"),
        (6, "serialize"),
        (7, "flush"),
        (8, "delivery"),
    ] {
        phases.push((name.to_string(), mean(i)));
    }
    Some((phases, mean(0)))
}

/// The solver-reported algorithm name of a wire algorithm.
pub fn algorithm_report_name(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Rma => "RMA",
        Algorithm::OneBatch => "OneBatch",
        Algorithm::TiCarm => "TI-CARM",
        Algorithm::TiCsrm => "TI-CSRM",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_deterministic_and_covers_the_population() {
        let plan = LoadgenPlan::quick(7);
        let Mode::ClosedLoop { clients } = plan.mode() else {
            panic!("quick is closed-loop");
        };
        let a: Vec<SolveRequest> = (0..clients)
            .flat_map(|c| (0..plan.requests()).map(move |k| (c, k)))
            .map(|(c, k)| plan.request(c, k))
            .collect();
        let b: Vec<SolveRequest> = (0..clients)
            .flat_map(|c| (0..plan.requests()).map(move |k| (c, k)))
            .map(|(c, k)| plan.request(c, k))
            .collect();
        assert_eq!(a, b, "the mix must be a pure function of the seed");
        let ids: std::collections::BTreeSet<u64> = a.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), a.len(), "request ids must be unique");
        assert!(a.iter().any(|r| r.algorithm == Algorithm::Rma));
        // A different seed gives a different draw.
        let other = LoadgenPlan::quick(8);
        let c: Vec<SolveRequest> = (0..clients)
            .flat_map(|cl| (0..other.requests()).map(move |k| (cl, k)))
            .map(|(cl, k)| other.request(cl, k))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn both_modes_draw_the_same_mix_function() {
        let closed = LoadgenPlan::quick(7);
        let open = LoadgenPlan::builder(7)
            .mode(Mode::OpenLoop { rate_hz: 100.0 })
            .requests(24)
            .build()
            .unwrap();
        for id in 1..=24u64 {
            assert_eq!(
                closed.request_for_id(id),
                open.request_for_id(id),
                "the mix must depend only on (seed, id), not the mode"
            );
        }
    }

    #[test]
    fn open_loop_schedule_is_deterministic_and_paced() {
        let build = || {
            LoadgenPlan::builder(42)
                .mode(Mode::OpenLoop { rate_hz: 250.0 })
                .requests(100)
                .build()
                .unwrap()
        };
        let a = build().schedule();
        let b = build().schedule();
        assert_eq!(a, b, "rerunning the plan must reproduce the schedule");
        assert_eq!(a.len(), 100);
        assert_eq!(a[0], (1, 0.0));
        for window in a.windows(2) {
            let dt = window[1].1 - window[0].1;
            assert!((dt - 1.0 / 250.0).abs() < 1e-12, "uniform arrivals");
        }
        // The requests drawn for the schedule are the plan's pure mix.
        let plan = build();
        for (id, _) in a {
            assert_eq!(plan.request_for_id(id).id, id);
        }
    }

    #[test]
    fn plan_builder_validates() {
        assert!(LoadgenPlan::builder(1).build().is_ok());
        for broken in [
            LoadgenPlan::builder(1).mode(Mode::ClosedLoop { clients: 0 }),
            LoadgenPlan::builder(1).mode(Mode::OpenLoop { rate_hz: 0.0 }),
            LoadgenPlan::builder(1).mode(Mode::OpenLoop {
                rate_hz: f64::INFINITY,
            }),
            LoadgenPlan::builder(1).requests(0),
            LoadgenPlan::builder(1).mix(LoadMix {
                datasets: Vec::new(),
                ..LoadMix::quick()
            }),
        ] {
            assert!(matches!(
                broken.build(),
                Err(RmError::InvalidParameter { .. })
            ));
        }
    }
}
