//! The two served workloads, `solve_bound` and `hot`, each against a fresh
//! `rmsa serve` child.

use crate::daemon::{
    closed_loop, open_loop, pipelined, work_dir, Connection, Daemon, OpenStep, Sample, CORES,
    SLO_SECS, WARM_RR,
};
use crate::mix::Mix;
use crate::replay::{
    canonical, sample_indices, serve_ctx, session_key, solve_in_process, timed, wire_timing,
    CacheDelta, GreedyReplay,
};
use crate::stats::{mean, median, quantile, window_rates, windowed};
use crate::{Args, Outcome};
use rmsa_service::wire::{Request, SolveRequest, SolveResponse};
use rmsa_service::Session;
use rmsa_store::VerifyMode;
use std::path::Path;
use std::time::Duration;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Served responses replayed in-process and compared byte for byte.
const CHECKED: usize = 6;
/// The fixed rate of `hot`'s open loop, req/s.
const HOT_NOMINAL_RATE: f64 = 2_000.0;
/// Requests kept in flight on the one connection that measures capacity.
/// The backlog cannot grow past it, and at the rates `hot` reaches it is
/// worth a few milliseconds of queueing, inside the objective.
const SATURATION_WINDOW: usize = 128;
/// Requests of the seeded sequence the traced run replays in-process: a
/// fixed count, so the per-solve counters repeat exactly for a seed.
const REPLAYED_SOLVES: u64 = 48;
const REPLAYED_HITS: u64 = 5_000;
/// Fresh daemons per `hot` phase; `setup_s` is the median of their
/// set-ups.
const HOT_ROUNDS: usize = 6;

fn memo_delta(before: &[(String, u64)], after: &[(String, u64)]) -> (u64, u64) {
    let get = |list: &[(String, u64)], name: &str| {
        list.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    };
    (
        get(after, "memo_hits") - get(before, "memo_hits"),
        get(after, "memo_misses") - get(before, "memo_misses"),
    )
}

/// Start `count` daemons one after another, timing each from spawn to its
/// first answered warm-up; all but the last are shut down again.
fn set_up(
    count: usize,
    start: impl Fn() -> Result<Daemon, String>,
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let (daemon, secs) = timed(|| start().and_then(|d| d.warm().map(|()| d)));
        let daemon = daemon?;
        times.push(secs);
        if times.len() == count {
            return Ok((daemon, times));
        }
        daemon.shutdown()?;
    }
}

/// Median round trip of idle `ping`s on one connection, µs.
fn ping_rtt_us(addr: &str) -> Result<f64, String> {
    let mut connection = Connection::open(addr)?;
    let line = Request::Ping { id: 1 }.render();
    let mut rtts = Vec::new();
    for _ in 0..300 {
        let (answer, secs) = timed(|| connection.round_trip(&line));
        answer?;
        rtts.push(secs * 1e6);
    }
    Ok(median(&rtts))
}

/// Count failed requests and responses that broke the warm invariant;
/// returns the well-formed responses with their latency and line length.
fn tally<'a>(out: &mut Outcome, samples: &'a [Sample]) -> Vec<(&'a Sample, &'a SolveResponse)> {
    let mut ok = Vec::new();
    for s in samples {
        out.attempted += 1;
        match &s.response {
            Ok(r) if r.result.rr_generated == 0 && r.result.index_extended == 0 => ok.push((s, r)),
            Ok(r) => out.fail(format!(
                "request {} generated RR-sets on a warm session",
                r.id
            )),
            Err(e) => out.fail(e.clone()),
        }
    }
    ok
}

/// Replay a seeded sample of served responses in-process and compare
/// their canonical bytes.
fn check_replay(
    out: &mut Outcome,
    session: &Session,
    ok: &[(&Sample, &SolveResponse)],
    mix: Mix,
    seed: u64,
) {
    for i in sample_indices(seed, ok.len(), CHECKED) {
        let served = ok[i].1;
        match solve_in_process(session, &mix.request(seed, served.id)) {
            Ok(fresh) if canonical(&fresh) == canonical(served) => {}
            Ok(fresh) => out.fail(format!(
                "request {}: served {} but in-process {}",
                served.id,
                canonical(served),
                canonical(&fresh)
            )),
            Err(e) => out.fail(format!(
                "request {}: in-process solve failed: {e}",
                served.id
            )),
        }
    }
}

fn check_memo(out: &mut Outcome, (hits, misses): (u64, u64), hot: bool) -> f64 {
    let frac = hits as f64 / (hits + misses).max(1) as f64;
    let held = if hot { frac >= 0.99 } else { frac <= 0.01 };
    if !held {
        out.fail(format!(
            "memo-hit rate {frac:.4} ({hits} hits, {misses} misses) is outside the mix's regime"
        ));
    }
    frac
}

/// Latency percentile `q`, lowered until ten samples lie beyond it.
fn tail(latencies: &[f64], q: f64) -> f64 {
    let n = latencies.len().max(1) as f64;
    quantile(latencies, q.min(1.0 - 10.0 / n).max(0.5))
}

/// Per-layer numbers the v2 `timing` block of each response carries.
fn server_rows(out: &mut Outcome, ok: &[(&Sample, &SolveResponse)], wall: f64) {
    let n = ok.len();
    let col = |f: &dyn Fn(&SolveResponse, f64) -> f64| -> Vec<f64> {
        ok.iter().map(|(s, r)| f(r, s.latency)).collect()
    };
    let queue = col(&|r, _| r.timing.queue_secs * 1e3);
    let batch_wait = col(&|r, _| r.timing.batch_wait_secs * 1e3);
    let batch_size = col(&|r, _| r.timing.batch_size as f64);
    let busy: f64 = col(&|r, _| r.timing.warm_secs + r.timing.solve_secs + r.timing.serialize_secs)
        .iter()
        .sum();
    let delivery = col(&|r, latency| {
        let t = &r.timing;
        (latency - t.queue_secs - t.batch_wait_secs - t.warm_secs - t.solve_secs - t.serialize_secs)
            * 1e3
    });
    let bytes: Vec<f64> = ok.iter().map(|(s, _)| s.bytes as f64).collect();
    out.set("server.queue_ms_p99", quantile(&queue, 0.99), n);
    out.set("server.batch_wait_ms_p99", quantile(&batch_wait, 0.99), n);
    out.set("server.batch_size_mean", mean(&batch_size), n);
    out.set("server.worker_busy_frac", busy / (CORES as f64 * wall), n);
    out.set("server.delivery_ms_p50", median(&delivery), n);
    out.set("wire.response_bytes", mean(&bytes), n);
}

/// In-process replay of `requests` on a warm session: session, evaluation,
/// greedy-core and wire numbers, plus the diffusion work it caused.
fn replay_rows(out: &mut Outcome, session: &Session, requests: &[SolveRequest], memoized: bool) {
    let ctx = serve_ctx();
    let rma_config = rmsa_bench::default_rma_config(&ctx);
    let mut seen = std::collections::BTreeSet::new();
    if memoized {
        // Prime the memo untimed, as the served run does.
        for class in Mix::hot_classes() {
            if let Err(e) = session.solve_memoized(&class) {
                out.fail(format!("priming the in-process memo: {e}"));
            }
            seen.insert(crate::mix::class_of(&class));
        }
    }
    let before = session.workbench().cache_stats();
    let mut greedy = GreedyReplay::default();
    let (mut solve_ms, mut report_ms, mut rounds, mut pairs) = (vec![], vec![], vec![], vec![]);
    for request in requests {
        let hit = memoized && !seen.insert(crate::mix::class_of(request));
        let (result, secs) = timed(|| {
            if memoized {
                session.solve_memoized(request)
            } else {
                session.solve(request)
            }
        });
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("in-process request {}: {e}", request.id));
                continue;
            }
        };
        solve_ms.push(secs * 1e3);
        if !hit {
            if result.algorithm == "RMA" {
                rounds.push(result.iterations as f64);
            }
            let instance = session.instance(request.incentive, request.alpha);
            let allocation = greedy.solve(session.workbench(), &instance, WARM_RR, &rma_config);
            let (_, secs) = timed(|| {
                let evaluator = session.workbench().evaluator(&instance, ctx.eval_rr);
                evaluator.report(&instance, &allocation)
            });
            report_ms.push(secs * 1e3);
            // One-batch is exactly one RM_with_Oracle call on R1: the
            // replayed allocation must be the one the session served.
            if request.algorithm == rmsa_service::wire::Algorithm::OneBatch
                && rmsa_service::session::allocation_digest(&allocation) != result.allocation_digest
            {
                out.fail(format!("request {}: replayed greedy differs", request.id));
            }
        }
        pairs.push((
            request.clone(),
            SolveResponse {
                id: request.id,
                session: session.key().label(),
                result,
                timing: Default::default(),
            },
        ));
    }
    if greedy.mismatches > 0 {
        out.fail(format!(
            "{} counted greedy solve(s) differ from the bare estimator",
            greedy.mismatches
        ));
    }
    let delta = CacheDelta::between(&before, &session.workbench().cache_stats());
    let (parse_us, render_us) = wire_timing(&pairs);
    let n = solve_ms.len();
    out.set("diffusion.rr_generated", delta.generated as f64, n);
    out.set("diffusion.cache_reuse_frac", delta.reuse_frac(), n);
    out.set(
        "diffusion.cache_mib",
        session.workbench().cache().memory_bytes() as f64 / (1024.0 * 1024.0),
        1,
    );
    out.set("session.solve_ms", mean(&solve_ms), n);
    out.set("evaluation.report_ms", mean(&report_ms), report_ms.len());
    out.set("rma.rounds", mean(&rounds), rounds.len());
    for (name, value) in greedy.rows() {
        out.set(name, value, greedy.solves);
    }
    out.set("wire.parse_us", parse_us, pairs.len());
    out.set("wire.render_us", render_us, pairs.len());
}

/// `Session::build` (or its snapshot load) and `ensure_warm`, timed, with
/// the RR generation they cause.
fn build_session(out: &mut Outcome, snapshot_dir: Option<&Path>) -> Session {
    let ctx = serve_ctx();
    let (session, build_s) =
        timed(|| Session::build_or_load(session_key(), &ctx, snapshot_dir, VerifyMode::Lazy));
    let before = session.workbench().cache_stats();
    let (_, warm_s) = timed(|| session.ensure_warm(None));
    let delta = CacheDelta::between(&before, &session.workbench().cache_stats());
    out.set("session.build_s", build_s, 1);
    out.set("session.warm_s", warm_s, 1);
    out.set(
        "diffusion.generate_s",
        (warm_s - delta.index_secs).max(0.0),
        1,
    );
    out.set("diffusion.index_extend_s", delta.index_secs, 1);
    let stats = session.workbench().cache_stats();
    out.set(
        "store.snapshot_load_s",
        session.stats_entry().snapshot_load_secs,
        1,
    );
    out.set(
        "store.mapped_mib",
        stats.mapped_bytes as f64 / (1024.0 * 1024.0),
        1,
    );
    session
}

/// `solve_bound`: closed loop, two clients, every request its own solve.
pub fn solve_bound(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let work = work_dir(&args.work, "solve_bound")?;
    let start = || Daemon::spawn(&args.rmsa, &work, &[]);
    let (daemon, setups) = set_up(if args.trace { 1 } else { SETUPS }, start)?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    if args.trace {
        out.set("net.ping_rtt_us", ping_rtt_us(&daemon.addr)?, 300);
    }
    let before = daemon.counters()?;
    let (samples, wall) = closed_loop(
        &daemon.addr,
        Mix::SolveBound,
        args.seed,
        CORES,
        Duration::from_secs_f64(seconds),
    )?;
    let memo = memo_delta(&before, &daemon.counters()?);
    let rss = daemon.peak_rss_mib();
    daemon.shutdown()?;
    let ok = tally(out, &samples);
    let memo_frac = check_memo(out, memo, false);
    let session = build_session(out, None);
    check_replay(out, &session, &ok, Mix::SolveBound, args.seed);
    let latencies: Vec<f64> = ok.iter().map(|(s, _)| s.latency * 1e3).collect();
    let n = latencies.len();
    out.set("setup_s", median(&setups), setups.len());
    out.set("throughput_rps", n as f64 / wall, n);
    out.set("latency_p50_ms", median(&latencies), n);
    out.set("latency_p95_ms", tail(&latencies, 0.95), n);
    let revenues: Vec<f64> = ok.iter().filter_map(|(_, r)| r.result.revenue).collect();
    out.set("revenue_mean", mean(&revenues), revenues.len());
    out.set("peak_rss_mib", rss, 1);
    if args.trace {
        out.set(
            "session.memo_hit_frac",
            memo_frac,
            (memo.0 + memo.1) as usize,
        );
        server_rows(out, &ok, wall);
        let requests: Vec<SolveRequest> = (1..=REPLAYED_SOLVES)
            .map(|id| Mix::SolveBound.request(args.seed, id))
            .collect();
        replay_rows(out, &session, &requests, false);
    }
    Ok(())
}

/// `hot`: daemons warm-started from a snapshot, each with a memo primed
/// with the mix's 12 classes. Capacity and the end-to-end latencies come
/// from a saturating pipelined connection; the open loop at a nominal rate
/// feeds the traced run's per-layer numbers and the correctness check.
///
/// The nominal-rate percentiles (about 0.1 ms) are set by thread wakeups
/// on a shared virtual machine: on two vCPUs their p95 moved by a third
/// from run to run, while at capacity the latency is queueing behind the
/// in-flight window, which CPU work sets.
pub fn hot(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let work = work_dir(&args.work, "hot")?;
    let snapshots = work.join("snapshots");
    let snapshot_arg = snapshots.display().to_string();
    // The snapshot is made before anything is timed.
    let cold = Daemon::spawn(&args.rmsa, &work, &["--snapshot-dir", &snapshot_arg])?;
    cold.warm()?;
    cold.shutdown()?;
    let seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let on = hot_phase(args, &work, &["--snapshot-dir", &snapshot_arg], seconds, 1)?;
    let nominal = &on.nominal;
    if !nominal.generator_kept_up() {
        out.fail(format!(
            "the generator's median send lag {:.3} ms exceeds half the {HOT_NOMINAL_RATE}/s \
             inter-arrival time",
            median(&nominal.send_lags) * 1e3
        ));
    }
    let ok = tally(out, &nominal.samples);
    let capacity_rps = capacity(out, &on);
    let memo_frac = check_memo(out, on.memo, true);
    let session = build_session(out, Some(&snapshots));
    check_replay(out, &session, &ok, Mix::Hot, args.seed);
    let at_capacity: Vec<f64> = on
        .saturated
        .iter()
        .filter(|s| s.response.is_ok())
        .map(|s| s.latency * 1e3)
        .collect();
    let n = at_capacity.len();
    out.set("setup_s", median(&on.setups), on.setups.len());
    out.set("throughput_rps", capacity_rps, n);
    out.set("latency_p50_ms", median(&at_capacity), n);
    out.set("latency_p95_ms", tail(&at_capacity, 0.95), n);
    let revenues: Vec<f64> = ok.iter().filter_map(|(_, r)| r.result.revenue).collect();
    out.set("revenue_mean", mean(&revenues), revenues.len());
    out.set("peak_rss_mib", on.peak_rss_mib, HOT_ROUNDS);
    if args.trace {
        out.set("net.ping_rtt_us", on.ping_rtt_us, 300);
        out.set(
            "session.memo_hit_frac",
            memo_frac,
            (on.memo.0 + on.memo.1) as usize,
        );
        out.set(
            "loadgen.send_lag_ms_p99",
            quantile(&nominal.send_lags, 0.99) * 1e3,
            nominal.send_lags.len(),
        );
        // Medians over windows of 1,000 requests, so that one descheduling
        // of the daemon does not set the tail.
        let latencies: Vec<f64> = ok.iter().map(|(s, _)| s.latency * 1e3).collect();
        out.set(
            "loadgen.nominal_p50_ms",
            windowed(&latencies, 1_000, median),
            latencies.len(),
        );
        out.set(
            "loadgen.nominal_p99_ms",
            windowed(&latencies, 1_000, |w| tail(w, 0.99)),
            latencies.len(),
        );
        server_rows(out, &ok, seconds * 0.5);
        // Obs on against obs off, back to back: the same phase on
        // `--no-obs` daemons over the same snapshot.
        let off = hot_phase(
            args,
            &work,
            &["--snapshot-dir", &snapshot_arg, "--no-obs"],
            seconds,
            on.next_id,
        )?;
        let capacity_off = capacity(&mut Outcome::default(), &off);
        out.set("obs.overhead_frac", 1.0 - capacity_rps / capacity_off, 2);
        let requests: Vec<SolveRequest> = (1..=REPLAYED_HITS)
            .map(|id| Mix::Hot.request(args.seed, id))
            .collect();
        replay_rows(out, &session, &requests, true);
    }
    Ok(())
}

/// What the timed phase of `hot` measured.
struct HotPhase {
    /// Spawn-to-warm seconds of each round's daemon.
    setups: Vec<f64>,
    /// The open-loop stretches at the nominal rate, concatenated.
    nominal: OpenStep,
    /// The saturating stretches' requests.
    saturated: Vec<Sample>,
    /// Their completions per second in quarter-second windows.
    window_rates: Vec<f64>,
    /// Memo hits and misses over the timed stretches.
    memo: (u64, u64),
    peak_rss_mib: f64,
    /// Median idle `ping` round trip on the first daemon, µs.
    ping_rtt_us: f64,
    next_id: u64,
}

/// `HOT_ROUNDS` rounds, each on a fresh daemon warm-started from the
/// snapshot and primed: an open-loop stretch at the nominal rate, then a
/// saturating one, half the time each. Fresh daemons and alternation let
/// every number sample the whole run's share of host noise and thread
/// placement.
fn hot_phase(
    args: &Args,
    work: &Path,
    flags: &[&str],
    seconds: f64,
    first_id: u64,
) -> Result<HotPhase, String> {
    let slice = Duration::from_secs_f64(seconds / (2 * HOT_ROUNDS) as f64);
    let mut phase = HotPhase {
        setups: Vec::new(),
        nominal: OpenStep {
            rate: HOT_NOMINAL_RATE,
            samples: Vec::new(),
            send_lags: Vec::new(),
        },
        saturated: Vec::new(),
        window_rates: Vec::new(),
        memo: (0, 0),
        peak_rss_mib: 0.0,
        ping_rtt_us: 0.0,
        next_id: first_id,
    };
    for round in 0..HOT_ROUNDS {
        let (daemon, secs) =
            timed(|| Daemon::spawn(&args.rmsa, work, flags).and_then(|d| d.warm().map(|()| d)));
        let daemon = daemon?;
        phase.setups.push(secs);
        prime(&daemon)?;
        if round == 0 {
            phase.ping_rtt_us = ping_rtt_us(&daemon.addr)?;
        }
        let addr = &daemon.addr;
        let before = daemon.counters()?;
        let step = open_loop(
            addr,
            Mix::Hot,
            args.seed,
            HOT_NOMINAL_RATE,
            slice,
            phase.next_id,
        )?;
        phase.next_id += step.samples.len() as u64;
        phase.nominal.samples.extend(step.samples);
        phase.nominal.send_lags.extend(step.send_lags);
        let (samples, wall) = pipelined(
            addr,
            Mix::Hot,
            args.seed,
            SATURATION_WINDOW,
            slice,
            phase.next_id,
        )?;
        phase.next_id += samples.len() as u64;
        let done_at: Vec<f64> = samples
            .iter()
            .filter(|s| s.response.is_ok())
            .map(|s| s.at)
            .collect();
        phase
            .window_rates
            .extend(window_rates(&done_at, wall, 0.25));
        phase.saturated.extend(samples);
        let (hits, misses) = memo_delta(&before, &daemon.counters()?);
        phase.memo = (phase.memo.0 + hits, phase.memo.1 + misses);
        phase.peak_rss_mib = phase.peak_rss_mib.max(daemon.peak_rss_mib());
        daemon.shutdown()?;
    }
    Ok(phase)
}

/// Capacity: the median completion rate of the saturating stretches,
/// which must hold the latency objective (p99 within `--slo-ms`).
fn capacity(out: &mut Outcome, phase: &HotPhase) -> f64 {
    let ok = tally(out, &phase.saturated);
    let latencies: Vec<f64> = ok.iter().map(|(s, _)| s.latency).collect();
    if quantile(&latencies, 0.99) > SLO_SECS {
        out.fail(format!(
            "saturating load broke the {} ms objective",
            SLO_SECS * 1e3
        ));
    }
    median(&phase.window_rates)
}

/// One solve per class of the `hot` mix, so the timed phase hits the memo.
fn prime(daemon: &Daemon) -> Result<(), String> {
    for request in Mix::hot_classes() {
        match daemon.call(&Request::Solve(request))? {
            rmsa_service::wire::Response::Solve(_) => {}
            other => return Err(format!("priming the memo failed: {other:?}")),
        }
    }
    Ok(())
}
