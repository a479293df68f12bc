//! End-to-end tests of the `rmsa serve` daemon over real TCP.
//!
//! The headline invariant: for a fixed master seed, loadgen's canonical
//! response bytes are identical whether the daemon runs 1 or 8 workers
//! and regardless of how concurrent clients interleave — and a group of
//! same-fingerprint requests hitting a cold session triggers exactly one
//! RR-cache extension.

use rmsa_datasets::{DatasetKind, IncentiveModel};
use rmsa_diffusion::RrStrategy;
use rmsa_service::loadgen::{self, LoadgenPlan};
use rmsa_service::wire::{self, Algorithm, Request, Response, SolveRequest, WarmRequest};
use rmsa_service::{server, ServerConfig, ServiceClient};

fn tiny_config(workers: usize) -> ServerConfig {
    ServerConfig::builder(rmsa_service::tiny_serve_ctx(7))
        .workers(workers)
        .max_sessions(2)
        .build()
        .expect("valid config")
}

fn solve_request(id: u64, algorithm: Algorithm, alpha: f64) -> SolveRequest {
    SolveRequest {
        id,
        dataset: DatasetKind::LastfmSyn,
        strategy: RrStrategy::Standard,
        algorithm,
        incentive: IncentiveModel::Linear,
        alpha,
        evaluate: true,
    }
}

/// Start a daemon, run the quick load, shut it down, return the
/// canonical response lines.
fn load_canonical(workers: usize) -> Vec<String> {
    let handle = server::start("127.0.0.1:0", tiny_config(workers)).expect("bind");
    let addr = handle.local_addr().to_string();
    let plan = LoadgenPlan::quick(7);
    let outcome = loadgen::run(&addr, &plan).expect("loadgen");
    assert_eq!(outcome.errors, Vec::<String>::new());
    assert_eq!(outcome.responses.len(), plan.total_requests());
    handle.shutdown();
    handle.wait();
    outcome.canonical_lines()
}

#[test]
fn loadgen_responses_are_bit_identical_for_1_and_8_workers() {
    let one = load_canonical(1);
    let eight = load_canonical(8);
    assert_eq!(one.len(), 24);
    assert_eq!(
        one, eight,
        "canonical response bytes must not depend on the worker count"
    );
    // Responses carry real payloads, not empty husks.
    assert!(one.iter().all(|l| l.contains("allocation_digest")));
    assert!(one.iter().any(|l| l.contains("\"RMA\"")));
    assert!(one.iter().any(|l| l.contains("\"TI-CARM\"")));
}

#[test]
fn a_batched_group_of_same_fingerprint_requests_extends_the_cache_once() {
    let handle = server::start("127.0.0.1:0", tiny_config(4)).expect("bind");
    let addr = handle.local_addr().to_string();
    const N: usize = 8;
    // N concurrent clients fire same-fingerprint solves at a cold session.
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(&addr).expect("connect");
                    client
                        .call(&Request::Solve(solve_request(
                            i as u64 + 1,
                            Algorithm::Rma,
                            0.2,
                        )))
                        .expect("solve")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let mut solves = 0;
    for response in &responses {
        let Response::Solve(solve) = response else {
            panic!("expected a solve response, got {response:?}");
        };
        solves += 1;
        assert_eq!(
            solve.result.rr_generated, 0,
            "the warm-up, not the solves, must do all generation"
        );
        assert_eq!(
            solve.result.index_extended, 0,
            "no solve may extend the coverage index"
        );
    }
    assert_eq!(solves, N);

    let mut client = ServiceClient::connect(&addr).expect("connect");
    let Response::Stats { sessions, .. } = client.call(&Request::Stats { id: 99 }).expect("stats")
    else {
        panic!("expected stats");
    };
    assert_eq!(sessions.len(), 1);
    let session = &sessions[0];
    assert_eq!(session.session, "lastfm-syn/standard");
    assert_eq!(session.served, N);
    assert_eq!(
        session.warm_extensions, 1,
        "N same-fingerprint requests must trigger exactly one extension"
    );
    assert!(
        session.rr_generated > 0,
        "the single warm-up really generated"
    );
    assert_eq!(
        session.index_extended, session.rr_generated,
        "every generated RR-set indexed exactly once, nothing rebuilt"
    );
    assert!(session.memory_bytes > 0);

    handle.shutdown();
    handle.wait();
}

#[test]
fn warm_rpc_pre_extends_and_solves_report_reuse() {
    let handle = server::start("127.0.0.1:0", tiny_config(2)).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = ServiceClient::connect(&addr).expect("connect");

    let warm = Request::Warm(WarmRequest {
        id: 1,
        dataset: DatasetKind::LastfmSyn,
        strategy: RrStrategy::Standard,
        target_rr: None,
    });
    let Response::Warm(first) = client.call(&warm).expect("warm") else {
        panic!("expected warm response");
    };
    assert!(!first.already_warm);
    assert!(first.generated > 0);
    let Response::Warm(second) = client.call(&warm).expect("warm") else {
        panic!("expected warm response");
    };
    assert!(second.already_warm);
    assert_eq!(second.generated, 0);

    let Response::Solve(solve) = client
        .call(&Request::Solve(solve_request(3, Algorithm::OneBatch, 0.1)))
        .expect("solve")
    else {
        panic!("expected solve response");
    };
    assert_eq!(solve.result.rr_generated, 0);
    assert_eq!(solve.session, "lastfm-syn/standard");
    assert!(solve.timing.batch_size >= 1);

    handle.shutdown();
    handle.wait();
}

#[test]
fn a_wire_shutdown_alone_stops_the_daemon() {
    // Regression test: a `shutdown` request arriving over TCP must fully
    // stop the daemon — event loop, workers, and background persists —
    // otherwise `rmsa serve` never exits and the CI smoke step hangs at
    // `wait()`.
    let handle = server::start("127.0.0.1:0", tiny_config(2)).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = ServiceClient::connect(&addr).expect("connect");
    assert!(matches!(
        client.call(&Request::Shutdown { id: 1 }).expect("shutdown"),
        Response::ShuttingDown { id: 1 }
    ));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.wait();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("daemon must fully exit after a wire shutdown");
}

#[test]
fn protocol_errors_are_answered_not_fatal() {
    let handle = server::start("127.0.0.1:0", tiny_config(1)).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = ServiceClient::connect(&addr).expect("connect");

    // A malformed line on a raw connection gets an error response and the
    // connection lives on.
    use std::io::Write as _;
    let mut garbage = std::net::TcpStream::connect(&addr).expect("connect");
    garbage.write_all(b"this is not json\n").expect("send");
    let mut reader = std::io::BufReader::new(garbage.try_clone().expect("clone"));
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
    let parsed = Response::parse(line.trim_end()).expect("parse error response");
    assert!(matches!(parsed, Response::Error { .. }));

    // Ping still works, and an unknown-dataset solve errors gracefully.
    assert!(matches!(
        client.call(&Request::Ping { id: 5 }).expect("ping"),
        Response::Pong { id: 5 }
    ));
    let bad = r#"{"schema_version":1,"id":6,"op":"solve","dataset":"nope","algorithm":"rma","alpha":0.1}"#;
    garbage.write_all(bad.as_bytes()).expect("send");
    garbage.write_all(b"\n").expect("send");
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
    assert!(matches!(
        Response::parse(line.trim_end()).expect("parse"),
        Response::Error { .. }
    ));

    handle.shutdown();
    handle.wait();
}

#[test]
fn snapshot_restart_is_warm_and_bit_identical() {
    // The round-trip invariant, end to end over real TCP: run a daemon
    // with --snapshot-dir, drive it, shut it down; a restarted daemon on
    // the same directory must (a) warm-start every session from disk,
    // (b) answer the same seeded load with bit-identical canonical
    // response bytes, and (c) report zero warm extensions — the restart
    // generated no RR-set at all.
    let dir = std::env::temp_dir().join("rmsa_service_snapshot_restart");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config_with_dir = |workers: usize| {
        ServerConfig::builder(rmsa_service::tiny_serve_ctx(7))
            .workers(workers)
            .max_sessions(2)
            .snapshot_dir(Some(dir.clone()))
            .build()
            .expect("valid config")
    };

    // Cold run: builds sessions, persists them in the background.
    let handle = server::start("127.0.0.1:0", config_with_dir(2)).expect("bind");
    let addr = handle.local_addr().to_string();
    let load = LoadgenPlan::quick(7);
    let cold = loadgen::run(&addr, &load).expect("loadgen");
    assert_eq!(cold.errors, Vec::<String>::new());
    handle.shutdown();
    handle.wait(); // joins the background persist threads
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        snapshots.iter().any(|n| n.ends_with(".rmsnap")),
        "cold run must persist snapshots, found {snapshots:?}"
    );

    // Warm restart: same directory, different worker count on purpose.
    let handle = server::start("127.0.0.1:0", config_with_dir(4)).expect("bind");
    let addr = handle.local_addr().to_string();
    let warm = loadgen::run(&addr, &load).expect("loadgen");
    assert_eq!(warm.errors, Vec::<String>::new());
    assert_eq!(
        cold.canonical_lines(),
        warm.canonical_lines(),
        "a snapshot restart must answer bit-identically to the cold run"
    );
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let Response::Stats { sessions, .. } = client.call(&Request::Stats { id: 9 }).expect("stats")
    else {
        panic!("expected stats");
    };
    assert!(!sessions.is_empty());
    for session in &sessions {
        assert!(
            session.loaded_from_snapshot,
            "{} must warm-start from disk",
            session.session
        );
        assert_eq!(
            session.warm_extensions, 0,
            "{} restarted warm — no extension allowed",
            session.session
        );
        assert_eq!(
            session.rr_generated, 0,
            "{} must not generate a single RR-set after a warm restart",
            session.session
        );
        assert!(session.snapshot_load_secs > 0.0);
    }
    handle.shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_report_matches_itself_across_runs_and_feeds_compare() {
    use rmsa_bench::report::{compare_reports, Tolerance};
    let make = || {
        let handle = server::start("127.0.0.1:0", tiny_config(2)).expect("bind");
        let addr = handle.local_addr().to_string();
        let plan = LoadgenPlan::quick(7);
        let outcome = loadgen::run(&addr, &plan).expect("loadgen");
        handle.shutdown();
        handle.wait();
        loadgen::report(&outcome, &plan, true)
    };
    let a = make();
    let b = make();
    // Revenue-style metrics are deterministic → a tight gate passes.
    let tolerance = Tolerance {
        metric_frac: 0.0,
        time_frac: 1_000.0,
        min_time_secs: 1_000.0,
    };
    let regressions = compare_reports(&a, &b, &tolerance);
    assert_eq!(regressions, Vec::new(), "deterministic metrics must match");
    assert!(a.points.iter().any(|p| p.job == "latency,"));
    assert!(a.points.iter().any(|p| p.job == "throughput,"));
    assert!(a
        .points
        .iter()
        .any(|p| p.job == "lastfm-syn," && p.outcome.algorithm == "RMA"));
    // The report round-trips through its JSON rendering.
    let parsed = rmsa_bench::BenchReport::from_json_text(&a.render()).expect("parse");
    assert_eq!(parsed.points.len(), a.points.len());
}

#[test]
fn a_solve_yields_a_retrievable_phase_tree_and_nonzero_rpc_histograms() {
    let handle = server::start("127.0.0.1:0", tiny_config(2)).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = ServiceClient::connect(&addr).expect("connect");

    // One cold solve: the warm-up generates, the solver runs greedy.
    let Response::Solve(solve) = client
        .call(&Request::Solve(solve_request(1, Algorithm::Rma, 0.2)))
        .expect("solve")
    else {
        panic!("expected solve response");
    };
    assert_ne!(solve.timing.trace, 0, "v2 solves must echo their trace id");

    // The trace RPC hands back that request's phase tree.
    let Response::Trace { traces, .. } = client
        .call(&Request::Trace {
            id: 2,
            limit: 16,
            slowest: false,
            trace: 0,
        })
        .expect("trace")
    else {
        panic!("expected trace response");
    };
    let tree = traces
        .iter()
        .find(|t| t.trace == solve.timing.trace)
        .expect("the solve's trace is retrievable by its echoed id");
    let find = |name: &str| {
        tree.spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("trace missing a {name:?} span: {:?}", tree.spans))
    };
    for phase in ["parse", "batch_wait", "warm_check", "solve", "serialize"] {
        find(phase);
    }
    // Parent ids are consistent: every non-root parent is a span of this
    // same trace, and the phase tree nests the way the pipeline runs —
    // generation under the warm check, greedy under the solve.
    let ids: std::collections::BTreeSet<u64> = tree.spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), tree.spans.len(), "span ids are unique");
    for span in &tree.spans {
        assert!(
            span.parent == 0 || ids.contains(&span.parent),
            "span {:?} has a dangling parent {}",
            span.name,
            span.parent
        );
    }
    assert_eq!(find("generate").parent, find("warm_check").id);
    assert_eq!(find("greedy").parent, find("solve").id);

    // The metrics RPC reports the solve in the per-RPC latency histogram.
    let Response::Metrics { report, .. } =
        client.call(&Request::Metrics { id: 3 }).expect("metrics")
    else {
        panic!("expected metrics response");
    };
    let rpc_solve = report
        .histograms
        .iter()
        .find(|h| h.name == "rpc_solve_secs")
        .expect("rpc_solve_secs histogram registered");
    assert!(rpc_solve.count >= 1);
    assert!(rpc_solve.max_secs > 0.0);
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name:?} missing: {:?}", report.counters))
    };
    assert!(counter("requests_total") >= 1);
    assert!(counter("rr_generated_total") > 0, "cold solve generated");

    handle.shutdown();
    handle.wait();
}

#[test]
fn open_loop_load_reports_gated_throughput_and_matches_closed_mix() {
    use rmsa_service::loadgen::Mode;
    let handle = server::start("127.0.0.1:0", tiny_config(2)).expect("bind");
    let addr = handle.local_addr().to_string();
    let plan = LoadgenPlan::builder(7)
        .mode(Mode::OpenLoop { rate_hz: 400.0 })
        .requests(48)
        .build()
        .expect("valid plan");
    let outcome = loadgen::run(&addr, &plan).expect("loadgen");
    assert_eq!(outcome.errors, Vec::<String>::new());
    assert_eq!(outcome.responses.len(), 48);
    // Every scheduled id answered exactly once, in id order after sort.
    let ids: Vec<u64> = outcome.responses.iter().map(|(r, _)| r.id).collect();
    assert_eq!(ids, (1..=48).collect::<Vec<u64>>());
    handle.shutdown();
    handle.wait();

    let report = loadgen::report(&outcome, &plan, true);
    assert_eq!(report.scenario, "service_open");
    let throughput = report
        .points
        .iter()
        .find(|p| p.job == "throughput,")
        .expect("throughput row");
    assert!(
        (throughput.outcome.revenue - outcome.throughput()).abs() < 1e-9,
        "open-loop throughput must land in the gated revenue column"
    );
    assert!(throughput.outcome.revenue > 0.0);

    // Every latency quantile row breaks down into per-phase columns, and
    // the gated revenue column carries the attribution share (percent of
    // the end-to-end quantile the phases explain, capped at 100).
    let latency_rows: Vec<_> = report
        .points
        .iter()
        .filter(|p| p.job == "latency,")
        .collect();
    assert_eq!(latency_rows.len(), 3);
    for row in &latency_rows {
        let names: Vec<&str> = row.outcome.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "send_lag",
                "queue",
                "batch_wait",
                "warm_check",
                "solve",
                "serialize",
                "flush",
                "delivery"
            ],
            "open-loop latency rows carry the full phase breakdown"
        );
        assert!(row.outcome.phases.iter().all(|(_, secs)| *secs >= 0.0));
        assert!(
            row.outcome.revenue >= 90.0 && row.outcome.revenue <= 100.0,
            "the breakdown (delivery residual included) must explain \
             at least 90% of the end-to-end quantile, got {}",
            row.outcome.revenue
        );
    }
    // The report (phases included) round-trips through its JSON form.
    let parsed = rmsa_bench::BenchReport::from_json_text(&report.render()).expect("parse");
    let reparsed_row = parsed
        .points
        .iter()
        .find(|p| p.job == "latency," && p.key == 99.0)
        .expect("p99 row survives the round trip");
    let original_row = report
        .points
        .iter()
        .find(|p| p.job == "latency," && p.key == 99.0)
        .expect("p99 row");
    assert_eq!(reparsed_row.outcome.phases, original_row.outcome.phases);
}

#[test]
fn exemplars_flight_and_trace_by_id_link_the_tail_story_together() {
    use rmsa_service::loadgen::{LoadMix, Mode};
    // A 1 ms objective makes the cold solve below an anomaly by
    // construction.
    let config = ServerConfig::builder(rmsa_service::tiny_serve_ctx(7))
        .workers(2)
        .max_sessions(2)
        .slo_ms(1)
        .build()
        .expect("valid config");
    let handle = server::start("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr().to_string();
    // Background traffic: fills the histograms and arms the tail sampler.
    let plan = LoadgenPlan::builder(7)
        .mode(Mode::ClosedLoop { clients: 4 })
        .requests(9)
        .mix(LoadMix::quick())
        .build()
        .expect("valid plan");
    let outcome = loadgen::run(&addr, &plan).expect("loadgen");
    assert_eq!(outcome.errors, Vec::<String>::new());

    // A cold-fingerprint solve: no memo entry, fresh session build.
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let Response::Solve(solve) = client
        .call(&Request::Solve(SolveRequest {
            id: 9001,
            dataset: DatasetKind::FlixsterSyn,
            strategy: RrStrategy::Standard,
            algorithm: Algorithm::Rma,
            incentive: IncentiveModel::Linear,
            alpha: 0.2,
            evaluate: true,
        }))
        .expect("solve")
    else {
        panic!("expected solve response");
    };
    let t = solve.timing;
    assert_ne!(t.trace, 0);
    assert!(t.solve_secs > 0.0, "cold solve takes measurable time");
    assert!(t.warm_secs > 0.0, "cold warm-up takes measurable time");
    assert!(t.queue_secs >= 0.0 && t.batch_wait_secs >= 0.0);
    assert!(t.serialize_secs >= 0.0 && t.flush_secs >= 0.0);

    // The echoed trace id resolves through the by-id filter, with a
    // terminal status.
    let Response::Trace { traces, .. } = client
        .call(&Request::Trace {
            id: 9002,
            limit: 1,
            slowest: false,
            trace: t.trace,
        })
        .expect("trace")
    else {
        panic!("expected trace response");
    };
    assert_eq!(traces.len(), 1, "trace-by-id returns exactly that trace");
    assert_eq!(traces[0].trace, t.trace);
    assert_eq!(traces[0].status, "ok");

    // Histogram exemplars point at real traces; the objective gauge is
    // exported.
    let Response::Metrics { report, .. } = client
        .call(&Request::Metrics { id: 9003 })
        .expect("metrics")
    else {
        panic!("expected metrics response");
    };
    let rpc = report
        .histograms
        .iter()
        .find(|h| h.name == "rpc_solve_secs")
        .expect("solve histogram registered");
    assert!(!rpc.exemplars.is_empty(), "served histogram has exemplars");
    assert!(rpc.exemplars.iter().all(|e| e.trace != 0));
    let threshold = report
        .gauges
        .iter()
        .find(|(n, _)| n == "slo_threshold_ms")
        .expect("slo threshold gauge");
    assert_eq!(threshold.1, 1);

    // The flight recorder saw the control plane, in one global order,
    // including the slow anomaly for exactly our cold solve.
    let Response::Flight { events, .. } =
        client.call(&Request::Flight { id: 9004 }).expect("flight")
    else {
        panic!("expected flight response");
    };
    assert!(events.iter().any(|e| e.kind == "conn_open"));
    assert!(events.iter().any(|e| e.kind == "batch_form" && e.a >= 1));
    assert!(
        events
            .iter()
            .any(|e| e.kind == "anomaly_slow" && e.a == t.trace),
        "the 1 ms objective must flag the cold solve"
    );
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "flight events in seq order");
    }
    handle.shutdown();
    handle.wait();
}

/// Solve one cold lastfm-syn class on `addr`; returns its trace id.
fn cold_solve_trace(addr: &str) -> u64 {
    let mut client = ServiceClient::connect(addr).expect("connect");
    match client
        .call(&Request::Solve(solve_request(1, Algorithm::Rma, 0.2)))
        .expect("solve")
    {
        Response::Solve(solve) => solve.timing.trace,
        other => panic!("expected solve response, got {other:?}"),
    }
}

/// The `metrics`, `trace` and `flight` reports of the daemon at `addr`.
fn obs_reports(
    addr: &str,
) -> (
    wire::MetricsReport,
    Vec<wire::TraceReport>,
    Vec<wire::FlightEventEntry>,
) {
    let mut client = ServiceClient::connect(addr).expect("connect");
    let Response::Metrics { report, .. } =
        client.call(&Request::Metrics { id: 1 }).expect("metrics")
    else {
        panic!("expected metrics response");
    };
    let trace = Request::Trace {
        id: 2,
        limit: 64,
        slowest: false,
        trace: 0,
    };
    let Response::Trace { traces, .. } = client.call(&trace).expect("trace") else {
        panic!("expected trace response");
    };
    let Response::Flight { events, .. } = client.call(&Request::Flight { id: 3 }).expect("flight")
    else {
        panic!("expected flight response");
    };
    (report, traces, events)
}

fn named<T: Copy>(rows: &[(String, T)], name: &str) -> T {
    rows.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("{name:?} missing"))
}

/// Three daemons in one process, each serving one solve at the same
/// time, report only their own metrics, traces and flight events; the
/// `--no-obs` one reports nothing at all.
#[test]
fn obs_state_is_isolated_per_daemon() {
    let config = |slo_ms: u64, obs: bool| {
        ServerConfig::builder(rmsa_service::tiny_serve_ctx(7))
            .workers(1)
            .max_sessions(1)
            .slo_ms(slo_ms)
            .obs(obs)
            .build()
            .expect("valid config")
    };
    let daemons = [config(1, true), config(50, true), config(50, false)]
        .map(|c| server::start("127.0.0.1:0", c).expect("bind"));
    let addrs = daemons.each_ref().map(|d| d.local_addr().to_string());
    let solved: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = addrs
            .iter()
            .map(|addr| s.spawn(move || cold_solve_trace(addr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solve thread"))
            .collect()
    });

    for (own, slo_ms) in [(0, 1), (1, 50)] {
        let (report, traces, events) = obs_reports(&addrs[own]);
        assert_eq!(named(&report.gauges, "slo_threshold_ms"), slo_ms);
        assert_eq!(named(&report.counters, "requests_total"), 1);
        let ids: std::collections::BTreeSet<u64> = traces.iter().map(|t| t.trace).collect();
        assert!(
            ids.contains(&solved[own]),
            "own solve trace missing: {ids:?}"
        );
        for (other, trace) in solved.iter().enumerate() {
            if other != own {
                assert!(
                    !ids.contains(trace),
                    "daemon {own} holds daemon {other}'s trace"
                );
            }
        }
        assert!(events.iter().any(|e| e.kind == "batch_form"));
        for e in events
            .iter()
            .filter(|e| e.kind.starts_with("anomaly_") && e.a != 0)
        {
            assert!(ids.contains(&e.a), "foreign anomaly {e:?} in daemon {own}");
        }
    }
    // Only daemon A's 1 ms objective flags its cold solve.
    let (_, _, a_events) = obs_reports(&addrs[0]);
    assert!(a_events
        .iter()
        .any(|e| e.kind == "anomaly_slow" && e.a == solved[0]));

    let (report, traces, events) = obs_reports(&addrs[2]);
    assert!(report.counters.is_empty() && report.gauges.is_empty());
    assert!(report.histograms.is_empty());
    assert!(traces.is_empty() && events.is_empty());

    for daemon in daemons {
        daemon.shutdown();
        daemon.wait();
    }
}

/// Answers the event loop gives itself — a ping, a line with an unknown
/// op — finish their traces and count as responses like worker answers.
#[test]
fn inline_answers_finish_their_traces_and_count() {
    let handle = server::start("127.0.0.1:0", tiny_config(1)).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    let pong = raw_call(&mut raw, r#"{"schema_version":2,"id":6,"op":"ping"}"#);
    assert!(
        matches!(Response::parse(&pong), Ok(Response::Pong { id: 6 })),
        "{pong}"
    );
    let bad = raw_call(&mut raw, r#"{"schema_version":2,"id":7,"op":"nope"}"#);
    assert!(bad.contains("unknown-op"), "{bad}");

    let (report, mut traces, _) = obs_reports(&addr);
    // Trace ids are minted in request order: ping, the bad line, the
    // metrics RPC, then the trace RPC that is still being answered.
    traces.sort_by_key(|t| t.trace);
    let statuses: Vec<&str> = traces.iter().map(|t| t.status.as_str()).collect();
    assert_eq!(statuses, ["ok", "unknown-op", "ok", "unknown"]);
    // Ping and the bad line were answered before the metrics snapshot.
    assert_eq!(named(&report.counters, "responses_total"), 2);
    assert_eq!(named(&report.counters, "errors_total"), 1);
    assert_eq!(named(&report.counters, "requests_total"), 0);

    handle.shutdown();
    handle.wait();
}

/// One request line in, one raw response line out (newline stripped).
fn raw_call(stream: &mut std::net::TcpStream, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    // One line per request on a closed-loop connection: a fresh reader
    // never buffers past the answer.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("answer");
    answer.trim_end().to_string()
}

/// A solve line up to its timing object: the bytes that must not depend
/// on which path answered.
fn untimed(line: &str) -> &str {
    &line[..line
        .find(",\"timing\":")
        .expect("a solve line carries timing")]
}

/// The second identical request is a memo hit the event loop answers
/// inline. Its line is byte-identical, timing aside, to the worker's line
/// for the same result and to a `--no-memo` daemon's, in both schema
/// versions; its timing block marks the inline path, and its trace
/// resolves by id with status `ok`.
#[test]
fn inline_memo_hits_render_the_worker_path_bytes() {
    let requests: Vec<(u32, String)> = [(1u32, 0.15), (2, 0.25)]
        .into_iter()
        .map(|(version, alpha)| {
            let request = Request::Solve(solve_request(40, Algorithm::OneBatch, alpha));
            (version, request.render_for(version))
        })
        .collect();

    let handle = server::start("127.0.0.1:0", tiny_config(2)).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut inline_lines = Vec::new();
    for (version, line) in &requests {
        let worker = raw_call(&mut stream, line);
        let inline = raw_call(&mut stream, line);
        assert_eq!(
            untimed(&worker),
            untimed(&inline),
            "v{version}: an inline hit must splice the worker path's bytes"
        );
        let (Ok(Response::Solve(worker)), Ok(Response::Solve(hit))) =
            (Response::parse(&worker), Response::parse(&inline))
        else {
            panic!("v{version}: expected two solve responses");
        };
        assert!(worker.timing.batch_size >= 1, "the first request is a miss");
        let t = hit.timing;
        assert_eq!(
            t.batch_size, 0,
            "v{version}: batch_size 0 marks an inline hit"
        );
        assert_eq!(t.queue_secs, 0.0);
        assert_eq!(t.solve_secs, 0.0);
        if *version == 2 {
            assert_eq!(
                (t.batch_wait_secs, t.warm_secs, t.flush_secs),
                (0.0, 0.0, 0.0)
            );
            assert_ne!(t.trace, 0, "an inline hit carries its minted trace id");
            let mut client = ServiceClient::connect(&addr).expect("connect");
            let Response::Trace { traces, .. } = client
                .call(&Request::Trace {
                    id: 41,
                    limit: 1,
                    slowest: false,
                    trace: t.trace,
                })
                .expect("trace")
            else {
                panic!("expected trace response");
            };
            assert_eq!(traces.len(), 1, "the inline hit's trace resolves by id");
            assert_eq!(traces[0].status, "ok");
            let spans: Vec<&str> = traces[0].spans.iter().map(|s| s.name.as_str()).collect();
            assert!(spans.contains(&"parse") && spans.contains(&"serialize"));
            assert!(!spans.contains(&"solve"), "no worker touched it: {spans:?}");
        }
        inline_lines.push(inline);
    }
    handle.shutdown();
    handle.wait();

    // A `--no-memo` daemon solves both requests from scratch.
    let config = ServerConfig::builder(rmsa_service::tiny_serve_ctx(7))
        .workers(1)
        .max_sessions(2)
        .memoize(false)
        .build()
        .expect("valid config");
    let handle = server::start("127.0.0.1:0", config).expect("bind");
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    for ((version, line), inline) in requests.iter().zip(&inline_lines) {
        let fresh = raw_call(&mut stream, line);
        assert_eq!(
            untimed(&fresh),
            untimed(inline),
            "v{version}: an inline hit must match a --no-memo daemon's bytes"
        );
    }
    handle.shutdown();
    handle.wait();
}

/// Memo hits never wait on a warm-up or a session build: with the only
/// worker busy building and solving a cold flixster-syn session, repeats
/// of a memoized lastfm-syn request on another connection are answered,
/// inline, before the cold solve is.
#[test]
fn memo_hits_are_answered_while_a_cold_session_holds_the_only_worker() {
    use std::io::{BufRead, BufReader, Write};
    // Full dataset scale: the cold flixster-syn build, warm-up and solve
    // take about 0.2 s on two vCPUs, two orders of magnitude more than
    // the pipelined hits below.
    let mut ctx = rmsa_service::tiny_serve_ctx(7);
    ctx.scale = 1.0;
    let config = ServerConfig::builder(ctx)
        .workers(1)
        .build()
        .expect("valid config");
    let handle = server::start("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut hot = ServiceClient::connect(&addr).expect("connect");
    let Response::Solve(first) = hot
        .call(&Request::Solve(solve_request(1, Algorithm::OneBatch, 0.1)))
        .expect("solve")
    else {
        panic!("expected solve response");
    };
    assert!(first.timing.batch_size >= 1, "the first request is a miss");

    let mut cold = std::net::TcpStream::connect(&addr).expect("connect");
    let mut cold_request = Request::Solve(SolveRequest {
        dataset: DatasetKind::FlixsterSyn,
        ..solve_request(2, Algorithm::Rma, 0.2)
    })
    .render();
    cold_request.push('\n');
    cold.write_all(cold_request.as_bytes()).expect("send");
    // Let the event loop admit the cold request before the hits arrive.
    std::thread::sleep(std::time::Duration::from_millis(10));

    for id in 3..35 {
        hot.send(&Request::Solve(solve_request(id, Algorithm::OneBatch, 0.1)))
            .expect("send");
    }
    for id in 3..35 {
        let Response::Solve(hit) = hot.recv().expect("recv") else {
            panic!("expected solve response");
        };
        assert_eq!(hit.id, id);
        assert_eq!(
            hit.timing.batch_size, 0,
            "request {id} must be an inline hit"
        );
        assert_eq!(hit.result, first.result);
    }
    // Every hit is answered, and the cold solve still holds the worker.
    cold.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    assert_eq!(
        cold.peek(&mut byte).map_err(|e| e.kind()),
        Err(std::io::ErrorKind::WouldBlock),
        "the cold solve must still be running when the hits are answered"
    );
    cold.set_nonblocking(false).expect("blocking");
    let mut answer = String::new();
    BufReader::new(cold).read_line(&mut answer).expect("answer");
    let Ok(Response::Solve(slow)) = Response::parse(answer.trim_end()) else {
        panic!("expected the cold solve, got {answer}");
    };
    assert_eq!(slow.id, 2);
    assert!(slow.timing.batch_size >= 1);
    handle.shutdown();
    handle.wait();
}
