//! Serving-robustness tests added alongside the `rmsa lint` panic
//! discipline: no request a client can put on the wire may kill a worker
//! thread, and the warm/solve pipeline must be schedule-oblivious — the
//! response payloads are bit-identical no matter how threads interleave
//! session eviction with same-fingerprint admission batching.

use rmsa_datasets::{DatasetKind, IncentiveModel};
use rmsa_diffusion::RrStrategy;
use rmsa_service::wire::{Algorithm, ErrorCode, Request, Response, SolveRequest, SolveResult};
use rmsa_service::{server, ServerConfig, SessionKey, SessionRegistry};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// A daemon with exactly ONE worker is fed every malformed/invalid shape a
/// client can produce, then asked for a real solve. If any of the bad
/// requests had panicked the lone worker (or the event loop), the solve
/// could never be answered — the read timeout below would trip.
#[test]
fn no_wire_request_can_kill_the_single_worker() {
    let config = ServerConfig::builder(rmsa_service::tiny_serve_ctx(7))
        .workers(1)
        .max_sessions(2)
        .build()
        .expect("valid config");
    let handle = server::start("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr();

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut call = |line: &str| -> Response {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        let mut answer = String::new();
        reader
            .read_line(&mut answer)
            .expect("a response before the timeout — did a worker die?");
        Response::parse(answer.trim_end()).expect("parse response")
    };

    // Every hostile shape must come back as a typed wire error.
    let hostile = [
        "this is not json",
        "{}",
        r#"{"schema_version":1,"id":2,"op":"warp"}"#,
        r#"{"schema_version":1,"id":3,"op":"solve","dataset":"nope","algorithm":"rma","alpha":0.1}"#,
        r#"{"schema_version":1,"id":4,"op":"solve","dataset":"lastfm-syn","algorithm":"rma","alpha":-0.5}"#,
        r#"{"schema_version":1,"id":5,"op":"solve","dataset":"lastfm-syn","algorithm":"sorcery","alpha":0.1}"#,
        r#"{"schema_version":1,"id":6,"op":"solve","dataset":"lastfm-syn","algorithm":"rma","alpha":0.1,"incentive":"bribes"}"#,
        r#"{"schema_version":1,"id":7,"op":"warm","dataset":"lastfm-syn","target_rr":-1}"#,
        r#"{"schema_version":1,"id":8,"op":"warm","dataset":"lastfm-syn","target_rr":5001}"#,
        // v2 shapes: missing id, missing alpha, unknown op.
        r#"{"schema_version":2,"op":"ping"}"#,
        r#"{"schema_version":2,"id":10,"op":"solve","dataset":"lastfm-syn","algorithm":"rma"}"#,
        r#"{"schema_version":2,"id":11,"op":"divine"}"#,
    ];
    for line in hostile {
        let response = call(line);
        assert!(
            matches!(response, Response::Error { .. }),
            "{line} must get a typed error, got {response:?}"
        );
    }
    // Hostile schema versions, including 2^32 + 1 and 2^32 + 2, which
    // must not truncate into v1 / v2.
    for line in [
        r#"{"schema_version":9,"id":1,"op":"ping"}"#,
        r#"{"schema_version":4294967297,"id":1,"op":"ping"}"#,
        r#"{"schema_version":4294967298,"id":1,"op":"ping"}"#,
    ] {
        let response = call(line);
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::UnsupportedSchema,
                    ..
                }
            ),
            "{line} must get an unsupported-schema error, got {response:?}"
        );
    }

    // Warm targets below zero or above the serving θ (5,000 RR-sets in
    // the tiny context) are invalid parameters, not clamps or unbounded
    // cache growth. (A v1 error carries no code; v1 shapes are above.)
    for line in [
        r#"{"schema_version":2,"id":12,"op":"warm","dataset":"lastfm-syn","target_rr":-1}"#,
        r#"{"schema_version":2,"id":13,"op":"warm","dataset":"lastfm-syn","target_rr":-9223372036854775808}"#,
        r#"{"schema_version":2,"id":14,"op":"warm","dataset":"lastfm-syn","target_rr":5001}"#,
        r#"{"schema_version":2,"id":15,"op":"warm","dataset":"lastfm-syn","target_rr":9223372036854775807}"#,
    ] {
        let response = call(line);
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::InvalidParameter,
                    ..
                }
            ),
            "{line} must get an invalid-parameter error, got {response:?}"
        );
    }

    // A warm actually reaches the worker…
    let warm = call(
        r#"{"schema_version":1,"id":7,"op":"warm","dataset":"lastfm-syn","strategy":"standard"}"#,
    );
    assert!(matches!(warm, Response::Warm(_)), "got {warm:?}");
    // …and the lone worker still serves a full solve afterwards.
    let solve = call(&Request::Solve(solve_request(8, Algorithm::Rma, 0.2)).render());
    let Response::Solve(solve) = solve else {
        panic!("expected a solve response, got {solve:?}");
    };
    assert_eq!(solve.id, 8);
    assert_eq!(solve.result.rr_generated, 0, "warm invariant");
    assert!(!solve.result.allocation_digest.is_empty());

    handle.shutdown();
    handle.wait();
}

/// Deterministic xorshift64 for the schedule shuffles below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn seeded_shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng(seed | 1);
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[derive(Clone)]
enum Op {
    /// `session(A)` + warm + solve — the serve_batch path.
    Solve(SolveRequest),
    /// `session(key)` + warm on a *different* fingerprint, which under
    /// `max_sessions = 2` forces LRU evictions mid-run.
    Churn(DatasetKind),
}

/// Run one schedule: the op multiset is dealt across 4 threads in a
/// seed-permuted order and executed concurrently against a fresh registry.
/// Returns the solve results by request id, plus the warm-extension count
/// of every session *generation* (distinct `Arc<Session>`) touched.
fn run_schedule(seed: u64) -> (BTreeMap<u64, SolveResult>, Vec<usize>, usize) {
    let registry = SessionRegistry::new(rmsa_service::tiny_serve_ctx(7), 2);

    let mut ops: Vec<Op> = Vec::new();
    let table = [
        (Algorithm::Rma, 0.1),
        (Algorithm::OneBatch, 0.2),
        (Algorithm::TiCarm, 0.3),
        (Algorithm::Rma, 0.3),
        (Algorithm::OneBatch, 0.1),
        (Algorithm::TiCsrm, 0.2),
    ];
    for (i, (algorithm, alpha)) in table.into_iter().enumerate() {
        ops.push(Op::Solve(solve_request(i as u64 + 1, algorithm, alpha)));
    }
    ops.push(Op::Churn(DatasetKind::FlixsterSyn));
    ops.push(Op::Churn(DatasetKind::DblpSyn));
    seeded_shuffle(&mut ops, seed);

    let results: Mutex<BTreeMap<u64, SolveResult>> = Mutex::new(BTreeMap::new());
    let generations: Mutex<Vec<Arc<rmsa_service::Session>>> = Mutex::new(Vec::new());
    const THREADS: usize = 4;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let lane: Vec<Op> = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| i % THREADS == t)
                .map(|(_, op)| op.clone())
                .collect();
            let registry = &registry;
            let results = &results;
            let generations = &generations;
            scope.spawn(move || {
                for op in lane {
                    let key = match &op {
                        Op::Solve(r) => SessionKey::from(r),
                        Op::Churn(dataset) => SessionKey {
                            dataset: *dataset,
                            strategy: RrStrategy::Standard,
                        },
                    };
                    let session = registry.session(key);
                    session.ensure_warm(None);
                    if let Op::Solve(request) = &op {
                        let result = session.solve(request).expect("solve");
                        results
                            .lock()
                            .expect("results lock")
                            .insert(request.id, result);
                    }
                    generations.lock().expect("generations lock").push(session);
                }
            });
        }
    });

    let mut seen: Vec<Arc<rmsa_service::Session>> = Vec::new();
    for session in generations.into_inner().expect("generations") {
        if !seen.iter().any(|s| Arc::ptr_eq(s, &session)) {
            seen.push(session);
        }
    }
    let extensions = seen
        .iter()
        .map(|s| s.stats_entry().warm_extensions)
        .collect();
    let results = results.into_inner().expect("results");
    (results, extensions, registry.evictions())
}

/// The headline schedule-obliviousness invariant: permuting which thread
/// runs which op — with evictions landing at different points every time —
/// changes neither a single response payload nor the one-extension-per-
/// generation warm discipline.
#[test]
fn schedule_permutations_are_response_invariant() {
    let (baseline, extensions, evictions) = run_schedule(0xA11CE);
    assert_eq!(baseline.len(), 6, "every solve must be answered");
    assert!(
        evictions > 0,
        "3 fingerprints under max_sessions = 2 must evict"
    );
    for (id, result) in &baseline {
        // TI baselines deterministically build private per-advertiser
        // collections inside the solve; only the shared-cache solvers are
        // bound by the zero-generation warm invariant.
        if !result.algorithm.starts_with("TI") {
            assert_eq!(result.rr_generated, 0, "solve {id} ran on a cold session");
            assert_eq!(result.index_extended, 0);
        }
        assert!(result.revenue.is_some());
    }
    assert!(
        extensions.iter().all(|&e| e == 1),
        "each session generation must warm exactly once, got {extensions:?}"
    );

    for seed in [0xB0B, 0xC0FFEE, 0xDEADBEE] {
        let (permuted, extensions, evictions) = run_schedule(seed);
        assert_eq!(
            permuted, baseline,
            "seed {seed:#x}: responses must be bit-identical under any schedule"
        );
        assert!(evictions > 0, "seed {seed:#x}: churn must evict");
        assert!(
            extensions.iter().all(|&e| e == 1),
            "seed {seed:#x}: a generation warmed twice: {extensions:?}"
        );
    }
}

/// Lines answered inline hold their pipelining slot until they reach the
/// write buffer. A client that writes one cold solve followed by 64 pings
/// and reads nothing must therefore park at most the window's worth of
/// pongs behind the unfinished solve (the rest stay unread in the kernel),
/// and every answer still arrives in request order.
#[test]
fn inline_answers_parked_behind_a_cold_solve_stay_within_the_window() {
    const MAX_INFLIGHT: usize = 4;
    const PINGS: u64 = 64;
    // Full dataset scale keeps the cold flixster-syn solve busy for about
    // 0.2 s, long enough for the metrics polls below to watch it.
    let mut ctx = rmsa_service::tiny_serve_ctx(7);
    ctx.scale = 1.0;
    let config = ServerConfig::builder(ctx)
        .workers(1)
        .max_inflight(MAX_INFLIGHT)
        .build()
        .expect("valid config");
    let handle = server::start("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr().to_string();

    let mut burst = Request::Solve(SolveRequest {
        dataset: DatasetKind::FlixsterSyn,
        ..solve_request(1, Algorithm::Rma, 0.2)
    })
    .render();
    burst.push('\n');
    for id in 2..=PINGS + 1 {
        burst.push_str(&Request::Ping { id }.render());
        burst.push('\n');
    }
    let mut flood = std::net::TcpStream::connect(&addr).expect("connect");
    flood.write_all(burst.as_bytes()).expect("send");

    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(flood);
        (1..=PINGS + 1)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("answer");
                Response::parse(line.trim_end()).expect("parse response")
            })
            .collect::<Vec<Response>>()
    });

    let mut observer = rmsa_service::ServiceClient::connect(&addr).expect("connect");
    let mut most_parked = 0;
    let mut polls = 0;
    while !reader.is_finished() {
        let Response::Metrics { report, .. } =
            observer.call(&Request::Metrics { id: 1 }).expect("metrics")
        else {
            panic!("expected metrics response");
        };
        let parked = report
            .gauges
            .iter()
            .find(|(name, _)| name == "parked_responses")
            .map_or(0, |(_, value)| *value);
        // The solve holds one slot, so this connection parks at most
        // MAX_INFLIGHT - 1 pongs; the gauge belongs to this daemon alone.
        assert!(
            parked < MAX_INFLIGHT as i64,
            "{parked} responses parked behind the cold solve exceed the window"
        );
        most_parked = most_parked.max(parked);
        polls += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        most_parked >= 1 && polls > 1,
        "the polls never saw the flood parked ({polls} polls)"
    );

    let answers = reader.join().expect("reader");
    assert!(
        matches!(&answers[0], Response::Solve(solve) if solve.id == 1),
        "the solve answers first, got {:?}",
        answers[0]
    );
    for (answer, id) in answers[1..].iter().zip(2..) {
        assert!(
            matches!(answer, Response::Pong { id: got } if *got == id),
            "pong {id} out of order: {answer:?}"
        );
    }
    handle.shutdown();
    handle.wait();
}
