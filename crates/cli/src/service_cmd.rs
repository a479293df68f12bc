//! The serving subcommands of `rmsa`: `serve`, `query`, and `loadgen`.
//!
//! Parsing here is a thin mapping from flags onto the validating
//! builders in `rmsa-service` ([`ServerConfig::builder`],
//! [`LoadgenPlan::builder`]); range checks live in the builders, not in
//! the flag loop.

use crate::args::{ArgReader, CtxFlags};
use rmsa_service::loadgen::{self, LoadMix, LoadgenPlan, Mode};
use rmsa_service::wire::{self, Algorithm, Request, Response, SolveRequest, WarmRequest};
use rmsa_service::{server, ServerConfig, ServiceClient};
use std::path::PathBuf;

/// Default address of `serve` / `query` / `loadgen`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7747";

/// The serving context: the environment-driven experiment context, the
/// smoke-scale profile under `--quick`, explicit flags on top.
struct ServeOptions {
    addr: String,
    config: ServerConfig,
    port_file: Option<PathBuf>,
}

fn parse_serve(args: &[String]) -> Result<ServeOptions, String> {
    let mut ctx_flags = CtxFlags::new();
    let mut addr = DEFAULT_ADDR.to_string();
    let mut workers = None;
    let mut max_sessions = None;
    let mut max_inflight = None;
    let mut memoize = true;
    let mut port_file = None;
    let mut snapshot_dir = None;
    let mut verify_snapshots = false;
    let mut obs = true;
    let mut obs_snapshot = None;
    let mut obs_snapshot_secs = None;
    let mut slo_ms = None;
    let mut flight_dump = None;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        if ctx_flags.consume(arg, &mut reader)? {
            continue;
        }
        match arg.as_str() {
            "--addr" => addr = reader.value("--addr")?.to_string(),
            "--workers" => workers = Some(reader.parsed::<usize>("--workers")?),
            "--max-sessions" => max_sessions = Some(reader.parsed::<usize>("--max-sessions")?),
            "--max-inflight" => max_inflight = Some(reader.parsed::<usize>("--max-inflight")?),
            "--no-memo" => memoize = false,
            "--port-file" => port_file = Some(PathBuf::from(reader.value("--port-file")?)),
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(reader.value("--snapshot-dir")?)),
            "--verify-snapshots" => verify_snapshots = true,
            "--no-obs" => obs = false,
            "--obs-snapshot" => obs_snapshot = Some(PathBuf::from(reader.value("--obs-snapshot")?)),
            "--obs-snapshot-secs" => {
                obs_snapshot_secs = Some(reader.parsed::<u64>("--obs-snapshot-secs")?)
            }
            "--slo-ms" => slo_ms = Some(reader.parsed::<u64>("--slo-ms")?),
            "--flight-dump" => flight_dump = Some(PathBuf::from(reader.value("--flight-dump")?)),
            other => return Err(format!("unknown serve option {other:?}")),
        }
    }
    let mut builder = ServerConfig::builder(ctx_flags.resolve())
        .memoize(memoize)
        .snapshot_dir(snapshot_dir)
        .verify_snapshots(verify_snapshots)
        .obs(obs)
        .obs_snapshot(obs_snapshot)
        .flight_dump(flight_dump);
    if let Some(secs) = obs_snapshot_secs {
        builder = builder.obs_snapshot_secs(secs);
    }
    if let Some(ms) = slo_ms {
        builder = builder.slo_ms(ms);
    }
    if let Some(workers) = workers {
        builder = builder.workers(workers);
    }
    if let Some(max_sessions) = max_sessions {
        builder = builder.max_sessions(max_sessions);
    }
    if let Some(max_inflight) = max_inflight {
        builder = builder.max_inflight(max_inflight);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    Ok(ServeOptions {
        addr,
        config,
        port_file,
    })
}

/// `rmsa serve`: run the daemon until a `shutdown` request arrives.
pub fn serve_command(args: &[String]) -> Result<(), String> {
    let options = parse_serve(args)?;
    let workers = options.config.workers();
    let sessions = options.config.max_sessions();
    let seed = options.config.ctx().seed;
    let handle = server::start(&options.addr, options.config)
        .map_err(|e| format!("bind {}: {e}", options.addr))?;
    let addr = handle.local_addr();
    if let Some(path) = &options.port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "rmsa serve listening on {addr} ({workers} workers, {sessions} resident sessions, \
         seed {seed}); send a shutdown request to stop"
    );
    handle.wait();
    println!("rmsa serve: shut down");
    Ok(())
}

/// `rmsa query`: one request, one printed response.
pub fn query_command(args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut op = "solve".to_string();
    let mut id = 1u64;
    let mut dataset = "lastfm-syn".to_string();
    let mut strategy = "standard".to_string();
    let mut algorithm = "rma".to_string();
    let mut incentive = "linear".to_string();
    let mut alpha = 0.1f64;
    let mut evaluate = true;
    let mut target_rr = None;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        match arg.as_str() {
            "--addr" => addr = reader.value("--addr")?.to_string(),
            "--id" => id = reader.parsed::<u64>("--id")?,
            "--dataset" => dataset = reader.value("--dataset")?.to_string(),
            "--strategy" => strategy = reader.value("--strategy")?.to_string(),
            "--algorithm" => algorithm = reader.value("--algorithm")?.to_string(),
            "--incentive" => incentive = reader.value("--incentive")?.to_string(),
            "--alpha" => alpha = reader.parsed::<f64>("--alpha")?,
            "--no-evaluate" => evaluate = false,
            "--target-rr" => target_rr = Some(reader.parsed::<usize>("--target-rr")?),
            other if other.starts_with('-') => {
                return Err(format!("unknown query option {other:?}"))
            }
            word => op = word.to_string(),
        }
    }
    // Round-trip the textual fields through the wire parser so `query`
    // accepts exactly what the server accepts.
    let request = match op.as_str() {
        "solve" => Request::Solve(SolveRequest {
            id,
            dataset: wire::parse_dataset(&dataset)?,
            strategy: wire::parse_strategy(&strategy)?,
            algorithm: Algorithm::parse(&algorithm)?,
            incentive: wire::parse_incentive(&incentive)?,
            alpha,
            evaluate,
        }),
        "warm" => Request::Warm(WarmRequest {
            id,
            dataset: wire::parse_dataset(&dataset)?,
            strategy: wire::parse_strategy(&strategy)?,
            target_rr,
        }),
        "stats" => Request::Stats { id },
        "ping" => Request::Ping { id },
        "shutdown" => Request::Shutdown { id },
        other => return Err(format!("unknown query op {other:?}")),
    };
    let mut client = ServiceClient::connect(&addr)?;
    let response = client.call(&request)?;
    print!("{}", response.to_json().render_pretty());
    match response {
        Response::Error { message, .. } => Err(format!("server error: {message}")),
        _ => Ok(()),
    }
}

/// `rmsa metrics`: snapshot the daemon's live metric registry.
pub fn metrics_command(args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut id = 1u64;
    let mut json = false;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        match arg.as_str() {
            "--addr" => addr = reader.value("--addr")?.to_string(),
            "--id" => id = reader.parsed::<u64>("--id")?,
            "--json" => json = true,
            other => return Err(format!("unknown metrics option {other:?}")),
        }
    }
    let mut client = ServiceClient::connect(&addr)?;
    let response = client.call(&Request::Metrics { id })?;
    if json {
        print!("{}", response.to_json().render_pretty());
        return match response {
            Response::Error { message, .. } => Err(format!("server error: {message}")),
            _ => Ok(()),
        };
    }
    match response {
        Response::Metrics { report, .. } => {
            print!("{}", render_metrics(&report));
            Ok(())
        }
        Response::Error { message, .. } => Err(format!("server error: {message}")),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn render_metrics(report: &wire::MetricsReport) -> String {
    let mut out = String::new();
    if !report.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &report.counters {
            out.push_str(&format!("  {name:<24} {v}\n"));
        }
    }
    if !report.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &report.gauges {
            out.push_str(&format!("  {name:<24} {v}\n"));
        }
    }
    if !report.histograms.is_empty() {
        out.push_str(
            "histograms:                  count      mean       p50       p90       p99       max\n",
        );
        for h in &report.histograms {
            // Only `*_secs` histograms hold durations; the rest (batch
            // sizes, …) are plain numbers.
            let cell: fn(f64) -> String = if h.name.ends_with("_secs") {
                format_secs
            } else {
                |v| format!("{v:.1}")
            };
            out.push_str(&format!(
                "  {:<24} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                h.name,
                h.count,
                cell(h.mean_secs),
                cell(h.p50_secs),
                cell(h.p90_secs),
                cell(h.p99_secs),
                cell(h.max_secs),
            ));
        }
    }
    if out.is_empty() {
        out.push_str("no metrics recorded (daemon running with --no-obs?)\n");
    }
    out
}

/// Human-scale seconds: `412µs`, `3.2ms`, `1.75s`.
fn format_secs(secs: f64) -> String {
    if secs <= 0.0 {
        "0".to_string()
    } else if secs < 1e-3 {
        format!("{:.0}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.1}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

/// `rmsa trace`: fetch recent (or slowest) request phase trees from the
/// daemon and print them indented by span parentage.
pub fn trace_command(args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut id = 1u64;
    let mut limit = 4usize;
    let mut slowest = false;
    let mut trace = 0u64;
    let mut json = false;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        match arg.as_str() {
            "--addr" => addr = reader.value("--addr")?.to_string(),
            "--id" => id = reader.parsed::<u64>("--id")?,
            "--limit" => limit = reader.parsed::<usize>("--limit")?,
            "--slow" => slowest = true,
            "--trace" => trace = reader.parsed::<u64>("--trace")?,
            "--json" => json = true,
            other => return Err(format!("unknown trace option {other:?}")),
        }
    }
    let mut client = ServiceClient::connect(&addr)?;
    let response = client.call(&Request::Trace {
        id,
        limit,
        slowest,
        trace,
    })?;
    if json {
        print!("{}", response.to_json().render_pretty());
        return match response {
            Response::Error { message, .. } => Err(format!("server error: {message}")),
            _ => Ok(()),
        };
    }
    match response {
        Response::Trace { traces, .. } => {
            if traces.is_empty() {
                if trace != 0 {
                    return Err(format!(
                        "trace {trace} not found (aged out of the ring and not tail-sampled)"
                    ));
                }
                println!("no traces recorded (daemon idle or running with --no-obs?)");
            }
            for t in &traces {
                print!("{}", render_trace(t));
            }
            Ok(())
        }
        Response::Error { message, .. } => Err(format!("server error: {message}")),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn render_trace(t: &wire::TraceReport) -> String {
    let mut out = format!(
        "trace {} — {} span(s), total {}, status {}{}\n",
        t.trace,
        t.spans.len(),
        format_secs(t.total_us as f64 / 1e6),
        t.status,
        if t.pinned { " (tail-sampled)" } else { "" },
    );
    let base_us = t.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let known: std::collections::BTreeSet<u64> = t.spans.iter().map(|s| s.id).collect();
    // Spans arrive sorted by start time; parentage makes the tree.
    let mut children: std::collections::BTreeMap<u64, Vec<&wire::SpanEntry>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<&wire::SpanEntry> = Vec::new();
    for s in &t.spans {
        if s.parent != 0 && known.contains(&s.parent) {
            children.entry(s.parent).or_default().push(s);
        } else {
            // Orphans (parent evicted from the ring) print as roots.
            roots.push(s);
        }
    }
    fn walk(
        out: &mut String,
        span: &wire::SpanEntry,
        children: &std::collections::BTreeMap<u64, Vec<&wire::SpanEntry>>,
        base_us: u64,
        depth: usize,
    ) {
        let mut line = format!(
            "  {:indent$}{:<width$} +{:<9} {}",
            "",
            span.name,
            format!("{}µs", span.start_us.saturating_sub(base_us)),
            format_secs(span.dur_us as f64 / 1e6),
            indent = depth * 2,
            width = 14usize.saturating_sub(depth * 2).max(1),
        );
        for (k, v) in &span.fields {
            line.push_str(&format!("  {k}={v}"));
        }
        line.push('\n');
        out.push_str(&line);
        for child in children.get(&span.id).into_iter().flatten() {
            walk(out, child, children, base_us, depth + 1);
        }
    }
    for root in roots {
        walk(&mut out, root, &children, base_us, 0);
    }
    out
}

/// `rmsa flight`: dump the daemon's flight-recorder rings — the last few
/// hundred control-plane events (connection churn, backpressure flips,
/// batch formations, memo invalidations, anomalies) in one global order.
pub fn flight_command(args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut id = 1u64;
    let mut json = false;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        match arg.as_str() {
            "--addr" => addr = reader.value("--addr")?.to_string(),
            "--id" => id = reader.parsed::<u64>("--id")?,
            "--json" => json = true,
            other => return Err(format!("unknown flight option {other:?}")),
        }
    }
    let mut client = ServiceClient::connect(&addr)?;
    let response = client.call(&Request::Flight { id })?;
    if json {
        print!("{}", response.to_json().render_pretty());
        return match response {
            Response::Error { message, .. } => Err(format!("server error: {message}")),
            _ => Ok(()),
        };
    }
    match response {
        Response::Flight { events, .. } => {
            if events.is_empty() {
                println!("flight recorder empty (daemon just started or running with --no-obs?)");
                return Ok(());
            }
            println!(
                "{:>6} {:>12} {:<24} {:>12} {:>12}",
                "seq", "at", "event", "a", "b"
            );
            for e in &events {
                println!(
                    "{:>6} {:>12} {:<24} {:>12} {:>12}",
                    e.seq,
                    format_secs(e.at_us as f64 / 1e6),
                    e.kind,
                    e.a,
                    e.b,
                );
            }
            Ok(())
        }
        Response::Error { message, .. } => Err(format!("server error: {message}")),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// `rmsa top`: a dependency-free live view of a daemon — SLO burn rates,
/// request rate, queue depth, and the solve-latency digest, reprinted
/// every `--interval-ms`. `--count N` stops after N frames (0 = forever),
/// which is also what makes the command scriptable in CI.
pub fn top_command(args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut id = 1u64;
    let mut interval_ms = 1_000u64;
    let mut count = 0u64;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        match arg.as_str() {
            "--addr" => addr = reader.value("--addr")?.to_string(),
            "--id" => id = reader.parsed::<u64>("--id")?,
            "--interval-ms" => interval_ms = reader.parsed::<u64>("--interval-ms")?,
            "--count" => count = reader.parsed::<u64>("--count")?,
            other => return Err(format!("unknown top option {other:?}")),
        }
    }
    if interval_ms == 0 {
        return Err("--interval-ms must be >= 1".to_string());
    }
    let mut client = ServiceClient::connect(&addr)?;
    let mut previous: Option<Vec<(String, u64)>> = None;
    let mut frame = 0u64;
    loop {
        frame += 1;
        let report = match client.call(&Request::Metrics { id })? {
            Response::Metrics { report, .. } => report,
            Response::Error { message, .. } => return Err(format!("server error: {message}")),
            other => return Err(format!("unexpected response: {other:?}")),
        };
        print!(
            "{}",
            render_top(&addr, frame, &report, previous.as_deref(), interval_ms)
        );
        previous = Some(report.counters.clone());
        if count != 0 && frame >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One `rmsa top` frame: SLO burn line, counter rates, key gauges, and
/// the solve histogram digest.
fn render_top(
    addr: &str,
    frame: u64,
    report: &wire::MetricsReport,
    previous: Option<&[(String, u64)]>,
    interval_ms: u64,
) -> String {
    use std::fmt::Write as _;
    let gauge = |name: &str| {
        report
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    let burn = |name: &str| match gauge(name) {
        // Gauges are milli-burn: 1000 = spending error budget exactly as
        // fast as the objective allows.
        Some(v) => format!("{:.2}x", v as f64 / 1000.0),
        None => "-".to_string(),
    };
    let mut out = String::new();
    let _ = writeln!(out, "rmsa top — {addr} (frame {frame})");
    let _ = writeln!(
        out,
        "slo: objective {}ms p99 — burn 1s {} / 10s {} / 60s {}",
        gauge("slo_threshold_ms").unwrap_or(0),
        burn("slo_burn_1s_milli"),
        burn("slo_burn_10s_milli"),
        burn("slo_burn_60s_milli"),
    );
    if !report.counters.is_empty() {
        out.push_str("counters:");
        for (name, value) in &report.counters {
            let rate = previous
                .and_then(|prev| prev.iter().find(|(n, _)| n == name))
                .map(|(_, before)| {
                    (value.saturating_sub(*before)) as f64 * 1e3 / interval_ms as f64
                });
            match rate {
                Some(rate) => {
                    let _ = write!(out, "  {name} {value} ({rate:.0}/s)");
                }
                None => {
                    let _ = write!(out, "  {name} {value}");
                }
            }
        }
        out.push('\n');
    }
    let live_gauges: Vec<&(String, i64)> = report
        .gauges
        .iter()
        .filter(|(n, _)| !n.starts_with("slo_"))
        .collect();
    if !live_gauges.is_empty() {
        out.push_str("gauges:");
        for (name, value) in live_gauges {
            let _ = write!(out, "  {name} {value}");
        }
        out.push('\n');
    }
    for h in &report.histograms {
        if h.name != "rpc_solve_secs" || h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "solve: count {}  p50 {}  p90 {}  p99 {}  max {}",
            h.count,
            format_secs(h.p50_secs),
            format_secs(h.p90_secs),
            format_secs(h.p99_secs),
            format_secs(h.max_secs),
        );
    }
    out.push('\n');
    out
}

/// `rmsa loadgen`: closed-loop or open-loop load against a running
/// daemon, reported as `BENCH_service.json` / `BENCH_service_open.json`.
pub fn loadgen_command(args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut quick = rmsa_bench::runner::env_flag("RMSA_BENCH_QUICK");
    let mut mode_name = "closed".to_string();
    let mut clients = None;
    let mut rate_hz = None;
    let mut requests = None;
    let mut seed = 7u64;
    let mut out_dir = PathBuf::from(".");
    let mut dump = None;
    let mut shutdown = false;
    let mut min_throughput = None;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        match arg.as_str() {
            "--addr" => addr = reader.value("--addr")?.to_string(),
            "--quick" => quick = true,
            "--mode" => mode_name = reader.value("--mode")?.to_string(),
            "--clients" => clients = Some(reader.parsed::<usize>("--clients")?),
            "--rate" => rate_hz = Some(reader.parsed::<f64>("--rate")?),
            "--requests" => requests = Some(reader.parsed::<usize>("--requests")?),
            "--seed" => seed = reader.parsed::<u64>("--seed")?,
            "--out-dir" => out_dir = PathBuf::from(reader.value("--out-dir")?),
            "--dump" => dump = Some(PathBuf::from(reader.value("--dump")?)),
            "--shutdown" => shutdown = true,
            "--min-throughput" => min_throughput = Some(reader.parsed::<f64>("--min-throughput")?),
            other => return Err(format!("unknown loadgen option {other:?}")),
        }
    }
    let mode = match mode_name.as_str() {
        "closed" => Mode::ClosedLoop {
            clients: clients.unwrap_or(if quick { 4 } else { 8 }),
        },
        "open" => Mode::OpenLoop {
            rate_hz: rate_hz.unwrap_or(200.0),
        },
        other => return Err(format!("unknown loadgen mode {other:?} (closed|open)")),
    };
    let default_requests = match mode {
        // Per client in closed loop, total in open loop.
        Mode::ClosedLoop { .. } => {
            if quick {
                6
            } else {
                16
            }
        }
        Mode::OpenLoop { .. } => 1_000,
    };
    let plan = LoadgenPlan::builder(seed)
        .mode(mode)
        .requests(requests.unwrap_or(default_requests))
        .mix(if quick {
            LoadMix::quick()
        } else {
            LoadMix::full()
        })
        .build()
        .map_err(|e| e.to_string())?;
    let outcome = loadgen::run(&addr, &plan)?;
    print!("{}", outcome.summary());
    let report = loadgen::report(&outcome, &plan, quick);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let json_path = out_dir.join(format!("BENCH_{}.json", report.scenario));
    std::fs::write(&json_path, report.render())
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    println!("wrote {}", json_path.display());
    if let Some(path) = dump {
        let mut lines = outcome.canonical_lines().join("\n");
        lines.push('\n');
        std::fs::write(&path, lines).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if shutdown {
        let mut client = ServiceClient::connect(&addr)?;
        client.call(&Request::Shutdown { id: u64::MAX })?;
        println!("sent shutdown to {addr}");
    }
    if !outcome.errors.is_empty() {
        return Err(format!(
            "{} request(s) failed; first error: {}",
            outcome.errors.len(),
            outcome.errors[0]
        ));
    }
    // Checked after the report is on disk so a failed gate still leaves
    // the numbers around for diagnosis.
    if let Some(floor) = min_throughput {
        let achieved = outcome.throughput();
        if achieved < floor {
            return Err(format!(
                "throughput gate failed: {achieved:.1} req/s < required {floor:.1} req/s"
            ));
        }
        println!("throughput gate passed: {achieved:.1} req/s >= {floor:.1} req/s");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_options_parse_and_quick_shrinks_the_context() {
        let options = parse_serve(&strings(&[
            "--quick",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--max-sessions",
            "3",
            "--max-inflight",
            "64",
            "--no-memo",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(options.addr, "127.0.0.1:0");
        assert_eq!(options.config.workers(), 2);
        assert_eq!(options.config.max_sessions(), 3);
        assert_eq!(options.config.max_inflight(), 64);
        assert!(!options.config.memoize());
        assert_eq!(options.config.ctx().seed, 42);
        assert!(
            options.config.ctx().rma_max_rr <= 10_000,
            "quick must shrink"
        );
        assert!(parse_serve(&strings(&["--workers"])).is_err());
        assert!(parse_serve(&strings(&["--bogus"])).is_err());
        // Validation happens in the builder, not the flag loop.
        match parse_serve(&strings(&["--workers", "0"])) {
            Err(message) => assert!(message.contains("workers")),
            Ok(_) => panic!("zero workers must be rejected"),
        }
    }

    #[test]
    fn serve_obs_flags_reach_the_config() {
        let options = parse_serve(&strings(&[
            "--quick",
            "--obs-snapshot-secs",
            "2",
            "--slo-ms",
            "25",
            "--flight-dump",
            "/tmp/fl.json",
        ]))
        .unwrap();
        assert_eq!(options.config.obs_snapshot_secs(), 2);
        assert_eq!(options.config.slo_ms(), 25);
        assert!(options.config.flight_dump().is_some());
        // Range checks live in the builder.
        assert!(parse_serve(&strings(&["--slo-ms", "0"])).is_err());
        assert!(parse_serve(&strings(&["--obs-snapshot-secs", "0"])).is_err());
    }

    #[test]
    fn serve_accepts_the_snapshot_context_it_was_made_under() {
        let dir = std::env::temp_dir().join("rmsa_cli_serve_spread_rr_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        crate::snapshot_cmd::snapshot_command(&strings(&[
            "make",
            "--quick",
            "--spread-rr",
            "600",
            "--dir",
            &dir_s,
            "--dataset",
            "lastfm-syn",
        ]))
        .unwrap();
        let bytes = std::fs::read(dir.join("lastfm-syn-standard.rmsnap")).unwrap();
        let options = parse_serve(&strings(&["--quick", "--spread-rr", "600"])).unwrap();
        assert_eq!(options.config.ctx().spread_rr, 600);
        let key = rmsa_service::SessionKey {
            dataset: wire::parse_dataset("lastfm-syn").unwrap(),
            strategy: wire::parse_strategy("standard").unwrap(),
        };
        rmsa_service::snapshot::session_from_bytes(&bytes, key, options.config.ctx())
            .expect("serve's context accepts the snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_frame_renders_burn_rates_and_counter_rates() {
        let report = wire::MetricsReport {
            counters: vec![("requests_total".to_string(), 120)],
            gauges: vec![
                ("slo_threshold_ms".to_string(), 50),
                ("slo_burn_10s_milli".to_string(), 1500),
                ("queue_depth".to_string(), 3),
            ],
            histograms: Vec::new(),
        };
        let previous = vec![("requests_total".to_string(), 20u64)];
        let frame = render_top("x:1", 2, &report, Some(&previous), 1_000);
        assert!(frame.contains("objective 50ms"), "{frame}");
        assert!(frame.contains("burn 1s - / 10s 1.50x"), "{frame}");
        assert!(frame.contains("requests_total 120 (100/s)"), "{frame}");
        assert!(frame.contains("queue_depth 3"), "{frame}");
        // SLO gauges render on their own line, not in the gauge list.
        assert!(!frame.contains("slo_burn_10s_milli 1500"), "{frame}");
    }
}
