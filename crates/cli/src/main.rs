//! `rmsa` — the config-driven experiment runner.
//!
//! One binary replaces the 13 per-figure bench binaries: scenarios are
//! declarative TOML manifests under `scenarios/` and the subcommands are
//!
//! * `rmsa run <manifest>` — run a scenario (optionally a single job)
//!   and write `results/<name>.csv` + `BENCH_<name>.json`;
//! * `rmsa sweep <manifest>` — run the full sweep grid (alias of `run`
//!   without job selection), e.g. `rmsa sweep scenarios/fig1.toml`;
//! * `rmsa bench <manifest>...` — run scenarios (usually `--quick`) and
//!   emit only the `BENCH_*.json` trajectory reports;
//! * `rmsa compare old.json new.json --tolerance 10%` — exit non-zero
//!   when the new report regresses wall-clock, revenue bounds or the
//!   `memory_bytes` footprint;
//! * `rmsa serve` — the long-running solving daemon (epoll event loop,
//!   pipelined connections, warm session pool, request batching)
//!   speaking newline-delimited JSON over TCP;
//! * `rmsa query` — one-shot client for the daemon;
//! * `rmsa loadgen` — closed-loop or open-loop load generator emitting
//!   `BENCH_service.json` / `BENCH_service_open.json` for the compare
//!   gate.
//!
//! Environment: `RMSA_SCALE`, `RMSA_SEED`, `RMSA_THREADS`, `RMSA_EVAL_RR`
//! seed the base context (CLI flags override), `RMSA_JOBS` caps job-level
//! parallelism, and `RMSA_BENCH_QUICK=1` is equivalent to `--quick`.

use rmsa_bench::manifest::{CtxOverrides, Scenario};
use rmsa_bench::report::{compare_reports, BenchReport, Tolerance};
use rmsa_bench::runner::{self, env_flag, write_outputs};
use rmsa_bench::ExperimentContext;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod args;
mod lint_cmd;
mod service_cmd;
mod snapshot_cmd;

const USAGE: &str = "\
rmsa — experiment runner and serving stack for the RMSA reproduction

USAGE:
    rmsa run <scenario.toml> [--job N|PREFIX] [OPTIONS]
    rmsa sweep <scenario.toml> [OPTIONS]
    rmsa bench <scenario.toml>... [--quick] [--out-dir DIR]
    rmsa compare <old.json> <new.json> [--tolerance P%] [--time-tolerance P%]
                 [--min-time-secs S]
    rmsa serve [--addr HOST:PORT] [--workers N] [--max-sessions K] [--quick]
               [--max-inflight N] [--no-memo] [--seed N] [--scale X]
               [--threads N] [--warm-rr N] [--eval-rr N] [--port-file PATH]
               [--snapshot-dir DIR] [--verify-snapshots] [--no-obs]
               [--obs-snapshot PATH] [--obs-snapshot-secs S] [--slo-ms MS]
               [--flight-dump PATH] [--spread-rr N]
    rmsa query [solve|warm|stats|ping|shutdown] [--addr HOST:PORT]
               [--dataset D] [--strategy standard|subsim]
               [--algorithm rma|one-batch|ti-carm|ti-csrm] [--incentive I]
               [--alpha X] [--no-evaluate] [--target-rr N] [--id N]
    rmsa metrics [--addr HOST:PORT] [--id N] [--json]
    rmsa trace [--addr HOST:PORT] [--limit N] [--slow] [--trace T] [--id N]
               [--json]
    rmsa flight [--addr HOST:PORT] [--id N] [--json]
    rmsa top [--addr HOST:PORT] [--interval-ms MS] [--count N] [--id N]
    rmsa loadgen [--addr HOST:PORT] [--quick] [--mode closed|open]
                 [--clients C] [--rate HZ] [--requests N] [--seed N]
                 [--out-dir DIR] [--dump PATH] [--min-throughput X]
                 [--shutdown]
    rmsa snapshot make [--dir DIR] [--dataset D] [--strategy S] [--quick]
                 [--seed N] [--scale X] [--threads N] [--warm-rr N]
                 [--eval-rr N]
    rmsa snapshot inspect <file.rmsnap>...
    rmsa snapshot bench [--dataset D] [--strategy S] [--quick] [--dir DIR]
                 [--out-dir DIR] [--min-speedup X] [--mmap]
                 [--min-load-speedup X] [context flags]
    rmsa dataset info <scenario.toml|dataset>... [--snapshot-dir DIR]
                 [--quick] [--seed N] [--scale X]
    rmsa lint [--root DIR] [--report LINT_report.json]

OPTIONS (run/sweep/bench):
    --quick             use the scenario's quick (CI) profile
    --jobs N            max concurrently running jobs (default: auto;
                        output is identical for any value)
    --seed N            master seed override
    --threads N         RR-generation threads override
    --scale X           global dataset/budget scale override
    --out-dir DIR       directory for BENCH_<name>.json (default: .)
    --no-csv            skip writing results/<name>.csv (run/sweep)

serve answers newline-delimited JSON requests over TCP from a warm
session pool (one RR-set cache per dataset/strategy fingerprint, LRU
bound --max-sessions, batch admission). Connections are served by a
single epoll event loop (a portable readiness scan off Linux) and are
fully pipelined: up to --max-inflight requests may be outstanding per
connection, answered in request order, and a stalled reader never
blocks a solver. The wire protocol is versioned — v2 envelopes carry
typed error codes, v1 requests are still answered in v1 shape. query
sends one request and prints the response. loadgen drives a daemon
either closed-loop (--clients concurrent send-wait clients, the
default) or open-loop (--mode open --rate HZ: arrivals on a fixed
seeded schedule over pipelined connections, latency measured from the
intended send time) and writes BENCH_service.json /
BENCH_service_open.json for the compare gate; --min-throughput X fails
the run below X req/s. For a fixed seed the canonical response bytes
are identical for any worker count (--dump writes them).

Every admitted request is traced through the in-process observability
subsystem (rmsa-obs): per-request spans (parse, admit, batch_wait,
warm_check, solve{generate, index, greedy}, serialize, flush) land in a
bounded trace store and shared counters/gauges/latency histograms in a
lock-cheap metric registry. metrics snapshots the registry and trace
fetches the most recent (or, with --slow, slowest) phase trees from a
live daemon — both are v2 wire RPCs, also available to any client.
Solve responses echo their trace id in timing.trace. serve --no-obs
disables recording (the disabled path allocates nothing per request);
--obs-snapshot PATH atomically rewrites a JSON dump of the registry and
recent traces every --obs-snapshot-secs seconds for postmortems.

Tail latency is attributed three ways. Histogram buckets keep exemplar
trace ids, and traces that finish over the --slo-ms objective (or with
an error) are tail-sampled — pinned past the recent-trace ring so
`rmsa trace --trace T` still resolves the id an exemplar or a loadgen
response points at. A per-thread flight recorder logs control-plane
events (connection churn, backpressure flips, batch formations, memo
invalidations, anomalies); `rmsa flight` dumps it on demand and
--flight-dump PATH rewrites it as JSON whenever an anomaly (slow
request, error response, shutdown) fires. `rmsa top` reprints SLO
burn-rate gauges (1s/10s/60s windows; 1.00x = spending error budget
exactly as fast as the objective allows), counter rates, and the solve
digest every --interval-ms. Open-loop loadgen reports additionally
break every latency quantile into per-phase columns (send_lag, queue,
batch_wait, warm_check, solve, serialize, flush) from the wire-v2
timing block, and gate the attributed share of end-to-end latency
through `rmsa compare`.

compare exits 0 when the new report is within tolerance of the old one,
1 on regression, 2 on usage or IO errors. --tolerance bounds both a
revenue drop and a memory_bytes rise. Every failure line names the
offending metric and prints both values. compare only reads BENCH_*.json
trajectory reports — to gate LINT_report.json, rerun `rmsa lint`, which
re-derives the report from the sources.

lint runs the workspace invariant checker (rule families R1 panic-
discipline, R2 determinism, R3 unsafe-hygiene, R4 checked-casts, R5
lock-scope) over the workspace's own sources and, with --report, writes
the byte-stable LINT_report.json. Intentional exceptions use inline
`// lint: allow(Rn, reason = \"...\")` directives, which are themselves
reported. Exit codes mirror compare: 0 clean, 1 findings, 2 usage/IO
errors.

snapshot persists warm sessions (graph + model + spreads + RR arenas +
coverage indexes) as versioned, checksummed .rmsnap files; serve with
--snapshot-dir warm-starts from them by memory-mapping the aligned v2
layout (zero-copy columns, lazy checksums; --verify-snapshots re-hashes
every section first) and persists back after cache extensions (a stale
snapshot is rejected with a reason, never reused). snapshot bench
writes BENCH_snapshot.json (cold vs warm start-to-first-response) and
fails when warm is slower than --min-speedup; --mmap additionally races
the mmap load against a full owned decode of the same file and fails
below --min-load-speedup. dataset info prints Table-1-style statistics,
plus mean RR size when a snapshot exists.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => run_command(rest, true),
        "sweep" => run_command(rest, false),
        "bench" => bench_command(rest),
        "compare" => return compare_command(rest),
        "serve" => service_cmd::serve_command(rest),
        "query" => service_cmd::query_command(rest),
        "metrics" => service_cmd::metrics_command(rest),
        "trace" => service_cmd::trace_command(rest),
        "flight" => service_cmd::flight_command(rest),
        "top" => service_cmd::top_command(rest),
        "loadgen" => service_cmd::loadgen_command(rest),
        "lint" => return lint_cmd::lint_command(rest),
        "snapshot" => snapshot_cmd::snapshot_command(rest),
        "dataset" => snapshot_cmd::dataset_command(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rmsa: {e}");
            ExitCode::from(2)
        }
    }
}

/// Shared options of `run` / `sweep` / `bench`.
struct RunOptions {
    manifests: Vec<PathBuf>,
    job: Option<String>,
    quick: bool,
    jobs: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    scale: Option<f64>,
    out_dir: PathBuf,
    write_csv: bool,
}

fn parse_run_options(args: &[String], allow_job: bool) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        manifests: Vec::new(),
        job: None,
        quick: env_flag("RMSA_BENCH_QUICK"),
        jobs: None,
        seed: None,
        threads: None,
        scale: None,
        out_dir: PathBuf::from("."),
        write_csv: true,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--no-csv" => opts.write_csv = false,
            "--job" if allow_job => opts.job = Some(value("--job")?),
            "--jobs" => opts.jobs = Some(parse_num(&value("--jobs")?, "--jobs")?),
            "--seed" => opts.seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--threads" => opts.threads = Some(parse_num(&value("--threads")?, "--threads")?),
            "--scale" => {
                opts.scale = Some(
                    value("--scale")?
                        .parse::<f64>()
                        .map_err(|e| format!("--scale: {e}"))?,
                )
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value("--out-dir")?),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            path => opts.manifests.push(resolve_manifest(path)?),
        }
    }
    if opts.manifests.is_empty() {
        return Err("no scenario manifest given".to_string());
    }
    Ok(opts)
}

/// Accept either a path to a manifest or a bare scenario stem
/// (`fig1` → `scenarios/fig1.toml`).
fn resolve_manifest(arg: &str) -> Result<PathBuf, String> {
    let path = Path::new(arg);
    if path.is_file() {
        return Ok(path.to_path_buf());
    }
    if !arg.contains('/') && !arg.ends_with(".toml") {
        if let Some(found) = runner::find_scenario(arg) {
            return Ok(found);
        }
    }
    Err(format!("scenario manifest {arg:?} not found"))
}

/// CLI flags as the final context-override layer: they win over the
/// manifest's `[defaults]` and `[quick]` sections (and the quick profile).
fn cli_overrides(opts: &RunOptions) -> CtxOverrides {
    CtxOverrides {
        seed: opts.seed,
        threads: opts.threads,
        scale: opts.scale,
        ..CtxOverrides::default()
    }
}

fn run_command(args: &[String], allow_job: bool) -> Result<(), String> {
    let opts = parse_run_options(args, allow_job)?;
    if opts.manifests.len() != 1 {
        return Err("run/sweep take exactly one scenario manifest".to_string());
    }
    let mut scenario = Scenario::load(&opts.manifests[0])?;
    if let Some(selector) = &opts.job {
        select_job(&mut scenario, selector)?;
    }
    execute(&scenario, &opts)
}

fn bench_command(args: &[String]) -> Result<(), String> {
    let mut opts = parse_run_options(args, false)?;
    opts.write_csv = false;
    for path in opts.manifests.clone() {
        let scenario = Scenario::load(&path)?;
        execute(&scenario, &opts)?;
    }
    Ok(())
}

/// Restrict a scenario to one job, selected by 0-based index or by a
/// prefix substring.
fn select_job(scenario: &mut Scenario, selector: &str) -> Result<(), String> {
    let index = match selector.parse::<usize>() {
        Ok(i) => i,
        Err(_) => scenario
            .jobs
            .iter()
            .position(|j| j.prefix.contains(selector))
            .ok_or_else(|| format!("no job matches {selector:?}"))?,
    };
    if index >= scenario.jobs.len() {
        return Err(format!(
            "job index {index} out of range ({} jobs)",
            scenario.jobs.len()
        ));
    }
    scenario.jobs = vec![scenario.jobs[index].clone()];
    Ok(())
}

fn execute(scenario: &Scenario, opts: &RunOptions) -> Result<(), String> {
    let base = ExperimentContext::from_env();
    let overrides = cli_overrides(opts);
    let effective = scenario.context_with_overrides(&base, opts.quick, &overrides);
    let parallel = opts
        .jobs
        .unwrap_or_else(|| runner::default_parallel_jobs(&effective));
    let output =
        runner::run_scenario_with_overrides(scenario, &base, opts.quick, &overrides, parallel)?;
    print!("{}", output.console);
    if opts.write_csv {
        let (csv_path, json_path) = write_outputs(scenario, &output, &opts.out_dir)
            .map_err(|e| format!("writing outputs: {e}"))?;
        println!("\nwrote {}", csv_path.display());
        println!("wrote {}", json_path.display());
    } else {
        let json_path = opts.out_dir.join(format!("BENCH_{}.json", scenario.name));
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&json_path, output.report.render()))
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
        println!("\nwrote {}", json_path.display());
    }
    println!(
        "scenario {}: {} points, {:.2}s wall, peak {:.1} MiB",
        scenario.name,
        output.report.points.len(),
        output.report.total_wall_secs,
        output.report.peak_memory_bytes() as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}

fn compare_command(args: &[String]) -> ExitCode {
    match try_compare(args) {
        Ok(regressions) if regressions.is_empty() => {
            println!("compare: OK — no regressions");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!("compare: {} regression(s) detected:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("rmsa: {e}");
            ExitCode::from(2)
        }
    }
}

fn try_compare(args: &[String]) -> Result<Vec<rmsa_bench::report::Regression>, String> {
    let mut paths = Vec::new();
    let mut tol = Tolerance::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--tolerance" => {
                let frac = parse_fraction(&value("--tolerance")?)?;
                tol.metric_frac = frac;
                tol.time_frac = frac;
            }
            "--time-tolerance" => tol.time_frac = parse_fraction(&value("--time-tolerance")?)?,
            "--min-time-secs" => {
                tol.min_time_secs = value("--min-time-secs")?
                    .parse::<f64>()
                    .map_err(|e| format!("--min-time-secs: {e}"))?
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err("compare takes exactly two report paths".to_string());
    };
    // A lint report fed to the perf gate is a usage error worth a pointed
    // message: compare reads BENCH_*.json trajectories only.
    let load = |path: &PathBuf| {
        BenchReport::load(path).map_err(|e| {
            let name = path.file_name().map(|n| n.to_string_lossy());
            if name.is_some_and(|n| n.starts_with("LINT_")) {
                format!(
                    "{}: {e} — compare only reads BENCH_*.json trajectory reports; \
                     LINT_report.json is gated by `rmsa lint` itself",
                    path.display()
                )
            } else {
                e
            }
        })
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    println!(
        "comparing {} ({}) -> {} ({}), tolerance {:.1}% / time {:.1}% (+{:.2}s floor)",
        old_path.display(),
        old.run.git_rev.as_deref().unwrap_or("unknown rev"),
        new_path.display(),
        new.run.git_rev.as_deref().unwrap_or("unknown rev"),
        tol.metric_frac * 100.0,
        tol.time_frac * 100.0,
        tol.min_time_secs,
    );
    Ok(compare_reports(&old, &new, &tol))
}

/// Parse `10%` or `0.1` into a fraction.
fn parse_fraction(text: &str) -> Result<f64, String> {
    let (body, percent) = match text.strip_suffix('%') {
        Some(body) => (body, true),
        None => (text, false),
    };
    let value = body
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("bad tolerance {text:?}: {e}"))?;
    if value < 0.0 {
        return Err(format!("tolerance {text:?} must be non-negative"));
    }
    Ok(if percent { value / 100.0 } else { value })
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse::<T>().map_err(|e| format!("{flag}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_accept_percent_and_plain_forms() {
        assert_eq!(parse_fraction("10%").unwrap(), 0.10);
        assert_eq!(parse_fraction("0.25").unwrap(), 0.25);
        assert_eq!(parse_fraction("300%").unwrap(), 3.0);
        assert!(parse_fraction("-1").is_err());
        assert!(parse_fraction("abc").is_err());
    }

    #[test]
    fn run_options_parse_flags_and_manifest() {
        let dir = std::env::temp_dir().join("rmsa_cli_test_opts");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("s.toml");
        std::fs::write(&manifest, "x").unwrap();
        let args: Vec<String> = [
            manifest.to_str().unwrap(),
            "--quick",
            "--jobs",
            "3",
            "--seed",
            "42",
            "--no-csv",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_run_options(&args, true).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.jobs, Some(3));
        assert_eq!(opts.seed, Some(42));
        assert!(!opts.write_csv);
        assert_eq!(opts.manifests.len(), 1);
        assert!(parse_run_options(&["--jobs".to_string()], true).is_err());
        assert!(parse_run_options(&[], true).is_err());
    }
}
