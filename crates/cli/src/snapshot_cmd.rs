//! The persistence subcommands of `rmsa`: `snapshot make|inspect|bench`
//! and `dataset info`.
//!
//! * `rmsa snapshot make` builds a serving session (graph, TIC/WC
//!   parameters, singleton spreads), warms its RR cache to the serving θ,
//!   and persists the whole thing as one `.rmsnap` file — the file
//!   `rmsa serve --snapshot-dir` warm-starts from.
//! * `rmsa snapshot inspect` validates a snapshot (magic, version,
//!   per-section checksums) and prints its section table, meta block and
//!   per-stream RR statistics.
//! * `rmsa snapshot bench` measures cold-start vs warm-start time to
//!   first response and emits `BENCH_snapshot.json` for the CI gate; it
//!   also asserts the round-trip invariant (bit-identical solve results)
//!   and an optional minimum speedup.
//! * `rmsa dataset info` prints Table-1-style statistics for the datasets
//!   a scenario manifest references (or named datasets), including the
//!   mean RR-set size when a snapshot exists.

use crate::args::{ArgReader, CtxFlags};
use rmsa_bench::manifest::{Scenario, SweepSpec};
use rmsa_bench::report::{BenchPoint, BenchReport, RunManifest};
use rmsa_bench::{AlgoOutcome, ExperimentContext};
use rmsa_datasets::{DatasetKind, IncentiveModel};
use rmsa_diffusion::{RrCache, RrStrategy, VerifyMode, ZERO_COPY_TARGET};
use rmsa_graph::stats::DegreeStats;
use rmsa_service::session::{Session, SessionKey};
use rmsa_service::snapshot as session_snapshot;
use rmsa_service::wire::{self, Algorithm, SolveRequest};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `rmsa snapshot <make|inspect|bench> …`
pub fn snapshot_command(args: &[String]) -> Result<(), String> {
    let Some((op, rest)) = args.split_first() else {
        return Err("snapshot needs an operation: make, inspect, or bench".to_string());
    };
    match op.as_str() {
        "make" => snapshot_make(rest),
        "inspect" => snapshot_inspect(rest),
        "bench" => snapshot_bench(rest),
        other => Err(format!("unknown snapshot op {other:?}")),
    }
}

fn snapshot_make(args: &[String]) -> Result<(), String> {
    let mut ctx_flags = CtxFlags::new();
    let mut dir = PathBuf::from("snapshots");
    let mut dataset = "lastfm-syn".to_string();
    let mut strategy = "standard".to_string();
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        if ctx_flags.consume(arg, &mut reader)? {
            continue;
        }
        match arg.as_str() {
            "--dir" => dir = PathBuf::from(reader.value("--dir")?),
            "--dataset" => dataset = reader.value("--dataset")?.to_string(),
            "--strategy" => strategy = reader.value("--strategy")?.to_string(),
            other => return Err(format!("unknown snapshot make option {other:?}")),
        }
    }
    let ctx = ctx_flags.resolve();
    let key = SessionKey {
        dataset: wire::parse_dataset(&dataset)?,
        strategy: wire::parse_strategy(&strategy)?,
    };

    let build_start = Instant::now();
    let session = Session::build(key, &ctx);
    let build_secs = build_start.elapsed().as_secs_f64();
    let warm_start = Instant::now();
    let warm = session.ensure_warm(None);
    let warm_secs = warm_start.elapsed().as_secs_f64();
    let save_start = Instant::now();
    let path = session
        .save_snapshot(&dir)
        .map_err(|e| format!("saving snapshot: {e}"))?;
    let save_secs = save_start.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "snapshot {}: built in {build_secs:.2}s, warmed {} RR-sets to θ = {} in {warm_secs:.2}s, \
         saved {:.1} MiB in {save_secs:.2}s",
        key.label(),
        warm.generated,
        warm.target_rr,
        bytes as f64 / (1024.0 * 1024.0),
    );
    println!("wrote {}", path.display());
    Ok(())
}

fn snapshot_inspect(args: &[String]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        match arg.as_str() {
            other if other.starts_with('-') => {
                return Err(format!("unknown snapshot inspect option {other:?}"))
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        return Err("snapshot inspect needs at least one file".to_string());
    }
    for path in &paths {
        let info =
            session_snapshot::inspect(path).map_err(|e| format!("{}: {e}", path.display()))?;
        print!("{}", render_inspect(path, &info));
    }
    Ok(())
}

fn render_inspect(path: &Path, info: &session_snapshot::SnapshotInfo) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — container v{}, {:.1} MiB, {} sections, checksums OK",
        path.display(),
        info.container_version,
        info.file_bytes as f64 / (1024.0 * 1024.0),
        info.sections.len()
    );
    if info.zero_copy_eligible {
        let _ = writeln!(
            out,
            "  zero-copy: eligible (aligned v2 layout; mmap load borrows columns)"
        );
    } else if info.container_version < 2 {
        let _ = writeln!(
            out,
            "  zero-copy: no (legacy v1 layout — still loads via the owned \
             decode path, never rejected; re-save to upgrade to v2)"
        );
    } else {
        let _ = writeln!(
            out,
            "  zero-copy: no (v2 layout, but this target is not little-endian 64-bit)"
        );
    }
    if let Some(meta) = &info.meta {
        let _ = writeln!(
            out,
            "  session: {}/{} (scale {}, seed {}, {} ads, spread_rr {}, eval_rr {}, warm θ {})",
            meta.dataset,
            meta.strategy,
            meta.scale,
            meta.seed,
            meta.num_ads,
            meta.spread_rr,
            meta.eval_rr,
            meta.warm_level,
        );
    }
    if let Some((nodes, edges)) = info.graph {
        let _ = writeln!(out, "  graph: {nodes} nodes, {edges} edges");
    }
    if let Some(fp) = info.cache_fingerprint {
        let _ = writeln!(out, "  cache fingerprint: {fp:016x}");
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>12} {:>8} {:>8}",
        "section", "bytes", "offset", "padding", "aligned"
    );
    for section in &info.sections {
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>8} {:>8}",
            section.name,
            section.len,
            section.offset,
            section.padding,
            if section.aligned() { "yes" } else { "no" }
        );
    }
    if !info.streams.is_empty() {
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>12} {:>10} {:>10}",
            "rr-stream", "sets", "entries", "mean size", "extensions"
        );
        for stream in &info.streams {
            let name = match stream.index {
                0 => "optimize".to_string(),
                1 => "validate".to_string(),
                2 => "evaluate".to_string(),
                k => format!("aux-{}", k - 3),
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>10} {:>12} {:>10.2} {:>10}",
                name, stream.sets, stream.entries, stream.mean_size, stream.extensions
            );
        }
    }
    out
}

/// One timed start-to-first-response measurement.
struct StartMeasurement {
    secs: f64,
    result: rmsa_service::wire::SolveResult,
    loaded_from_snapshot: usize,
    snapshot_load_secs: f64,
    resident_bytes: usize,
    mapped_bytes: usize,
}

fn first_response(session: &Session, request: &SolveRequest, started: Instant) -> StartMeasurement {
    let warm_started = Instant::now();
    session.ensure_warm(None);
    let solve_started = Instant::now();
    let result = session
        .solve(request)
        .expect("the bench request is always valid");
    if std::env::var("RMSA_SNAPSHOT_DEBUG").is_ok() {
        eprintln!(
            "  [debug] warm-up {:.3}s solve {:.3}s",
            (solve_started - warm_started).as_secs_f64(),
            solve_started.elapsed().as_secs_f64()
        );
    }
    let cache = session.workbench().cache_stats();
    StartMeasurement {
        secs: started.elapsed().as_secs_f64(),
        result,
        loaded_from_snapshot: cache.loaded_from_snapshot,
        snapshot_load_secs: cache.snapshot_load_time.as_secs_f64(),
        resident_bytes: cache.resident_bytes,
        mapped_bytes: cache.mapped_bytes,
    }
}

/// Median of a non-empty measurement set (by time).
fn median_secs(measurements: &[StartMeasurement]) -> f64 {
    let mut times: Vec<f64> = measurements.iter().map(|m| m.secs).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// Fastest measurement of a non-empty set.
fn best_of(measurements: &[StartMeasurement]) -> &StartMeasurement {
    measurements
        .iter()
        .min_by(|a, b| a.secs.partial_cmp(&b.secs).expect("finite times"))
        .expect("at least one measurement")
}

fn snapshot_bench(args: &[String]) -> Result<(), String> {
    let mut ctx_flags = CtxFlags::new();
    let mut dataset = "lastfm-syn".to_string();
    let mut strategy = "standard".to_string();
    let mut out_dir = PathBuf::from(".");
    let mut dir: Option<PathBuf> = None;
    let mut min_speedup: Option<f64> = None;
    let mut repeat = 1usize;
    let mut mmap = false;
    let mut min_load_speedup: Option<f64> = None;
    let mut reader = ArgReader::new(args);
    while let Some(arg) = reader.next() {
        if ctx_flags.consume(arg, &mut reader)? {
            continue;
        }
        match arg.as_str() {
            "--dataset" => dataset = reader.value("--dataset")?.to_string(),
            "--strategy" => strategy = reader.value("--strategy")?.to_string(),
            "--out-dir" => out_dir = PathBuf::from(reader.value("--out-dir")?),
            "--dir" => dir = Some(PathBuf::from(reader.value("--dir")?)),
            "--min-speedup" => min_speedup = Some(reader.parsed::<f64>("--min-speedup")?),
            "--repeat" => repeat = reader.parsed::<usize>("--repeat")?.max(1),
            "--mmap" => mmap = true,
            "--min-load-speedup" => {
                // The gate only makes sense over the mmap microbench.
                mmap = true;
                min_load_speedup = Some(reader.parsed::<f64>("--min-load-speedup")?);
            }
            other => return Err(format!("unknown snapshot bench option {other:?}")),
        }
    }
    let ctx = ctx_flags.resolve();
    let key = SessionKey {
        dataset: wire::parse_dataset(&dataset)?,
        strategy: wire::parse_strategy(&strategy)?,
    };
    let snapshot_dir = dir.unwrap_or_else(|| out_dir.join("snapshot-bench"));
    std::fs::create_dir_all(&snapshot_dir)
        .map_err(|e| format!("create {}: {e}", snapshot_dir.display()))?;
    // A stale file from an earlier run must not turn the "cold" phase warm.
    std::fs::remove_file(session_snapshot::snapshot_path(&snapshot_dir, key)).ok();

    // The measured query deliberately skips the independent evaluation
    // pass: time-to-first-response is about the serving path, and the
    // evaluation cost is identical on both sides (it would only dilute
    // the cold/warm contrast the benchmark exists to expose).
    let request = SolveRequest {
        id: 1,
        dataset: key.dataset,
        strategy: key.strategy,
        algorithm: Algorithm::OneBatch,
        incentive: IncentiveModel::Linear,
        alpha: 0.1,
        evaluate: false,
    };

    // Repeat whole cold/save/warm cycles; scheduler and writeback noise is
    // one-sided (it only ever makes a phase slower), so the gate compares
    // the *median* cold start against the *fastest* warm start.
    let mut colds = Vec::with_capacity(repeat);
    let mut warms = Vec::with_capacity(repeat);
    let mut save_secs = 0.0f64;
    let mut path = session_snapshot::snapshot_path(&snapshot_dir, key);
    for round in 0..repeat {
        std::fs::remove_file(session_snapshot::snapshot_path(&snapshot_dir, key)).ok();

        // Cold: build everything from scratch, then answer one query.
        let cold_start = Instant::now();
        let cold_session = Session::build(key, &ctx);
        let cold = first_response(&cold_session, &request, cold_start);

        // Persist (not part of either start-to-first-response figure; the
        // write is fsynced, so its writeback cannot bleed into the timed
        // warm phase).
        let save_start = Instant::now();
        path = cold_session
            .save_snapshot(&snapshot_dir)
            .map_err(|e| format!("saving snapshot: {e}"))?;
        save_secs = save_start.elapsed().as_secs_f64();

        // Touch the file once before timing so the measurement captures
        // the restore path (decode + rebuild + solve), not a cold page
        // cache — the scenario modelled is a daemon restart.
        std::fs::read(&path).map_err(|e| format!("prewarm read {}: {e}", path.display()))?;

        // Warm: restore from disk, then answer the same query.
        let warm_start = Instant::now();
        let warm_session = session_snapshot::load_session(key, &ctx, &snapshot_dir)
            .map_err(|e| format!("loading snapshot back: {e}"))?
            .ok_or("snapshot file vanished between save and load")?;
        let warm = first_response(&warm_session, &request, warm_start);

        // The round-trip invariant is part of the benchmark's contract:
        // every round, warm and cold must answer bit-identically.
        if warm.result != cold.result {
            return Err(format!(
                "round-trip violation in round {round}: warm solve differs from cold solve\n  \
                 cold: {:?}\n  warm: {:?}",
                cold.result, warm.result
            ));
        }
        if warm.loaded_from_snapshot == 0 {
            return Err("warm session served nothing from the snapshot".to_string());
        }
        colds.push(cold);
        warms.push(warm);
    }

    let cold_secs = median_secs(&colds);
    let warm_best = best_of(&warms);
    let speedup = cold_secs / warm_best.secs.max(1e-9);
    let cold = &colds[0];
    let warm = warm_best;
    println!(
        "snapshot bench {} ({repeat} round(s)): cold start-to-first-response {cold_secs:.3}s \
         (median), warm {:.3}s (best) — {speedup:.1}x; save {save_secs:.3}s, snapshot load \
         {:.3}s, {} RR-sets restored",
        key.label(),
        warm.secs,
        warm.snapshot_load_secs,
        warm.loaded_from_snapshot,
    );
    println!("snapshot file: {}", path.display());

    let mut report = snapshot_bench_report(&ctx, key, cold, warm, speedup, ctx_flags.quick);
    // The cold point carries the median across rounds (the printed and
    // gated figure), not round 0's wall-clock.
    report.points[0].outcome.time_secs = cold_secs;

    let load = if mmap {
        let bench = mmap_load_bench(&path, ctx.threads)?;
        println!(
            "mmap load bench: owned decode {:.4}s, mapped {:.6}s (best of {} reps) — \
             {:.0}x; {:.1} of {:.1} MiB borrowed zero-copy",
            bench.owned_secs,
            bench.mapped_secs,
            LOAD_BENCH_REPS,
            bench.speedup(),
            bench.mapped_bytes as f64 / (1024.0 * 1024.0),
            (bench.resident_bytes + bench.mapped_bytes) as f64 / (1024.0 * 1024.0),
        );
        report
            .points
            .push(load_point("load-owned,", bench.owned_secs, 0.0, &bench));
        report
            .points
            .push(load_point("load-mapped,", bench.mapped_secs, 0.0, &bench));
        // Like the warm/cold speedup point, the load speedup rides the
        // revenue column so a regression can trip the compare gate.
        report.points.push(load_point(
            "load-speedup,",
            bench.mapped_secs,
            bench.speedup(),
            &bench,
        ));
        Some(bench)
    } else {
        None
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let json_path = out_dir.join("BENCH_snapshot.json");
    std::fs::write(&json_path, report.render())
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    println!("wrote {}", json_path.display());

    if let Some(min) = min_speedup {
        if speedup < min {
            return Err(format!(
                "warm start is only {speedup:.1}x faster than cold (required: {min}x)"
            ));
        }
    }
    if let (Some(min), Some(bench)) = (min_load_speedup, &load) {
        if bench.speedup() < min {
            return Err(format!(
                "mmap load is only {:.1}x faster than the owned decode (required: {min}x)",
                bench.speedup()
            ));
        }
    }
    Ok(())
}

/// Best-of reps for the owned-vs-mapped load race; small because the
/// owned side of the race decodes the full file every rep.
const LOAD_BENCH_REPS: usize = 5;

/// Result of racing a full owned decode of a snapshot's RR cache against
/// a zero-copy mmap load of the same file.
struct LoadBench {
    owned_secs: f64,
    mapped_secs: f64,
    resident_bytes: usize,
    mapped_bytes: usize,
}

impl LoadBench {
    fn speedup(&self) -> f64 {
        self.owned_secs / self.mapped_secs.max(1e-9)
    }
}

/// Race `RrCache::load_from` (eager owned decode) against
/// `RrCache::load_mapped` (lazy zero-copy borrow) on the same file,
/// best-of-[`LOAD_BENCH_REPS`], and check both restore the identical
/// cache (same distribution fingerprint).
fn mmap_load_bench(path: &Path, threads: usize) -> Result<LoadBench, String> {
    let mut owned_secs = f64::INFINITY;
    let mut mapped_secs = f64::INFINITY;
    let mut resident_bytes = 0;
    let mut mapped_bytes = 0;
    for _ in 0..LOAD_BENCH_REPS {
        let start = Instant::now();
        let owned = RrCache::load_from(path, threads)
            .map_err(|e| format!("owned load {}: {e}", path.display()))?;
        owned_secs = owned_secs.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let mapped = RrCache::load_mapped(path, threads, VerifyMode::Lazy)
            .map_err(|e| format!("mmap load {}: {e}", path.display()))?;
        mapped_secs = mapped_secs.min(start.elapsed().as_secs_f64());

        if owned.fingerprint() != mapped.fingerprint() {
            return Err(format!(
                "mmap load disagrees with the owned decode: fingerprints {:?} vs {:?}",
                owned.fingerprint(),
                mapped.fingerprint()
            ));
        }
        resident_bytes = mapped.resident_bytes();
        mapped_bytes = mapped.mapped_bytes();
    }
    if ZERO_COPY_TARGET && mapped_bytes == 0 {
        return Err(
            "mmap load borrowed nothing zero-copy on an eligible target (is the file v1?)"
                .to_string(),
        );
    }
    Ok(LoadBench {
        owned_secs,
        mapped_secs,
        resident_bytes,
        mapped_bytes,
    })
}

/// A load-race point for `BENCH_snapshot.json`: the load time rides
/// `time_secs`/`snapshot_load_secs`, and for the speedup point the ratio
/// rides the revenue column (matching the warm/cold speedup point).
fn load_point(job: &str, secs: f64, revenue: f64, bench: &LoadBench) -> BenchPoint {
    BenchPoint {
        job: job.to_string(),
        key: 0.0,
        outcome: AlgoOutcome {
            algorithm: "snapshot".to_string(),
            revenue,
            revenue_lower_bound: None,
            seeding_cost: 0.0,
            seeds: 0,
            time_secs: secs,
            rr_sets: 0,
            rr_generated: 0,
            index_secs: 0.0,
            loaded_from_snapshot: 0,
            snapshot_load_secs: secs,
            memory_bytes: bench.resident_bytes + bench.mapped_bytes,
            resident_bytes: bench.resident_bytes,
            mapped_bytes: bench.mapped_bytes,
            memory_mib: (bench.resident_bytes + bench.mapped_bytes) as f64 / (1024.0 * 1024.0),
            budget_usage_pct: 0.0,
            rate_of_return_pct: 0.0,
            phases: Vec::new(),
        },
    }
}

fn snapshot_bench_report(
    ctx: &ExperimentContext,
    key: SessionKey,
    cold: &StartMeasurement,
    warm: &StartMeasurement,
    speedup: f64,
    quick: bool,
) -> BenchReport {
    let point = |job: &str, m: &StartMeasurement| {
        let r = &m.result;
        BenchPoint {
            job: job.to_string(),
            key: 0.0,
            outcome: AlgoOutcome {
                algorithm: r.algorithm.clone(),
                revenue: r.revenue.unwrap_or(r.revenue_estimate),
                revenue_lower_bound: r.revenue_lower_bound,
                seeding_cost: r.seeding_cost,
                seeds: r.seeds,
                time_secs: m.secs,
                rr_sets: r.rr_used,
                rr_generated: r.rr_generated,
                index_secs: 0.0,
                loaded_from_snapshot: m.loaded_from_snapshot,
                snapshot_load_secs: m.snapshot_load_secs,
                memory_bytes: m.resident_bytes + m.mapped_bytes,
                resident_bytes: m.resident_bytes,
                mapped_bytes: m.mapped_bytes,
                memory_mib: (m.resident_bytes + m.mapped_bytes) as f64 / (1024.0 * 1024.0),
                budget_usage_pct: 0.0,
                rate_of_return_pct: 0.0,
                phases: Vec::new(),
            },
        }
    };
    let mut speedup_point = point("speedup,", warm);
    // The ratio rides the revenue column so a collapse would trip the
    // compare gate's drop detector if a baseline ever pins it; wall-clock
    // noise keeps it out of the committed baseline by default.
    speedup_point.outcome.algorithm = "snapshot".to_string();
    speedup_point.outcome.revenue = speedup;
    speedup_point.outcome.revenue_lower_bound = None;
    BenchReport {
        scenario: "snapshot".to_string(),
        title: format!("cold vs warm start — {}", key.label()),
        points: vec![point("cold,", cold), point("warm,", warm), speedup_point],
        total_wall_secs: cold.secs + warm.secs,
        run: RunManifest::collect(ctx.seed, ctx.threads, ctx.scale, quick),
    }
}

/// `rmsa dataset info <scenario.toml|dataset>… [--snapshot-dir DIR]`
pub fn dataset_command(args: &[String]) -> Result<(), String> {
    let Some((op, rest)) = args.split_first() else {
        return Err("dataset needs an operation: info".to_string());
    };
    if op != "info" {
        return Err(format!("unknown dataset op {op:?}"));
    }
    let mut ctx_flags = CtxFlags::new();
    let mut targets = Vec::new();
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut reader = ArgReader::new(rest);
    while let Some(arg) = reader.next() {
        if ctx_flags.consume(arg, &mut reader)? {
            continue;
        }
        match arg.as_str() {
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(reader.value("--snapshot-dir")?)),
            other if other.starts_with('-') => {
                return Err(format!("unknown dataset info option {other:?}"))
            }
            target => targets.push(target.to_string()),
        }
    }
    if targets.is_empty() {
        return Err("dataset info needs a scenario manifest or dataset name".to_string());
    }
    let ctx = ctx_flags.resolve();
    let mut rows: Vec<(DatasetKind, RrStrategy)> = Vec::new();
    for target in &targets {
        for entry in resolve_target(target)? {
            if !rows.contains(&entry) {
                rows.push(entry);
            }
        }
    }
    print!(
        "{}",
        render_dataset_info(&ctx, &rows, snapshot_dir.as_deref())
    );
    Ok(())
}

/// A target is either a dataset name or a scenario manifest whose jobs
/// name datasets (with their RR strategies where the manifest has one).
fn resolve_target(target: &str) -> Result<Vec<(DatasetKind, RrStrategy)>, String> {
    if let Ok(kind) = wire::parse_dataset(target) {
        return Ok(vec![(kind, RrStrategy::Standard)]);
    }
    let path = Path::new(target);
    let manifest = if path.is_file() {
        path.to_path_buf()
    } else if let Some(found) = rmsa_bench::runner::find_scenario(target) {
        found
    } else {
        return Err(format!(
            "{target:?} is neither a dataset name nor a scenario manifest"
        ));
    };
    let scenario = Scenario::load(&manifest)?;
    Ok(scenario_datasets(&scenario))
}

/// The `(dataset, strategy)` pairs a scenario touches, in job order.
fn scenario_datasets(scenario: &Scenario) -> Vec<(DatasetKind, RrStrategy)> {
    let mut rows = Vec::new();
    let mut push = |entry: (DatasetKind, RrStrategy)| {
        if !rows.contains(&entry) {
            rows.push(entry);
        }
    };
    for job in &scenario.jobs {
        match &job.sweep {
            SweepSpec::Alpha {
                dataset, strategy, ..
            } => push((*dataset, *strategy)),
            SweepSpec::Epsilon { dataset }
            | SweepSpec::Scalability { dataset, .. }
            | SweepSpec::Demand { dataset, .. }
            | SweepSpec::Rma { dataset, .. } => push((*dataset, RrStrategy::Standard)),
            // Generator-family sweeps synthesise their graphs in memory and
            // touch no named dataset.
            SweepSpec::GenScale { .. } => {}
            SweepSpec::Datasets => {
                for kind in DatasetKind::all() {
                    push((kind, RrStrategy::Standard));
                }
            }
            SweepSpec::Settings { datasets } => {
                for kind in datasets {
                    push((*kind, RrStrategy::Standard));
                }
            }
        }
    }
    rows
}

fn render_dataset_info(
    ctx: &ExperimentContext,
    rows: &[(DatasetKind, RrStrategy)],
    snapshot_dir: Option<&Path>,
) -> String {
    let mut out = format!(
        "Datasets (scale {} on top of per-dataset defaults, seed {})\n\n",
        ctx.scale, ctx.seed
    );
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>12} {:>10} {:>10} {:>6} {:>10} {:>14}",
        "dataset", "|V|", "|E|", "mean deg", "max indeg", "model", "strategy", "mean RR size"
    );
    for &(kind, strategy) in rows {
        let dataset = ctx.dataset(kind);
        let stats = DegreeStats::compute(&dataset.graph);
        let mean_rr = snapshot_dir
            .map(|dir| {
                session_snapshot::snapshot_path(
                    dir,
                    SessionKey {
                        dataset: kind,
                        strategy,
                    },
                )
            })
            .filter(|path| path.is_file())
            .and_then(|path| session_snapshot::inspect(&path).ok())
            .and_then(|info| info.mean_rr_size());
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>12} {:>10.2} {:>10} {:>6} {:>10} {:>14}",
            kind.name(),
            stats.num_nodes,
            stats.num_edges,
            stats.mean_degree,
            stats.max_in_degree,
            if kind.uses_tic() { "TIC" } else { "WC" },
            wire::strategy_name(strategy),
            match mean_rr {
                Some(size) => format!("{size:.2}"),
                None => "-".to_string(),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn snapshot_command_rejects_unknown_ops_and_flags() {
        assert!(snapshot_command(&[]).is_err());
        assert!(snapshot_command(&strings(&["frobnicate"])).is_err());
        assert!(snapshot_command(&strings(&["make", "--bogus"])).is_err());
        assert!(snapshot_command(&strings(&["inspect"])).is_err());
        assert!(snapshot_command(&strings(&["bench", "--min-speedup"])).is_err());
    }

    #[test]
    fn dataset_info_needs_a_target_and_resolves_names() {
        assert!(dataset_command(&[]).is_err());
        assert!(dataset_command(&strings(&["info"])).is_err());
        assert!(dataset_command(&strings(&["info", "not-a-dataset"])).is_err());
        assert_eq!(
            resolve_target("flixster-syn").unwrap(),
            vec![(DatasetKind::FlixsterSyn, RrStrategy::Standard)]
        );
    }

    #[test]
    fn scenario_datasets_collects_unique_pairs() {
        let scenario = Scenario::parse(
            r#"
schema = 1
name = "t"
title = "t"
key_columns = "dataset,alpha"

[[job]]
sweep = "alpha"
dataset = "lastfm-syn"
incentive = "linear"
strategy = "subsim"
prefix = "a,"

[[job]]
sweep = "alpha"
dataset = "lastfm-syn"
incentive = "superlinear"
strategy = "subsim"
prefix = "b,"

[[job]]
sweep = "epsilon"
dataset = "flixster-syn"
prefix = "c,"
"#,
        )
        .unwrap();
        assert_eq!(
            scenario_datasets(&scenario),
            vec![
                (DatasetKind::LastfmSyn, RrStrategy::Subsim),
                (DatasetKind::FlixsterSyn, RrStrategy::Standard),
            ]
        );
    }

    #[test]
    fn end_to_end_make_inspect_and_info_on_a_tiny_context() {
        // Drives the real code path at smoke scale: make a snapshot, then
        // dataset info must pick up its mean RR size.
        let dir = std::env::temp_dir().join("rmsa_cli_snapshot_cmd_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        snapshot_command(&strings(&[
            "make",
            "--quick",
            "--dir",
            &dir_s,
            "--dataset",
            "lastfm-syn",
        ]))
        .unwrap();
        let file = dir.join("lastfm-syn-standard.rmsnap");
        assert!(file.is_file());
        snapshot_command(&strings(&["inspect", file.to_str().unwrap()])).unwrap();
        dataset_command(&strings(&[
            "info",
            "lastfm-syn",
            "--quick",
            "--snapshot-dir",
            &dir_s,
        ]))
        .unwrap();
        let info = session_snapshot::inspect(&file).unwrap();
        assert!(info.mean_rr_size().unwrap() >= 1.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
