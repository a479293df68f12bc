//! `perfbench`: the rmsa benchmark.
//!
//! ```text
//! perfbench --workload <solve_bound|hot|paper_sweep> --seed <n> --seconds <s>
//!           --trace <0|1> [--rmsa <path to the rmsa binary>] [--work <dir>]
//! ```
//!
//! Workloads (why each exists is in `BENCHMARK.json`):
//!
//! * `solve_bound` — `rmsa serve` in a closed loop with two clients; every
//!   request has its own α, so every request runs the solver and the
//!   evaluation over the warm RR cache.
//! * `hot` — `rmsa serve` warm-started from a snapshot; at most 12 solve
//!   classes, so every timed request is a memo hit. Capacity and latency
//!   come from a saturating pipelined connection, alternated through the
//!   run with an open loop at a fixed nominal rate.
//! * `paper_sweep` — the paper's Table-3 protocol through the library:
//!   RMA, TI-CARM and TI-CSRM at five α on a cold workbench.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that prints the per-layer metrics, measured from outside each layer
//! by timing calls into its public functions. Each metric is printed as a
//! typed row (`row <workload> <name> <value> <unit> n=<samples>`); the
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A correctness mismatch counts as a failed operation, and the
//! process then exits with status 1 after printing its result.

mod counting;
mod daemon;
mod mix;
mod replay;
mod served;
mod stats;
mod sweep;

use rmsa_bench::json::Json;
use stats::Row;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("revenue_mean", "revenue"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, named after the module they measure. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("diffusion.rr_generated", "count"),
    ("diffusion.generate_s", "s"),
    ("diffusion.index_extend_s", "s"),
    ("diffusion.cache_reuse_frac", "ratio"),
    ("diffusion.cache_mib", "MiB"),
    ("search.probes", "count"),
    ("greedy.gains", "count"),
    ("greedy.postings", "count"),
    ("greedy.singletons", "count"),
    ("greedy.gain_s", "s"),
    ("greedy.oracle_solve_ms", "ms"),
    ("rma.rounds", "count"),
    ("ti.solve_s", "s"),
    ("ti.rr_generated", "count"),
    ("evaluation.report_ms", "ms"),
    ("session.memo_hit_frac", "ratio"),
    ("session.build_s", "s"),
    ("session.warm_s", "s"),
    ("session.solve_ms", "ms"),
    ("server.queue_ms_p99", "ms"),
    ("server.batch_wait_ms_p99", "ms"),
    ("server.batch_size_mean", "count"),
    ("server.worker_busy_frac", "ratio"),
    ("server.delivery_ms_p50", "ms"),
    ("wire.parse_us", "us"),
    ("wire.render_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("net.ping_rtt_us", "us"),
    ("store.snapshot_load_s", "s"),
    ("store.mapped_mib", "MiB"),
    ("obs.overhead_frac", "ratio"),
    ("loadgen.send_lag_ms_p99", "ms"),
    ("loadgen.nominal_p50_ms", "ms"),
    ("loadgen.nominal_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["solve_bound", "hot", "paper_sweep"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rmsa: PathBuf,
    pub work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let target = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    );
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rmsa: target.join("release").join("rmsa"),
        work: target.join("perfbench-work"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--rmsa" => args.rmsa = PathBuf::from(value()?),
            "--work" => args.work = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, (f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// A failed, refused or incorrect operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// The typed rows of the metric table that applies to this run.
    fn rows(&self, trace: bool) -> Result<Vec<Row>, String> {
        let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(&(value, samples)) => Ok(Row {
                    name,
                    unit,
                    value,
                    samples,
                }),
                None if trace => Ok(Row {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                }),
                None => Err(format!("the run did not measure {name}")),
            })
            .collect()
    }
}

fn result_json(outcome: &Outcome, rows: &[Row]) -> Json {
    let mut metrics = Json::obj();
    for row in rows {
        let mut metric = Json::obj();
        metric
            .set("value", Json::Num(row.value))
            .set("unit", Json::Str(row.unit.to_string()));
        metrics.set(row.name, metric);
    }
    let mut doc = Json::obj();
    doc.set("correct", Json::Bool(outcome.problems.is_empty()))
        .set("attempted", Json::Int(outcome.attempted.max(1) as i64))
        .set("failed", Json::Int(outcome.failed as i64))
        .set("metrics", metrics);
    doc
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "solve_bound" => served::solve_bound(args, &mut outcome)?,
        "hot" => served::hot(args, &mut outcome)?,
        _ => sweep::paper_sweep(args, &mut outcome)?,
    }
    Ok(outcome)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(args.work.join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let rows = match outcome.rows(args.trace) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: incorrect: {problem}");
    }
    for row in &rows {
        println!(
            "row {} {} {} {} n={}",
            args.workload, row.name, row.value, row.unit, row.samples
        );
    }
    println!("{}", result_json(&outcome, &rows).render_compact());
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        rmsa_bench::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn table(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric table")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_and_units_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(table(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(table(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_of_the_mode() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5, 3);
        }
        assert!(outcome.rows(false).is_ok());
        let rows = outcome.rows(true).expect("unmeasured layers read 0");
        assert_eq!(rows.len(), PER_LAYER.len());
        let doc = result_json(&outcome, &outcome.rows(false).unwrap());
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("latency_p95_ms")
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("ms")
        );
        let mut missing = Outcome::default();
        missing.set("setup_s", 1.0, 1);
        assert!(missing.rows(false).is_err());
    }
}
