//! Versioned machine-readable bench reports (`BENCH_<scenario>.json`) and
//! the regression comparison behind `rmsa compare`.
//!
//! A [`BenchReport`] is the JSON trajectory record of one scenario run:
//! one point per `(job, sweep key, algorithm)` with wall-clock, RR-set and
//! coverage-index accounting, revenue (plus RMA's certified lower bound)
//! and the exact `memory_bytes()` footprint — plus a [`RunManifest`] footer
//! (git revision, seed, thread count, scale, quick flag) that makes every
//! committed baseline self-describing.
//!
//! [`compare_reports`] diffs two reports: revenue-style metrics regress
//! when the new value drops below `old · (1 − tolerance)`, `memory_bytes`
//! when it leaves `old · (1 ± tolerance)` either way; wall-clock
//! metrics regress when the new value exceeds `old · (1 + time tolerance)`
//! *and* the absolute slowdown exceeds a floor (so sub-100 ms points never
//! flake a CI gate).

use crate::harness::AlgoOutcome;
use crate::json::{self, Json};

/// Schema version written into every report.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One `(job, key, algorithm)` measurement of a scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchPoint {
    /// Job label (the CSV row prefix of the job that produced the point).
    pub job: String,
    /// The swept parameter value.
    pub key: f64,
    /// The measured outcome.
    pub outcome: AlgoOutcome,
}

/// Self-description footer: where, how and from what a report was produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// `git rev-parse --short=12 HEAD` when available.
    pub git_rev: Option<String>,
    /// Master seed of the run.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Global scale factor.
    pub scale: f64,
    /// Whether the run used the quick (CI) profile.
    pub quick: bool,
}

impl RunManifest {
    /// Collect the footer from an experiment context and the environment.
    pub fn collect(seed: u64, threads: usize, scale: f64, quick: bool) -> Self {
        RunManifest {
            git_rev: git_revision(),
            seed,
            threads,
            scale,
            quick,
        }
    }
}

/// The current git revision, if the working directory is a repository and
/// `git` is on the PATH.
pub fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!rev.is_empty()).then_some(rev)
}

/// The JSON bench report of one scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Scenario name (`BENCH_<scenario>.json`).
    pub scenario: String,
    /// Human-readable scenario title.
    pub title: String,
    /// Measurement points, in job/sweep order.
    pub points: Vec<BenchPoint>,
    /// End-to-end wall-clock of the whole scenario run, in seconds.
    pub total_wall_secs: f64,
    /// Self-description footer.
    pub run: RunManifest,
}

impl BenchReport {
    /// Peak `memory_bytes()` across all points.
    pub fn peak_memory_bytes(&self) -> usize {
        self.points
            .iter()
            .map(|p| p.outcome.memory_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total RR-sets freshly generated across all points.
    pub fn total_rr_generated(&self) -> usize {
        self.points.iter().map(|p| p.outcome.rr_generated).sum()
    }

    /// Serialize to the on-disk JSON format.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("schema_version", Json::Int(BENCH_SCHEMA_VERSION as i64))
            .set("scenario", Json::Str(self.scenario.clone()))
            .set("title", Json::Str(self.title.clone()))
            .set(
                "points",
                Json::Arr(self.points.iter().map(point_to_json).collect()),
            );
        let mut totals = Json::obj();
        totals
            .set("wall_secs", Json::Num(self.total_wall_secs))
            .set(
                "peak_memory_bytes",
                Json::Int(self.peak_memory_bytes() as i64),
            )
            .set("rr_generated", Json::Int(self.total_rr_generated() as i64));
        doc.set("totals", totals);
        let mut run = Json::obj();
        run.set(
            "git_rev",
            match &self.run.git_rev {
                Some(rev) => Json::Str(rev.clone()),
                None => Json::Null,
            },
        )
        .set("seed", Json::Int(self.run.seed as i64))
        .set("threads", Json::Int(self.run.threads as i64))
        .set("scale", Json::Num(self.run.scale))
        .set("quick", Json::Bool(self.run.quick));
        doc.set("run", run);
        doc
    }

    /// Render the pretty-printed JSON document.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parse a report from JSON text, verifying the schema version.
    pub fn from_json_text(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text)?;
        let version = doc
            .get("schema_version")
            .and_then(|v| v.as_i64())
            .ok_or("report is missing schema_version")?;
        if version != BENCH_SCHEMA_VERSION as i64 {
            return Err(format!("unsupported bench report schema {version}"));
        }
        let str_field = |obj: &Json, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(|v| v.as_str())
                .map(|s| s.to_string())
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let points = doc
            .get("points")
            .and_then(|v| v.as_arr())
            .ok_or("report is missing points")?
            .iter()
            .map(point_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let run = doc.get("run").ok_or("report is missing run footer")?;
        Ok(BenchReport {
            scenario: str_field(&doc, "scenario")?,
            title: str_field(&doc, "title")?,
            points,
            total_wall_secs: doc
                .get("totals")
                .and_then(|t| t.get("wall_secs"))
                .and_then(|v| v.as_f64())
                .ok_or("report is missing totals.wall_secs")?,
            run: RunManifest {
                git_rev: run
                    .get("git_rev")
                    .and_then(|v| v.as_str())
                    .map(|s| s.to_string()),
                seed: run
                    .get("seed")
                    .and_then(|v| v.as_i64())
                    .ok_or("run.seed missing")? as u64,
                threads: run
                    .get("threads")
                    .and_then(|v| v.as_i64())
                    .ok_or("run.threads missing")? as usize,
                scale: run
                    .get("scale")
                    .and_then(|v| v.as_f64())
                    .ok_or("run.scale missing")?,
                quick: run.get("quick").and_then(|v| v.as_bool()).unwrap_or(false),
            },
        })
    }

    /// Load a report from a file.
    pub fn load(path: &std::path::Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        BenchReport::from_json_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn point_to_json(point: &BenchPoint) -> Json {
    let o = &point.outcome;
    let mut p = Json::obj();
    p.set("job", Json::Str(point.job.clone()))
        .set("key", Json::Num(point.key))
        .set("algorithm", Json::Str(o.algorithm.clone()))
        .set("revenue", Json::Num(o.revenue))
        .set(
            "revenue_lower_bound",
            match o.revenue_lower_bound {
                Some(lb) => Json::Num(lb),
                None => Json::Null,
            },
        )
        .set("seeding_cost", Json::Num(o.seeding_cost))
        .set("seeds", Json::Int(o.seeds as i64))
        .set("wall_secs", Json::Num(o.time_secs))
        .set("rr_sets", Json::Int(o.rr_sets as i64))
        .set("rr_generated", Json::Int(o.rr_generated as i64))
        .set("index_secs", Json::Num(o.index_secs))
        .set(
            "loaded_from_snapshot",
            Json::Int(o.loaded_from_snapshot as i64),
        )
        .set("snapshot_load_secs", Json::Num(o.snapshot_load_secs))
        .set("memory_bytes", Json::Int(o.memory_bytes as i64))
        .set("resident_bytes", Json::Int(o.resident_bytes as i64))
        .set("mapped_bytes", Json::Int(o.mapped_bytes as i64))
        .set("budget_usage_pct", Json::Num(o.budget_usage_pct))
        .set("rate_of_return_pct", Json::Num(o.rate_of_return_pct));
    if !o.phases.is_empty() {
        // Additive: only loadgen latency rows carry a breakdown, so
        // every other row (and every pre-attribution baseline) renders
        // byte-identically.
        let mut phases = Json::obj();
        for (name, secs) in &o.phases {
            phases.set(name, Json::Num(*secs));
        }
        p.set("phases", phases);
    }
    p
}

fn point_from_json(p: &Json) -> Result<BenchPoint, String> {
    let f = |key: &str| -> Result<f64, String> {
        p.get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("point is missing number {key:?}"))
    };
    let u = |key: &str| -> Result<usize, String> {
        p.get(key)
            .and_then(|v| v.as_i64())
            .map(|i| i.max(0) as usize)
            .ok_or_else(|| format!("point is missing integer {key:?}"))
    };
    let memory_bytes = u("memory_bytes")?;
    // The resident/mapped split arrived with the zero-copy loader;
    // baselines written before it count everything as resident.
    let mapped_bytes = u("mapped_bytes").unwrap_or(0);
    let resident_bytes = u("resident_bytes").unwrap_or(memory_bytes.saturating_sub(mapped_bytes));
    Ok(BenchPoint {
        job: p
            .get("job")
            .and_then(|v| v.as_str())
            .ok_or("point is missing job")?
            .to_string(),
        key: f("key")?,
        outcome: AlgoOutcome {
            algorithm: p
                .get("algorithm")
                .and_then(|v| v.as_str())
                .ok_or("point is missing algorithm")?
                .to_string(),
            revenue: f("revenue")?,
            revenue_lower_bound: p.get("revenue_lower_bound").and_then(|v| v.as_f64()),
            seeding_cost: f("seeding_cost")?,
            seeds: u("seeds")?,
            time_secs: f("wall_secs")?,
            rr_sets: u("rr_sets")?,
            rr_generated: u("rr_generated")?,
            index_secs: f("index_secs")?,
            // Snapshot accounting arrived with the persistence subsystem;
            // baselines written before it simply lack the fields.
            loaded_from_snapshot: u("loaded_from_snapshot").unwrap_or(0),
            snapshot_load_secs: f("snapshot_load_secs").unwrap_or(0.0),
            memory_bytes,
            resident_bytes,
            mapped_bytes,
            memory_mib: memory_bytes as f64 / (1024.0 * 1024.0),
            budget_usage_pct: f("budget_usage_pct")?,
            rate_of_return_pct: f("rate_of_return_pct")?,
            phases: match p.get("phases") {
                Some(Json::Obj(entries)) => entries
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|secs| (k.clone(), secs)))
                    .collect(),
                _ => Vec::new(),
            },
        },
    })
}

/// Regression thresholds for [`compare_reports`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Allowed fractional drop in revenue-style metrics, and rise in
    /// `memory_bytes` (0.1 = 10 %).
    pub metric_frac: f64,
    /// Allowed fractional wall-clock slowdown.
    pub time_frac: f64,
    /// Absolute wall-clock slack in seconds: a point only counts as a time
    /// regression when the slowdown also exceeds this floor.
    pub min_time_secs: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            metric_frac: 0.10,
            time_frac: 0.10,
            min_time_secs: 0.25,
        }
    }
}

/// One detected regression. Every failure line names the offending
/// metric and shows both values (a missing side prints as `missing`), so
/// a red CI gate is diagnosable from the log alone.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// `(job, key, algorithm)` location, or `"totals"`.
    pub location: String,
    /// The offending metric (`revenue`, `revenue_lower_bound`,
    /// `memory_bytes`, `wall_secs`, `total_wall_secs`, or `point` when the
    /// whole point vanished).
    pub metric: String,
    /// Baseline value, when the baseline had one.
    pub old_value: Option<f64>,
    /// New value, when the new report has one.
    pub new_value: Option<f64>,
    /// Why this counts as a regression (tolerance context).
    pub detail: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "missing".to_string(),
        };
        write!(
            f,
            "{}: {} {} -> {} ({})",
            self.location,
            self.metric,
            fmt(self.old_value),
            fmt(self.new_value),
            self.detail
        )
    }
}

/// Compare `new` against the `old` baseline. Returns every detected
/// regression; an empty vector means the gate passes.
pub fn compare_reports(old: &BenchReport, new: &BenchReport, tol: &Tolerance) -> Vec<Regression> {
    let mut regressions = Vec::new();
    let locate = |p: &BenchPoint| format!("{}{} [{}]", p.job, p.key, p.outcome.algorithm);
    for old_point in &old.points {
        let Some(new_point) = new.points.iter().find(|p| {
            p.job == old_point.job
                && p.outcome.algorithm == old_point.outcome.algorithm
                && (p.key - old_point.key).abs() <= 1e-12 * old_point.key.abs().max(1.0)
        }) else {
            regressions.push(Regression {
                location: locate(old_point),
                metric: "point".to_string(),
                old_value: Some(old_point.outcome.revenue),
                new_value: None,
                detail: "point missing from new report (old value is its revenue)".to_string(),
            });
            continue;
        };
        let o = &old_point.outcome;
        let n = &new_point.outcome;
        for (metric, old_v, new_v) in [
            ("revenue", Some(o.revenue), Some(n.revenue)),
            (
                "revenue_lower_bound",
                o.revenue_lower_bound,
                n.revenue_lower_bound,
            ),
        ] {
            let (old_v, new_v) = match (old_v, new_v) {
                (Some(o), Some(n)) => (o, n),
                // A certified bound the baseline had must not vanish.
                (Some(old_v), None) => {
                    regressions.push(Regression {
                        location: locate(old_point),
                        metric: metric.to_string(),
                        old_value: Some(old_v),
                        new_value: None,
                        detail: "metric disappeared from the new report".to_string(),
                    });
                    continue;
                }
                _ => continue,
            };
            if new_v < old_v * (1.0 - tol.metric_frac) - 1e-9 {
                regressions.push(Regression {
                    location: locate(old_point),
                    metric: metric.to_string(),
                    old_value: Some(old_v),
                    new_value: Some(new_v),
                    detail: format!("dropped beyond tolerance {:.1} %", tol.metric_frac * 100.0),
                });
            }
        }
        // The footprint is a closed form of column capacities, as
        // deterministic as revenue, so it takes the metric tolerance, both
        // ways: a baseline that no longer matches the code would hide
        // growth up to its own excess.
        let (old_bytes, new_bytes) = (o.memory_bytes as f64, n.memory_bytes as f64);
        let moved = if new_bytes > old_bytes * (1.0 + tol.metric_frac) {
            Some("grew")
        } else if new_bytes < old_bytes * (1.0 - tol.metric_frac) {
            Some("shrank")
        } else {
            None
        };
        if let Some(moved) = moved {
            regressions.push(Regression {
                location: locate(old_point),
                metric: "memory_bytes".to_string(),
                old_value: Some(old_bytes),
                new_value: Some(new_bytes),
                detail: format!(
                    "{moved} beyond tolerance {:.1} % (a shrink means the baseline is stale)",
                    tol.metric_frac * 100.0
                ),
            });
        }
        if n.time_secs > o.time_secs * (1.0 + tol.time_frac)
            && n.time_secs - o.time_secs > tol.min_time_secs
        {
            regressions.push(Regression {
                location: locate(old_point),
                metric: "wall_secs".to_string(),
                old_value: Some(o.time_secs),
                new_value: Some(n.time_secs),
                detail: format!(
                    "slower than tolerance {:.1} % + {:.2}s floor",
                    tol.time_frac * 100.0,
                    tol.min_time_secs
                ),
            });
        }
    }
    if new.total_wall_secs > old.total_wall_secs * (1.0 + tol.time_frac)
        && new.total_wall_secs - old.total_wall_secs > tol.min_time_secs
    {
        regressions.push(Regression {
            location: "totals".to_string(),
            metric: "total_wall_secs".to_string(),
            old_value: Some(old.total_wall_secs),
            new_value: Some(new.total_wall_secs),
            detail: format!(
                "slower than tolerance {:.1} % + {:.2}s floor",
                tol.time_frac * 100.0,
                tol.min_time_secs
            ),
        });
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn outcome(algorithm: &str, revenue: f64, time: f64) -> AlgoOutcome {
        AlgoOutcome {
            algorithm: algorithm.to_string(),
            revenue,
            revenue_lower_bound: Some(revenue * 0.8),
            seeding_cost: 10.0,
            seeds: 5,
            time_secs: time,
            rr_sets: 1000,
            rr_generated: 400,
            index_secs: 0.01,
            loaded_from_snapshot: 0,
            snapshot_load_secs: 0.0,
            memory_bytes: 1 << 20,
            resident_bytes: 1 << 20,
            mapped_bytes: 0,
            memory_mib: 1.0,
            budget_usage_pct: 50.0,
            rate_of_return_pct: 120.0,
            phases: Vec::new(),
        }
    }

    pub(crate) fn report(points: Vec<BenchPoint>, total: f64) -> BenchReport {
        BenchReport {
            scenario: "test".to_string(),
            title: "test scenario".to_string(),
            points,
            total_wall_secs: total,
            run: RunManifest {
                git_rev: Some("abc123def456".to_string()),
                seed: 7,
                threads: 1,
                scale: 0.05,
                quick: true,
            },
        }
    }

    fn point(job: &str, key: f64, o: AlgoOutcome) -> BenchPoint {
        BenchPoint {
            job: job.to_string(),
            key,
            outcome: o,
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_report() {
        let r = report(
            vec![
                point("a,", 0.1, outcome("RMA", 123.456, 1.5)),
                point("a,", 0.2, outcome("TI-CARM", 99.5, 2.25)),
            ],
            4.0,
        );
        let parsed = BenchReport::from_json_text(&r.render()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.peak_memory_bytes(), 1 << 20);
        assert_eq!(parsed.total_rr_generated(), 800);
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(vec![point("a,", 0.1, outcome("RMA", 100.0, 1.0))], 2.0);
        assert!(compare_reports(&r, &r, &Tolerance::default()).is_empty());
    }

    #[test]
    fn revenue_drop_beyond_tolerance_fails_and_within_passes() {
        let tol = Tolerance {
            metric_frac: 0.10,
            time_frac: 10.0,
            min_time_secs: 60.0,
        };
        let old = report(vec![point("a,", 0.1, outcome("RMA", 100.0, 1.0))], 2.0);
        // Exactly at the boundary (drop of 10 %) passes…
        let at = report(vec![point("a,", 0.1, outcome("RMA", 90.0, 1.0))], 2.0);
        assert!(compare_reports(&old, &at, &tol).is_empty());
        // …just beyond it fails, on both revenue and the lower bound.
        let beyond = report(vec![point("a,", 0.1, outcome("RMA", 89.9, 1.0))], 2.0);
        let regs = compare_reports(&old, &beyond, &tol);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert_eq!(regs[0].metric, "revenue");
        assert_eq!(regs[0].old_value, Some(100.0));
        assert_eq!(regs[0].new_value, Some(89.9));
        assert_eq!(regs[1].metric, "revenue_lower_bound");
    }

    #[test]
    fn every_failure_line_names_the_metric_and_both_values() {
        // Cover all four regression shapes in one comparison: a missing
        // point, a revenue drop, a vanished lower bound, and time
        // regressions — each printed line must name its metric and show
        // both sides.
        let tol = Tolerance {
            metric_frac: 0.10,
            time_frac: 0.10,
            min_time_secs: 0.0,
        };
        let old = report(
            vec![
                point("a,", 0.1, outcome("RMA", 100.0, 1.0)),
                point("b,", 0.2, outcome("RMA", 50.0, 1.0)),
            ],
            1.0,
        );
        let mut dropped = outcome("RMA", 10.0, 9.0);
        dropped.revenue_lower_bound = None;
        let new = report(vec![point("a,", 0.1, dropped)], 9.0);
        let regs = compare_reports(&old, &new, &tol);
        let lines: Vec<String> = regs.iter().map(|r| r.to_string()).collect();
        assert_eq!(regs.len(), 5, "{lines:?}");
        for (reg, line) in regs.iter().zip(&lines) {
            assert!(!reg.metric.is_empty());
            assert!(line.contains(&reg.metric), "{line}");
            assert!(line.contains("->"), "{line}");
            assert!(reg.old_value.is_some() || reg.new_value.is_some(), "{line}");
        }
        assert!(lines
            .iter()
            .any(|l| l.contains("revenue 100.000 -> 10.000")));
        assert!(lines
            .iter()
            .any(|l| l.contains("revenue_lower_bound 80.000 -> missing")));
        assert!(lines.iter().any(|l| l.contains("wall_secs 1.000 -> 9.000")));
        assert!(lines.iter().any(|l| l.contains("point 50.000 -> missing")));
        assert!(lines
            .iter()
            .any(|l| l.contains("totals: total_wall_secs 1.000 -> 9.000")));
    }

    #[test]
    fn memory_change_beyond_tolerance_fails_either_way() {
        let tol = Tolerance {
            metric_frac: 0.05,
            time_frac: 10.0,
            min_time_secs: 60.0,
        };
        let old = report(vec![point("a,", 0.1, outcome("TI-CARM", 100.0, 1.0))], 2.0);
        let with_memory = |bytes: usize| {
            let mut r = old.clone();
            r.points[0].outcome.memory_bytes = bytes;
            r
        };
        // ±5 % exactly passes…
        assert!(compare_reports(&old, &with_memory(1_101_004), &tol).is_empty());
        assert!(compare_reports(&old, &with_memory(996_148), &tol).is_empty());
        // …one byte beyond fails either way, naming the metric and both
        // footprints.
        for (bytes, moved) in [(1_101_005, "grew"), (996_147, "shrank")] {
            let regs = compare_reports(&old, &with_memory(bytes), &tol);
            assert_eq!(regs.len(), 1, "{regs:?}");
            assert_eq!(regs[0].metric, "memory_bytes");
            assert_eq!(regs[0].old_value, Some(1_048_576.0));
            assert_eq!(regs[0].new_value, Some(bytes as f64));
            let line = regs[0].to_string();
            assert!(line.contains(&format!("memory_bytes 1048576.000 -> {bytes}.000")));
            assert!(line.contains(moved), "{line}");
        }
    }

    #[test]
    fn time_regression_needs_both_fraction_and_floor() {
        let tol = Tolerance {
            metric_frac: 1.0,
            time_frac: 0.10,
            min_time_secs: 0.25,
        };
        let old = report(vec![point("a,", 0.1, outcome("RMA", 100.0, 1.0))], 1.0);
        // +10 % exactly: passes.
        let at = report(vec![point("a,", 0.1, outcome("RMA", 100.0, 1.1))], 1.1);
        assert!(compare_reports(&old, &at, &tol).is_empty());
        // +20 % but under the absolute floor: passes.
        let small = report(vec![point("a,", 0.1, outcome("RMA", 100.0, 1.2))], 1.2);
        assert!(compare_reports(&old, &small, &tol).is_empty());
        // +40 %, above the floor: fails per-point and on totals.
        let slow = report(vec![point("a,", 0.1, outcome("RMA", 100.0, 1.4))], 1.4);
        let regs = compare_reports(&old, &slow, &tol);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs.iter().any(|r| r.location == "totals"));
    }

    #[test]
    fn disappearing_lower_bound_is_a_regression() {
        let old = report(vec![point("a,", 0.1, outcome("RMA", 100.0, 1.0))], 2.0);
        let mut new = old.clone();
        new.points[0].outcome.revenue_lower_bound = None;
        let regs = compare_reports(&old, &new, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "revenue_lower_bound");
        assert_eq!(regs[0].new_value, None);
        assert!(regs[0].detail.contains("disappeared"));
    }

    #[test]
    fn missing_points_are_regressions_and_extra_points_are_not() {
        let old = report(
            vec![
                point("a,", 0.1, outcome("RMA", 100.0, 1.0)),
                point("a,", 0.2, outcome("RMA", 100.0, 1.0)),
            ],
            2.0,
        );
        let new = report(
            vec![
                point("a,", 0.1, outcome("RMA", 100.0, 1.0)),
                point("b,", 0.3, outcome("RMA", 50.0, 9.0)),
            ],
            2.0,
        );
        let regs = compare_reports(&old, &new, &Tolerance::default());
        assert_eq!(regs.len(), 1);
        assert!(regs[0].detail.contains("missing"));
    }
}
