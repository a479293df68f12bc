//! # rmsa-lint — the workspace invariant checker behind `rmsa lint`
//!
//! An offline, dependency-free static-analysis pass over the workspace's
//! own Rust sources. A hand-rolled lexer ([`lexer`]) strips comments,
//! string/char literals and test-gated regions; a rule engine ([`rules`])
//! then enforces six families of correctness invariants the test suite
//! cannot see:
//!
//! | rule | name | enforced where |
//! |------|------|----------------|
//! | R1 | panic-discipline | library code of `core`/`diffusion`/`graph`/`obs`/`store`/`service` |
//! | R2 | determinism | serialization/wire/report modules (stable-order contracts) |
//! | R3 | unsafe-hygiene | everywhere |
//! | R4 | checked-casts | `crates/store` and the `snapshot.rs` codecs |
//! | R5 | lock-scope | everywhere |
//! | R6 | obs-names | everywhere except `crates/obs` (the defining crate) |
//!
//! Intentional exceptions use the inline directive
//! `// lint: allow(Rn, reason = "…")` — trailing on the offending line or
//! standalone on the line above — and every allow is itself carried into
//! the report, so suppressions are visible, reviewable and never silent.
//!
//! The machine-readable output (`LINT_report.json`, see [`report`]) is
//! rendered with the workspace's stable-order `json` module and is
//! byte-stable across runs; `rmsa lint` exits 0 when clean, 1 on findings,
//! 2 on usage/IO errors.

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{AllowRecord, Finding, LintOutcome, LINT_REPORT_VERSION, RULES};
pub use rules::RuleScope;

use std::path::{Path, PathBuf};

/// Crates whose library code falls under R1 panic-discipline.
const R1_CRATES: [&str; 6] = ["core", "diffusion", "graph", "obs", "store", "service"];

/// File names with a stable-order serialization contract (R2). `json.rs`
/// and `toml_lite.rs` render/parse the golden-filed documents, `wire.rs`
/// is the service schema, `report.rs` the bench trajectory, `snapshot.rs`
/// the binary codecs, `histogram.rs` the latency stats.
const R2_MODULES: [&str; 6] = [
    "wire.rs",
    "json.rs",
    "report.rs",
    "snapshot.rs",
    "toml_lite.rs",
    "histogram.rs",
];

/// R2 modules where `Instant::now` is legitimate (timing statistics).
const R2_TIMING_MODULES: [&str; 1] = ["histogram.rs"];

/// Decide which rules apply to a workspace-relative path. Public so the
/// CLI and the fixture tests agree with the scanner.
pub fn scope_for(rel_path: &str) -> RuleScope {
    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let r1 = R1_CRATES
        .iter()
        .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")));
    let r2 = R2_MODULES.contains(&file_name);
    RuleScope {
        r1,
        r2,
        r2_timing_ok: R2_TIMING_MODULES.contains(&file_name),
        r3: true,
        r4: rel_path.starts_with("crates/store/src/") || file_name == "snapshot.rs",
        r5: true,
        // The obs crate implements the handles/spans; every *consumer*
        // must name them through the central catalog.
        r6: !rel_path.starts_with("crates/obs/src/"),
    }
}

/// Lint one file's source text under `scope`, resolving allow directives.
/// Returns the surviving findings plus every allow record.
pub fn lint_source(
    rel_path: &str,
    source: &str,
    scope: RuleScope,
) -> (Vec<Finding>, Vec<AllowRecord>) {
    let lexed = lexer::lex(source);
    let raw = rules::check(&lexed, scope);
    let mut used = vec![false; lexed.directives.len()];
    let mut findings = Vec::new();
    for f in raw {
        let allowed = lexed
            .directives
            .iter()
            .position(|d| d.rule == f.rule && d.target_line == f.line);
        match allowed {
            Some(i) => used[i] = true,
            None => findings.push(Finding {
                rule: f.rule,
                file: rel_path.to_string(),
                line: f.line,
                col: f.col,
                message: f.message,
                snippet: lexed.lines[f.line - 1].raw.trim().to_string(),
            }),
        }
    }
    let allows = lexed
        .directives
        .iter()
        .zip(used)
        .map(|(d, used)| AllowRecord {
            rule: d.rule.clone(),
            file: rel_path.to_string(),
            line: d.decl_line,
            reason: d.reason.clone(),
            used,
        })
        .collect();
    (findings, allows)
}

/// Enumerate the workspace's own sources under `root`: the root crate's
/// `src/` plus every `crates/*/src/` tree. Vendored dependency shims,
/// `target/`, integration-test dirs, benches and examples are not library
/// surface and are skipped.
fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading crates/: {e}"))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let mut files = Vec::new();
    for dir in roots {
        collect_rs(&dir, &mut files)?;
    }
    files.retain(|p| !p.components().any(|c| c.as_os_str() == "target"));
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`). Findings and allows come back sorted by
/// (file, line, col, rule), so the report is a pure function of the
/// sources.
pub fn lint_workspace(root: &Path) -> Result<LintOutcome, String> {
    let files = workspace_sources(root)?;
    let mut outcome = LintOutcome::default();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let (findings, allows) = lint_source(&rel, &source, scope_for(&rel));
        outcome.findings.extend(findings);
        outcome.allows.extend(allows);
    }
    outcome.files_scanned = files.len();
    outcome
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    outcome
        .allows
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_follow_the_rule_catalog() {
        let core = scope_for("crates/core/src/problem.rs");
        assert!(core.r1 && core.r3 && core.r5 && !core.r2 && !core.r4);
        let bench_json = scope_for("crates/bench/src/json.rs");
        assert!(!bench_json.r1 && bench_json.r2);
        let snap = scope_for("crates/diffusion/src/snapshot.rs");
        assert!(snap.r1 && snap.r2 && snap.r4);
        // The mmap layer: R4 checked-casts (store prefix) plus R3
        // unsafe-hygiene, which is in force everywhere.
        let mapping = scope_for("crates/store/src/mapping.rs");
        assert!(mapping.r1 && mapping.r3 && mapping.r4 && !mapping.r2);
        // The histogram now lives in the obs crate; the timing exemption
        // travels with the file name.
        let hist = scope_for("crates/obs/src/histogram.rs");
        assert!(hist.r1 && hist.r2 && hist.r2_timing_ok && !hist.r6);
        let obs_metrics = scope_for("crates/obs/src/metrics.rs");
        assert!(obs_metrics.r1 && !obs_metrics.r2 && !obs_metrics.r6);
        let consumer = scope_for("crates/service/src/server.rs");
        assert!(consumer.r1 && consumer.r6);
        // The event-loop serving path: R1 panic-discipline (service
        // crate), R3 unsafe-hygiene (raw-syscall poller), R5 lock-scope
        // — but NOT R2, which is reserved for byte-stable output
        // modules; readiness polling is inherently timing-dependent.
        for path in [
            "crates/service/src/event_loop.rs",
            "crates/service/src/net.rs",
        ] {
            let scope = scope_for(path);
            assert!(
                scope.r1 && scope.r3 && scope.r5 && !scope.r2,
                "{path} must stay under R1/R3/R5 and outside R2"
            );
        }
        let facade = scope_for("src/workbench.rs");
        assert!(!facade.r1 && facade.r3 && facade.r5);
    }

    #[test]
    fn allows_suppress_and_are_recorded() {
        let src = "fn f() {\n    // lint: allow(R1, reason = \"documented legacy panic\")\n    panic!(\"boom\");\n    x.unwrap();\n}\n";
        let scope = scope_for("crates/core/src/problem.rs");
        let (findings, allows) = lint_source("crates/core/src/problem.rs", src, scope);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert_eq!(allows.len(), 1);
        assert!(allows[0].used);
    }

    #[test]
    fn unused_allows_are_flagged_in_the_record() {
        let src = "// lint: allow(R1, reason = \"stale\")\nlet x = 1;\n";
        let (findings, allows) = lint_source(
            "crates/core/src/x.rs",
            src,
            scope_for("crates/core/src/x.rs"),
        );
        assert!(findings.is_empty());
        assert_eq!(allows.len(), 1);
        assert!(!allows[0].used);
    }

    #[test]
    fn an_allow_for_the_wrong_rule_does_not_suppress() {
        let src = "fn f() {\n    x.unwrap(); // lint: allow(R4, reason = \"wrong rule\")\n}\n";
        let (findings, allows) = lint_source(
            "crates/core/src/x.rs",
            src,
            scope_for("crates/core/src/x.rs"),
        );
        assert_eq!(findings.len(), 1);
        assert!(!allows[0].used);
    }
}
