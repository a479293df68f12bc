//! The rule families over a lexed source file.
//!
//! Every rule works on the masked line text (see [`crate::lexer`]), so
//! occurrences inside comments, strings and test regions are invisible by
//! construction. Rules are deliberately lexical: they over-approximate and
//! rely on the inline `// lint: allow(Rn, reason = "…")` directive — which
//! is itself reported — for the rare intentional exception.

use crate::lexer::Lexed;

/// Which rules apply to one file (decided by the workspace scanner from
/// the file's path; see [`crate::scope_for`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleScope {
    /// R1 panic-discipline (library crates only).
    pub r1: bool,
    /// R2 determinism (serialization/wire/report modules only).
    pub r2: bool,
    /// R2 exemption: `Instant::now` is fine in timing-stat modules.
    pub r2_timing_ok: bool,
    /// R3 unsafe-hygiene (everywhere).
    pub r3: bool,
    /// R4 checked-casts (snapshot codec files only).
    pub r4: bool,
    /// R5 lock-scope heuristic (everywhere).
    pub r5: bool,
    /// R6 obs-names: span and flight-event names must come from `obs::names`
    /// (everywhere except the obs crate, which defines the API).
    pub r6: bool,
}

/// One raw finding (before allow-directive matching).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFinding {
    /// Rule id, `"R1"` … `"R6"`.
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What was found, e.g. `".unwrap() in non-test library code"`.
    pub message: String,
}

/// Run every in-scope rule over `lexed`.
pub fn check(lexed: &Lexed, scope: RuleScope) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for (idx, line) in lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let masked = line.masked.as_str();
        if scope.r1 {
            r1_panic_discipline(masked, lineno, &mut findings);
        }
        if scope.r2 {
            r2_determinism(masked, lineno, scope.r2_timing_ok, &mut findings);
        }
        if scope.r3 {
            r3_unsafe_hygiene(lexed, masked, lineno, &mut findings);
        }
        if scope.r4 {
            r4_checked_casts(masked, lineno, &mut findings);
        }
        if scope.r5 {
            r5_lock_scope(lexed, masked, lineno, &mut findings);
        }
        if scope.r6 {
            r6_obs_names(lexed, masked, lineno, &mut findings);
        }
    }
    findings
}

/// Iterate identifiers of a masked line as `(ident, 0-based byte col)`.
fn idents(line: &str) -> Vec<(&str, usize)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push((&line[start..i], start));
        } else {
            i += 1;
        }
    }
    out
}

/// The first non-space char after byte position `end`, with its position.
fn next_token_char(line: &str, end: usize) -> Option<(char, usize)> {
    line[end..]
        .char_indices()
        .find(|(_, c)| !c.is_whitespace())
        .map(|(i, c)| (c, end + i))
}

/// R1: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!`, and no indexing-adjacent `assert!`, in non-test
/// library code.
fn r1_panic_discipline(masked: &str, lineno: usize, out: &mut Vec<RawFinding>) {
    for (ident, col) in idents(masked) {
        let end = col + ident.len();
        match ident {
            "unwrap" | "expect" => {
                // Method-call position only: a preceding `.` (possibly on
                // the previous line for chained calls — approximated by
                // line start).
                let before = masked[..col].trim_end();
                let is_method = before.ends_with('.') || before.is_empty();
                if is_method && next_token_char(masked, end).map(|(c, _)| c) == Some('(') {
                    out.push(RawFinding {
                        rule: "R1",
                        line: lineno,
                        col: col + 1,
                        message: format!(".{ident}() in non-test library code"),
                    });
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next_token_char(masked, end).map(|(c, _)| c) == Some('!') =>
            {
                out.push(RawFinding {
                    rule: "R1",
                    line: lineno,
                    col: col + 1,
                    message: format!("{ident}! in non-test library code"),
                });
            }
            "assert" | "assert_eq" | "assert_ne" | "debug_assert"
                if next_token_char(masked, end).map(|(c, _)| c) == Some('!')
                    && masked[end..].contains('[') =>
            {
                out.push(RawFinding {
                    rule: "R1",
                    line: lineno,
                    col: col + 1,
                    message: format!("indexing-adjacent {ident}! in non-test library code"),
                });
            }
            _ => {}
        }
    }
}

/// R2: no `HashMap`/`HashSet`/`SystemTime` in modules whose serialized
/// output is a stable-order golden-file contract; `Instant::now` only in
/// timing-stat modules.
fn r2_determinism(masked: &str, lineno: usize, timing_ok: bool, out: &mut Vec<RawFinding>) {
    for (ident, col) in idents(masked) {
        match ident {
            "HashMap" | "HashSet" => out.push(RawFinding {
                rule: "R2",
                line: lineno,
                col: col + 1,
                message: format!("{ident} in a stable-order serialization module"),
            }),
            "SystemTime" => out.push(RawFinding {
                rule: "R2",
                line: lineno,
                col: col + 1,
                message: "SystemTime in a stable-order serialization module".to_string(),
            }),
            "Instant"
                if !timing_ok && masked[col + ident.len()..].trim_start().starts_with("::") =>
            {
                out.push(RawFinding {
                    rule: "R2",
                    line: lineno,
                    col: col + 1,
                    message: "Instant::now outside a timing-stat module".to_string(),
                });
            }
            _ => {}
        }
    }
}

/// R3: every `unsafe` requires a `// SAFETY:` comment on the same line or
/// on one of the lines immediately above (blank lines allowed in between,
/// other code not).
fn r3_unsafe_hygiene(lexed: &Lexed, masked: &str, lineno: usize, out: &mut Vec<RawFinding>) {
    for (ident, col) in idents(masked) {
        if ident != "unsafe" {
            continue;
        }
        let mut justified = lexed.lines[lineno - 1].raw.contains("// SAFETY:");
        let mut probe = lineno - 1; // 1-based line above
        while !justified && probe >= 1 {
            let above = &lexed.lines[probe - 1];
            if above.raw.contains("// SAFETY:") {
                justified = true;
            } else if above.masked.trim().is_empty() && above.raw.trim_start().starts_with("//") {
                // A plain comment continues the search upward (multi-line
                // SAFETY comments end with the marker on their first line).
                probe -= 1;
            } else {
                break;
            }
        }
        if !justified {
            out.push(RawFinding {
                rule: "R3",
                line: lineno,
                col: col + 1,
                message: "unsafe without an immediately preceding // SAFETY: comment".to_string(),
            });
        }
    }
}

/// Cast targets R4 rejects: conversions that can truncate or wrap —
/// including `usize`, whose width is platform-dependent.
const NARROWING: [&str; 8] = ["u8", "u16", "u32", "usize", "i8", "i16", "i32", "f32"];

/// R4: no truncating `as` numeric casts in snapshot codec code; checked
/// `try_into`/`try_from` conversions with a typed error instead.
fn r4_checked_casts(masked: &str, lineno: usize, out: &mut Vec<RawFinding>) {
    let all = idents(masked);
    for (i, (ident, _)) in all.iter().enumerate() {
        if *ident != "as" {
            continue;
        }
        if let Some((target, col)) = all.get(i + 1) {
            if NARROWING.contains(target) {
                out.push(RawFinding {
                    rule: "R4",
                    line: lineno,
                    col: col + 1,
                    message: format!("possibly-truncating `as {target}` cast in codec code"),
                });
            }
        }
    }
}

/// Identifiers that signal socket/file I/O (or scoped-thread forks) inside
/// a lock guard's lexical scope.
const IO_TOKENS: [&str; 16] = [
    "write_all",
    "write_fmt",
    "flush",
    "read_line",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "sync_all",
    "sync_data",
    "create_dir_all",
    "rename",
    "remove_file",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "copy",
];

/// R5: a `let`-bound `lock()`/`read()`/`write()` guard whose lexical scope
/// also performs socket/file I/O or forks scoped threads. Heuristic: the
/// guard lives to the end of its enclosing block, so any I/O token between
/// the binding and the block's closing brace is flagged.
fn r5_lock_scope(lexed: &Lexed, masked: &str, lineno: usize, out: &mut Vec<RawFinding>) {
    let all = idents(masked);
    let Some((_, lock_col)) = all.iter().find(|(ident, col)| {
        matches!(*ident, "lock" | "read" | "write")
            && masked[..*col].trim_end().ends_with('.')
            && masked[col + ident.len()..].trim_start().starts_with("()")
    }) else {
        return;
    };
    // Guard *bindings* only: `let guard = x.lock()…`. A temporary guard
    // (`*x.lock()…` in a larger expression statement) dies at the
    // semicolon and cannot span later I/O.
    let head = &masked[..*lock_col];
    if !idents(head).iter().any(|(ident, _)| *ident == "let") {
        return;
    }
    // Depth at the start of the binding line = the enclosing block's
    // depth; the guard's scope runs until depth drops below it.
    let mut depth = 0i64;
    for line in lexed.lines.iter().take(lineno - 1) {
        for c in line.masked.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    let scope_depth = depth;
    let mut probe = lineno; // examine lines after the binding line
    let mut tail = masked[*lock_col..].to_string();
    loop {
        if let Some((token, _)) = idents(&tail)
            .iter()
            .find(|(ident, _)| IO_TOKENS.contains(ident))
        {
            out.push(RawFinding {
                rule: "R5",
                line: lineno,
                col: lock_col + 1,
                message: format!(
                    "lock guard scope performs I/O ({token} on line {})",
                    if probe == lineno { lineno } else { probe }
                ),
            });
            return;
        }
        if idents(&tail).iter().any(|(ident, _)| *ident == "thread") && tail.contains("::scope") {
            out.push(RawFinding {
                rule: "R5",
                line: lineno,
                col: lock_col + 1,
                message: format!(
                    "lock guard scope forks scoped threads (thread::scope on line {})",
                    if probe == lineno { lineno } else { probe }
                ),
            });
            return;
        }
        for c in tail.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if depth < scope_depth {
            return;
        }
        probe += 1;
        if probe > lexed.lines.len() {
            return;
        }
        tail = lexed.lines[probe - 1].masked.clone();
    }
}

/// Constructors whose name argument R6 checks, with the type qualifiers
/// that make the bare method identifier unambiguous.
const R6_QUALIFIED: [(&str, &[&str]); 3] = [
    ("child", &["Span"]),
    ("detached", &["Span"]),
    ("record", &["flight"]),
];

/// R6: the name argument of a span or flight-event constructor
/// (`Span::child`, `Span::detached`, `flight::record`, `record_closed`)
/// must reference the central `obs::names` catalog — never an ad-hoc
/// literal (masked by the lexer) or a locally built string. Metric names
/// need no rule: they are typed catalog ids, checked by the compiler.
/// Lexical over-approximation: any `names` identifier among the call's
/// arguments counts.
fn r6_obs_names(lexed: &Lexed, masked: &str, lineno: usize, out: &mut Vec<RawFinding>) {
    let all = idents(masked);
    for (i, (ident, col)) in all.iter().enumerate() {
        let qualified = |types: &[&str]| {
            i > 0 && types.contains(&all[i - 1].0) && {
                let (prev, prev_col) = all[i - 1];
                masked[prev_col + prev.len()..*col].trim() == "::"
            }
        };
        let is_ctor = *ident == "record_closed"
            || R6_QUALIFIED
                .iter()
                .any(|(method, types)| ident == method && qualified(types));
        if !is_ctor {
            continue;
        }
        let end = col + ident.len();
        if next_token_char(masked, end).map(|(c, _)| c) != Some('(') {
            continue;
        }
        // The argument list may wrap; widen the window a few masked lines
        // and cut it at the call's matching close paren.
        let mut window = masked[end..].to_string();
        for extra in lexed.lines.iter().skip(lineno).take(7) {
            window.push('\n');
            window.push_str(&extra.masked);
        }
        let mut depth = 0i64;
        let mut args = String::new();
        for c in window.chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if depth > 0 {
                args.push(c);
            }
        }
        if !idents(&args).iter().any(|(arg, _)| *arg == "names") {
            out.push(RawFinding {
                rule: "R6",
                line: lineno,
                col: col + 1,
                message: format!(
                    "obs name passed to `{ident}` must be a constant from the obs::names catalog"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scope_all() -> RuleScope {
        RuleScope {
            r1: true,
            r2: true,
            r2_timing_ok: false,
            r3: true,
            r4: true,
            r5: true,
            r6: true,
        }
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        check(&lex(src), scope_all())
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn r1_flags_panic_family_but_not_lookalikes() {
        assert_eq!(rules_of("fn f() { x.unwrap(); }"), vec!["R1"]);
        assert_eq!(rules_of("fn f() { x.expect(\"m\"); }"), vec!["R1"]);
        assert_eq!(rules_of("fn f() { panic!(\"m\"); }"), vec!["R1"]);
        assert_eq!(rules_of("fn f() { unreachable!(); }"), vec!["R1"]);
        // Lookalikes must not fire.
        assert!(rules_of("fn f() { x.unwrap_or(0); }").is_empty());
        assert!(rules_of("fn f() { x.unwrap_or_else(|| 0); }").is_empty());
        assert!(rules_of("fn f() { x.expect_err(\"m\"); }").is_empty());
        assert!(rules_of("// x.unwrap()").is_empty());
        assert!(rules_of("let s = \"panic!\";").is_empty());
    }

    #[test]
    fn r1_flags_indexing_adjacent_asserts_only() {
        assert_eq!(rules_of("fn f() { assert!(v[i] > 0); }"), vec!["R1"]);
        assert!(rules_of("fn f() { assert!(x > 0); }").is_empty());
    }

    #[test]
    fn r1_skips_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn r2_flags_hash_collections_and_clocks() {
        assert_eq!(rules_of("use std::collections::HashMap;"), vec!["R2"]);
        assert_eq!(rules_of("let s: HashSet<u64> = x;"), vec!["R2"]);
        assert_eq!(rules_of("let t = SystemTime::now();"), vec!["R2"]);
        assert_eq!(rules_of("let t = Instant::now();"), vec!["R2"]);
        let mut timing = scope_all();
        timing.r2_timing_ok = true;
        assert!(check(&lex("let t = Instant::now();"), timing).is_empty());
    }

    #[test]
    fn r3_requires_safety_comment() {
        assert_eq!(rules_of("fn f() { unsafe { g() } }"), vec!["R3"]);
        assert!(rules_of("// SAFETY: checked above\nfn f() { unsafe { g() } }").is_empty());
        assert!(
            rules_of("fn f() { /* gap */ let x = 1; unsafe { g() } // SAFETY: aligned\n}")
                .is_empty()
        );
    }

    #[test]
    fn r4_flags_narrowing_casts_only() {
        assert_eq!(rules_of("let x = v as u32;"), vec!["R4"]);
        assert_eq!(rules_of("let x = v as usize;"), vec!["R4"]);
        assert!(rules_of("let x = v as u64;").is_empty());
        assert!(rules_of("let x = v as f64;").is_empty());
        assert!(rules_of("let x = <T as Clone>::clone(&v);").is_empty());
    }

    #[test]
    fn r5_flags_io_under_a_lock_guard() {
        let src = "fn f() {\n    let mut g = m.lock().unwrap();\n    g.write_all(b).ok();\n}\n";
        let found = check(&lex(src), scope_all());
        assert!(found.iter().any(|f| f.rule == "R5"), "{found:?}");
        // Temporary guards and I/O-free scopes are fine.
        assert!(
            rules_of("fn f() {\n    m.lock().push(1);\n    s.write_all(b).ok();\n}\n")
                .iter()
                .all(|r| *r != "R5")
        );
        assert!(
            rules_of("fn f() {\n    let g = m.lock();\n    g.push(1);\n}\n")
                .iter()
                .all(|r| *r != "R5")
        );
        // I/O after the guard's block closes is out of scope.
        let src = "fn f() {\n    {\n        let g = m.lock();\n        g.push(1);\n    }\n    s.write_all(b).ok();\n}\n";
        assert!(rules_of(src).iter().all(|r| *r != "R5"));
    }

    #[test]
    fn r5_flags_scoped_threads_under_a_lock_guard() {
        let src = "fn f() {\n    let g = m.lock();\n    std::thread::scope(|s| {});\n}\n";
        let found = check(&lex(src), scope_all());
        assert!(found.iter().any(|f| f.rule == "R5"), "{found:?}");
    }

    #[test]
    fn r6_flags_ad_hoc_obs_names_but_not_catalog_constants() {
        assert_eq!(rules_of("let s = Span::child(\"solve\");"), vec!["R6"]);
        assert_eq!(
            rules_of("let s = Span::detached(trace, local_name);"),
            vec!["R6"]
        );
        assert!(rules_of("let s = Span::child(names::SOLVE);").is_empty());
        assert!(rules_of("let s = Span::child(rmsa_obs::names::SNAPSHOT_LOAD);").is_empty());
        // Unrelated constructors named `new` or `child` must not fire.
        assert!(rules_of("let v = Vec::new();").is_empty());
        assert!(rules_of("let c = node.child(0);").is_empty());
        // Flight-recorder events are obs names too.
        assert_eq!(
            rules_of("flight::record(\"conn_open\", token, 0);"),
            vec!["R6"]
        );
        assert!(rules_of("flight::record(names::CONN_OPEN, token, 0);").is_empty());
        // An unqualified `record` (e.g. a struct method) must not fire.
        assert!(rules_of("self.record(kind, a, b);").is_empty());
    }

    #[test]
    fn r6_follows_wrapped_argument_lists() {
        let flagged = "fn f() {\n    trace::record_closed(\n        trace_id,\n        0,\n        \"flush\",\n        at,\n        took,\n    );\n}\n";
        assert_eq!(rules_of(flagged), vec!["R6"]);
        let clean = "fn f() {\n    trace::record_closed(\n        trace_id,\n        0,\n        names::FLUSH,\n        at,\n        took,\n    );\n}\n";
        assert!(rules_of(clean).is_empty());
    }
}
