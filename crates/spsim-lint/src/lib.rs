//! spsim-lint: project-specific static analysis for the LAPI simulator.
//!
//! The simulator's guarantees (same-seed byte-identical traces, virtual-time
//! purity, diagnosable failures) rest on conventions the compiler cannot
//! check. This crate walks every `.rs` file under `crates/` and `src/` and
//! enforces them as ten rules — see [`rules::Rule`] and DESIGN §10.
//!
//! There is one pipeline, [`lint_sources`]. Each file is lexed
//! ([`lexer`]), stripped of its `#[cfg(test)]` items and parsed
//! ([`parser`]) exactly once, into a [`parser::ParsedFile`] holding the
//! tokens, comments, `fn` items, call sites (with the lock guards live at
//! each) and thread-primitive sites. Every rule reads that value.
//!
//! Per-file rules ([`rules`]), over one parsed file:
//!
//! * **L1** virtual-time purity — no `Instant`/`SystemTime`/`thread::sleep`
//!   in simulated code outside allowlisted real-time bridges.
//! * **L2** determinism — no `HashMap`/`HashSet` on ordering-sensitive paths.
//! * **L3** atomics hygiene — `Relaxed`/`SeqCst` need `// ordering:` comments.
//! * **L4** no lock guard held across a blocking wait/recv/pump/send call,
//!   read from the parser's per-call guard tracking.
//! * **L5** panic discipline — hot paths use the diagnostic helpers.
//! * **L6** liveness — wait loops on hot paths carry a `// liveness:`
//!   comment naming their wakeup source (and its peer-death poison path).
//!
//! Interprocedural rules ([`arules`]), over the workspace call graph
//! ([`graph`]) built from all parsed files:
//!
//! * **A1** transitive virtual-time taint — indirectly reaching a wall clock.
//! * **A2** lock-order inversion — cycles in the acquired-while-held graph.
//! * **A3** blocking reachability — L6 across function boundaries, from the
//!   engine entry points.
//! * **A4** raw `thread::spawn`/`JoinHandle` ban outside `spsim::runtime`.
//!
//! A-rule findings carry a *witness chain*: the call path from the flagged
//! function to the offending primitive, one `file:line` per hop.
//!
//! Suppressions live in `lint.toml` at the repo root; every entry carries a
//! required reason string ([`allowlist::Allowlist`]).

#![warn(missing_docs)]

pub mod allowlist;
pub mod arules;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use rules::{classify, Finding};

/// Result of a full lint run.
pub struct Report {
    /// Findings that survived the allowlist, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Non-fatal notes (unreadable files).
    pub warnings: Vec<String>,
    /// Suppressions that never matched — warnings normally, errors under
    /// `--strict`.
    pub stale: Vec<String>,
    /// Files inspected.
    pub files: usize,
}

/// The one lint driver. Each `(repo-relative path, source)` pair is lexed,
/// test-stripped and parsed once; the per-file L-rules run over each parsed
/// file, the interprocedural A-rules over the workspace built from all of
/// them, and `lint.toml` filters the lot. A first-line `// lint-as: <path>`
/// comment gives a file (a fixture) the class of another path; files out
/// of lint scope are skipped.
pub fn lint_sources(files: &[(String, String)], allow: &Allowlist) -> Report {
    let mut findings = Vec::new();
    let mut parsed = Vec::new();
    let mut lines: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (real, src) in files {
        let effective = fixture_as(src).unwrap_or(real);
        let Some(class) = classify(effective) else {
            continue;
        };
        let pf = parser::parse_file(real, effective, src);
        findings.extend(rules::run(&pf, class));
        parsed.push(pf);
        lines.insert(real.clone(), src.lines().map(str::to_string).collect());
    }
    let ws = graph::Workspace::build(parsed);
    findings.extend(arules::run(&ws, allow, &lines));
    findings.retain(|f| !allow.suppresses(f, arules::line_text(&lines, &f.path, f.line)));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Report {
        findings,
        warnings: Vec::new(),
        stale: allow.unused(),
        files: files.len(),
    }
}

/// Lint one file's source on its own (see [`lint_sources`]); `rel` is the
/// repo-relative path used for classification and reporting.
pub fn lint_file(rel: &str, src: &str, allow: &Allowlist) -> Vec<Finding> {
    lint_sources(&[(rel.to_string(), src.to_string())], allow).findings
}

/// The `// lint-as:` header path, if present.
fn fixture_as(src: &str) -> Option<&str> {
    let first = src.lines().next()?.trim();
    Some(first.strip_prefix("// lint-as:")?.trim())
}

/// Walk `crates/` and `src/` under `root` and lint everything in scope as
/// one workspace.
pub fn lint_root(root: &Path, allow: &Allowlist) -> Report {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    let mut warnings = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if rules::excluded(&rel) {
            continue;
        }
        match fs::read_to_string(path) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => warnings.push(format!("{rel}: unreadable: {e}")),
        }
    }
    Report {
        warnings,
        ..lint_sources(&sources, allow)
    }
}

/// Render a lint run as flat, hand-rolled JSON (no serde — the registry is
/// offline). Shape:
///
/// ```json
/// {"tool":"spsim-lint","files":N,"suppressions":N,"strict":bool,
///  "findings":[{"rule":"A3","path":"…","line":N,"msg":"…",
///               "witness":[{"label":"…","path":"…","line":N}]}],
///  "stale_suppressions":["…"],"warnings":["…"]}
/// ```
pub fn render_json(report: &Report, suppressions: usize, strict: bool) -> String {
    let mut s = String::from("{");
    s.push_str(&format!(
        "\"tool\":\"spsim-lint\",\"files\":{},\"suppressions\":{},\"strict\":{},",
        report.files, suppressions, strict
    ));
    s.push_str("\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"msg\":\"{}\",\"witness\":[",
            f.rule.code(),
            json_escape(&f.path),
            f.line,
            json_escape(&f.msg)
        ));
        for (j, h) in f.witness.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"label\":\"{}\",\"path\":\"{}\",\"line\":{}}}",
                json_escape(&h.label),
                json_escape(&h.path),
                h.line
            ));
        }
        s.push_str("]}");
    }
    s.push_str("],\"stale_suppressions\":[");
    for (i, w) in report.stale.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\"", json_escape(w)));
    }
    s.push_str("],\"warnings\":[");
    for (i, w) in report.warnings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\"", json_escape(w)));
    }
    s.push_str("]}");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}
