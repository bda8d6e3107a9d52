//! CLI driver: `cargo run -p spsim-lint [-- --root DIR --allow FILE file…]`.
//!
//! With no file arguments, lints every `.rs` file under `<root>/crates` and
//! `<root>/src` against `<root>/lint.toml` — the per-file L-rules plus the
//! interprocedural A-rules over the whole set. With file arguments, lints
//! just those files (fixtures use a `// lint-as:` header to pick their
//! class); the A-rules see all given files as one mini-workspace. Both
//! modes run the same driver, `spsim_lint::lint_sources`.
//!
//! Flags: `--strict` turns stale suppressions into hard errors; `--json`
//! prints a machine-readable report to stdout instead of human lines.
//! Exit status: 0 clean, 1 findings (or stale entries under --strict),
//! 2 configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use spsim_lint::allowlist::Allowlist;
use spsim_lint::{lint_root, lint_sources, render_json};

fn main() -> ExitCode {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut allow_path: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut strict = false;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--allow" => match args.next() {
                Some(v) => allow_path = Some(PathBuf::from(v)),
                None => return usage("--allow needs a file"),
            },
            "--strict" => strict = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: spsim-lint [--root DIR] [--allow FILE] [--strict] [--json] [file.rs …]"
                );
                return ExitCode::SUCCESS;
            }
            _ => files.push(PathBuf::from(a)),
        }
    }

    let allow_path = allow_path.unwrap_or_else(|| root.join("lint.toml"));
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("spsim-lint: {e}");
                return ExitCode::from(2);
            }
        },
        // A missing allowlist is an empty one (fixture runs use --allow).
        Err(_) => Allowlist::default(),
    };

    let report = if files.is_empty() {
        lint_root(&root, &allow)
    } else {
        let mut sources: Vec<(String, String)> = Vec::new();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(src) => sources.push((f.to_string_lossy().into_owned(), src)),
                Err(e) => {
                    eprintln!("spsim-lint: {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            }
        }
        lint_sources(&sources, &allow)
    };

    let stale_fatal = strict && !report.stale.is_empty();
    if json {
        println!("{}", render_json(&report, allow.len(), strict));
    } else {
        for w in &report.warnings {
            eprintln!("spsim-lint: warning: {w}");
        }
        for w in &report.stale {
            if strict {
                eprintln!("spsim-lint: error: {w} (stale entries are fatal under --strict)");
            } else {
                eprintln!("spsim-lint: warning: {w}");
            }
        }
        for f in &report.findings {
            println!("{}", f.render());
        }
    }
    if report.findings.is_empty() && !stale_fatal {
        if !json {
            eprintln!(
                "spsim-lint: clean ({} files, {} suppressions)",
                report.files,
                allow.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            eprintln!(
                "spsim-lint: {} finding(s), {} stale suppression(s) in {} files",
                report.findings.len(),
                report.stale.len(),
                report.files
            );
        }
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("spsim-lint: {msg}");
    ExitCode::from(2)
}
