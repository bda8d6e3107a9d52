//! The rule catalogue and the per-file rules L1–L6. Each L-rule reads one
//! [`ParsedFile`]: its test-stripped tokens and comments, and for L4 the
//! parser's guard tracking. See DESIGN §10 for the rationale behind every
//! rule and the procedure for adding one.

use crate::lexer::{ident, is_punct, matching};
use crate::parser::{clock_at, ParsedFile, WAIT_PROBES};

/// The ten enforced invariants: six per-file token rules (L1–L6) and four
/// interprocedural, call-graph rules (A1–A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Virtual-time purity: no wall-clock primitives in simulated code.
    L1,
    /// Determinism: no `HashMap`/`HashSet` on ordering-sensitive paths.
    L2,
    /// Atomics hygiene: `Relaxed`/`SeqCst` need an `// ordering:` comment.
    L3,
    /// Lock guard held across a blocking wait/recv/pump/send call.
    L4,
    /// Panic discipline: hot paths must use the diagnostic helpers.
    L5,
    /// Liveness: wait loops need a `// liveness:` comment naming the
    /// wakeup source.
    L6,
    /// Transitive virtual-time taint: a simulated function *indirectly*
    /// reaching a wall-clock primitive through its callees.
    A1,
    /// Lock-order inversion: a cycle in the acquired-while-held graph
    /// built across function boundaries.
    A2,
    /// Blocking reachability: a function reachable from an engine entry
    /// point that can park or wait must carry or inherit `// liveness:`.
    A3,
    /// Raw OS-thread primitives (`thread::spawn`, `JoinHandle`) outside
    /// `spsim::runtime` — the M:N-scheduling precondition.
    A4,
}

/// Every rule with its stable short code, in declaration order (`code`
/// indexes this table by the variant's discriminant).
const CODES: [(Rule, &str); 10] = [
    (Rule::L1, "L1"),
    (Rule::L2, "L2"),
    (Rule::L3, "L3"),
    (Rule::L4, "L4"),
    (Rule::L5, "L5"),
    (Rule::L6, "L6"),
    (Rule::A1, "A1"),
    (Rule::A2, "A2"),
    (Rule::A3, "A3"),
    (Rule::A4, "A4"),
];

impl Rule {
    /// Stable short code, as used in `lint.toml`.
    pub fn code(self) -> &'static str {
        CODES[self as usize].1
    }

    /// Parse a short code.
    pub fn from_code(s: &str) -> Option<Rule> {
        CODES.iter().find(|(_, c)| *c == s).map(|(r, _)| *r)
    }
}

/// One hop of a witness chain: a function (or call/primitive site) an
/// interprocedural finding routes through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Short label, `stem::fn` (e.g. `engine::poll_step`).
    pub label: String,
    /// Repo-relative path of the hop.
    pub path: String,
    /// 1-based line of the hop.
    pub line: u32,
}

/// One violation, addressed by repo-relative path and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
    /// Witness chain for interprocedural (A-rule) findings: the call path
    /// from the entry/flagged function down to the offending primitive.
    /// Empty for the per-file L-rules.
    pub witness: Vec<Hop>,
}

impl Finding {
    /// A per-file (L-rule) finding in `pf`: no witness chain.
    fn local(rule: Rule, pf: &ParsedFile, line: u32, msg: String) -> Finding {
        Finding {
            rule,
            path: pf.path.clone(),
            line,
            msg,
            witness: Vec::new(),
        }
    }

    /// `path:line: [Lx] msg` — the stable output format. A-rule findings
    /// append their witness chain, one arrow line plus one `file:line` line
    /// per hop.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.code(),
            self.msg
        );
        if !self.witness.is_empty() {
            let arrows: Vec<&str> = self.witness.iter().map(|h| h.label.as_str()).collect();
            s.push_str(&format!("\n    witness: {}", arrows.join(" → ")));
            for h in &self.witness {
                s.push_str(&format!("\n      {} at {}:{}", h.label, h.path, h.line));
            }
        }
        s
    }
}

/// Which rules apply to a file, derived from its repo-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// L1: the file is simulated code (virtual time only).
    pub virtual_time: bool,
    /// L2: iteration order in this file shapes traces or wire traffic.
    pub ordering_sensitive: bool,
    /// L3/L4: simulator code subject to atomics and lock hygiene.
    pub simulator: bool,
    /// L5: engine hot path under the diagnostic-panic discipline.
    pub hot_path: bool,
}

/// Crates whose `src/` is simulated code: wall-clock use is forbidden
/// outside `lint.toml`-allowlisted real-time bridges (L1).
const VIRTUAL_TIME_CRATES: &[&str] = &[
    "crates/sim/src/",
    "crates/switch/src/",
    "crates/lapi/src/",
    "crates/mpl/src/",
    "crates/ga/src/",
];

/// Files where map iteration order feeds traces, wire traffic, or decoded
/// programs (L2). Everything an engine or the conformance runner touches.
const ORDERING_SENSITIVE: &[&str] = &[
    "crates/mpl/src/engine.rs",
    "crates/lapi/src/engine.rs",
    "crates/switch/src/",
    "crates/sim/src/trace.rs",
    "crates/sim/src/runtime.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/spsc.rs",
    "crates/ga/src/array.rs",
    "crates/ga/src/backend_lapi.rs",
    "crates/check/src/",
];

/// Engine hot paths under the panic discipline (L5).
const HOT_PATHS: &[&str] = &[
    "crates/lapi/src/engine.rs",
    "crates/mpl/src/engine.rs",
    "crates/switch/src/adapter.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/spsc.rs",
];

/// Classify a repo-relative path; `None` means the file is out of scope
/// entirely (tests, benches, fixtures, the lint tool itself, stubs).
pub fn classify(path: &str) -> Option<FileClass> {
    if !path.ends_with(".rs") || excluded(path) {
        return None;
    }
    let mut c = FileClass {
        simulator: true,
        ..FileClass::default()
    };
    c.virtual_time = VIRTUAL_TIME_CRATES.iter().any(|p| path.starts_with(p));
    c.ordering_sensitive = ORDERING_SENSITIVE.iter().any(|p| path.starts_with(p));
    c.hot_path = HOT_PATHS.iter().any(|p| path.starts_with(p));
    Some(c)
}

/// True for paths outside lint scope: tests, benches, examples, fixtures,
/// the lint crate itself, stubs, and build output. A workspace walk must
/// skip these *before* linting, or a fixture's `// lint-as:` header would
/// pull it back into scope.
pub fn excluded(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.contains("/fixtures/")
        || path.starts_with("crates/spsim-lint/")
        || path.starts_with("stubs/")
        || path.starts_with("target/")
}

/// Run the per-file rules that `class` selects over one parsed file.
pub fn run(pf: &ParsedFile, class: FileClass) -> Vec<Finding> {
    let mut out = Vec::new();
    if class.virtual_time {
        rule_l1(pf, &mut out);
    }
    if class.ordering_sensitive {
        rule_l2(pf, &mut out);
    }
    if class.simulator {
        rule_l3(pf, &mut out);
        rule_l4(pf, &mut out);
    }
    if class.hot_path {
        rule_l5(pf, &mut out);
        rule_l6(pf, &mut out);
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup();
    out
}

// --------------------------------------------------------------------- L1

/// Wall-clock primitives in simulated code. `Duration` is fine (used for
/// real-time escapes' spans); the *clock reads* are what break purity.
fn rule_l1(pf: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &pf.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let msg = match clock_at(toks, i) {
            Some("thread::sleep") => "`thread::sleep` blocks real time inside the simulation — \
                                      use virtual-time waits"
                .to_string(),
            Some(name) => format!(
                "`{name}` is wall-clock state in simulated code — use VTime/VClock, \
                 or allowlist this real-time bridge in lint.toml"
            ),
            None => continue,
        };
        out.push(Finding::local(Rule::L1, pf, t.line, msg));
    }
}

// --------------------------------------------------------------------- L2

fn rule_l2(pf: &ParsedFile, out: &mut Vec<Finding>) {
    for t in &pf.lexed.tokens {
        if let Some(s @ ("HashMap" | "HashSet")) = ident(Some(t)) {
            let msg = format!(
                "`{s}` iteration order is randomized per process and can break \
                 same-seed trace identity — use BTree{} here",
                &s[4..]
            );
            out.push(Finding::local(Rule::L2, pf, t.line, msg));
        }
    }
}

// --------------------------------------------------------------------- L3

/// A `Relaxed`/`SeqCst` site is justified by an `// ordering:` comment on
/// the same line, on one of the 3 lines above, or by chaining: the line
/// directly above contains an already-justified site (so one comment covers
/// a contiguous run of stores).
fn rule_l3(pf: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &pf.lexed.tokens;
    let comment_lines = pf.lexed.comment_lines_containing("ordering:");
    let mut justified: Vec<u32> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if ident(Some(t)) != Some("Ordering") {
            continue;
        }
        if !(is_punct(toks.get(i + 1), ':') && is_punct(toks.get(i + 2), ':')) {
            continue;
        }
        let which = match ident(toks.get(i + 3)) {
            Some(w @ ("Relaxed" | "SeqCst")) => w,
            _ => continue,
        };
        let line = t.line;
        let by_comment = comment_lines.iter().any(|&c| c <= line && line - c <= 3);
        let by_chain = justified.iter().any(|&j| j == line || j + 1 == line);
        if by_comment || by_chain {
            justified.push(line);
        } else {
            let msg = format!(
                "`Ordering::{which}` without an adjacent `// ordering:` justification \
                 comment (same line, up to 3 lines above, or continuing a justified run)"
            );
            out.push(Finding::local(Rule::L3, pf, line, msg));
        }
    }
}

// --------------------------------------------------------------------- L4

/// Blocking calls that must not run under a held lock guard.
const BLOCKING_CALLS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_until",
    "wait_while",
    "recv",
    "recv_merge",
    "recv_timeout",
    "pump",
    "send_at",
    "send_now",
];

/// Flag a blocking call made while a lock guard is live, using the guards
/// the parser tracked for each call site (`let g = ….lock();` bindings,
/// scoped by braces, ended by `drop(g)`, never leaking into a nested fn).
/// A call whose arguments mention the guard is the sanctioned condvar
/// pattern (the wait takes the guard by `&mut`) and is not flagged.
fn rule_l4(pf: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &pf.lexed.tokens;
    for call in pf.fns.iter().flat_map(|f| &f.calls) {
        if call.held.is_empty() || !BLOCKING_CALLS.contains(&call.name.as_str()) {
            continue;
        }
        let close = matching(toks, call.at + 1, toks.len(), '(', ')');
        let args: Vec<&str> = toks[call.at + 2..close]
            .iter()
            .filter_map(|t| ident(Some(t)))
            .collect();
        for g in call
            .held
            .iter()
            .filter(|g| !args.contains(&g.name.as_str()))
        {
            let msg = format!(
                "blocking call `{}` while lock guard `{}` (taken on line {}) \
                 is held — deadlock-prone; drop the guard first or pass it \
                 to the wait",
                call.name, g.name, g.line
            );
            out.push(Finding::local(Rule::L4, pf, call.line, msg));
        }
    }
}

// --------------------------------------------------------------------- L5

/// Bare `panic!` / `.unwrap()` / `.expect(…)` on hot paths. A `panic!`
/// whose arguments route through `deadlock_report` or `tail_report` is the
/// sanctioned diagnostic form; `sim_panic!` and `or_diag` are distinct
/// identifiers and never match.
fn rule_l5(pf: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &pf.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        match ident(toks.get(i)) {
            Some("panic") if is_punct(toks.get(i + 1), '!') && is_punct(toks.get(i + 2), '(') => {
                let close = matching(toks, i + 2, toks.len(), '(', ')');
                let diagnostic = toks[i + 3..close]
                    .iter()
                    .any(|t| matches!(ident(Some(t)), Some("deadlock_report" | "tail_report")));
                if !diagnostic {
                    let msg = "bare `panic!` on an engine hot path — use `spsim::sim_panic!` \
                               or embed `deadlock_report`/`tail_report` in the message";
                    out.push(Finding::local(Rule::L5, pf, toks[i].line, msg.to_string()));
                }
                i = close + 1;
                continue;
            }
            Some(m @ ("unwrap" | "expect"))
                if i >= 1 && is_punct(toks.get(i - 1), '.') && is_punct(toks.get(i + 1), '(') =>
            {
                let msg = format!(
                    "`.{m}()` on an engine hot path dies without simulator context — \
                     use `spsim::OrDiag::or_diag` so the trace tail is attached"
                );
                out.push(Finding::local(Rule::L5, pf, toks[i].line, msg));
            }
            _ => {}
        }
        i += 1;
    }
}

// --------------------------------------------------------------------- L6

/// Unbounded virtual-time wait loops need a `// liveness:` justification
/// naming their wakeup source. A `loop`/`while` (including `while let`)
/// whose condition or body calls `poll_step` or a wait probe (see
/// [`WAIT_PROBES`]) is a wait loop: each iteration blocks, parks, yields,
/// or pumps the simulator, so its termination depends on some other
/// thread making progress — exactly the kind of cross-thread contract a
/// reader cannot reconstruct from the loop itself, and the code the
/// node-failure domain must audit (every such loop needs a wakeup *or* a
/// poison path when the peer it waits on dies). A loop that only
/// transforms local data never matches and needs no annotation. The
/// justification is a comment block directly above the loop (or on the
/// loop's own line) containing `liveness:` — contiguity, not a fixed
/// distance, so multi-line explanations stay legal.
fn rule_l6(pf: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &pf.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let kw = match ident(Some(t)) {
            Some(k @ ("loop" | "while")) => k,
            _ => continue,
        };
        // Find the body's opening brace. For `loop` it is the next token;
        // for `while` it is the first `{` after the condition (Rust bans
        // brace-bearing expressions in loop conditions without parens, so
        // the first `{` opens the body).
        let Some(open) = (i + 1..toks.len()).find(|&j| is_punct(toks.get(j), '{')) else {
            continue;
        };
        if kw == "loop" && open != i + 1 {
            continue; // `loop` introduces a loop only as `loop {`
        }
        let close = matching(toks, open, toks.len(), '{', '}');
        let is_wait_loop = (i + 1..close).any(|j| {
            ident(toks.get(j)).is_some_and(|w| w == "poll_step" || WAIT_PROBES.contains(&w))
                && is_punct(toks.get(j + 1), '(')
        });
        if is_wait_loop && !pf.lexed.marks(t.line, "liveness:") {
            let msg = format!(
                "`{kw}` waits on another thread without a `// liveness:` comment — \
                 name the wakeup source (who fills the slot / notifies the cv / \
                 closes the queue) in a comment block directly above the loop"
            );
            out.push(Finding::local(Rule::L6, pf, t.line, msg));
        }
    }
}
