//! Item-level parser: the one front end every rule runs over. It lexes a
//! file, strips its test items, and makes one pass over the remaining
//! tokens to recover the *items* the rules need — `fn` items with their
//! owners (impl/trait types), call expressions, lock guards and
//! acquisitions, wall-clock uses and `// liveness:` annotations — without
//! pulling in syn or a real grammar. The per-file L-rules read the
//! resulting [`ParsedFile`]; the interprocedural A-rules read the
//! workspace built from all of them. Precision contract: see DESIGN §10.
//! Everything here is deliberately conservative: a construct the parser
//! cannot resolve degrades to a name-level match, never to silence.

use crate::lexer::{ident, is_punct, lex, matching, strip_test_items, Lexed, Tok, Token};

/// A lock guard live at some point in a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldLock {
    /// Qualified lock name, `crate:field` (e.g. `lapi:outstanding`).
    pub lock: String,
    /// The guard's binding name (`st` in `let st = q.state.lock();`).
    pub name: String,
    /// Line of the guard's `let`.
    pub line: u32,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee's simple name (`recv_timeout`, `process_packet`).
    pub name: String,
    /// `Type` for `Type::name(…)` paths, `self` for `self.name(…)` method
    /// calls, `None` for everything else.
    pub qual: Option<String>,
    /// 1-based line of the call.
    pub line: u32,
    /// Index of the callee's name in [`ParsedFile::lexed`]'s tokens (its
    /// argument list opens at `at + 1`).
    pub at: usize,
    /// Lock guards live at the call site (for L4 and A2).
    pub held: Vec<HeldLock>,
}

/// One direct lock acquisition (`….lock()`, `….read()`, `….write()` with
/// empty argument lists, or `Mutex::lock(&x)`).
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Qualified lock name (`crate:field`); `crate:?` when the receiver is
    /// an expression the parser cannot name.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Guards already held when this one is taken (for A2 edges).
    pub held: Vec<HeldLock>,
}

/// Everything the rules need to know about one `fn` item. Closures are
/// *not* separate functions: their bodies' calls, probes and clock uses
/// land in the enclosing `FnInfo`, so a closure inherits (and propagates)
/// the enclosing function's taint by construction.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Simple name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// Display stem (file stem: `engine`, `queue`), used in witness chains.
    pub stem: String,
    /// Real on-disk repo-relative path (what findings report).
    pub path: String,
    /// Effective path after `// lint-as:` (what classification uses).
    pub effective: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call expressions, in order.
    pub calls: Vec<CallSite>,
    /// Direct lock acquisitions.
    pub acquires: Vec<LockAcq>,
    /// Wall-clock uses in the body: `(line, which)`, see `clock_at`.
    pub clock_uses: Vec<(u32, String)>,
    /// Does a `// liveness:` comment cover this function (inside the body
    /// or in a comment block directly above the `fn` keyword)?
    pub has_liveness: bool,
}

impl FnInfo {
    /// `stem::name` — the short label used in witness chains.
    pub fn label(&self) -> String {
        format!("{}::{}", self.stem, self.name)
    }

    /// The first call that blocks, parks or yields (see [`WAIT_PROBES`]),
    /// which makes this a blocking function for A3.
    pub(crate) fn first_probe(&self) -> Option<&CallSite> {
        self.calls
            .iter()
            .find(|c| WAIT_PROBES.contains(&c.name.as_str()))
    }
}

/// One thread-primitive site for A4: `(line, what)`.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// 1-based line.
    pub line: u32,
    /// What was seen (`thread::spawn`, `JoinHandle`, `.spawn(`).
    pub what: String,
}

/// One file, lexed, test-stripped and parsed once. Every rule reads this.
pub struct ParsedFile {
    /// Real on-disk repo-relative path (what findings report).
    pub path: String,
    /// Effective path after `// lint-as:` (what classification uses).
    pub effective: String,
    /// The file's tokens with `#[cfg(test)]` items removed, plus every
    /// comment in the file.
    pub lexed: Lexed,
    /// All `fn` items (free, impl and trait-default methods, nested fns).
    pub fns: Vec<FnInfo>,
    /// Raw OS-thread sites anywhere in the file, including outside `fn`
    /// bodies (struct fields, use declarations) — A4 material.
    pub spawns: Vec<SpawnSite>,
}

/// Calls that block, park or yield: each makes the *caller* a blocking
/// function for A3, and (with `poll_step`) makes a loop a wait loop for L6.
pub const WAIT_PROBES: &[&str] = &[
    "wait",
    "wait_for",
    "wait_until",
    "wait_while",
    "recv",
    "recv_merge",
    "recv_timeout",
    "recv_until",
    "park",
    "park_timeout",
    "yield_now",
];

/// Guard-producing method names (empty-argument form only).
const GUARD_CALLS: &[&str] = &["lock", "read", "write"];

/// Keywords that precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "let", "fn", "move", "in", "as", "ref", "mut",
    "else", "unsafe", "dyn", "impl", "where", "use", "pub", "crate", "super", "box", "break",
    "continue", "yield", "true", "false",
];

/// Crate segment of an effective repo-relative path: `crates/lapi/src/…` →
/// `lapi`; `src/…` (the facade crate) → `spsim-lapi`.
pub fn crate_of(effective: &str) -> &str {
    if let Some(rest) = effective.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("?")
    } else {
        "spsim-lapi"
    }
}

/// File stem of an effective path (`crates/sim/src/queue.rs` → `queue`).
pub fn stem_of(effective: &str) -> &str {
    effective
        .rsplit('/')
        .next()
        .unwrap_or(effective)
        .trim_end_matches(".rs")
}

/// The wall-clock primitive named at `toks[i]`, if any: `Instant`,
/// `SystemTime`, or the `sleep` of a `thread::sleep` path. L1 flags these
/// anywhere in a simulated file; A1 seeds its taint from those in fn
/// bodies.
pub(crate) fn clock_at(toks: &[Token], i: usize) -> Option<&'static str> {
    match ident(toks.get(i))? {
        "Instant" => Some("Instant"),
        "SystemTime" => Some("SystemTime"),
        "sleep" if path_parent(toks, i) == Some("thread") => Some("thread::sleep"),
        _ => None,
    }
}

/// The `Type` of a `Type::name` path whose last segment is `toks[i]`.
fn path_parent(toks: &[Token], i: usize) -> Option<&str> {
    if i >= 3 && is_punct(toks.get(i - 1), ':') && is_punct(toks.get(i - 2), ':') {
        ident(toks.get(i - 3))
    } else {
        None
    }
}

/// Lex, test-strip and parse one file. `path` is the on-disk repo-relative
/// path (reported in findings); `effective` is the classification path
/// (after `// lint-as:`).
pub fn parse_file(path: &str, effective: &str, src: &str) -> ParsedFile {
    let mut lexed = lex(src);
    lexed.tokens = strip_test_items(&lexed.tokens);
    let mut scan = Scan {
        lexed: &lexed,
        path,
        effective,
        fns: Vec::new(),
    };
    scan.items(0, lexed.tokens.len(), None);
    let fns = scan.fns;
    let spawns = scan_spawns(&lexed.tokens);
    ParsedFile {
        path: path.to_string(),
        effective: effective.to_string(),
        lexed,
        fns,
        spawns,
    }
}

/// One file's item walk: the (stripped) file it reads, and the `fn` items
/// found so far.
struct Scan<'a> {
    lexed: &'a Lexed,
    path: &'a str,
    effective: &'a str,
    fns: Vec<FnInfo>,
}

#[derive(Debug)]
struct Guard {
    held: HeldLock,
    depth: usize,
    /// Token index from which the binding is live (its statement's `;`).
    from: usize,
}

impl Scan<'_> {
    /// Walk `toks[i..end]` at item level, descending into `impl`/`trait`/
    /// `mod` blocks and parsing every `fn` body encountered.
    fn items(&mut self, mut i: usize, end: usize, owner: Option<&str>) {
        let toks = &self.lexed.tokens;
        while i < end {
            match ident(toks.get(i)) {
                Some("impl") => {
                    let (name, open) = impl_owner(toks, i, end);
                    if let Some(open) = open {
                        let close = matching(toks, open, end, '{', '}');
                        self.items(open + 1, close, name.as_deref());
                        i = close + 1;
                        continue;
                    }
                    i += 1;
                }
                Some("trait") => {
                    let name = ident(toks.get(i + 1)).map(str::to_string);
                    if let Some(open) = (i + 1..end).find(|&j| is_punct(toks.get(j), '{')) {
                        let close = matching(toks, open, end, '{', '}');
                        self.items(open + 1, close, name.as_deref());
                        i = close + 1;
                        continue;
                    }
                    i += 1;
                }
                Some("mod")
                    if ident(toks.get(i + 1)).is_some() && is_punct(toks.get(i + 2), '{') =>
                {
                    // Inline module: items inside keep the (lack of an) owner.
                    let close = matching(toks, i + 2, end, '{', '}');
                    self.items(i + 3, close, owner);
                    i = close + 1;
                }
                Some("fn") => i = self.fn_item(i, end, owner),
                _ => i += 1,
            }
        }
    }

    /// Parse the `fn` item starting at `toks[i]` (`== fn`). Returns the
    /// index to resume scanning from.
    fn fn_item(&mut self, i: usize, end: usize, owner: Option<&str>) -> usize {
        let toks = &self.lexed.tokens;
        let Some(name) = ident(toks.get(i + 1)) else {
            return i + 1;
        };
        let fn_line = toks[i].line;
        // Find the body `{` (or a `;` for bodiless trait declarations) at
        // paren/bracket depth 0.
        let mut j = i + 2;
        let mut d = 0i32;
        let mut open = None;
        while j < end {
            match toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => d += 1,
                Tok::Punct(')') | Tok::Punct(']') => d -= 1,
                Tok::Punct('{') if d == 0 => {
                    open = Some(j);
                    break;
                }
                Tok::Punct(';') if d == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { return j };
        let close = matching(toks, open, end, '{', '}');
        let end_line = toks.get(close).map(|t| t.line).unwrap_or(fn_line);

        let mut info = FnInfo {
            name: name.to_string(),
            owner: owner.map(str::to_string),
            stem: stem_of(self.effective).to_string(),
            path: self.path.to_string(),
            effective: self.effective.to_string(),
            line: fn_line,
            calls: Vec::new(),
            acquires: Vec::new(),
            clock_uses: Vec::new(),
            has_liveness: false,
        };
        self.body(open + 1, close, &mut info);
        // A `// liveness:` marker covers the fn if it sits inside the item
        // or marks the `fn` line the way L6 marks a loop.
        let inside =
            |(l, t): &(u32, String)| (fn_line..=end_line).contains(l) && t.contains("liveness:");
        info.has_liveness =
            self.lexed.marks(fn_line, "liveness:") || self.lexed.comments.iter().any(inside);
        self.fns.push(info);
        close + 1
    }

    /// Scan one fn body, collecting calls, acquisitions, live guards and
    /// clock uses. Nested `fn` items are parsed as their own `FnInfo` (and
    /// skipped here, so an outer guard never leaks into them); closures
    /// are scanned inline, so they fold into the enclosing fn.
    fn body(&mut self, start: usize, close: usize, info: &mut FnInfo) {
        let toks = &self.lexed.tokens;
        let krate = crate_of(self.effective);
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0usize;
        let mut i = start;
        while i < close {
            if let Some(which) = clock_at(toks, i) {
                info.clock_uses.push((toks[i].line, which.to_string()));
            }
            match &toks[i].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                Tok::Ident(w) if w == "fn" => {
                    // A nested fn is its own item; don't fold it in here.
                    i = self.fn_item(i, close, None);
                    continue;
                }
                Tok::Ident(w) if w == "let" => {
                    if let Some((name, lock_tok, semi)) = guard_binding(toks, i, close) {
                        guards.push(Guard {
                            held: HeldLock {
                                lock: lock_name_at(toks, lock_tok, krate),
                                name,
                                line: toks[i].line,
                            },
                            depth,
                            from: semi,
                        });
                    }
                }
                Tok::Ident(w) if w == "drop" && is_punct(toks.get(i + 1), '(') => {
                    if let Some(name) = ident(toks.get(i + 2)) {
                        guards.retain(|g| g.held.name != name);
                    }
                }
                Tok::Ident(w)
                    if GUARD_CALLS.contains(&w.as_str())
                        && is_punct(toks.get(i.wrapping_sub(1)), '.')
                        && is_punct(toks.get(i + 1), '(')
                        && is_punct(toks.get(i + 2), ')') =>
                {
                    // Direct acquisition `recv.lock()` / `x.read()` / `x.write()`.
                    info.acquires.push(LockAcq {
                        lock: lock_name_at(toks, i, krate),
                        line: toks[i].line,
                        held: held_at(&guards, i),
                    });
                    i += 3;
                    continue;
                }
                Tok::Ident(w)
                    if GUARD_CALLS.contains(&w.as_str())
                        && matches!(path_parent(toks, i), Some("Mutex" | "RwLock"))
                        && is_punct(toks.get(i + 1), '(') =>
                {
                    // UFCS form `Mutex::lock(&x)`: name the lock from the
                    // first argument ident.
                    let mut k = i + 2;
                    while k < close && ident(toks.get(k)).is_none() {
                        k += 1;
                    }
                    let lock = match ident(toks.get(k)) {
                        // `Mutex::lock(&self.field)`
                        Some("self") if is_punct(toks.get(k + 1), '.') => {
                            ident(toks.get(k + 2)).unwrap_or("?")
                        }
                        Some("self") => "?",
                        Some(n) => n,
                        None => "?",
                    };
                    info.acquires.push(LockAcq {
                        lock: format!("{krate}:{lock}"),
                        line: toks[i].line,
                        held: held_at(&guards, i),
                    });
                }
                Tok::Ident(w)
                    if is_punct(toks.get(i + 1), '(')
                        && !NON_CALL_KEYWORDS.contains(&w.as_str()) =>
                {
                    info.calls.push(CallSite {
                        name: w.clone(),
                        qual: call_qual(toks, i),
                        line: toks[i].line,
                        at: i,
                        held: held_at(&guards, i),
                    });
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Owner type of an `impl` block: the ident after `for` in trait impls,
/// else the first type ident after the (skipped) generic parameter list.
/// Returns `(owner, Some(body_open_index))`.
fn impl_owner(toks: &[Token], i: usize, end: usize) -> (Option<String>, Option<usize>) {
    let mut j = i + 1;
    // Skip `<…>` generics directly after `impl`.
    if is_punct(toks.get(j), '<') {
        j = matching(toks, j, end, '<', '>') + 1;
    }
    let mut first_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut open = None;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('{') => {
                open = Some(j);
                break;
            }
            Tok::Ident(s) if s == "for" => saw_for = true,
            Tok::Ident(s) if s == "where" => {
                // `where` clause: the owner is settled; find the body brace.
                if let Some(o) = (j..end).find(|&k| is_punct(toks.get(k), '{')) {
                    open = Some(o);
                }
                break;
            }
            Tok::Ident(s) => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(s.clone());
                    }
                } else {
                    // Track the *last* path segment before generics: for
                    // `spsim::queue::TimedQueue<M>` keep `TimedQueue`.
                    if !is_punct(toks.get(j + 1), '<')
                        || first_ident.is_none()
                        || is_punct(toks.get(j.wrapping_sub(1)), ':')
                    {
                        first_ident = Some(s.clone());
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    (after_for.or(first_ident), open)
}

/// The guards live at token `at`: bound by a statement that has ended.
fn held_at(guards: &[Guard], at: usize) -> Vec<HeldLock> {
    guards
        .iter()
        .filter(|g| g.from <= at)
        .map(|g| g.held.clone())
        .collect()
}

/// Qualifier of a call at token `i`: `Some(type)` for `Type::name(…)`,
/// `Some("self")` for `self.name(…)`, else `None`.
fn call_qual(toks: &[Token], i: usize) -> Option<String> {
    if let Some(parent) = path_parent(toks, i) {
        return Some(parent.to_string());
    }
    if i >= 2 && is_punct(toks.get(i - 1), '.') && ident(toks.get(i - 2)) == Some("self") {
        return Some("self".to_string());
    }
    None
}

/// Name the lock acquired by the guard-call token at `i` (`lock`/`read`/
/// `write`): the identifier directly before the `.`, qualified by crate.
fn lock_name_at(toks: &[Token], i: usize, krate: &str) -> String {
    let base = if i >= 2 && is_punct(toks.get(i - 1), '.') {
        match ident(toks.get(i - 2)) {
            Some(n) if n != "self" => n,
            _ => "?",
        }
    } else {
        "?"
    };
    format!("{krate}:{base}")
}

/// If the statement starting at `let` (index `i`) binds a plain identifier
/// to an expression ending in `.lock()`/`.read()`/`.write()`, return the
/// bound name, the index of that guard call and the index of the
/// statement's terminating `;`.
fn guard_binding(toks: &[Token], i: usize, end: usize) -> Option<(String, usize, usize)> {
    let mut j = i + 1;
    if ident(toks.get(j)) == Some("mut") {
        j += 1;
    }
    let name = ident(toks.get(j))?.to_string();
    if !is_punct(toks.get(j + 1), '=') {
        return None;
    }
    // Scan to the statement-terminating `;` at bracket depth 0.
    let mut k = j + 2;
    let mut d = 0i32;
    while k < end {
        match toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => d -= 1,
            Tok::Punct(';') if d == 0 => break,
            _ => {}
        }
        k += 1;
    }
    // The expression must end `… . lock ( )` (or read/write).
    if k >= 4
        && is_punct(toks.get(k - 1), ')')
        && is_punct(toks.get(k - 2), '(')
        && ident(toks.get(k - 3)).is_some_and(|m| GUARD_CALLS.contains(&m))
        && is_punct(toks.get(k - 4), '.')
    {
        Some((name, k - 3, k))
    } else {
        None
    }
}

/// File-wide A4 scan: raw OS-thread primitives anywhere in the token
/// stream, including struct fields and `use` declarations. Besides thread
/// creation, this also collects the primitives that *block* an OS thread
/// behind the scheduler's back — `thread::park`/`park_timeout` and raw
/// `Condvar` waits — which would pin a pooled worker instead of yielding
/// the fiber (use `spsim::SimCondvar` / the runtime's park instead).
fn scan_spawns(toks: &[Token]) -> Vec<SpawnSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(w) = &t.tok else { continue };
        let what = match w.as_str() {
            "JoinHandle" | "Condvar" => w.clone(),
            "spawn" | "scope" | "Builder" | "spawn_scoped" | "park" | "park_timeout"
                if path_parent(toks, i) == Some("thread") =>
            {
                format!("thread::{w}")
            }
            "spawn" | "spawn_scoped"
                if is_punct(toks.get(i.wrapping_sub(1)), '.') && is_punct(toks.get(i + 1), '(') =>
            {
                format!(".{w}(…)")
            }
            _ => continue,
        };
        out.push(SpawnSite { line: t.line, what });
    }
    out
}
