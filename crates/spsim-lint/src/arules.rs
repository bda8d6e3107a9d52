//! The interprocedural rules A1–A4, run over a [`Workspace`] call graph.
//! Every finding carries a witness chain: the call path from the flagged
//! function (or engine entry point) down to the offending primitive, one
//! `file:line` per hop, so a violation three crates away is actionable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::allowlist::Allowlist;
use crate::graph::Workspace;
use crate::parser::crate_of;
use crate::rules::{classify, Finding, Hop, Rule};

/// Engine entry points for A3: the functions the dispatcher/completion
/// machinery and user-facing progress calls run on a hot path. A function
/// with one of these names in a hot-path file is a BFS root.
const ENTRY_NAMES: &[&str] = &[
    "dispatcher_loop",
    "completion_loop",
    "poll_step",
    "probe",
    "drain_arrived",
    "pump",
    "progress",
];

/// The modules allowed to touch raw OS threads (A4): the SPMD runtime
/// (legacy thread-per-node path, service threads) and the M:N scheduler
/// (worker pool, fiber park/unpark, the `SimCondvar` thread fallback).
const THREAD_HOMES: &[&str] = &["crates/sim/src/runtime.rs", "crates/sim/src/sched.rs"];

/// Run all four interprocedural rules. `lines` maps each real path to its
/// source lines (used to honor existing L1 suppressions when computing
/// taint bridges). Findings are *not* allowlist-filtered here — the caller
/// applies `lint.toml` the same way it does for L-rules.
pub fn run(
    ws: &Workspace,
    allow: &Allowlist,
    lines: &BTreeMap<String, Vec<String>>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_a1(ws, allow, lines, &mut out);
    rule_a2(ws, &mut out);
    rule_a3(ws, &mut out);
    rule_a4(ws, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| (a.rule, &a.path, a.line) == (b.rule, &b.path, b.line));
    out
}

/// Source text of `path:line`, or `""` when unknown.
pub(crate) fn line_text<'a>(
    lines: &'a BTreeMap<String, Vec<String>>,
    path: &str,
    line: u32,
) -> &'a str {
    lines
        .get(path)
        .and_then(|v| v.get(line as usize - 1))
        .map(String::as_str)
        .unwrap_or("")
}

// --------------------------------------------------------------------- A1

/// Transitive virtual-time taint. A function's *direct* wall-clock uses are
/// L1's business; A1 flags a simulated function that reaches a clock only
/// through its callees. A function whose direct uses are all suppressed by
/// `lint.toml` L1 entries is a sanctioned *real-time bridge*: it is not
/// tainted and stops propagation (that is the point of the suppression).
fn rule_a1(
    ws: &Workspace,
    allow: &Allowlist,
    lines: &BTreeMap<String, Vec<String>>,
    out: &mut Vec<Finding>,
) {
    let n = ws.fns.len();
    // Per-fn direct status: (has unsuppressed source, is bridge).
    let mut source: Vec<Option<(u32, String)>> = vec![None; n];
    let mut bridge = vec![false; n];
    for (i, f) in ws.fns.iter().enumerate() {
        let mut unsuppressed = None;
        for (line, which) in &f.clock_uses {
            let probe = Finding {
                rule: Rule::L1,
                path: f.path.clone(),
                line: *line,
                msg: String::new(),
                witness: Vec::new(),
            };
            if !allow.suppresses(&probe, line_text(lines, &f.path, *line)) {
                unsuppressed = Some((*line, which.clone()));
                break;
            }
        }
        source[i] = unsuppressed;
        bridge[i] = !f.clock_uses.is_empty() && source[i].is_none();
    }
    // Taint fixpoint over call edges; bridges stay clean.
    let mut tainted: Vec<bool> = (0..n).map(|i| source[i].is_some()).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if tainted[i] || bridge[i] {
                continue;
            }
            if ws.callees(i).iter().any(|(c, _)| tainted[*c]) {
                tainted[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Flag virtual-time fns tainted only via callees.
    for (i, f) in ws.fns.iter().enumerate() {
        let class = classify(&f.effective).unwrap_or_default();
        if !class.virtual_time || !tainted[i] || source[i].is_some() {
            continue;
        }
        // Shortest chain from i to a direct source through tainted nodes.
        let Some((chain, src)) = taint_chain(ws, i, &tainted, &source) else {
            continue;
        };
        // The chain's first entry is the flagged fn at the line where it
        // calls into the tainted subgraph — that is the actionable line.
        let first_call_line = chain.first().map(|&(_, l)| l).unwrap_or(f.line);
        let mut witness: Vec<Hop> = chain
            .iter()
            .map(|&(fx, l)| Hop {
                label: ws.fns[fx].label(),
                path: ws.fns[fx].path.clone(),
                line: l,
            })
            .collect();
        let (src_line, src_which) = src;
        witness.push(Hop {
            label: src_which.clone(),
            path: ws.fns[chain.last().unwrap().0].path.clone(),
            line: src_line,
        });
        out.push(Finding {
            rule: Rule::A1,
            path: f.path.clone(),
            line: first_call_line,
            msg: format!(
                "`{}` transitively reaches wall-clock `{}` through its callees — \
                 virtual-time code must not depend on the host clock",
                f.label(),
                src_which
            ),
            witness,
        });
    }
}

/// BFS from `start` through tainted callees to the nearest function with a
/// direct unsuppressed clock use. Returns the chain as `(fn, line)` pairs —
/// the first entry is `start` at its call-site line toward the next hop —
/// plus the source's `(line, which)`.
#[allow(clippy::type_complexity)]
fn taint_chain(
    ws: &Workspace,
    start: usize,
    tainted: &[bool],
    source: &[Option<(u32, String)>],
) -> Option<(Vec<(usize, u32)>, (u32, String))> {
    let mut prev: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
    let mut q = VecDeque::new();
    q.push_back(start);
    let mut found = None;
    'bfs: while let Some(f) = q.pop_front() {
        for (c, site) in ws.callees(f) {
            if !tainted[c] || prev.contains_key(&c) || c == start {
                continue;
            }
            prev.insert(c, (f, site.line));
            if source[c].is_some() {
                found = Some(c);
                break 'bfs;
            }
            q.push_back(c);
        }
    }
    let end = found?;
    // Reconstruct: walk back from `end` to `start`.
    let mut rev = vec![(end, ws.fns[end].line)];
    let mut cur = end;
    while cur != start {
        let &(p, call_line) = prev.get(&cur)?;
        rev.push((p, call_line));
        cur = p;
    }
    rev.reverse();
    let src = source[end].clone()?;
    Some((rev, src))
}

// --------------------------------------------------------------------- A2

/// Lock-order inversion. Build the acquired-while-held graph across
/// function boundaries (a call made with guard `a` held contributes edges
/// `a → l` for every lock `l` the callee can transitively take), then flag
/// every cycle, including re-entrant self-loops. Locks the parser cannot
/// name (`crate:?`) are excluded from edges — see the precision contract.
fn rule_a2(ws: &Workspace, out: &mut Vec<Finding>) {
    let n = ws.fns.len();
    // Transitive lock sets per fn (fixpoint).
    let mut trans: Vec<BTreeSet<String>> = (0..n)
        .map(|i| ws.fns[i].acquires.iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut add = Vec::new();
            for (c, _) in ws.callees(i) {
                for l in &trans[c] {
                    if !trans[i].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[i].extend(add);
            }
        }
        if !changed {
            break;
        }
    }
    let named = |l: &str| !l.ends_with(":?");
    // Each acquired-while-held edge with its first-seen witness.
    let mut edges: BTreeMap<(String, String), Vec<Hop>> = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        // Direct nested acquisitions. A self-edge from a literal
        // re-acquisition is still a deadlock; it is recorded too.
        for acq in &f.acquires {
            for h in &acq.held {
                if named(&h.lock) && named(&acq.lock) {
                    edges
                        .entry((h.lock.clone(), acq.lock.clone()))
                        .or_insert_with(|| {
                            vec![Hop {
                                label: f.label(),
                                path: f.path.clone(),
                                line: acq.line,
                            }]
                        });
                }
            }
        }
        // Calls made while holding: edge to everything the callee can take.
        for (c, site) in ws.callees(i) {
            if site.held.is_empty() {
                continue;
            }
            for l in trans[c].iter().filter(|l| named(l)) {
                for h in site.held.iter().filter(|h| named(&h.lock)) {
                    edges.entry((h.lock.clone(), l.clone())).or_insert_with(|| {
                        let mut w = vec![Hop {
                            label: f.label(),
                            path: f.path.clone(),
                            line: site.line,
                        }];
                        w.extend(acquire_chain(ws, c, l, &trans));
                        w
                    });
                }
            }
        }
    }
    // Cycle detection: adjacency over lock names; report each cycle once.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((from, to), witness) in &edges {
        let cycle = if from == to {
            Some(vec![from.clone()])
        } else {
            // BFS from `to` back to `from`.
            path_between(&adj, to, from).map(|mut p| {
                p.insert(0, from.clone());
                p
            })
        };
        let Some(cycle) = cycle else { continue };
        let mut key = cycle.clone();
        key.sort();
        key.dedup();
        if !reported.insert(key) {
            continue;
        }
        let site = &witness[0];
        let kind = if from == to {
            format!("lock `{from}` re-acquired while already held")
        } else {
            format!(
                "lock-order inversion: cycle {} — two threads interleaving these \
                 acquisitions deadlock",
                cycle.join(" → ")
            )
        };
        out.push(Finding {
            rule: Rule::A2,
            path: site.path.clone(),
            line: site.line,
            msg: kind,
            witness: witness.clone(),
        });
    }
}

/// Chain of hops from `f` down to a function that directly acquires `lock`.
fn acquire_chain(ws: &Workspace, f: usize, lock: &str, trans: &[BTreeSet<String>]) -> Vec<Hop> {
    let mut hops = Vec::new();
    let mut cur = f;
    let mut seen = BTreeSet::new();
    loop {
        if !seen.insert(cur) {
            break;
        }
        if let Some(acq) = ws.fns[cur].acquires.iter().find(|a| a.lock == lock) {
            hops.push(Hop {
                label: ws.fns[cur].label(),
                path: ws.fns[cur].path.clone(),
                line: acq.line,
            });
            break;
        }
        let Some((next, site)) = ws
            .callees(cur)
            .into_iter()
            .find(|(c, _)| trans[*c].contains(lock))
        else {
            break;
        };
        hops.push(Hop {
            label: ws.fns[cur].label(),
            path: ws.fns[cur].path.clone(),
            line: site.line,
        });
        cur = next;
    }
    hops
}

/// BFS path from `a` to `b` over the lock adjacency (exclusive of `a`,
/// inclusive of `b`).
fn path_between(adj: &BTreeMap<&str, Vec<&str>>, a: &str, b: &str) -> Option<Vec<String>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut q = VecDeque::new();
    q.push_back(a);
    while let Some(x) = q.pop_front() {
        for &y in adj.get(x).into_iter().flatten() {
            if prev.contains_key(y) || y == a {
                continue;
            }
            prev.insert(y, x);
            if y == b {
                let mut path = vec![b.to_string()];
                let mut cur = b;
                while cur != a {
                    cur = prev[cur];
                    path.push(cur.to_string());
                }
                path.reverse();
                return Some(path);
            }
            q.push_back(y);
        }
    }
    None
}

// --------------------------------------------------------------------- A3

/// Blocking reachability: L6 made interprocedural. From every *unannotated*
/// engine entry point, walk the call graph; a function with a `// liveness:`
/// annotation is absorbing (its contract covers everything below it). Any
/// reached function that directly parks or waits without an annotation is
/// flagged, with the chain from the entry as witness.
fn rule_a3(ws: &Workspace, out: &mut Vec<Finding>) {
    let entries: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            ENTRY_NAMES.contains(&f.name.as_str())
                && classify(&f.effective).unwrap_or_default().hot_path
        })
        .map(|(i, _)| i)
        .collect();
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for &e in &entries {
        if ws.fns[e].has_liveness {
            continue;
        }
        // BFS with parent links for witness reconstruction.
        let mut prev: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
        let mut q = VecDeque::new();
        q.push_back(e);
        let mut seen = BTreeSet::new();
        seen.insert(e);
        while let Some(f) = q.pop_front() {
            let info = &ws.fns[f];
            let probe = info.first_probe();
            if let Some(probe) = probe.filter(|_| !info.has_liveness && flagged.insert(f)) {
                let mut chain = vec![(f, probe.line)];
                let mut cur = f;
                while cur != e {
                    let &(p, l) = &prev[&cur];
                    chain.push((p, l));
                    cur = p;
                }
                chain.reverse();
                let mut witness: Vec<Hop> = chain
                    .iter()
                    .map(|&(fx, l)| Hop {
                        label: ws.fns[fx].label(),
                        path: ws.fns[fx].path.clone(),
                        line: l,
                    })
                    .collect();
                witness.push(Hop {
                    label: format!("{}::{}", info.stem, probe.name),
                    path: info.path.clone(),
                    line: probe.line,
                });
                out.push(Finding {
                    rule: Rule::A3,
                    path: info.path.clone(),
                    line: probe.line,
                    msg: format!(
                        "`{}` can block (`{}`) and is reachable from engine entry \
                         `{}` without a `// liveness:` annotation — name the wakeup \
                         source or annotate an ancestor on the chain",
                        info.label(),
                        probe.name,
                        ws.fns[e].label()
                    ),
                    witness,
                });
            }
            for (c, site) in ws.callees(f) {
                if seen.contains(&c) || ws.fns[c].has_liveness {
                    continue;
                }
                seen.insert(c);
                prev.insert(c, (f, site.line));
                q.push_back(c);
            }
        }
    }
}

// --------------------------------------------------------------------- A4

/// Raw OS-thread primitives outside `spsim::runtime`/`spsim::sched`. M:N
/// node scheduling (ROADMAP item 1) requires every simulated thread to be
/// created and joined by the runtime, so `thread::spawn`/`Builder`/`scope`
/// and `JoinHandle` are banned in virtual-time crates everywhere else.
/// Blocking primitives — `thread::park`/`park_timeout` and raw `Condvar`
/// waits — are banned too: they pin a pooled worker without yielding to the
/// scheduler, which livelocks a single-worker pool.
fn rule_a4(ws: &Workspace, out: &mut Vec<Finding>) {
    for (real, effective, sites) in &ws.spawns {
        if THREAD_HOMES.contains(&effective.as_str()) {
            continue;
        }
        if !classify(effective).unwrap_or_default().virtual_time {
            continue;
        }
        let stem = crate::parser::stem_of(effective);
        for s in sites {
            let advice = if matches!(s.what.as_str(), "thread::park" | "thread::park_timeout") {
                "these bypass the scheduler's yield points and pin a pooled \
                 worker; block through `spsim::SimCondvar` or the runtime's \
                 queues instead"
            } else if s.what == "Condvar" {
                "a raw condvar wait pins a pooled worker without yielding; \
                 use `spsim::SimCondvar`, which parks fibers scheduler-side"
            } else {
                "only spsim::runtime may create or hold threads; use \
                 `spsim::runtime::spawn_service`/`ServiceHandle`"
            };
            out.push(Finding {
                rule: Rule::A4,
                path: real.clone(),
                line: s.line,
                msg: format!(
                    "raw OS-thread primitive `{}` in simulated code ({} crate) — {}",
                    s.what,
                    crate_of(effective),
                    advice
                ),
                witness: vec![Hop {
                    label: format!("{}::{}", stem, s.what),
                    path: real.clone(),
                    line: s.line,
                }],
            });
        }
    }
}
