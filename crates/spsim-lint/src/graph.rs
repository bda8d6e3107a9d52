//! Workspace symbol table and call graph over parsed `fn` items.
//!
//! Resolution is *conservative by name*: a call site resolves to every
//! workspace function that could plausibly be its target, never to none
//! when a workspace target exists. `self.f(…)` prefers a method named `f`
//! on the caller's own impl type; `Type::f(…)` prefers `f` owned by
//! `Type`; everything else — including trait-object and generic method
//! calls — degrades to "all workspace fns named `f`". Calls that match no
//! workspace function are treated as external (std or stubs) and produce
//! no edge. A short stoplist of ubiquitous trait-method names is excluded
//! from edge building to keep the fan-out honest; the list is part of the
//! documented precision contract (DESIGN §10).

use std::collections::BTreeMap;

use crate::parser::{CallSite, FnInfo, ParsedFile, SpawnSite};

/// Ubiquitous method names that would connect everything to everything:
/// structural trait methods and std container/primitive methods whose
/// workspace namesakes are almost never the real target (`v.push(x)` is
/// `Vec::push`, not `TimedQueue::push`; `a.min(b)` is `Ord::min`, not
/// `Hist::min`). Excluding them from edge building keeps the conservative
/// resolver's fan-out honest at the cost of missing chains that really do
/// route through a workspace fn with one of these names — the documented
/// precision trade (DESIGN §10).
const UBIQUITOUS: &[&str] = &[
    "new",
    "clone",
    "default",
    "fmt",
    "drop",
    "from",
    "into",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "to_string",
    "as_ref",
    "as_mut",
    "deref",
    "index",
    "next",
    "get",
    "get_mut",
    "set",
    "push",
    "pop",
    "insert",
    "remove",
    "take",
    "min",
    "max",
    "len",
    "is_empty",
    "contains",
    "clear",
    "extend",
];

/// The workspace-wide function table plus name indexes.
pub struct Workspace {
    /// All parsed functions, indexed by position.
    pub fns: Vec<FnInfo>,
    /// Raw thread-primitive sites per real file path (for A4).
    pub spawns: Vec<(String, String, Vec<SpawnSite>)>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_owner_name: BTreeMap<(String, String), Vec<usize>>,
}

impl Workspace {
    /// Build the table from per-file parse results.
    pub fn build(files: Vec<ParsedFile>) -> Self {
        let mut fns = Vec::new();
        let mut spawns = Vec::new();
        for parsed in files {
            if !parsed.spawns.is_empty() {
                spawns.push((parsed.path, parsed.effective, parsed.spawns));
            }
            fns.extend(parsed.fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(o) = &f.owner {
                by_owner_name
                    .entry((o.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        Workspace {
            fns,
            spawns,
            by_name,
            by_owner_name,
        }
    }

    /// Resolve one call site from `caller` to candidate workspace targets.
    /// Empty result = external call, no edge.
    pub fn resolve(&self, caller: usize, site: &CallSite) -> Vec<usize> {
        if UBIQUITOUS.contains(&site.name.as_str()) {
            return Vec::new();
        }
        // `self.f(…)`: a method named `f` on the caller's own type wins.
        if site.qual.as_deref() == Some("self") {
            if let Some(owner) = &self.fns[caller].owner {
                if let Some(v) = self.by_owner_name.get(&(owner.clone(), site.name.clone())) {
                    return v.clone();
                }
            }
        }
        // `Type::f(…)`: owner match wins when the type is known.
        if let Some(q) = &site.qual {
            if q != "self" {
                if let Some(v) = self.by_owner_name.get(&(q.clone(), site.name.clone())) {
                    return v.clone();
                }
            }
        }
        // Conservative fallback: every workspace fn with this name. This is
        // where trait-object and generic method calls land.
        self.by_name.get(&site.name).cloned().unwrap_or_default()
    }

    /// All `(callee index, call site)` edges out of `f`, resolved.
    pub fn callees(&self, f: usize) -> Vec<(usize, &CallSite)> {
        let mut out = Vec::new();
        for site in &self.fns[f].calls {
            for target in self.resolve(f, site) {
                if target != f {
                    out.push((target, site));
                }
            }
        }
        out
    }
}
