//! The two call-graph rules: deadline-reachability and lock-order
//! acyclicity.
//!
//! Both work on the "may call" graph from [`crate::callgraph`] and emit
//! [`Violation`]s that carry the call chain (with line numbers) that
//! produced them in `Violation::chain`.

use crate::callgraph::CallGraph;
use crate::parse::{parse_source, FnItem, LockField, LockKind, LockSite, ParsedFile};
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Functions that start a request on the serving path.
const REQUEST_ROOTS: [&str; 2] = ["execute_request", "execute_request_with"];

/// Parameter-type fragments that count as "threads a deadline".
const DEADLINE_TYPES: [&str; 3] = ["Deadline", "RequestOptions", "Ctx"];

/// Run both graph rules over the given `(repo-relative path, source)` pairs
/// and return the combined findings.
pub fn graph_scan(sources: &[(String, String)]) -> Vec<Violation> {
    let parsed: Vec<ParsedFile> = sources.iter().map(|(p, s)| parse_source(p, s)).collect();
    let lock_fields: Vec<LockField> = parsed
        .iter()
        .flat_map(|f| f.lock_fields.iter().cloned())
        .collect();
    let g = CallGraph::build(&parsed);
    let mut out = deadline_reachability(&g);
    out.extend(lock_order(&g, &lock_fields));
    out
}

// ---------------------------------------------------------------------------
// Rule: deadline-reachability
// ---------------------------------------------------------------------------

/// True when `f` is one of the storage-layer scan/seek entry points whose
/// callers must be deadline-aware.
fn is_storage_scan_api(f: &FnItem) -> bool {
    f.crate_name == "storage"
        && f.has_self
        && (f.name.starts_with("scan")
            || f.name.starts_with("seek")
            || f.name.starts_with("latest")
            || f.name == "range_visit")
}

fn threads_deadline(f: &FnItem) -> bool {
    f.params
        .iter()
        .any(|p| DEADLINE_TYPES.iter().any(|t| p.contains(t)))
}

/// Every function reachable from the request roots that calls a storage
/// scan/seek API must take a `Deadline`/`RequestOptions`/`Ctx` parameter —
/// otherwise the scan it issues cannot be cut off at the request budget.
fn deadline_reachability(g: &CallGraph) -> Vec<Violation> {
    let storage_api: HashSet<usize> = (0..g.fns.len())
        .filter(|&i| is_storage_scan_api(&g.fns[i]))
        .collect();
    let roots: Vec<usize> = REQUEST_ROOTS
        .iter()
        .flat_map(|n| g.named(n).iter().copied())
        .filter(|&i| !g.fns[i].is_test)
        .collect();
    let parent = g.reach(&roots, |i| !g.fns[i].is_test);
    let mut reached: Vec<usize> = parent.keys().copied().collect();
    reached.sort_unstable();

    let mut out = Vec::new();
    for i in reached {
        let f = &g.fns[i];
        // The storage layer itself is where deadlines are *consumed*;
        // the rule polices the layers above it.
        if f.crate_name == "storage" || f.allows.contains(&"deadline-reachability") {
            continue;
        }
        let Some(&api) = g.edges[i].iter().find(|j| storage_api.contains(j)) else {
            continue;
        };
        if threads_deadline(f) {
            continue;
        }
        let mut chain = g.chain(&parent, i);
        chain.push(g.fns[api].qualified());
        out.push(Violation {
            rule: "deadline-reachability",
            path: f.file.clone(),
            line: f.line,
            excerpt: format!(
                "{} calls {} without a Deadline/RequestOptions parameter",
                f.qualified(),
                g.fns[api].qualified()
            ),
            chain,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: lock-order
// ---------------------------------------------------------------------------

struct LockNames {
    /// field name → (owner, is_rwlock) declarations.
    by_field: HashMap<String, Vec<(String, bool)>>,
}

impl LockNames {
    fn new(fields: &[LockField]) -> LockNames {
        let mut by_field: HashMap<String, Vec<(String, bool)>> = HashMap::new();
        for lf in fields {
            by_field
                .entry(lf.field.clone())
                .or_default()
                .push((lf.owner.clone(), lf.rw));
        }
        LockNames { by_field }
    }

    /// Canonical id: `Owner.field` when the field name is unambiguous
    /// across the workspace, bare `field` otherwise.
    fn canonical(&self, field: &str) -> String {
        match self.by_field.get(field) {
            Some(decls) => {
                let owners: BTreeSet<&str> = decls.iter().map(|(o, _)| o.as_str()).collect();
                if owners.len() == 1 {
                    format!("{}.{}", decls[0].0, field)
                } else {
                    field.to_string()
                }
            }
            None => field.to_string(),
        }
    }

    fn is_rwlock(&self, field: &str) -> bool {
        self.by_field
            .get(field)
            .is_some_and(|d| d.iter().any(|(_, rw)| *rw))
    }

    /// The lock id a site acquires, or `None` when the site is not
    /// actually a lock (`.read()`/`.write()` on a non-RwLock receiver).
    fn site_id(&self, site: &LockSite) -> Option<String> {
        match site.kind {
            // `.lock()` is assumed to be a Mutex even on receivers we
            // could not type — false negatives are worse than extra nodes.
            LockKind::Lock => Some(self.canonical(&site.recv)),
            LockKind::Read | LockKind::Write => self
                .is_rwlock(&site.recv)
                .then(|| self.canonical(&site.recv)),
        }
    }
}

/// Nested lock acquisitions define an order; a cycle in that order is a
/// potential deadlock. Edges come from lexically nested guards and from
/// calls made while a guard is held (using per-function transitive
/// "locks it may acquire" summaries).
fn lock_order(g: &CallGraph, fields: &[LockField]) -> Vec<Violation> {
    let names = LockNames::new(fields);
    let active = |i: usize| !g.fns[i].is_test && !g.fns[i].allows.contains(&"lock-order");

    // Per-function transitive summaries: which lock ids may this function
    // (or anything it calls) acquire?
    let mut summary: Vec<BTreeSet<String>> = (0..g.fns.len())
        .map(|i| {
            let mut s = BTreeSet::new();
            if active(i) {
                for site in &g.fns[i].locks {
                    if !site.allowed {
                        if let Some(id) = names.site_id(site) {
                            s.insert(id);
                        }
                    }
                }
            }
            s
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..g.fns.len() {
            if !active(i) {
                continue;
            }
            for &j in &g.edges[i] {
                if summary[j].is_empty() {
                    continue;
                }
                let add: Vec<String> = summary[j]
                    .iter()
                    .filter(|id| !summary[i].contains(*id))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    summary[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: (held, acquired) → (description, file, line) of the
    // first site that produced the edge.
    let mut edges: BTreeMap<(String, String), (String, String, usize)> = BTreeMap::new();
    for i in 0..g.fns.len() {
        if !active(i) {
            continue;
        }
        let f = &g.fns[i];
        for &(h, a) in &f.nested_locks {
            if f.locks[h].allowed || f.locks[a].allowed {
                continue;
            }
            let (Some(hid), Some(aid)) = (names.site_id(&f.locks[h]), names.site_id(&f.locks[a]))
            else {
                continue;
            };
            if hid == aid {
                // Same-id nesting is re-entrancy, not ordering; instance
                // aliasing is not decidable lexically, so skip it.
                continue;
            }
            edges.entry((hid.clone(), aid.clone())).or_insert((
                format!(
                    "{} acquires {} while holding {} ({}:{})",
                    f.qualified(),
                    aid,
                    hid,
                    f.file,
                    f.locks[a].line
                ),
                f.file.clone(),
                f.locks[a].line,
            ));
        }
        for (ci, call) in f.calls.iter().enumerate() {
            if call.held.is_empty() {
                continue;
            }
            for j in g.resolve(i, ci) {
                if !active(j) || summary[j].is_empty() {
                    continue;
                }
                for &h in &call.held {
                    if f.locks[h].allowed {
                        continue;
                    }
                    let Some(hid) = names.site_id(&f.locks[h]) else {
                        continue;
                    };
                    for aid in &summary[j] {
                        if *aid == hid {
                            continue;
                        }
                        edges.entry((hid.clone(), aid.clone())).or_insert((
                            format!(
                                "{} calls {} holding {}; callee may acquire {} ({}:{})",
                                f.qualified(),
                                g.fns[j].qualified(),
                                hid,
                                aid,
                                f.file,
                                call.line
                            ),
                            f.file.clone(),
                            call.line,
                        ));
                    }
                }
            }
        }
    }

    // Cycle detection over the order graph. For each edge u → v, look for
    // a path v → … → u; the pair closes a cycle. Cycles are deduplicated
    // by node set and rotated to start at the smallest id so the excerpt
    // is stable.
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (u, v) in edges.keys() {
        adj.entry(u).or_default().push(v);
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (u, v) in edges.keys() {
        let Some(path) = shortest_path(&adj, v, u) else {
            continue;
        };
        // Cycle nodes: u, v, then the path back up to (but excluding) u.
        let mut cycle = vec![u.clone(), v.clone()];
        cycle.extend(path[..path.len() - 1].iter().cloned());
        let mut key = cycle.clone();
        key.sort();
        if !reported.insert(key) {
            continue;
        }
        // Rotate so the smallest id leads.
        let min = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.as_str())
            .map_or(0, |(k, _)| k);
        cycle.rotate_left(min);
        let mut display = cycle.clone();
        display.push(cycle[0].clone());
        let mut chain = Vec::new();
        for w in display.windows(2) {
            if let Some((desc, _, _)) = edges.get(&(w[0].clone(), w[1].clone())) {
                chain.push(desc.clone());
            }
        }
        let (_, file, line) = &edges[&(display[0].clone(), display[1].clone())];
        out.push(Violation {
            rule: "lock-order",
            path: file.clone(),
            line: *line,
            excerpt: format!("lock-order cycle: {}", display.join(" -> ")),
            chain,
        });
    }
    out
}

/// BFS shortest path `from` → … → `to` over the order graph; returns the
/// node list starting *after* `from` and ending at `to`.
fn shortest_path(
    adj: &BTreeMap<&String, Vec<&String>>,
    from: &String,
    to: &String,
) -> Option<Vec<String>> {
    let mut parent: HashMap<&String, &String> = HashMap::new();
    let mut queue: VecDeque<&String> = VecDeque::new();
    queue.push_back(from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut rev = vec![n.clone()];
            let mut cur = n;
            while let Some(&p) = parent.get(cur) {
                rev.push(p.clone());
                cur = p;
            }
            // `rev` ends at `from`; we want the path after `from`.
            rev.pop();
            rev.reverse();
            return Some(rev);
        }
        for &next in adj.get(n).into_iter().flatten() {
            if next != from && !parent.contains_key(next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        graph_scan(&sources)
    }

    fn rule<'a>(vs: &'a [Violation], name: &str) -> Vec<&'a Violation> {
        vs.iter().filter(|v| v.rule == name).collect()
    }

    // -- deadline-reachability -------------------------------------------

    const STORAGE_TABLE: &str = "pub struct Table;\nimpl Table {\n    pub fn scan_window(&self, key: u64, lo: u64, hi: u64) -> u32 { 0 }\n}\n";

    #[test]
    fn planted_deadline_dropping_call_is_flagged_with_chain() {
        let vs = scan(&[
            ("crates/storage/src/table.rs", STORAGE_TABLE),
            (
                "crates/online/src/engine.rs",
                "pub struct Engine { t: Table }\nimpl Engine {\n    pub fn execute_request(&self, q: u64, opts: &RequestOptions) -> u32 {\n        self.helper(q)\n    }\n    fn helper(&self, q: u64) -> u32 {\n        self.t.scan_window(q, 0, 100)\n    }\n}\n",
            ),
        ]);
        let hits = rule(&vs, "deadline-reachability");
        assert_eq!(hits.len(), 1, "{vs:#?}");
        let v = hits[0];
        assert_eq!(v.path, "crates/online/src/engine.rs");
        assert!(
            v.excerpt.contains("online::Engine::helper"),
            "{}",
            v.excerpt
        );
        assert!(v.excerpt.contains("storage::Table::scan_window"));
        // Full chain from the root through the offender to the API.
        assert_eq!(
            v.chain,
            vec![
                "online::Engine::execute_request".to_string(),
                "online::Engine::helper".to_string(),
                "storage::Table::scan_window".to_string(),
            ]
        );
    }

    #[test]
    fn threading_request_options_silences_deadline_rule() {
        let vs = scan(&[
            ("crates/storage/src/table.rs", STORAGE_TABLE),
            (
                "crates/online/src/engine.rs",
                "pub struct Engine { t: Table }\nimpl Engine {\n    pub fn execute_request(&self, q: u64, opts: &RequestOptions) -> u32 {\n        self.helper(q, opts)\n    }\n    fn helper(&self, q: u64, opts: &RequestOptions) -> u32 {\n        self.t.scan_window(q, 0, 100)\n    }\n}\n",
            ),
        ]);
        assert!(rule(&vs, "deadline-reachability").is_empty(), "{vs:#?}");
    }

    #[test]
    fn deadline_allow_annotation_silences_the_finding() {
        let vs = scan(&[
            ("crates/storage/src/table.rs", STORAGE_TABLE),
            (
                "crates/online/src/engine.rs",
                "pub struct Engine { t: Table }\nimpl Engine {\n    pub fn execute_request(&self, q: u64, opts: &RequestOptions) -> u32 {\n        self.helper(q)\n    }\n    // analysis:allow(deadline-reachability): scan is bounded to one key.\n    fn helper(&self, q: u64) -> u32 {\n        self.t.scan_window(q, 0, 100)\n    }\n}\n",
            ),
        ]);
        assert!(rule(&vs, "deadline-reachability").is_empty(), "{vs:#?}");
    }

    #[test]
    fn unreachable_scan_callers_are_not_deadline_checked() {
        let vs = scan(&[
            ("crates/storage/src/table.rs", STORAGE_TABLE),
            (
                "crates/tools/src/dump.rs",
                "pub fn dump_all(t: &Table) -> u32 { t.scan_window(0, 0, 100) }\n",
            ),
        ]);
        assert!(rule(&vs, "deadline-reachability").is_empty(), "{vs:#?}");
    }

    // -- lock-order ------------------------------------------------------

    const TWO_LOCKS: &str = "pub struct Shard { rows: Mutex<u32>, index: Mutex<u32> }\n";

    #[test]
    fn planted_lock_order_cycle_is_flagged() {
        let vs = scan(&[(
            "crates/storage/src/shard.rs",
            &format!(
                "{TWO_LOCKS}impl Shard {{\n    fn insert(&self) {{\n        let r = self.rows.lock();\n        let i = self.index.lock();\n        drop((r, i));\n    }}\n    fn compact(&self) {{\n        let i = self.index.lock();\n        let r = self.rows.lock();\n        drop((i, r));\n    }}\n}}\n"
            ),
        )]);
        let hits = rule(&vs, "lock-order");
        assert_eq!(hits.len(), 1, "{vs:#?}");
        let v = hits[0];
        assert_eq!(
            v.excerpt,
            "lock-order cycle: Shard.index -> Shard.rows -> Shard.index"
        );
        assert_eq!(v.chain.len(), 2, "{:#?}", v.chain);
        assert!(
            v.chain.iter().any(|c| c.contains("insert")),
            "{:#?}",
            v.chain
        );
        assert!(v.chain.iter().any(|c| c.contains("compact")));
    }

    #[test]
    fn cross_function_cycle_through_calls_is_flagged() {
        let vs = scan(&[(
            "crates/storage/src/shard.rs",
            &format!(
                "{TWO_LOCKS}impl Shard {{\n    fn insert(&self) {{\n        let r = self.rows.lock();\n        self.reindex();\n        drop(r);\n    }}\n    fn reindex(&self) {{\n        let i = self.index.lock();\n        drop(i);\n    }}\n    fn compact(&self) {{\n        let i = self.index.lock();\n        self.touch_rows();\n        drop(i);\n    }}\n    fn touch_rows(&self) {{\n        let r = self.rows.lock();\n        drop(r);\n    }}\n}}\n"
            ),
        )]);
        let hits = rule(&vs, "lock-order");
        assert_eq!(hits.len(), 1, "{vs:#?}");
        assert!(hits[0].chain.iter().any(|c| c.contains("may acquire")));
    }

    #[test]
    fn consistent_lock_order_is_quiet() {
        let vs = scan(&[(
            "crates/storage/src/shard.rs",
            &format!(
                "{TWO_LOCKS}impl Shard {{\n    fn insert(&self) {{\n        let r = self.rows.lock();\n        let i = self.index.lock();\n        drop((r, i));\n    }}\n    fn compact(&self) {{\n        let r = self.rows.lock();\n        let i = self.index.lock();\n        drop((r, i));\n    }}\n}}\n"
            ),
        )]);
        assert!(rule(&vs, "lock-order").is_empty(), "{vs:#?}");
    }

    #[test]
    fn lock_order_allow_annotation_silences_the_cycle() {
        let vs = scan(&[(
            "crates/storage/src/shard.rs",
            &format!(
                "{TWO_LOCKS}impl Shard {{\n    fn insert(&self) {{\n        let r = self.rows.lock();\n        let i = self.index.lock();\n        drop((r, i));\n    }}\n    // analysis:allow(lock-order): compaction runs single-threaded at startup.\n    fn compact(&self) {{\n        let i = self.index.lock();\n        let r = self.rows.lock();\n        drop((i, r));\n    }}\n}}\n"
            ),
        )]);
        assert!(rule(&vs, "lock-order").is_empty(), "{vs:#?}");
    }

    #[test]
    fn rwlock_read_write_count_as_acquisitions() {
        let vs = scan(&[(
            "crates/storage/src/db.rs",
            "pub struct Db { tables: RwLock<u32>, meta: Mutex<u32> }\nimpl Db {\n    fn a(&self) {\n        let t = self.tables.read();\n        let m = self.meta.lock();\n        drop((t, m));\n    }\n    fn b(&self) {\n        let m = self.meta.lock();\n        let t = self.tables.write();\n        drop((m, t));\n    }\n}\n",
        )]);
        assert_eq!(rule(&vs, "lock-order").len(), 1, "{vs:#?}");
    }

    #[test]
    fn plain_read_write_methods_are_not_locks() {
        // `.read()`/`.write()` on receivers that are not declared RwLock
        // fields (e.g. io::Read) must not create phantom lock nodes.
        let vs = scan(&[(
            "crates/storage/src/io.rs",
            "pub struct Wal { file: u32, meta: Mutex<u32> }\nimpl Wal {\n    fn flush(&self) {\n        let m = self.meta.lock();\n        self.file.write();\n        drop(m);\n    }\n    fn load(&self) {\n        self.file.read();\n        let m = self.meta.lock();\n        drop(m);\n    }\n}\n",
        )]);
        assert!(rule(&vs, "lock-order").is_empty(), "{vs:#?}");
    }
}
