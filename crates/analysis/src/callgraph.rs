//! Name-resolved intra-workspace call graph over the parsed facts.
//!
//! Resolution is deliberately over-approximate (documented in DESIGN.md
//! §13): method calls resolve by name + arity to *every* workspace method
//! that matches, bare calls resolve in tiers (same file → same crate →
//! whole workspace), and qualified paths (`storage::Table::open`) must
//! additionally match the candidate's self type, module, or crate. The
//! rules built on top treat an edge as "may call" — good enough to prove
//! absence (no deadline-dropping scan, no lock-order cycle) at the cost of
//! occasional false positives that the `analysis:allow` annotations absorb.

use crate::parse::{FnItem, ParsedFile};
use std::collections::{HashMap, VecDeque};

/// The whole-workspace graph: flattened functions plus resolved edges.
pub struct CallGraph {
    pub fns: Vec<FnItem>,
    /// `edges[i]` = indices of functions that `fns[i]` may call, in call
    /// order, deduplicated.
    pub edges: Vec<Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the graph from every parsed file in the workspace.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let fns: Vec<FnItem> = files.iter().flat_map(|f| f.fns.iter().cloned()).collect();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut g = CallGraph {
            edges: vec![Vec::new(); fns.len()],
            fns,
            by_name,
        };
        for i in 0..g.fns.len() {
            g.resolve_edges(i);
        }
        g
    }

    /// Candidate callees for call site `c` of function `i`.
    pub fn resolve(&self, i: usize, c: usize) -> Vec<usize> {
        let caller = &self.fns[i];
        let call = &caller.calls[c];
        let name = match call.path.last() {
            Some(n) => n,
            None => return Vec::new(),
        };
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };

        if call.method {
            // `recv.name(a, b)` — any workspace method with a receiver and
            // matching arity may be the target.
            return cands
                .iter()
                .copied()
                .filter(|&j| self.fns[j].has_self && self.fns[j].params.len() == call.args)
                .collect();
        }

        if call.path.len() >= 2 {
            // Qualified path: the segment before the name must match the
            // candidate's self type, trailing module segment, or crate.
            let qual = &call.path[call.path.len() - 2];
            let qual = if qual == "Self" {
                caller.self_ty.as_deref().unwrap_or(qual)
            } else {
                qual
            };
            return cands
                .iter()
                .copied()
                .filter(|&j| {
                    let f = &self.fns[j];
                    let arity_ok = (!f.has_self && f.params.len() == call.args)
                        // UFCS: `Type::method(recv, ..)`.
                        || (f.has_self && f.params.len() + 1 == call.args);
                    arity_ok
                        && (f.self_ty.as_deref() == Some(qual)
                            || f.module.last().map(String::as_str) == Some(qual)
                            || f.crate_name == qual
                            || qual == "self" // `self::helper(..)`
                            || qual == "super"
                            || qual == "crate")
                })
                .collect();
        }

        // Bare call: prefer same-file, then same-crate, then workspace.
        let matches: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&j| !self.fns[j].has_self && self.fns[j].params.len() == call.args)
            .collect();
        for narrower in [
            matches
                .iter()
                .copied()
                .filter(|&j| self.fns[j].file == caller.file)
                .collect::<Vec<_>>(),
            matches
                .iter()
                .copied()
                .filter(|&j| self.fns[j].crate_name == caller.crate_name)
                .collect::<Vec<_>>(),
        ] {
            if !narrower.is_empty() {
                return narrower;
            }
        }
        matches
    }

    fn resolve_edges(&mut self, i: usize) {
        let mut out = Vec::new();
        for c in 0..self.fns[i].calls.len() {
            for j in self.resolve(i, c) {
                if !out.contains(&j) {
                    out.push(j);
                }
            }
        }
        self.edges[i] = out;
    }

    /// Indices of functions with the given name.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// BFS from `roots`, returning for each reached function the index of
    /// the function it was first reached from (`usize::MAX` for roots).
    /// `filter` prunes traversal (a pruned function is neither visited nor
    /// expanded).
    pub fn reach(&self, roots: &[usize], filter: impl Fn(usize) -> bool) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if filter(r) && !parent.contains_key(&r) {
                parent.insert(r, usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if filter(j) && !parent.contains_key(&j) {
                    parent.insert(j, i);
                    queue.push_back(j);
                }
            }
        }
        parent
    }

    /// Reconstruct the root → … → `target` chain from a `reach` parent
    /// map, as qualified names per hop.
    pub fn chain(&self, parent: &HashMap<usize, usize>, target: usize) -> Vec<String> {
        let mut rev = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == usize::MAX {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.iter().map(|&i| self.fns[i].qualified()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<_> = files.iter().map(|(p, s)| parse_source(p, s)).collect();
        CallGraph::build(&parsed)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.named(name)[0]
    }

    #[test]
    fn bare_calls_prefer_same_file_then_crate() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn go() { helper() }\nfn helper() {}\n",
            ),
            ("crates/a/src/other.rs", "fn helper() {}\n"),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let go = idx(&g, "go");
        assert_eq!(g.edges[go].len(), 1);
        assert_eq!(g.fns[g.edges[go][0]].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn cross_crate_bare_calls_fall_through_to_workspace() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn go() { helper(1) }\n"),
            ("crates/b/src/lib.rs", "fn helper(n: u32) {}\n"),
        ]);
        let go = idx(&g, "go");
        assert_eq!(g.edges[go], vec![idx(&g, "helper")]);
    }

    #[test]
    fn method_calls_over_approximate_by_name_and_arity() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "struct A; impl A { fn run(&self, n: u32) {} }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "struct B; impl B { fn run(&self, n: u32) {} fn run_other(&self) {} }\nfn go(b: &B) { b.run(1) }\n",
            ),
        ]);
        let go = idx(&g, "go");
        // Both `run` methods match (arity 1); `run_other` does not.
        assert_eq!(g.edges[go].len(), 2, "{:?}", g.edges[go]);
    }

    #[test]
    fn qualified_paths_filter_by_type_module_or_crate() {
        let g = graph(&[
            (
                "crates/storage/src/table.rs",
                "pub struct Table;\nimpl Table { pub fn open(p: u32) {} }\n",
            ),
            (
                "crates/online/src/lib.rs",
                "pub struct Table;\nimpl Table { pub fn open(p: u32, q: u32) {} }\nfn go() { storage::Table::open(1); }\n",
            ),
        ]);
        let go = idx(&g, "go");
        assert_eq!(g.edges[go].len(), 1);
        assert_eq!(g.fns[g.edges[go][0]].crate_name, "storage");
    }

    #[test]
    fn self_paths_resolve_through_the_impl_type() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S {\n    fn a(&self) { Self::b(1) }\n    fn b(n: u32) {}\n}\n",
        )]);
        let a = idx(&g, "a");
        assert_eq!(g.edges[a], vec![idx(&g, "b")]);
    }

    #[test]
    fn reach_and_chain_reconstruct_paths() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid() }\nfn mid() { leaf() }\nfn leaf() {}\nfn stray() {}\n",
        )]);
        let root = idx(&g, "root");
        let leaf = idx(&g, "leaf");
        let parent = g.reach(&[root], |_| true);
        assert!(parent.contains_key(&leaf));
        assert!(!parent.contains_key(&idx(&g, "stray")));
        assert_eq!(
            g.chain(&parent, leaf),
            vec![
                "a::root".to_string(),
                "a::mid".to_string(),
                "a::leaf".to_string()
            ]
        );
    }

    #[test]
    fn reach_filter_prunes_subtrees() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid() }\nfn mid() { leaf() }\nfn leaf() {}\n",
        )]);
        let root = idx(&g, "root");
        let mid = idx(&g, "mid");
        let parent = g.reach(&[root], |i| i != mid);
        assert!(!parent.contains_key(&idx(&g, "leaf")));
    }
}
