//! Source-level lints for the project conventions that neither the
//! compiler nor clippy can see. Type-level rules are clippy's (root
//! `Cargo.toml`, `clippy.toml` and the crate-level attributes):
//! `undocumented_unsafe_blocks` and `missing_safety_doc` for `unsafe`,
//! `unwrap_used` / `expect_used` in storage, online and exec, and
//! `cast_possible_truncation` in `types::codec`. This crate keeps five rules:
//!
//! * `relaxed-ordering` — `Ordering::Relaxed` in `crates/storage/src` is
//!   suspect by default: relaxed loads/stores on skiplist link pointers are
//!   exactly the bug class the schedule explorer hunts. Counters, RNG seeds
//!   and pre-publication stores opt out with an
//!   `// analysis:allow(relaxed-ordering): <reason>` annotation.
//! * `hot-path-alloc` — a `// HOT:` comment directly above an item marks it
//!   as steady-state request-path code; inside the item's brace span,
//!   allocating idioms (`.clone()`, `.to_vec()`, `Vec::new()`, `format!`,
//!   ...) are flagged in the hot-path crates (`storage`, `online`, `exec`).
//!   The warm-request allocation contract is held at runtime by
//!   `tests/warm_allocs.rs`; this rule names the line at review time.
//!   Deliberate cold branches opt out with
//!   `// analysis:allow(hot-path-alloc): <reason>`.
//! * `metric-name` — string literals claiming the `openmldb_` metric
//!   namespace must pass [`openmldb_obs::validate_metric_name`]
//!   (`openmldb_<crate>_<name>_<unit>` plus an optional label suffix over a
//!   closed key vocabulary); a malformed name silently fragments
//!   dashboards. Applies to every engine crate but `crates/obs`, which
//!   defines the convention, and this one. Opt out with
//!   `// analysis:allow(metric-name): <reason>`.
//! * `deadline-reachability` and `lock-order` — the call-graph rules of
//!   [`rules`].
//!
//! There is no baseline: the root integration test `tests/lint.rs` runs
//! [`analyze_repo`] and fails on any violation, so a finding is fixed or
//! annotated at its site with the reason it is safe.
//!
//! The scanner is a line-oriented lexer, not a full parser: it strips
//! strings, char literals and comments (tracking multi-line block comments
//! and raw strings across lines), tracks `#[cfg(test)]` regions by brace
//! depth, and keeps the comment text separately so the allow annotations
//! can be matched against the comment channel only.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod rules;

use lexer::{allowed, preprocess};

/// Rule identifiers, in report order. The first three are line rules; the
/// last two are the call-graph rules implemented in [`rules`].
pub const RULES: [&str; 5] = [
    "relaxed-ordering",
    "metric-name",
    "hot-path-alloc",
    "deadline-reachability",
    "lock-order",
];

/// One lint hit at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending code line, trimmed (for `metric-name`: the offending
    /// literal itself; for graph rules: a description of the finding).
    pub excerpt: String,
    /// For call-graph rules: the root → … → sink call chain (qualified
    /// function names).
    pub chain: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.path, self.line, self.excerpt
        )?;
        for hop in &self.chain {
            write!(f, "\n    -> {hop}")?;
        }
        Ok(())
    }
}

/// Undo source-literal artifacts before validating a metric-name literal:
/// the lexer keeps `\"` escapes verbatim, and literals destined for
/// `format!` double their braces (`{{worker=\"{w}\"}}`). Interpolation
/// placeholders like `{w}` survive normalization — legal in a label *value*
/// (it stays quoted), flagged in key position (a dynamic label key defeats
/// the closed vocabulary).
fn normalize_metric_literal(lit: &str) -> String {
    let unescaped = lit.replace("\\\"", "\"");
    let mut out = String::with_capacity(unescaped.len());
    let mut chars = unescaped.chars().peekable();
    while let Some(c) = chars.next() {
        if (c == '{' || c == '}') && chars.peek() == Some(&c) {
            chars.next();
        }
        out.push(c);
    }
    out
}

/// Which rules apply to a repo-relative path.
fn rules_for(path: &str) -> Vec<&'static str> {
    let mut rules = Vec::new();
    if path.starts_with("crates/")
        && path.contains("/src/")
        // obs defines the convention and this crate matches on it: both
        // quote the bare `openmldb_` prefix and would self-flag.
        && !path.starts_with("crates/obs/src/")
        && !path.starts_with("crates/analysis/src/")
    {
        rules.push("metric-name");
    }
    if path.starts_with("crates/storage/src/") {
        rules.push("relaxed-ordering");
    }
    if path.starts_with("crates/storage/src/")
        || path.starts_with("crates/online/src/")
        || path.starts_with("crates/exec/src/")
    {
        rules.push("hot-path-alloc");
    }
    rules
}

/// Allocating idioms banned inside `// HOT:` regions. `.clone()` covers
/// `Arc` bumps too — cheap, but an `Arc` clone on the per-row path usually
/// means a borrowed read was available; annotate the deliberate ones.
/// `format!` / `vec![` / `String::new()` / `Box::new(` / `.to_string()`
/// each allocate on every evaluation; an error-message `format!` on a
/// result path that is *usually* `Ok` still belongs behind a cold branch
/// (`ok_or_else`, not `ok_or`) or an explicit allow.
const HOT_ALLOC_IDIOMS: [&str; 8] = [
    ".clone()",
    ".to_vec()",
    "Vec::new()",
    "format!",
    "vec![",
    "String::new()",
    "Box::new(",
    ".to_string()",
];

fn has_hot_alloc(code: &str) -> bool {
    HOT_ALLOC_IDIOMS.iter().any(|idiom| code.contains(idiom))
}

/// Scan one file's source. `rel_path` selects the applicable rules.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let rules = rules_for(rel_path);
    if rules.is_empty() {
        return Vec::new();
    }
    let lines = preprocess(src);
    let mut out = Vec::new();
    let mut violate = |rule: &'static str, idx: usize, code: &str| {
        out.push(Violation {
            rule,
            path: rel_path.to_string(),
            line: idx + 1,
            excerpt: code.trim().to_string(),
            chain: Vec::new(),
        });
    };

    for (idx, li) in lines.iter().enumerate() {
        if li.in_test {
            continue;
        }
        let code = &li.code;
        if code.trim().is_empty() {
            continue;
        }
        if rules.contains(&"relaxed-ordering")
            && code.contains("Ordering::Relaxed")
            && !allowed(&lines, idx, "relaxed-ordering")
        {
            violate("relaxed-ordering", idx, code);
        }
        if rules.contains(&"hot-path-alloc")
            && li.in_hot
            && has_hot_alloc(code)
            && !allowed(&lines, idx, "hot-path-alloc")
        {
            violate("hot-path-alloc", idx, code);
        }
        if rules.contains(&"metric-name") {
            for lit in &li.strings {
                // Only literals claiming the metric namespace are checked;
                // the excerpt is the offending name.
                if lit.starts_with("openmldb_")
                    && !openmldb_obs::validate_metric_name(&normalize_metric_literal(lit))
                    && !allowed(&lines, idx, "metric-name")
                {
                    violate("metric-name", idx, lit);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Repository walk
// ---------------------------------------------------------------------------

/// All `crates/*/src/**/*.rs` files under `root`, repo-relative, sorted.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for krate in read_dir_sorted(&crates)? {
        let src = krate.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every workspace source as `(repo-relative path, contents)`.
pub fn read_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        out.push((rel, src));
    }
    Ok(out)
}

/// Full analysis: the line rules plus the two call-graph rules
/// (deadline-reachability, lock-order).
pub fn analyze_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let sources = read_sources(root)?;
    let mut all = Vec::new();
    for (rel, src) in &sources {
        all.extend(scan_source(rel, src));
    }
    all.extend(rules::graph_scan(&sources));
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORAGE: &str = "crates/storage/src/x.rs";

    #[test]
    fn relaxed_ordering_needs_annotation() {
        let bare = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let v = scan_source(STORAGE, bare);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-ordering");

        let annotated = "fn f(c: &AtomicU64) {\n    // analysis:allow(relaxed-ordering): statistics counter.\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(scan_source(STORAGE, annotated).is_empty());
    }

    #[test]
    fn relaxed_ordering_scoped_to_storage() {
        let src = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(scan_source("crates/online/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_ordering_in_strings_and_comments_is_ignored() {
        let src = "fn f() {\n    let s = \"Ordering::Relaxed\";\n    // Ordering::Relaxed in prose\n    /* Ordering::Relaxed block comment */\n}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn hot() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(c: &AtomicU64) {\n        c.fetch_add(1, Ordering::Relaxed);\n    }\n}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

    #[test]
    fn code_after_test_region_is_scanned_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\nfn hot(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let v = scan_source(STORAGE, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 7);
    }

    #[test]
    fn metric_name_convention_enforced() {
        // Well-formed names in every position pass.
        let good = "fn f(r: &Registry) {\n    r.counter(\"openmldb_storage_seeks_total\", \"h\");\n    r.gauge(\"openmldb_core_memory_used_bytes\", \"h\");\n}\n";
        assert!(scan_source(STORAGE, good).is_empty());

        // A `{label="..."}` suffix (format-string escaped) is validated
        // after the source escapes are undone.
        let labeled = r#"fn f(r: &Registry) {
    r.gauge(&format!("openmldb_online_union_worker_load_rows{{worker=\"{w}\"}}"), "h");
}
"#;
        assert!(scan_source("crates/online/src/x.rs", labeled).is_empty());

        // Missing unit, unknown crate segment, uppercase: all flagged, with
        // the literal itself as the excerpt.
        let bad = "fn f(r: &Registry) {\n    r.counter(\"openmldb_storage_seeks\", \"h\");\n    r.counter(\"openmldb_web_requests_total\", \"h\");\n    r.counter(\"openmldb_storage_Seeks_total\", \"h\");\n}\n";
        let v = scan_source(STORAGE, bad);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "metric-name"));
        assert_eq!(v[0].excerpt, "openmldb_storage_seeks");
        assert_eq!(v[1].line, 3);

        // Annotation opts out; strings without the metric prefix (crate
        // names, prose) are not the rule's business.
        let annotated = "fn f(r: &Registry) {\n    // analysis:allow(metric-name): legacy dashboard key.\n    r.counter(\"openmldb_storage_seeks\", \"h\");\n    let _ = \"openmldb-analysis\";\n    let _ = \"openmldb\";\n}\n";
        assert!(scan_source(STORAGE, annotated).is_empty());
    }

    #[test]
    fn metric_label_keys_enforced() {
        // A label key outside the closed vocabulary is a violation even
        // when the base name is well-formed.
        let bad_key = r#"fn f(r: &Registry) {
    r.gauge(&format!("openmldb_online_union_worker_load_rows{{tenant=\"{w}\"}}"), "h");
}
"#;
        let v = scan_source("crates/online/src/x.rs", bad_key);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "metric-name");

        // A dynamic (interpolated) label key defeats the closed vocabulary;
        // interpolation in *value* position is fine — values are minted at
        // runtime by the label registry.
        let dynamic_key = r#"fn f(r: &Registry) {
    r.gauge(&format!("openmldb_online_load_rows{{{k}=\"x\"}}"), "h");
}
"#;
        assert_eq!(scan_source("crates/online/src/x.rs", dynamic_key).len(), 1);
        let dynamic_value = r#"fn f(r: &Registry) {
    r.gauge(&format!("openmldb_online_load_rows{{deployment=\"{d}\"}}"), "h");
}
"#;
        assert!(scan_source("crates/online/src/x.rs", dynamic_value).is_empty());

        // Unquoted values and empty label sets are violations.
        let unquoted = "fn f(r: &Registry) {\n    r.counter(\"openmldb_online_x_total{deployment=d1}\", \"h\");\n}\n";
        assert_eq!(scan_source("crates/online/src/x.rs", unquoted).len(), 1);
        let empty =
            "fn f(r: &Registry) {\n    r.counter(\"openmldb_online_x_total{}\", \"h\");\n}\n";
        assert_eq!(scan_source("crates/online/src/x.rs", empty).len(), 1);

        // Multi-label series with vocabulary keys pass.
        let multi = "fn f(r: &Registry) {\n    r.counter(\"openmldb_online_x_total{deployment=\\\"d\\\",stage=\\\"plan\\\"}\", \"h\");\n}\n";
        assert!(scan_source("crates/online/src/x.rs", multi).is_empty());
    }

    #[test]
    fn metric_name_scope_and_test_exemptions() {
        let bad = "fn f(r: &Registry) {\n    r.counter(\"openmldb_bogus\", \"h\");\n}\n";
        // The convention's own home and this linter are exempt.
        assert!(scan_source("crates/obs/src/lib.rs", bad).is_empty());
        assert!(scan_source("crates/analysis/src/lib.rs", bad).is_empty());
        // Any engine crate is in scope, including ones with no other rules.
        assert_eq!(scan_source("crates/sql/src/x.rs", bad).len(), 1);
        // Test regions keep their freedom to name things badly.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t(r: &Registry) {\n        r.counter(\"openmldb_bogus\", \"h\");\n    }\n}\n";
        assert!(scan_source(STORAGE, test_only).is_empty());
        // Metric names quoted in comments are prose, not registrations.
        let prose = "fn f() {}\n// render emits \"openmldb_bogus\" lines\n";
        assert!(scan_source(STORAGE, prose).is_empty());
    }

    #[test]
    fn hot_path_alloc_flags_marked_regions_only() {
        // Outside a HOT region: allocating idioms are fine.
        let cold = "fn setup(v: &[u32]) -> Vec<u32> {\n    v.to_vec()\n}\n";
        assert!(scan_source(STORAGE, cold).is_empty());

        // Inside: .clone(), .to_vec() and Vec::new() are each flagged.
        let hot = "// HOT: per-row scan step.\nfn scan(v: &[u32]) {\n    let a = v.to_vec();\n    let b = a.clone();\n    let c: Vec<u32> = Vec::new();\n    drop((b, c));\n}\n";
        let v = scan_source(STORAGE, hot);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "hot-path-alloc"));
        assert_eq!(v[0].line, 3);

        // The extended idiom list: format!, vec![, String::new(),
        // Box::new( and .to_string() each allocate per evaluation.
        let hot2 = "// HOT: per-row path.\nfn f(x: u32) {\n    let a = format!(\"{x}\");\n    let b = vec![x];\n    let c = String::new();\n    let d = Box::new(x);\n    let e = 1.to_string();\n    drop((a, b, c, d, e));\n}\n";
        let v = scan_source(STORAGE, hot2);
        assert_eq!(v.len(), 5, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "hot-path-alloc"));

        // `.to_string()` outside a HOT region stays legal, and an allow
        // annotation covers the extended idioms too.
        let cold2 = "fn label(x: u32) -> String {\n    x.to_string()\n}\n";
        assert!(scan_source(STORAGE, cold2).is_empty());
        let allowed2 = "// HOT: request path.\nfn f(e: &E) -> Result<(), Error> {\n    // analysis:allow(hot-path-alloc): cold error branch.\n    Err(Error::Storage(format!(\"{e}\")))\n}\n";
        assert!(scan_source(STORAGE, allowed2).is_empty());

        // The region ends with the item's closing brace.
        let after = "// HOT: tight loop.\nfn scan(v: &[u32]) -> u32 {\n    v[0]\n}\n\nfn cold(v: &[u32]) -> Vec<u32> {\n    v.to_vec()\n}\n";
        assert!(scan_source(STORAGE, after).is_empty());

        // Annotated cold branches inside a HOT region opt out.
        let annotated = "// HOT: steady-state request path.\nfn run(v: &[u32]) {\n    // analysis:allow(hot-path-alloc): cold-start growth only.\n    let grown = v.to_vec();\n    drop(grown);\n}\n";
        assert!(scan_source(STORAGE, annotated).is_empty());

        // Scoped to the hot-path crates; HOT elsewhere is just a comment.
        let src = "// HOT: marker.\nfn f(v: &[u32]) -> Vec<u32> {\n    v.to_vec()\n}\n";
        assert!(scan_source("crates/sql/src/x.rs", src).is_empty());
        for path in [
            "crates/online/src/x.rs",
            "crates/exec/src/x.rs",
            "crates/storage/src/x.rs",
        ] {
            assert_eq!(scan_source(path, src).len(), 1, "{path}");
        }

        // `HOT:` quoted in code (a string literal) does not arm the rule.
        let quoted = "fn f() {\n    let s = \"HOT: not a marker\";\n    let v: Vec<u32> = Vec::new();\n    drop((s, v));\n}\n";
        assert!(scan_source(STORAGE, quoted).is_empty());
    }

    #[test]
    fn lifetimes_do_not_confuse_the_lexer() {
        let src = "fn f<'g>(x: &'g str) -> &'g str {\n    x\n}\nfn c() -> char {\n    '\\''\n}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "fn f() -> &'static str {\n    r#\"Ordering::Relaxed\"#\n}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

    #[test]
    fn violations_print_their_site_and_chain() {
        let v = Violation {
            rule: "lock-order",
            path: STORAGE.into(),
            line: 3,
            excerpt: "lock-order cycle: A.x -> B.y -> A.x".into(),
            chain: vec!["first hop".into(), "second hop".into()],
        };
        assert_eq!(
            v.to_string(),
            "lock-order crates/storage/src/x.rs:3: lock-order cycle: A.x -> B.y -> A.x\n    -> first hop\n    -> second hop"
        );
    }
}
