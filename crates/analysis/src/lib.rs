//! Source-level lints for the concurrency-sensitive parts of the workspace.
//!
//! The compiler enforces memory safety; these lints enforce the *project
//! conventions* that keep the unsafe and atomic-heavy code reviewable:
//!
//! * `safety-comment` — every `unsafe` token in non-test code must carry a
//!   `// SAFETY:` (or `# Safety` doc section) justification in the comment
//!   block directly above it or on the same line.
//! * `relaxed-ordering` — `Ordering::Relaxed` in `crates/storage/src` is
//!   suspect by default: relaxed loads/stores on skiplist link pointers are
//!   exactly the bug class the schedule explorer hunts. Counters, RNG seeds
//!   and pre-publication stores opt out with an
//!   `// analysis:allow(relaxed-ordering): <reason>` annotation.
//! * `panic-path` — no `.unwrap()` / `.expect(` in non-test code of the
//!   hot-path crates (`storage`, `online`, `exec`); a panic inside a request
//!   path tears down a worker thread. Provably-unreachable sites opt out
//!   with `// analysis:allow(panic-path): <reason>`.
//! * `lossy-cast` — narrowing `as` casts in the type codec
//!   (`crates/types/src/codec`) silently truncate row data; use `try_from`
//!   or annotate with `// analysis:allow(lossy-cast): <reason>`.
//! * `hot-path-alloc` — a `// HOT:` comment directly above an item marks it
//!   as steady-state request-path code; inside the item's brace span,
//!   `.clone()`, `.to_vec()` and `Vec::new()` are flagged in the hot-path
//!   crates (`storage`, `online`, `exec`). The streaming scan→aggregate
//!   pipeline's zero-allocation contract is enforced by the bench gate at
//!   runtime; this rule stops allocating idioms from creeping back in at
//!   review time. Deliberate cold branches (cold-start growth, error paths)
//!   opt out with `// analysis:allow(hot-path-alloc): <reason>`.
//! * `metric-name` — string literals registering observability metrics must
//!   follow `openmldb_<crate>_<name>_<unit>` (the convention documented in
//!   `crates/obs`); a malformed name silently fragments dashboards. Applies
//!   to every engine crate; `crates/obs` (defines the convention) and this
//!   crate (quotes prefixes) are exempt. Opt out with
//!   `// analysis:allow(metric-name): <reason>`.
//!
//! Existing, reviewed debt lives in a baseline file keyed by a
//! line-content fingerprint (not line numbers, so code motion does not
//! churn it). The lint fails only when a fingerprint's violation count
//! *grows* beyond the baseline; shrinkage is reported as stale-baseline
//! info so the file can be re-curated.
//!
//! The scanner is a line-oriented lexer, not a full parser: it strips
//! strings, char literals and comments (tracking multi-line block comments
//! and raw strings across lines), tracks `#[cfg(test)]` regions by brace
//! depth, and keeps the comment text separately so the SAFETY / allow
//! annotations can be matched against the comment channel only.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;

use lexer::{allowed, comment_block_contains, is_ident_char, preprocess};

/// Rule identifiers, in report order. The first six are line rules; the
/// last three are the call-graph rules implemented in [`rules`].
pub const RULES: [&str; 9] = [
    "safety-comment",
    "relaxed-ordering",
    "panic-path",
    "lossy-cast",
    "metric-name",
    "hot-path-alloc",
    "deadline-reachability",
    "panic-freedom",
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
    /// literal itself, so each bad name fingerprints separately; for graph
    /// rules: a stable description of the finding, line-number free).
    pub excerpt: String,
    /// For call-graph rules: the root → … → sink call chain (qualified
    /// function names). Excluded from the fingerprint so intermediate
    /// refactors do not churn the baseline.
    pub chain: Vec<String>,
}

impl Violation {
    /// Baseline key: content-addressed, line-number free, whitespace
    /// collapsed so reformatting does not churn the baseline.
    pub fn fingerprint(&self) -> String {
        format!("{}|{}|{}", self.rule, self.path, normalize(&self.excerpt))
    }
}

fn normalize(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut last_space = true;
    for ch in code.trim().chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(ch);
            last_space = false;
        }
    }
    out
}

/// Word-boundary search for `word` in `code`.
fn contains_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let abs = start + pos;
        let before_ok =
            abs == 0 || !is_ident_char(code[..abs].chars().next_back().expect("abs > 0"));
        let after = abs + word.len();
        let after_ok =
            after >= code.len() || !is_ident_char(code[after..].chars().next().expect("in range"));
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// Cast targets that can drop value bits. Widening targets (`u64`, `i64`,
/// `f64`) are deliberately absent; `usize`/`isize` are included because
/// their width is platform-dependent.
const LOSSY_CAST_TARGETS: [&str; 9] = [
    "u8", "i8", "u16", "i16", "u32", "i32", "f32", "usize", "isize",
];

fn has_lossy_cast(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(" as ") {
        let abs = start + pos;
        let tail = code[abs + 4..].trim_start();
        let ty: String = tail.chars().take_while(|c| is_ident_char(*c)).collect();
        if LOSSY_CAST_TARGETS.contains(&ty.as_str()) {
            return true;
        }
        start = abs + 4;
    }
    false
}

/// Metric naming convention, mirrored from `crates/obs`: the lint must not
/// depend on the crate it audits, so the lists are duplicated here and the
/// obs unit tests pin both sides to the same convention.
const METRIC_CRATES: [&str; 8] = [
    "online", "core", "storage", "exec", "sql", "bench", "obs", "chaos",
];
const METRIC_UNITS: [&str; 8] = [
    "total", "bytes", "ns", "ms", "seconds", "ratio", "rows", "count",
];
const METRIC_LABEL_KEYS: [&str; 5] = ["deployment", "worker", "key", "quantile", "stage"];

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

/// Checks `openmldb_<crate>_<name>_<unit>` plus an optional
/// `{key="value",...}` label suffix whose keys must come from the closed
/// [`METRIC_LABEL_KEYS`] vocabulary. Mirrors
/// `openmldb_obs::validate_metric_name` after normalizing source-literal
/// escapes.
fn valid_metric_name(name: &str) -> bool {
    let name = normalize_metric_literal(name);
    let base = name.split('{').next().unwrap_or(&name);
    let Some(rest) = base.strip_prefix("openmldb_") else {
        return false;
    };
    let Some((crate_seg, tail)) = rest.split_once('_') else {
        return false;
    };
    if !METRIC_CRATES.contains(&crate_seg) {
        return false;
    }
    let Some((stem, unit)) = tail.rsplit_once('_') else {
        return false;
    };
    if stem.is_empty() || !METRIC_UNITS.contains(&unit) {
        return false;
    }
    if !base
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return false;
    }
    valid_label_suffix(&name[base.len()..])
}

/// Mirrors `openmldb_obs::validate_label_suffix`: empty is fine, otherwise
/// every `key="value"` pair needs a vocabulary key and a double-quoted
/// value with no embedded `"`.
fn valid_label_suffix(suffix: &str) -> bool {
    if suffix.is_empty() {
        return true;
    }
    let Some(inner) = suffix.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
        return false;
    };
    if inner.is_empty() {
        return false;
    }
    inner.split(',').all(|pair| {
        let Some((k, v)) = pair.split_once('=') else {
            return false;
        };
        METRIC_LABEL_KEYS.contains(&k)
            && v.len() >= 2
            && v.starts_with('"')
            && v.ends_with('"')
            && !v[1..v.len() - 1].contains('"')
    })
}

/// Which rules apply to a repo-relative path.
fn rules_for(path: &str) -> Vec<&'static str> {
    let mut rules = Vec::new();
    if path.starts_with("crates/") && path.contains("/src/") {
        rules.push("safety-comment");
    }
    if path.starts_with("crates/")
        && path.contains("/src/")
        // obs defines the convention (its validator quotes the bare prefix);
        // this crate mirrors it. Both would self-flag.
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
        // The serving path now spans core (request dispatch, failover
        // registry) and chaos (inlined into every injection site): a panic
        // there takes down the same requests a storage panic would.
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/chaos/src/")
    {
        rules.push("panic-path");
    }
    if path.starts_with("crates/types/src/codec") {
        rules.push("lossy-cast");
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
        if rules.contains(&"safety-comment")
            && contains_word(code, "unsafe")
            && !comment_block_contains(&lines, idx, &["SAFETY", "# Safety"])
            && !allowed(&lines, idx, "safety-comment")
        {
            violate("safety-comment", idx, code);
        }
        if rules.contains(&"relaxed-ordering")
            && code.contains("Ordering::Relaxed")
            && !allowed(&lines, idx, "relaxed-ordering")
        {
            violate("relaxed-ordering", idx, code);
        }
        if rules.contains(&"panic-path")
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !allowed(&lines, idx, "panic-path")
        {
            violate("panic-path", idx, code);
        }
        if rules.contains(&"lossy-cast")
            && has_lossy_cast(code)
            && !allowed(&lines, idx, "lossy-cast")
        {
            violate("lossy-cast", idx, code);
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
                // the excerpt is the offending name so distinct names get
                // distinct baseline fingerprints.
                if lit.starts_with("openmldb_")
                    && !valid_metric_name(lit)
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

/// Scan the whole repository rooted at `root` with the line rules only.
pub fn scan_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    for (rel, src) in read_sources(root)? {
        all.extend(scan_source(&rel, &src));
    }
    Ok(all)
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

/// Full analysis: line rules plus the three call-graph rules
/// (deadline-reachability, panic-freedom, lock-order).
pub fn analyze_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let sources = read_sources(root)?;
    let mut all = Vec::new();
    for (rel, src) in &sources {
        all.extend(scan_source(rel, src));
    }
    all.extend(rules::graph_scan(&sources));
    Ok(all)
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// Outcome of comparing a scan against the curated baseline.
#[derive(Debug, Default)]
pub struct BaselineOutcome {
    /// Violations covered by the baseline (accepted debt).
    pub baselined: Vec<Violation>,
    /// Violations beyond the baseline: these fail the run.
    pub new: Vec<Violation>,
    /// Baseline fingerprints whose count shrank (or vanished): stale debt
    /// entries, reported so the baseline can be re-curated. `(fingerprint,
    /// baseline_count, current_count)`.
    pub stale: Vec<(String, usize, usize)>,
}

/// Parse the baseline text: `<count>\t<fingerprint>` per line, `#` comments.
pub fn parse_baseline(text: &str) -> HashMap<String, usize> {
    let mut map = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((count, fp)) = line.split_once('\t') {
            if let Ok(count) = count.trim().parse::<usize>() {
                *map.entry(fp.to_string()).or_insert(0) += count;
            }
        }
    }
    map
}

/// Serialize the violation set as a fresh baseline (sorted, deduplicated).
pub fn render_baseline(violations: &[Violation]) -> String {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for v in violations {
        *counts.entry(v.fingerprint()).or_insert(0) += 1;
    }
    let mut entries: Vec<(String, usize)> = counts.into_iter().collect();
    entries.sort();
    let mut out = String::from(
        "# Curated lint debt. One entry per accepted violation:\n\
         # <count>\\t<rule>|<path>|<normalized line>\n\
         # Regenerate with: cargo run -p openmldb-analysis -- lint --write-baseline\n",
    );
    for (fp, count) in entries {
        let _ = writeln!(out, "{count}\t{fp}");
    }
    out
}

/// Split violations into baselined vs new, and find stale baseline entries.
pub fn apply_baseline(
    violations: &[Violation],
    baseline: &HashMap<String, usize>,
) -> BaselineOutcome {
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut out = BaselineOutcome::default();
    for v in violations {
        let fp = v.fingerprint();
        let n = seen.entry(fp.clone()).or_insert(0);
        *n += 1;
        if *n <= baseline.get(&fp).copied().unwrap_or(0) {
            out.baselined.push(v.clone());
        } else {
            out.new.push(v.clone());
        }
    }
    let mut stale: Vec<(String, usize, usize)> = baseline
        .iter()
        .filter_map(|(fp, b)| {
            let cur = seen.get(fp).copied().unwrap_or(0);
            (cur < *b).then(|| (fp.clone(), *b, cur))
        })
        .collect();
    stale.sort();
    out.stale = stale;
    out
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report (hand-rolled JSON; the workspace is offline and
/// carries no serialization dependency).
pub fn render_report(outcome: &BaselineOutcome) -> String {
    let mut out = String::from("{\n  \"tool\": \"openmldb-analysis\",\n  \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{r}\"");
    }
    let total = outcome.baselined.len() + outcome.new.len();
    let _ = write!(
        out,
        "],\n  \"total\": {}, \"baselined\": {}, \"new\": {}, \"stale_baseline_entries\": {},\n",
        total,
        outcome.baselined.len(),
        outcome.new.len(),
        outcome.stale.len()
    );
    out.push_str("  \"violations\": [\n");
    let mut first = true;
    for (status, v) in outcome
        .new
        .iter()
        .map(|v| ("new", v))
        .chain(outcome.baselined.iter().map(|v| ("baselined", v)))
    {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"status\": \"{}\", \"excerpt\": \"{}\"",
            v.rule,
            json_escape(&v.path),
            v.line,
            status,
            json_escape(&v.excerpt)
        );
        if !v.chain.is_empty() {
            out.push_str(", \"chain\": [");
            for (i, hop) in v.chain.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", json_escape(hop));
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORAGE: &str = "crates/storage/src/x.rs";

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "fn f() {\n    unsafe { danger() };\n}\n";
        let v = scan_source(STORAGE, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_satisfies() {
        let above = "fn f() {\n    // SAFETY: pointer is pinned.\n    unsafe { danger() };\n}\n";
        assert!(scan_source(STORAGE, above).is_empty());
        let inline = "fn f() {\n    unsafe { danger() }; // SAFETY: pinned.\n}\n";
        assert!(scan_source(STORAGE, inline).is_empty());
        let doc = "/// Frees the node.\n///\n/// # Safety\n/// Caller holds the guard.\npub unsafe fn free() {}\n";
        assert!(scan_source(STORAGE, doc).is_empty());
    }

    #[test]
    fn safety_comment_survives_interleaved_attributes() {
        let src = "// SAFETY: single-threaded registry.\n#[inline]\nunsafe fn g() {}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

    #[test]
    fn unsafe_inside_strings_and_comments_is_ignored() {
        let src = "fn f() {\n    let s = \"unsafe\";\n    // unsafe in prose\n    /* unsafe block comment */\n}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

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
    fn panic_path_flags_unwrap_and_expect_in_hot_crates() {
        let src = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\nfn g(o: Option<u32>) -> u32 {\n    o.expect(\"set\")\n}\n";
        for path in [
            "crates/storage/src/x.rs",
            "crates/online/src/x.rs",
            "crates/exec/src/x.rs",
            "crates/core/src/x.rs",
            "crates/chaos/src/x.rs",
        ] {
            let v = scan_source(path, src);
            assert_eq!(v.len(), 2, "{path}");
            assert!(v.iter().all(|v| v.rule == "panic-path"));
        }
        // Out-of-scope crate: no rule.
        assert!(scan_source("crates/sql/src/x.rs", src).is_empty());
        // unwrap_or / expect_err are not panic paths.
        let fine = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap_or(0)\n}\n";
        assert!(scan_source(STORAGE, fine).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn hot() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x: Option<u32> = Some(1);\n        x.unwrap();\n        unsafe { core::hint::unreachable_unchecked() };\n    }\n}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

    #[test]
    fn code_after_test_region_is_scanned_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\nfn hot(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        let v = scan_source(STORAGE, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 7);
    }

    #[test]
    fn lossy_cast_in_codec_only() {
        let src = "fn f(x: u64) -> u32 {\n    x as u32\n}\n";
        let v = scan_source("crates/types/src/codec/mod.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lossy-cast");
        assert!(scan_source(STORAGE, src).is_empty());

        let widening = "fn f(x: u32) -> u64 {\n    x as u64\n}\n";
        assert!(scan_source("crates/types/src/codec/mod.rs", widening).is_empty());

        let annotated = "fn f(x: u64) -> u32 {\n    // analysis:allow(lossy-cast): bounded by header check above.\n    x as u32\n}\n";
        assert!(scan_source("crates/types/src/codec/mod.rs", annotated).is_empty());
    }

    #[test]
    fn metric_name_convention_enforced() {
        // Well-formed names in every position pass.
        let good = "fn f(r: &Registry) {\n    r.counter(\"openmldb_storage_seeks_total\", \"h\");\n    r.gauge(\"openmldb_core_memory_used_bytes\", \"h\");\n}\n";
        assert!(scan_source(STORAGE, good).is_empty());

        // A `{label="..."}` suffix (format-string escaped) is ignored when
        // validating the base name.
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
    fn metric_name_validator_mirrors_obs() {
        // The lint must not depend on the crate it audits, so the validator
        // is duplicated; this pins both copies to the same convention.
        let corpus = [
            "openmldb_online_requests_total",
            "openmldb_storage_scan_len_rows",
            "openmldb_online_union_worker_load_rows{worker=\"3\"}",
            "openmldb_bench_p99_ms",
            "openmldb_storage_seeks",
            "openmldb_web_requests_total",
            "openmldb_storage_Seeks_total",
            "openmldb__total",
            "openmldb_",
            "requests_total",
            // Tail-latency attribution names: the obs and chaos crates now
            // register their own metrics, and the bench harness publishes
            // tailtrace gate tallies.
            "openmldb_obs_postmortems_total",
            "openmldb_chaos_injected_faults_total",
            "openmldb_bench_tailtrace_anomalies_total",
            "openmldb_bench_tailtrace_postmortems_total",
            // Workload-attribution names: labeled series keep the bare-name
            // convention; suffixes must use vocabulary keys + quoted values.
            "openmldb_online_deployment_requests_total",
            "openmldb_online_deployment_requests_total{deployment=\"d1\"}",
            "openmldb_online_deployment_duration_ns{deployment=\"d1\",quantile=\"0.99\"}",
            "openmldb_online_x_total{tenant=\"d1\"}",
            "openmldb_online_x_total{deployment=d1}",
            "openmldb_online_x_total{deployment=\"a\"b\"}",
            "openmldb_online_x_total{}",
            // Durability names: the WAL/snapshot layer lives in storage and
            // recovery accounting in core.
            "openmldb_storage_wal_appends_total",
            "openmldb_storage_wal_bytes_total",
            "openmldb_storage_wal_fsyncs_total",
            "openmldb_storage_wal_torn_tails_total",
            "openmldb_storage_snapshots_total",
            "openmldb_storage_snapshot_bytes_total",
            "openmldb_storage_snapshots_invalid_total",
            "openmldb_core_recoveries_total",
            "openmldb_core_recovered_rows_total",
            "openmldb_core_recovery_duration_ms",
            // Compiled-program names: deploy-time specialization in exec,
            // per-request compiled-window attribution in online.
            "openmldb_exec_program_plans_total",
            "openmldb_exec_program_windows_total",
            "openmldb_online_compiled_windows_total",
            // Consistency-sentinel names: warm-path sampling and the
            // background audit live in online; the HTTP exposition counter
            // in obs.
            "openmldb_online_sentinel_samples_total",
            "openmldb_online_sentinel_audits_total",
            "openmldb_online_sentinel_divergences_total",
            "openmldb_online_sentinel_stale_skips_total",
            "openmldb_online_sentinel_dropped_total",
            "openmldb_online_sentinel_errors_total",
            "openmldb_online_sentinel_lag_count",
            "openmldb_online_deployment_divergences_total",
            "openmldb_online_deployment_divergences_total{deployment=\"d1\"}",
            "openmldb_obs_ops_requests_total",
        ];
        for name in [
            "openmldb_obs_postmortems_total",
            "openmldb_chaos_injected_faults_total",
            "openmldb_bench_tailtrace_anomalies_total",
            "openmldb_bench_tailtrace_postmortems_total",
            "openmldb_storage_wal_appends_total",
            "openmldb_storage_wal_bytes_total",
            "openmldb_storage_wal_fsyncs_total",
            "openmldb_storage_wal_torn_tails_total",
            "openmldb_storage_snapshots_total",
            "openmldb_storage_snapshot_bytes_total",
            "openmldb_storage_snapshots_invalid_total",
            "openmldb_core_recoveries_total",
            "openmldb_core_recovered_rows_total",
            "openmldb_core_recovery_duration_ms",
            "openmldb_exec_program_plans_total",
            "openmldb_exec_program_windows_total",
            "openmldb_online_compiled_windows_total",
            "openmldb_online_sentinel_samples_total",
            "openmldb_online_sentinel_audits_total",
            "openmldb_online_sentinel_divergences_total",
            "openmldb_online_sentinel_stale_skips_total",
            "openmldb_online_sentinel_dropped_total",
            "openmldb_online_sentinel_errors_total",
            "openmldb_online_sentinel_lag_count",
            "openmldb_online_deployment_divergences_total",
            "openmldb_obs_ops_requests_total",
        ] {
            assert!(valid_metric_name(name), "{name} must satisfy the lint");
        }
        for name in corpus {
            assert_eq!(
                valid_metric_name(name),
                openmldb_obs::validate_metric_name(name),
                "validators diverge on {name:?}"
            );
        }
        for crate_seg in METRIC_CRATES {
            assert!(openmldb_obs::METRIC_CRATES.contains(&crate_seg));
        }
        for unit in METRIC_UNITS {
            assert!(openmldb_obs::METRIC_UNITS.contains(&unit));
        }
        for key in METRIC_LABEL_KEYS {
            assert!(openmldb_obs::METRIC_LABEL_KEYS.contains(&key));
        }
        assert_eq!(METRIC_CRATES.len(), openmldb_obs::METRIC_CRATES.len());
        assert_eq!(METRIC_UNITS.len(), openmldb_obs::METRIC_UNITS.len());
        assert_eq!(
            METRIC_LABEL_KEYS.len(),
            openmldb_obs::METRIC_LABEL_KEYS.len()
        );
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
        let src = "fn f() -> &'static str {\n    r#\"unsafe .unwrap() Ordering::Relaxed\"#\n}\n";
        assert!(scan_source(STORAGE, src).is_empty());
    }

    #[test]
    fn baseline_absorbs_existing_debt_but_flags_growth() {
        let debt = Violation {
            rule: "panic-path",
            path: STORAGE.into(),
            line: 10,
            excerpt: "o.unwrap()".into(),
            chain: Vec::new(),
        };
        let baseline = parse_baseline(&render_baseline(std::slice::from_ref(&debt)));
        // Same debt: fully baselined.
        let ok = apply_baseline(std::slice::from_ref(&debt), &baseline);
        assert!(ok.new.is_empty());
        assert_eq!(ok.baselined.len(), 1);
        // Same line moved: still baselined (fingerprint has no line number).
        let moved = Violation {
            line: 99,
            ..debt.clone()
        };
        assert!(apply_baseline(&[moved], &baseline).new.is_empty());
        // Duplicate of the same fingerprint: growth ⇒ one new.
        let grown = apply_baseline(&[debt.clone(), debt.clone()], &baseline);
        assert_eq!(grown.new.len(), 1);
        assert_eq!(grown.baselined.len(), 1);
        // Debt paid down: stale entry reported, nothing fails.
        let paid = apply_baseline(&[], &baseline);
        assert!(paid.new.is_empty());
        assert_eq!(paid.stale.len(), 1);
    }

    #[test]
    fn baseline_is_stable_under_function_motion_and_sibling_renames() {
        // A flagged function near the top of the file, plus an unrelated
        // sibling.
        let before = "\
fn sibling_one() {}

// HOT: per-row inner loop.
fn hot_step(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}
";
        // The same flagged function moved to the bottom, the sibling
        // renamed, and extra padding shifting every line number.
        let after = "\
fn renamed_sibling() {}

fn extra_padding() {}

fn more_padding() {}

// HOT: per-row inner loop.
fn hot_step(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}
";
        let baseline = parse_baseline(&render_baseline(&scan_source(STORAGE, before)));
        let outcome = apply_baseline(&scan_source(STORAGE, after), &baseline);
        assert!(outcome.new.is_empty(), "motion churned: {:#?}", outcome.new);
        assert!(
            outcome.stale.is_empty(),
            "motion went stale: {:#?}",
            outcome.stale
        );

        // A *second* violation with identical content is still growth: the
        // baseline is count-based, not a blanket pardon for the content.
        let grown = format!(
            "{after}
// HOT: another inner loop.
fn hot_step_two(data: &[u8]) -> Vec<u8> {{
    data.to_vec()
}}
"
        );
        let outcome = apply_baseline(&scan_source(STORAGE, &grown), &baseline);
        assert_eq!(outcome.new.len(), 1, "{:#?}", outcome.new);
    }

    #[test]
    fn report_is_valid_enough_json() {
        let v = Violation {
            rule: "safety-comment",
            path: "crates/storage/src/a\"b.rs".into(),
            line: 3,
            excerpt: "unsafe { \"x\\y\" }".into(),
            chain: Vec::new(),
        };
        let outcome = apply_baseline(&[v], &HashMap::new());
        let report = render_report(&outcome);
        assert!(report.contains("\\\"b.rs"));
        assert!(report.contains("\\\\y"));
        assert!(report.contains("\"new\": 1"));
    }
}
