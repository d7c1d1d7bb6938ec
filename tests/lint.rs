//! The workspace lint: the five source rules of `openmldb-analysis`
//! (`relaxed-ordering`, `metric-name`, `hot-path-alloc`,
//! `deadline-reachability`, `lock-order`) hold over `crates/*/src` with no
//! violation. There is no baseline: a finding is fixed, or its site carries
//! `// analysis:allow(<rule>): <reason>`.

use std::path::Path;

#[test]
fn workspace_lint_reports_no_violation() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = openmldb_analysis::analyze_repo(root).expect("read the workspace sources");
    let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
    assert!(
        violations.is_empty(),
        "{} lint violation(s):\n{}",
        violations.len(),
        report.join("\n")
    );
}
