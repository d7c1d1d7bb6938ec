//! Line-oriented lexer: splits Rust source into a code channel, a comment
//! channel and a string-literal channel, tracking multi-line constructs
//! (block comments — which nest in Rust — and raw strings with arbitrary
//! `#` delimiters) across physical lines.
//!
//! Both the line rules in `lib.rs` and the syntax layer in [`crate::parse`]
//! consume this lexer, so a desync here arms or disarms rules on the wrong
//! lines in *every* analysis. The regression suite at the bottom pins the
//! historically buggy cases: multi-hash raw strings (`r##"..."##`) and
//! nested `/* /* */ */` block comments.

/// One physical line, split into channels.
#[derive(Debug, Default, Clone)]
pub struct LineInfo {
    pub code: String,
    pub comment: String,
    /// Contents of string literals that *start* on this line (escape
    /// sequences kept verbatim). Rules that inspect literal payloads — like
    /// `metric-name` — read this channel; the code channel only keeps the
    /// quotes.
    pub strings: Vec<String>,
    /// Inside a `#[cfg(test)]` item body (or the attribute/header lines of
    /// one) — lint rules skip these lines.
    pub in_test: bool,
    /// Inside the brace span of an item whose leading comment block carries
    /// a `// HOT:` marker — the `hot-path-alloc` rule applies here.
    pub in_hot: bool,
}

#[derive(Debug, Default)]
pub struct LexState {
    /// Nesting depth of `/* */` block comments (Rust block comments nest).
    block_comment: usize,
    /// Inside an unterminated `"` string continued on the next line.
    in_string: bool,
    /// Inside a raw string; the payload is the `#` count of its delimiter.
    in_raw_string: Option<usize>,
}

/// Lex one physical line into (code, comment, string-literal contents),
/// updating cross-line state. Only literals that *start* on this line are
/// collected; a literal left open at end of line yields its first-line
/// fragment (metric names never wrap).
pub fn lex_line(line: &str, st: &mut LexState) -> (String, String, Vec<String>) {
    let chars: Vec<char> = line.chars().collect();
    let n = chars.len();
    let mut code = String::new();
    let mut comment = String::new();
    let mut strings = Vec::new();
    // Payload of the literal currently being collected; `None` while outside
    // a literal or inside one continued from a previous line.
    let mut lit: Option<String> = None;
    let mut i = 0;

    while i < n {
        if st.block_comment > 0 {
            if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                st.block_comment -= 1;
                i += 2;
            } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                st.block_comment += 1;
                i += 2;
            } else {
                comment.push(chars[i]);
                i += 1;
            }
            continue;
        }
        if let Some(hashes) = st.in_raw_string {
            // Close on `"` followed by at least `hashes` `#` characters,
            // consuming exactly the delimiter (`1 + hashes` chars) — any
            // surplus `#` is ordinary code, as in Rust itself.
            if chars[i] == '"' && chars[i + 1..].iter().take_while(|c| **c == '#').count() >= hashes
            {
                st.in_raw_string = None;
                if let Some(s) = lit.take() {
                    strings.push(s);
                }
                // Represent the closing delimiter with the quote the opener
                // did not emit, so quote-counting heuristics stay balanced.
                code.push('"');
                i += 1 + hashes;
            } else {
                if let Some(s) = lit.as_mut() {
                    s.push(chars[i]);
                }
                i += 1;
            }
            continue;
        }
        if st.in_string {
            if chars[i] == '\\' {
                if let Some(s) = lit.as_mut() {
                    s.push(chars[i]);
                    if i + 1 < n {
                        s.push(chars[i + 1]);
                    }
                }
                i += 2;
            } else if chars[i] == '"' {
                st.in_string = false;
                if let Some(s) = lit.take() {
                    strings.push(s);
                }
                code.push('"');
                i += 1;
            } else {
                if let Some(s) = lit.as_mut() {
                    s.push(chars[i]);
                }
                i += 1;
            }
            continue;
        }
        match chars[i] {
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                comment.push_str(&line[line.char_indices().nth(i).map_or(0, |(b, _)| b)..]);
                i = n;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                st.block_comment += 1;
                i += 2;
            }
            'r' | 'b'
                if raw_string_hashes(&chars[i..]).is_some()
                    // Not part of a longer identifier like `avatar"`.
                    && (i == 0 || !is_ident_char(chars[i - 1])) =>
            {
                let (prefix_len, hashes) =
                    raw_string_hashes(&chars[i..]).expect("checked by guard");
                code.push('"');
                st.in_raw_string = Some(hashes);
                lit = Some(String::new());
                i += prefix_len;
            }
            '"' => {
                code.push('"');
                st.in_string = true;
                lit = Some(String::new());
                i += 1;
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // chars; a lifetime is `'` + identifier with no closing `'`.
                if i + 1 < n && chars[i + 1] == '\\' {
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    code.push_str("' '");
                    i += 1;
                } else if i + 2 < n && chars[i + 2] == '\'' {
                    code.push_str("' '");
                    i += 3;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            c => {
                code.push(c);
                i += 1;
            }
        }
    }
    // Literal still open at end of line: keep its first-line fragment.
    if let Some(s) = lit {
        strings.push(s);
    }
    (code, comment, strings)
}

/// Detect `r"`, `r#"`, `br##"`, ... at the slice start. Returns
/// (prefix length in chars, hash count).
pub fn raw_string_hashes(chars: &[char]) -> Option<(usize, usize)> {
    let mut i = 0;
    if chars.first() == Some(&'b') {
        i += 1;
    }
    if chars.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    let hashes = chars[i..].iter().take_while(|c| **c == '#').count();
    i += hashes;
    if chars.get(i) == Some(&'"') {
        Some((i + 1, hashes))
    } else {
        None
    }
}

pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex the whole file and mark `#[cfg(test)]` regions.
pub fn preprocess(src: &str) -> Vec<LineInfo> {
    let mut st = LexState::default();
    let mut lines = Vec::new();
    // Test-region tracking: once `#[cfg(test)]` is seen, everything up to
    // and including the item's closing brace is test code. `region_depth`
    // is the brace depth *outside* the item; the region ends when depth
    // falls back to it.
    let mut depth = 0usize;
    let mut pending_test = false;
    let mut test_region_depth: Option<usize> = None;
    // `// HOT:` tracking mirrors the test-region tracking: the marker arms
    // a pending flag, the next opening brace starts the region, and the
    // region ends when depth falls back to where it started.
    let mut pending_hot = false;
    let mut hot_region_depth: Option<usize> = None;

    for raw in src.lines() {
        let (code, comment, strings) = lex_line(raw, &mut st);
        let code_trim = code.trim();

        if test_region_depth.is_none()
            && (code_trim.contains("#[cfg(test)]")
                || code_trim.contains("#[cfg(all(test")
                || code_trim.contains("#[cfg(any(test"))
        {
            pending_test = true;
        }
        if hot_region_depth.is_none() && comment.contains("HOT:") {
            pending_hot = true;
        }

        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        if pending_test && opens > 0 {
            test_region_depth = Some(depth);
            pending_test = false;
        }
        if pending_hot && opens > 0 {
            hot_region_depth = Some(depth);
            pending_hot = false;
        }
        depth = (depth + opens).saturating_sub(closes);

        let in_test = pending_test || test_region_depth.is_some();
        let in_hot = hot_region_depth.is_some();
        lines.push(LineInfo {
            code,
            comment,
            strings,
            in_test,
            in_hot,
        });

        if let Some(rd) = test_region_depth {
            if depth <= rd {
                test_region_depth = None;
            }
        }
        if let Some(rd) = hot_region_depth {
            if depth <= rd {
                hot_region_depth = None;
            }
        }
    }
    lines
}

/// True when the comment channel of `line_idx` or the contiguous
/// comment/attribute block directly above it contains `needle`.
fn comment_block_contains(lines: &[LineInfo], line_idx: usize, needles: &[&str]) -> bool {
    let hit = |s: &str| needles.iter().any(|n| s.contains(n));
    if hit(&lines[line_idx].comment) {
        return true;
    }
    let mut i = line_idx;
    while i > 0 {
        i -= 1;
        let li = &lines[i];
        let code = li.code.trim();
        if code.is_empty() && !li.comment.trim().is_empty() {
            // Comment-only line: part of the block.
            if hit(&li.comment) {
                return true;
            }
        } else if code.starts_with("#[") || code.starts_with("#![") {
            // Attributes sit between the comment and the item.
            if hit(&li.comment) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

pub fn allowed(lines: &[LineInfo], line_idx: usize, rule: &str) -> bool {
    let marker = format!("analysis:allow({rule})");
    comment_block_contains(lines, line_idx, &[&marker])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channels(src: &str) -> Vec<(String, String)> {
        preprocess(src)
            .into_iter()
            .map(|li| (li.code, li.comment))
            .collect()
    }

    #[test]
    fn multi_hash_raw_string_swallows_inner_delimiters() {
        // `"#` inside an `r##"..."##` literal must not close it: everything
        // up to `"##` is literal payload, and the payload lands in the
        // string channel, not the code or comment channel.
        let src = "let s = r##\"has \"# inner and // not a comment\"##;\nlet t = x.unwrap();\n";
        let lines = preprocess(src);
        assert_eq!(lines[0].code, "let s = \"\";", "payload must be stripped");
        assert!(lines[0].comment.is_empty(), "payload leaked into comments");
        assert_eq!(
            lines[0].strings,
            vec!["has \"# inner and // not a comment".to_string()]
        );
        // The next line is back in sync: real code again.
        assert_eq!(lines[1].code, "let t = x.unwrap();");
    }

    #[test]
    fn multi_hash_raw_string_spanning_lines_resyncs() {
        let src =
            "let s = r##\"first\nmiddle \"# still inside\nend\"##; let x = f();\nlet y = g();\n";
        let lines = channels(src);
        assert_eq!(lines[0].0, "let s = \"");
        assert!(lines[1].0.is_empty(), "interior line is all literal");
        assert_eq!(lines[2].0, "\"; let x = f();");
        assert_eq!(lines[3].0, "let y = g();");
    }

    #[test]
    fn raw_string_surplus_hashes_stay_code() {
        // `r#"a"##` closes at `"#`; the surplus `#` is ordinary code.
        let src = "let s = r#\"a\"##;\n";
        let lines = channels(src);
        assert_eq!(lines[0].0, "let s = \"\"#;");
    }

    #[test]
    fn raw_string_comment_markers_do_not_arm_regions() {
        // `// HOT:` and `#[cfg(test)]` inside a raw string are payload, not
        // markers: the following function stays lintable.
        let src =
            "let s = r##\"\n// HOT: not a marker\n#[cfg(test)]\n\"##;\nfn f() {\n    g();\n}\n";
        let lines = preprocess(src);
        assert!(lines.iter().all(|li| !li.in_test), "{lines:?}");
        assert!(lines.iter().all(|li| !li.in_hot), "{lines:?}");
    }

    #[test]
    fn nested_block_comments_single_line() {
        let src = "/* outer /* inner */ tail */ let x = f();\n";
        let lines = channels(src);
        assert_eq!(lines[0].0.trim(), "let x = f();");
        assert!(lines[0].1.contains("outer"));
        assert!(lines[0].1.contains("inner"));
        assert!(lines[0].1.contains("tail"));
    }

    #[test]
    fn nested_block_comments_spanning_lines() {
        // The inner `*/` must only close the inner comment; code resumes
        // after the outer close two lines later.
        let src = "/* outer /* inner */\nstill comment */ let x = f();\nlet y = g();\n";
        let lines = channels(src);
        assert!(lines[0].0.trim().is_empty(), "{lines:?}");
        assert_eq!(lines[1].0.trim(), "let x = f();");
        assert_eq!(lines[2].0.trim(), "let y = g();");
    }

    #[test]
    fn block_comment_openers_inside_raw_strings_are_payload() {
        let src = "let s = r#\"/* not a comment\"#; let x = f();\nlet y = g();\n";
        let lines = channels(src);
        assert_eq!(lines[0].0, "let s = \"\"; let x = f();");
        assert_eq!(lines[1].0, "let y = g();");
    }

    #[test]
    fn raw_string_quote_representation_is_balanced() {
        // Openers emit one quote and closers the other, so code-channel
        // quote counts stay even (brace/quote heuristics depend on this).
        for src in [
            "let s = r\"x\";\n",
            "let s = r#\"x\"#;\n",
            "let s = br##\"x\"##;\n",
            "let s = \"x\";\n",
        ] {
            let lines = channels(src);
            let quotes = lines[0].0.matches('"').count();
            assert_eq!(quotes, 2, "{src:?} -> {:?}", lines[0].0);
        }
    }

    #[test]
    fn byte_strings_and_identifiers_ending_in_r_or_b() {
        let src = "let a = b\"bytes\"; let avatar = r; let grab = b;\n";
        let lines = preprocess(src);
        assert_eq!(lines[0].strings, vec!["bytes".to_string()]);
        assert!(lines[0].code.contains("let avatar = r"));
    }

    #[test]
    fn nested_comment_cannot_smuggle_cfg_test_into_code() {
        // If the inner `*/` wrongly closed the outer comment, the
        // `#[cfg(test)]` text would land in the code channel and disarm
        // every rule for the following item.
        let src = "/* /* */ #[cfg(test)] */\nfn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let lines = preprocess(src);
        assert!(lines[0].code.trim().is_empty(), "{:?}", lines[0].code);
        assert!(!lines[1].in_test);
    }

    #[test]
    fn line_comment_inside_block_comment_does_not_end_it() {
        let src = "/* // line marker inside\nstill */ let x = f();\n";
        let lines = channels(src);
        assert!(lines[0].0.trim().is_empty());
        assert_eq!(lines[1].0.trim(), "let x = f();");
    }
}
