//! Syntax layer: a single-pass recursive-descent parser over the lexer's
//! code channel that extracts the facts the call-graph rules need —
//! function items (with module path, `impl` self type, parameter types),
//! call sites, and lock acquisitions with their lexical guard spans.
//!
//! This is deliberately *not* a full Rust parser (the build environment is
//! offline, so `syn` is unavailable; see DESIGN.md §13 for the
//! over-approximations). It understands exactly enough structure to build
//! a name-resolved intra-workspace call graph:
//!
//! * items: `mod`/`impl`/`trait`/`fn`/`struct`/`static`, brace-balanced;
//! * calls: `foo(..)`, `path::to::foo(..)`, `recv.foo(..)`, with argument
//!   counts (closure parameter commas are excluded);
//! * lock sites: `.lock()` / `.read()` / `.write()` with the receiver's
//!   final field segment, plus which other candidate locks were lexically
//!   held at that point (`let`-bound guards live to the end of their
//!   block; temporaries to the end of their statement; guards created in
//!   an `if let`/`match` head are attributed to the following block).
//!
//! Closure bodies are attributed to the enclosing function — an
//! over-approximation that treats every closure as called where it is
//! built. Nested `fn` items are parsed as separate functions.

use crate::lexer::{self, LineInfo};

/// A parsed token: just enough shape for item recognition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Any literal (strings/chars are pre-collapsed by the lexer; numbers
    /// are collapsed here).
    Lit,
    /// A lifetime marker (`'a`), kept so it never reads as a char literal.
    Lifetime,
    /// Single punctuation character (multi-char operators arrive as
    /// consecutive puncts).
    Punct(char),
}

#[derive(Debug, Clone)]
pub struct Token {
    /// 0-based line index.
    pub line: usize,
    pub tok: Tok,
}

/// Kind of a candidate lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `.lock()` — a `Mutex` in both std and parking_lot.
    Lock,
    /// `.read()` — only a lock if the receiver field is a known `RwLock`.
    Read,
    /// `.write()` — only a lock if the receiver field is a known `RwLock`.
    Write,
}

/// A candidate lock acquisition site inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// 1-based source line.
    pub line: usize,
    /// Final field/variable segment of the receiver (`self.pool.lock()`
    /// → `pool`).
    pub recv: String,
    pub kind: LockKind,
    /// Site carries `// analysis:allow(lock-order)`.
    pub allowed: bool,
}

/// One call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// 1-based source line.
    pub line: usize,
    /// Path segments as written (`a::b::f` → `["a","b","f"]`; method
    /// calls have a single segment).
    pub path: Vec<String>,
    /// True for `recv.name(..)` method syntax.
    pub method: bool,
    /// Number of written arguments (receiver excluded).
    pub args: usize,
    /// Indices into the enclosing function's `locks` that were lexically
    /// held when this call was made.
    pub held: Vec<usize>,
}

/// A parsed function or trait-method declaration.
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate segment of the path (`crates/<name>/src/...`).
    pub crate_name: String,
    /// Enclosing `mod` path inside the file.
    pub module: Vec<String>,
    /// `impl`/`trait` type the item belongs to, if any.
    pub self_ty: Option<String>,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub has_self: bool,
    /// Type text of each non-self parameter, whitespace-normalized.
    pub params: Vec<String>,
    pub is_test: bool,
    pub calls: Vec<Call>,
    pub locks: Vec<LockSite>,
    /// `(held, acquired)` pairs of indices into `locks`: `acquired` was
    /// taken while `held` was lexically live.
    pub nested_locks: Vec<(usize, usize)>,
    /// Graph rules allowed on the whole item via
    /// `// analysis:allow(<rule>)` in its leading comment block.
    pub allows: Vec<&'static str>,
}

impl FnItem {
    /// Display name: `crate::module::Type::name`.
    pub fn qualified(&self) -> String {
        let mut out = self.crate_name.clone();
        for m in &self.module {
            out.push_str("::");
            out.push_str(m);
        }
        if let Some(ty) = &self.self_ty {
            out.push_str("::");
            out.push_str(ty);
        }
        out.push_str("::");
        out.push_str(&self.name);
        out
    }
}

/// A struct field (or static) whose declared type is a lock.
#[derive(Debug, Clone)]
pub struct LockField {
    /// Declaring struct (or `"static"` for module-level statics).
    pub owner: String,
    pub field: String,
    /// True for `RwLock`, false for `Mutex`.
    pub rw: bool,
}

/// Everything the graph rules need from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub path: String,
    pub crate_name: String,
    pub fns: Vec<FnItem>,
    pub lock_fields: Vec<LockField>,
}

/// Graph rules that honor item-level allow annotations.
pub const GRAPH_RULES: [&str; 2] = ["deadline-reachability", "lock-order"];

const KEYWORDS: [&str; 28] = [
    "let", "in", "if", "else", "while", "for", "loop", "match", "return", "break", "continue",
    "fn", "mod", "impl", "trait", "struct", "enum", "union", "static", "const", "use", "pub",
    "mut", "ref", "move", "as", "where", "unsafe",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

// ---------------------------------------------------------------------------
// Tokenizer over the lexer's code channel
// ---------------------------------------------------------------------------

/// Tokenize preprocessed lines. String/char literals were already collapsed
/// by the lexer (`""` / `' '`); numbers collapse here.
pub fn tokenize(lines: &[LineInfo]) -> Vec<Token> {
    let mut toks = Vec::new();
    for (ln, li) in lines.iter().enumerate() {
        let chars: Vec<char> = li.code.chars().collect();
        let n = chars.len();
        let mut i = 0;
        while i < n {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c == '"' {
                // The lexer's literal placeholder: `""` or a lone `"` for a
                // multi-line literal boundary.
                if i + 1 < n && chars[i + 1] == '"' {
                    i += 2;
                } else {
                    i += 1;
                }
                toks.push(Token {
                    line: ln,
                    tok: Tok::Lit,
                });
            } else if c == '\'' {
                // `' '` placeholder for a char literal, or a bare lifetime.
                if i + 2 < n && chars[i + 1] == ' ' && chars[i + 2] == '\'' {
                    toks.push(Token {
                        line: ln,
                        tok: Tok::Lit,
                    });
                    i += 3;
                } else {
                    // Lifetime: skip the identifier that follows.
                    i += 1;
                    while i < n && lexer::is_ident_char(chars[i]) {
                        i += 1;
                    }
                    toks.push(Token {
                        line: ln,
                        tok: Tok::Lifetime,
                    });
                }
            } else if c.is_ascii_digit() {
                // Number literal (incl. `0xFF`, `1_000`, `1.5e3`, suffixes).
                while i < n && (lexer::is_ident_char(chars[i]) || chars[i] == '.') {
                    // A second `.` (range `0..n`) is punctuation, not part
                    // of the number.
                    if chars[i] == '.' && i + 1 < n && chars[i + 1] == '.' {
                        break;
                    }
                    i += 1;
                }
                toks.push(Token {
                    line: ln,
                    tok: Tok::Lit,
                });
            } else if lexer::is_ident_char(c) {
                let start = i;
                while i < n && lexer::is_ident_char(chars[i]) {
                    i += 1;
                }
                toks.push(Token {
                    line: ln,
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                });
            } else {
                toks.push(Token {
                    line: ln,
                    tok: Tok::Punct(c),
                });
                i += 1;
            }
        }
    }
    toks
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    toks: &'a [Token],
    lines: &'a [LineInfo],
    pos: usize,
    out: ParsedFile,
}

/// Parse one source file into its call-graph facts.
pub fn parse_source(rel_path: &str, src: &str) -> ParsedFile {
    let lines = lexer::preprocess(src);
    let toks = tokenize(&lines);
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();
    let mut p = Parser {
        toks: &toks,
        lines: &lines,
        pos: 0,
        out: ParsedFile {
            path: rel_path.to_string(),
            crate_name,
            ..Default::default()
        },
    };
    let mut module = Vec::new();
    p.parse_items(&mut module, None);
    p.out
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.pos + off).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn is_punct(&self, off: usize, c: char) -> bool {
        matches!(self.peek_at(off), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident_at(&self, off: usize) -> Option<&str> {
        match self.peek_at(off) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Skip a balanced region opened by the token at `pos` (`(`, `[`, `{`
    /// or `<`). For `<` only `<`/`>` nest (good enough for generics in
    /// item position).
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct(c) if *c == open => depth += 1,
                Tok::Punct(c) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip to just past the next `;` or to an opening `{` (not consumed),
    /// whichever comes first — used for `where` clauses and `use` items.
    /// Returns true when stopped at a `{`.
    fn skip_to_semi_or_brace(&mut self) -> bool {
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct(';') => {
                    self.bump();
                    return false;
                }
                Tok::Punct('{') => return true,
                Tok::Punct('(') => self.skip_balanced('(', ')'),
                Tok::Punct('[') => self.skip_balanced('[', ']'),
                Tok::Punct('<') => self.skip_balanced('<', '>'),
                _ => self.bump(),
            }
        }
        false
    }

    /// Parse items until the matching `}` (consumed) or EOF.
    fn parse_items(&mut self, module: &mut Vec<String>, self_ty: Option<&str>) {
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct('}') => {
                    self.bump();
                    return;
                }
                Tok::Punct('#') => self.skip_attribute(),
                Tok::Punct('{') => {
                    // Stray block at item position (e.g. a static
                    // initializer we fell out of): descend to keep braces
                    // balanced.
                    self.bump();
                    self.parse_items(module, self_ty);
                }
                Tok::Ident(kw) => match kw.as_str() {
                    "mod" => {
                        let name = self.ident_at(1).unwrap_or("").to_string();
                        self.bump();
                        self.bump();
                        if self.is_punct(0, '{') {
                            self.bump();
                            module.push(name);
                            self.parse_items(module, self_ty);
                            module.pop();
                        } else if self.is_punct(0, ';') {
                            self.bump();
                        }
                    }
                    "impl" => {
                        self.bump();
                        if let Some(ty) = self.parse_impl_header() {
                            self.parse_items(module, Some(&ty));
                        }
                    }
                    "trait" => {
                        let name = self.ident_at(1).unwrap_or("").to_string();
                        self.bump();
                        self.bump();
                        if self.skip_to_semi_or_brace() {
                            self.bump();
                            self.parse_items(module, Some(&name));
                        }
                    }
                    "fn" => {
                        let module = module.clone();
                        self.parse_fn(&module, self_ty);
                    }
                    "struct" | "union" => {
                        self.bump();
                        self.parse_struct();
                    }
                    "static" | "const" => {
                        self.bump();
                        self.parse_static();
                    }
                    "use" | "extern" | "type" => {
                        self.bump();
                        self.skip_to_semi_or_brace();
                    }
                    "enum" => {
                        self.bump();
                        // Name + optional generics, then the variant block.
                        self.bump();
                        if self.is_punct(0, '<') {
                            self.skip_balanced('<', '>');
                        }
                        if self.is_punct(0, '{') {
                            self.skip_balanced('{', '}');
                        }
                    }
                    "macro_rules" => {
                        // macro_rules! name { ... } — opaque.
                        self.bump();
                        while let Some(t) = self.peek() {
                            if matches!(t, Tok::Punct('{')) {
                                self.skip_balanced('{', '}');
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => self.bump(),
                },
                _ => self.bump(),
            }
        }
    }

    /// Skip `#[...]` / `#![...]`.
    fn skip_attribute(&mut self) {
        self.bump();
        if self.is_punct(0, '!') {
            self.bump();
        }
        if self.is_punct(0, '[') {
            self.skip_balanced('[', ']');
        }
    }

    /// After `impl`: skip generics, read the type path (the one after
    /// `for`, if present), stop at `{` (consumed). Returns the self type's
    /// final segment.
    fn parse_impl_header(&mut self) -> Option<String> {
        if self.is_punct(0, '<') {
            self.skip_balanced('<', '>');
        }
        let mut ty: Option<String> = None;
        loop {
            match self.peek()? {
                Tok::Punct('{') => {
                    self.bump();
                    return ty;
                }
                Tok::Punct(';') => {
                    self.bump();
                    return None;
                }
                Tok::Punct('<') => self.skip_balanced('<', '>'),
                Tok::Punct('(') => self.skip_balanced('(', ')'),
                Tok::Ident(w) if w == "for" => {
                    // `impl Trait for Type` — the self type follows.
                    ty = None;
                    self.bump();
                }
                Tok::Ident(w) if w == "where" => {
                    self.bump();
                    if self.skip_to_semi_or_brace() {
                        self.bump();
                    }
                    return ty;
                }
                Tok::Ident(w) => {
                    // Track the latest path segment as the candidate type;
                    // `dyn`, `&`, lifetimes etc. just pass through.
                    if w != "dyn" && w != "mut" {
                        ty = Some(w.clone());
                    }
                    self.bump();
                }
                _ => self.bump(),
            }
        }
    }

    /// `struct Name { field: Type, ... }` — record lock-typed fields.
    fn parse_struct(&mut self) {
        let Some(name) = self.ident_at(0).map(str::to_string) else {
            return;
        };
        self.bump();
        if self.is_punct(0, '<') {
            self.skip_balanced('<', '>');
        }
        match self.peek() {
            Some(Tok::Punct('(')) => {
                // Tuple struct: no named fields to track.
                self.skip_balanced('(', ')');
                if self.is_punct(0, ';') {
                    self.bump();
                }
            }
            Some(Tok::Punct('{')) => {
                self.bump();
                self.parse_fields(&name);
            }
            Some(Tok::Ident(w)) if w == "where" => {
                let found_brace = self.skip_to_semi_or_brace();
                if found_brace {
                    self.bump();
                    self.parse_fields(&name);
                }
            }
            _ => {}
        }
    }

    /// Field list of a braced struct, until the matching `}` (consumed).
    fn parse_fields(&mut self, owner: &str) {
        loop {
            match self.peek() {
                None => return,
                Some(Tok::Punct('}')) => {
                    self.bump();
                    return;
                }
                Some(Tok::Punct('#')) => self.skip_attribute(),
                Some(Tok::Ident(w)) if w == "pub" => {
                    self.bump();
                    if self.is_punct(0, '(') {
                        self.skip_balanced('(', ')');
                    }
                }
                Some(Tok::Ident(_)) if self.is_punct(1, ':') && !self.is_punct(2, ':') => {
                    let field = self.ident_at(0).unwrap_or("").to_string();
                    self.bump();
                    self.bump();
                    // Capture the type text to the next top-level comma.
                    let mut ty = String::new();
                    let mut depth = 0i32;
                    while let Some(t) = self.peek() {
                        match t {
                            Tok::Punct(',') if depth == 0 => {
                                self.bump();
                                break;
                            }
                            Tok::Punct('}') if depth == 0 => break,
                            Tok::Punct(c @ ('<' | '(' | '[')) => {
                                ty.push(*c);
                                depth += 1;
                                self.bump();
                            }
                            Tok::Punct(c @ ('>' | ')' | ']')) => {
                                ty.push(*c);
                                depth -= 1;
                                self.bump();
                            }
                            Tok::Ident(w) => {
                                if !ty.is_empty() {
                                    ty.push(' ');
                                }
                                ty.push_str(w);
                                self.bump();
                            }
                            Tok::Punct(c) => {
                                ty.push(*c);
                                self.bump();
                            }
                            _ => self.bump(),
                        }
                    }
                    if let Some(rw) = lock_type(&ty) {
                        self.out.lock_fields.push(LockField {
                            owner: owner.to_string(),
                            field,
                            rw,
                        });
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// `static NAME: Type = ...;` / `const NAME: Type = ...;`
    fn parse_static(&mut self) {
        if matches!(self.peek(), Some(Tok::Ident(w)) if w == "mut") {
            self.bump();
        }
        let Some(name) = self.ident_at(0).map(str::to_string) else {
            return;
        };
        self.bump();
        if !self.is_punct(0, ':') {
            return;
        }
        self.bump();
        let mut ty = String::new();
        while let Some(t) = self.peek() {
            match t {
                Tok::Punct('=') | Tok::Punct(';') => break,
                Tok::Punct('<') => {
                    let len = self.balanced_len(0, '<', '>');
                    for _ in 0..len {
                        if let Some(Tok::Punct(c)) = self.peek() {
                            ty.push(*c);
                        } else if let Some(Tok::Ident(w)) = self.peek() {
                            ty.push(' ');
                            ty.push_str(w);
                        }
                        self.bump();
                    }
                }
                Tok::Ident(w) => {
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(w);
                    self.bump();
                }
                Tok::Punct(c) => {
                    ty.push(*c);
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        if let Some(rw) = lock_type(&ty) {
            self.out.lock_fields.push(LockField {
                owner: "static".to_string(),
                field: name,
                rw,
            });
        }
        // The initializer (`= expr;`) is skipped statement-wise.
        self.skip_to_semi_or_brace();
    }

    /// `fn name<..>(params) -> ret { body }` (or `;` for declarations).
    fn parse_fn(&mut self, module: &[String], self_ty: Option<&str>) {
        let fn_line = self.line();
        self.bump(); // `fn`
        let Some(name) = self.ident_at(0).map(str::to_string) else {
            return;
        };
        self.bump();
        if self.is_punct(0, '<') {
            self.skip_balanced('<', '>');
        }
        let mut item = FnItem {
            file: self.out.path.clone(),
            crate_name: self.out.crate_name.clone(),
            module: module.to_vec(),
            self_ty: self_ty.map(str::to_string),
            name,
            line: fn_line + 1,
            ..Default::default()
        };
        item.is_test = self.lines.get(fn_line).is_some_and(|li| li.in_test)
            || attr_block_has_test(self.lines, fn_line);
        for rule in GRAPH_RULES {
            if lexer::allowed(self.lines, fn_line, rule) {
                item.allows.push(rule);
            }
        }

        if self.is_punct(0, '(') {
            self.parse_params(&mut item);
        }
        // Return type / where clause: skip to the body or `;`.
        if self.skip_to_semi_or_brace() {
            self.bump(); // `{`
            self.parse_body(&mut item);
        }
        self.out.fns.push(item);
    }

    /// Parameter list: `(self, a: Ty, b: impl Fn(..))`.
    fn parse_params(&mut self, item: &mut FnItem) {
        self.bump(); // `(`
        let mut depth = 1i32;
        let mut first = true;
        let mut cur = String::new();
        let mut seen_colon = false;
        while let Some(t) = self.peek() {
            match t {
                Tok::Punct(c @ ('(' | '[' | '<')) => {
                    depth += 1;
                    if seen_colon {
                        cur.push(*c);
                    }
                    self.bump();
                }
                Tok::Punct(c @ (')' | ']' | '>')) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        break;
                    }
                    if seen_colon {
                        cur.push(*c);
                    }
                    self.bump();
                }
                Tok::Punct(',') if depth == 1 => {
                    finish_param(item, &mut cur, &mut seen_colon);
                    first = false;
                    self.bump();
                }
                Tok::Punct(':') if depth == 1 && !self.is_punct(1, ':') => {
                    seen_colon = true;
                    self.bump();
                }
                Tok::Ident(w) => {
                    if first && !seen_colon && w == "self" {
                        item.has_self = true;
                    }
                    if seen_colon {
                        if !cur.is_empty() {
                            cur.push(' ');
                        }
                        cur.push_str(w);
                    }
                    self.bump();
                }
                Tok::Punct(c) => {
                    if seen_colon {
                        cur.push(*c);
                    }
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        finish_param(item, &mut cur, &mut seen_colon);
    }

    /// Function body: extract calls and lock spans until the matching `}`
    /// (consumed).
    fn parse_body(&mut self, item: &mut FnItem) {
        // One entry per open block: candidate-lock indices `let`-bound in
        // that block.
        let mut blocks: Vec<Vec<usize>> = vec![Vec::new()];
        // Locks acquired in the current statement, not yet `let`-anchored.
        let mut stmt_locks: Vec<usize> = Vec::new();
        let mut stmt_has_let = false;

        while let Some(t) = self.peek() {
            match t {
                Tok::Punct('{') => {
                    self.bump();
                    // Guards born in this statement (if let / match / while
                    // let heads) live for the new block.
                    blocks.push(std::mem::take(&mut stmt_locks));
                    stmt_has_let = false;
                }
                Tok::Punct('}') => {
                    self.bump();
                    if blocks.len() == 1 {
                        return;
                    }
                    blocks.pop();
                }
                Tok::Punct(';') => {
                    self.bump();
                    if stmt_has_let {
                        let anchored = std::mem::take(&mut stmt_locks);
                        if let Some(top) = blocks.last_mut() {
                            top.extend(anchored);
                        }
                    } else {
                        stmt_locks.clear();
                    }
                    stmt_has_let = false;
                }
                Tok::Punct('#') => self.skip_attribute(),
                Tok::Ident(kw) if kw == "fn" => {
                    // Nested function: a sibling item, not part of this body.
                    let module = item.module.clone();
                    let self_ty = item.self_ty.clone();
                    self.parse_fn(&module, self_ty.as_deref());
                }
                Tok::Ident(kw) if kw == "let" => {
                    stmt_has_let = true;
                    self.bump();
                }
                Tok::Ident(w) => {
                    let w = w.clone();
                    let line = self.line();
                    // `name!` — macro invocation.
                    if self.is_punct(1, '!') {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    if is_keyword(&w) {
                        self.bump();
                        continue;
                    }
                    // Assemble a path: Ident (:: Ident)*, optional
                    // turbofish, then maybe `(`.
                    let method = self.prev_is_dot();
                    let mut path = vec![w];
                    let mut off = 1;
                    loop {
                        if self.is_punct(off, ':') && self.is_punct(off + 1, ':') {
                            if let Some(seg) = self.ident_at(off + 2) {
                                path.push(seg.to_string());
                                off += 3;
                                continue;
                            }
                            // Turbofish `::<..>` — skip it.
                            if self.is_punct(off + 2, '<') {
                                off += 2 + self.balanced_len(off + 2, '<', '>');
                                continue;
                            }
                        }
                        break;
                    }
                    if self.is_punct(off, '(') {
                        let args = self.count_args(off);
                        let name = path.last().cloned().unwrap_or_default();
                        let held: Vec<usize> = blocks
                            .iter()
                            .flatten()
                            .copied()
                            .chain(stmt_locks.iter().copied())
                            .collect();
                        if method && args == 0 {
                            if let Some(kind) = lock_method(&name) {
                                let recv = self.receiver_field();
                                if !recv.is_empty() {
                                    let idx = item.locks.len();
                                    for &h in &held {
                                        item.nested_locks.push((h, idx));
                                    }
                                    item.locks.push(LockSite {
                                        line: line + 1,
                                        recv,
                                        kind,
                                        allowed: lexer::allowed(self.lines, line, "lock-order"),
                                    });
                                    stmt_locks.push(idx);
                                }
                            }
                        }
                        item.calls.push(Call {
                            line: line + 1,
                            path,
                            method,
                            args,
                            held,
                        });
                        // Advance past the path; the `(` contents are
                        // re-scanned for nested calls.
                        for _ in 0..=off {
                            self.bump();
                        }
                        continue;
                    }
                    for _ in 0..off {
                        self.bump();
                    }
                }
                _ => self.bump(),
            }
        }
    }

    /// Token length of a balanced group starting at `off` (which must be
    /// the opener); 1 if unbalanced.
    fn balanced_len(&self, off: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        let mut k = off;
        while let Some(t) = self.peek_at(k) {
            match t {
                Tok::Punct(c) if *c == open => depth += 1,
                Tok::Punct(c) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        return k - off + 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        1
    }

    /// Count call arguments in the paren group starting at `off`. Top-level
    /// commas + 1, 0 for `()`. Commas inside closure parameter lists
    /// (`|a, b|`) are skipped.
    fn count_args(&self, off: usize) -> usize {
        let mut depth = 0usize;
        let mut commas = 0usize;
        let mut content = false;
        let mut k = off;
        let mut in_closure_params = false;
        while let Some(t) = self.peek_at(k) {
            match t {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                    if depth > 0 {
                        content = true;
                    }
                    depth += 1;
                }
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    content = true;
                }
                Tok::Punct('|') if depth == 1 => {
                    // Heuristic: at call-argument level, `|` brackets a
                    // closure parameter list; a binary `|` inside an
                    // unparenthesized call argument is rare.
                    in_closure_params = !in_closure_params;
                    content = true;
                }
                Tok::Punct(',') if depth == 1 && !in_closure_params => {
                    commas += 1;
                    content = true;
                }
                _ => {
                    if depth > 0 {
                        content = true;
                    }
                }
            }
            k += 1;
        }
        if !content {
            0
        } else {
            commas + 1
        }
    }

    /// True when the token before `pos` is `.` (method-call syntax).
    fn prev_is_dot(&self) -> bool {
        self.pos > 0 && matches!(self.toks[self.pos - 1].tok, Tok::Punct('.'))
    }

    /// Walking back from the `.` before the current method name: the final
    /// field/variable segment of the receiver chain
    /// (`self.pool.lock()` → `pool`, `POOL.lock()` → `POOL`).
    fn receiver_field(&self) -> String {
        // pos is at the method name; pos-1 is `.`.
        let mut k = self.pos.checked_sub(2);
        while let Some(i) = k {
            match &self.toks[i].tok {
                Tok::Ident(w) if !is_keyword(w) => return w.clone(),
                // `.0` tuple access: step back past the literal and its dot.
                Tok::Lit => {
                    if i >= 1 && matches!(self.toks[i - 1].tok, Tok::Punct('.')) {
                        k = i.checked_sub(2);
                        continue;
                    }
                    return String::new();
                }
                _ => return String::new(),
            }
        }
        String::new()
    }
}

fn finish_param(item: &mut FnItem, cur: &mut String, seen_colon: &mut bool) {
    if *seen_colon && !cur.trim().is_empty() {
        item.params.push(cur.trim().to_string());
    }
    cur.clear();
    *seen_colon = false;
}

/// `Mutex<..>` / `RwLock<..>` (std or parking_lot), possibly wrapped in
/// `Arc<..>` / tuples. Returns `Some(is_rwlock)`.
fn lock_type(ty: &str) -> Option<bool> {
    if ty.contains("RwLock") {
        Some(true)
    } else if ty.contains("Mutex") {
        Some(false)
    } else {
        None
    }
}

fn lock_method(name: &str) -> Option<LockKind> {
    match name {
        "lock" => Some(LockKind::Lock),
        "read" => Some(LockKind::Read),
        "write" => Some(LockKind::Write),
        _ => None,
    }
}

/// `#[test]` / `#[cfg(test)]` in the attribute block directly above.
fn attr_block_has_test(lines: &[LineInfo], fn_line: usize) -> bool {
    let mut i = fn_line;
    while i > 0 {
        i -= 1;
        let code = lines[i].code.trim();
        if code.starts_with("#[") || code.starts_with("#![") {
            if code.contains("test") {
                return true;
            }
        } else if !code.is_empty() || lines[i].comment.trim().is_empty() {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> ParsedFile {
        parse_source("crates/online/src/x.rs", src)
    }

    #[test]
    fn extracts_modules_impls_and_signatures() {
        let src = "mod inner {\n    pub struct Engine { pool: Mutex<Vec<u8>> }\n    impl Engine {\n        pub fn run(&self, n: usize, opts: &RequestOptions) -> u32 { helper(n) }\n    }\n    fn helper(n: usize) -> u32 { n as u32 }\n}\n";
        let pf = fns(src);
        assert_eq!(pf.fns.len(), 2, "{:#?}", pf.fns);
        let run = &pf.fns[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.module, vec!["inner".to_string()]);
        assert_eq!(run.self_ty.as_deref(), Some("Engine"));
        assert!(run.has_self);
        assert_eq!(
            run.params,
            vec!["usize".to_string(), "& RequestOptions".to_string()]
        );
        assert_eq!(run.qualified(), "online::inner::Engine::run");
        assert_eq!(run.calls.len(), 1);
        assert_eq!(run.calls[0].path, vec!["helper".to_string()]);
        assert_eq!(run.calls[0].args, 1);
        assert_eq!(pf.lock_fields.len(), 1);
        assert_eq!(pf.lock_fields[0].field, "pool");
        assert!(!pf.lock_fields[0].rw);
    }

    #[test]
    fn trait_impls_bind_the_self_type_after_for() {
        let src = "impl Visitor for Walker {\n    fn visit(&mut self) { self.step() }\n}\n";
        let pf = fns(src);
        assert_eq!(pf.fns[0].self_ty.as_deref(), Some("Walker"));
        assert_eq!(pf.fns[0].calls[0].path, vec!["step".to_string()]);
        assert!(pf.fns[0].calls[0].method);
        assert!(pf.fns[0].has_self);
    }

    #[test]
    fn method_and_path_calls_with_arity() {
        let src = "fn f(t: &Table) {\n    t.scan_window(1, 2, 3);\n    storage::Table::open(\"x\");\n    let v = Vec::<u8>::with_capacity(8);\n    drop(v);\n}\n";
        let pf = fns(src);
        let calls = &pf.fns[0].calls;
        let scan = calls
            .iter()
            .find(|c| c.path.last().unwrap() == "scan_window")
            .unwrap();
        assert!(scan.method);
        assert_eq!(scan.args, 3);
        let open = calls
            .iter()
            .find(|c| c.path.last().unwrap() == "open")
            .unwrap();
        assert_eq!(
            open.path,
            vec![
                "storage".to_string(),
                "Table".to_string(),
                "open".to_string()
            ]
        );
        assert_eq!(open.args, 1);
        let wc = calls
            .iter()
            .find(|c| c.path.last().unwrap() == "with_capacity")
            .unwrap();
        assert_eq!(wc.args, 1);
    }

    #[test]
    fn closure_commas_do_not_inflate_arity() {
        let src = "fn f(v: &[u32]) -> u32 {\n    v.iter().fold(0, |acc, x| acc + x)\n}\n";
        let pf = fns(src);
        let fold = pf.fns[0]
            .calls
            .iter()
            .find(|c| c.path[0] == "fold")
            .unwrap();
        assert_eq!(fold.args, 2);
    }

    #[test]
    fn let_bound_guards_nest_until_block_end() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn f(&self) {\n        let g = self.a.lock();\n        let h = self.b.lock();\n        drop((g, h));\n    }\n}\n";
        let pf = fns(src);
        let f = &pf.fns[0];
        assert_eq!(f.locks.len(), 2, "{:#?}", f.locks);
        assert_eq!(f.nested_locks, vec![(0, 1)]);
        assert_eq!(f.locks[0].recv, "a");
        assert_eq!(f.locks[1].recv, "b");
    }

    #[test]
    fn temporary_guards_release_at_statement_end() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn f(&self) {\n        *self.a.lock() += 1;\n        *self.b.lock() += 1;\n    }\n}\n";
        let pf = fns(src);
        assert!(pf.fns[0].nested_locks.is_empty(), "{:#?}", pf.fns[0]);
    }

    #[test]
    fn match_head_guard_lives_for_the_match_body() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn f(&self) {\n        match *self.a.lock() {\n            0 => { let g = self.b.lock(); drop(g); }\n            _ => {}\n        }\n    }\n}\n";
        let pf = fns(src);
        assert_eq!(pf.fns[0].nested_locks, vec![(0, 1)], "{:#?}", pf.fns[0]);
    }

    #[test]
    fn calls_record_held_locks() {
        let src = "struct S { a: Mutex<u32> }\nimpl S {\n    fn f(&self) {\n        let g = self.a.lock();\n        helper();\n        drop(g);\n    }\n}\nfn helper() {}\n";
        let pf = fns(src);
        let f = &pf.fns[0];
        let call = f.calls.iter().find(|c| c.path[0] == "helper").unwrap();
        assert_eq!(call.held, vec![0]);
    }

    #[test]
    fn test_regions_and_fn_allows() {
        let src = "fn hot() { cold() }\n\n// analysis:allow(deadline-reachability): scan is bounded.\nfn cold() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::hot() }\n}\n";
        let pf = fns(src);
        assert!(!pf.fns[0].is_test);
        assert_eq!(pf.fns[1].allows, vec!["deadline-reachability"]);
        assert!(pf.fns[2].is_test);
    }

    #[test]
    fn nested_fns_are_siblings_not_body() {
        let src = "fn outer() {\n    fn inner(o: Option<u32>) -> u32 { o.unwrap() }\n    inner(Some(1));\n}\n";
        let pf = fns(src);
        assert_eq!(pf.fns.len(), 2);
        let inner = pf.fns.iter().find(|f| f.name == "inner").unwrap();
        let outer = pf.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(inner.calls.iter().any(|c| c.path[0] == "unwrap"));
        assert!(!outer.calls.iter().any(|c| c.path[0] == "unwrap"));
        assert!(outer.calls.iter().any(|c| c.path[0] == "inner"));
    }

    #[test]
    fn statics_with_lock_types_are_recorded() {
        let src = "static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());\nstatic ROUTES: RwLock<u32> = RwLock::new(0);\nfn after() { helper() }\nfn helper() {}\n";
        let pf = fns(src);
        assert_eq!(pf.lock_fields.len(), 2, "{:#?}", pf.lock_fields);
        assert_eq!(pf.lock_fields[0].owner, "static");
        assert!(pf.lock_fields[1].rw);
        // Item parsing resumes cleanly after the initializers.
        assert_eq!(pf.fns.len(), 2);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait Provider {\n    fn fetch(&self, k: u64) -> u32;\n    fn double(&self, k: u64) -> u32 { self.fetch(k) * 2 }\n}\n";
        let pf = fns(src);
        assert_eq!(pf.fns.len(), 2);
        assert!(pf.fns[0].calls.is_empty());
        assert_eq!(pf.fns[0].self_ty.as_deref(), Some("Provider"));
        assert_eq!(pf.fns[1].calls[0].path, vec!["fetch".to_string()]);
    }
}
