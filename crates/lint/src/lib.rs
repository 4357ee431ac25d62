//! `wivi-lint` — the workspace's in-house static-analysis pass.
//!
//! The repo's load-bearing guarantees are *source-visible*: golden
//! traces stay bitwise only if no pinned kernel reads a wall clock or
//! iterates a randomized hash table; the serving boundary stays
//! panic-free only if nobody `unwrap`s inside a frame decoder; the
//! zero-dependency policy holds only while every manifest dependency is
//! a `path` dependency. This crate reads the source the same way the
//! golden tests read the outputs, and fails CI when an invariant slips.
//!
//! Architecture (DESIGN.md §16):
//!
//! * [`lexer`] — a hand-rolled Rust lexer that separates code from
//!   comments/strings so rules never fire on text;
//! * [`rules`] — the rule engine: D-series (determinism), U-series
//!   (unsafe hygiene), A-series (atomics audit), W-series (wire
//!   safety), Z-series (policy), each with a stable id;
//! * suppressions — `// wivi-lint: allow(<rule>): <justification>`
//!   silences one rule on the same or the next line; the justification
//!   is mandatory (L-series meta-rules enforce the format).
//!
//! Entry points: [`lint_source`] / [`lint_manifest`] for one buffer
//! (what the fixture tests drive), [`lint_workspace`] for the whole
//! tree (what the `wivi-lint` binary drives).

pub mod lexer;
pub mod rules;
mod workspace;

pub use workspace::{lint_workspace, Report};

use lexer::{lex, Tok, TokKind};

/// One diagnostic: a rule firing at a file:line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Stable rule id (`"D001"`, `"W002"`, …).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub msg: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// A parsed `wivi-lint: allow(...)` comment.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// The rule being allowed (always one of [`rules::RULE_IDS`] once the
    /// L-series checks pass).
    pub rule: String,
    /// Line the comment sits on; it covers this line and the next.
    pub line: u32,
    /// The mandatory justification text.
    pub justification: String,
}

/// Lints one Rust source buffer. `path` is the workspace-relative
/// `/`-separated path — rule scoping (pinned crates, wire files, the
/// unsafe allowlist) keys off it, which is also how the fixture corpus
/// exercises scoped rules without living at the real paths.
pub fn lint_source(path: &str, src: &str) -> Vec<Diag> {
    let ctx = FileCtx::new(path, src);
    let mut diags = Vec::new();
    for check in rules::source_rules() {
        check(&ctx, &mut diags);
    }
    let (sup, mut meta) = parse_suppressions(path, &ctx);
    diags.retain(|d| {
        !sup.iter()
            .any(|s| s.rule == d.rule && ctx.allow_covers(s.line, d.line))
    });
    diags.append(&mut meta);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags.dedup();
    diags
}

/// Lints one `Cargo.toml` buffer (the Z-series manifest rules).
pub fn lint_manifest(path: &str, src: &str) -> Vec<Diag> {
    rules::check_manifest(path, src)
}

/// The suppressions declared in one source buffer (exposed so the
/// report can list every allow in force with its justification).
pub fn suppressions(path: &str, src: &str) -> Vec<Suppression> {
    let ctx = FileCtx::new(path, src);
    parse_suppressions(path, &ctx).0
}

// ---------------------------------------------------------------------
// File context: everything a rule looks at.

/// Per-line classification, for comment-block scanning.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LineKind {
    Blank,
    /// Only comment tokens (and whitespace).
    Comment,
    /// Starts with `#[` or `#![` — attributes sit between a SAFETY
    /// comment and the item it documents.
    Attribute,
    Code,
}

pub(crate) struct FileCtx<'a> {
    pub path: &'a str,
    /// Raw source lines (index 0 = line 1).
    pub lines: Vec<&'a str>,
    /// Every token, comments included.
    pub toks: Vec<Tok<'a>>,
    /// Indices into `toks` of the non-comment tokens.
    pub code: Vec<usize>,
    /// Per-line: inside a `#[cfg(test)]` region.
    test_lines: Vec<bool>,
    line_kinds: Vec<LineKind>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, src: &'a str) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let lines: Vec<&str> = src.lines().collect();
        let mut ctx = FileCtx {
            path,
            line_kinds: classify_lines(&lines, &toks),
            test_lines: vec![false; lines.len() + 2],
            lines,
            toks,
            code,
        };
        ctx.mark_test_regions();
        ctx
    }

    /// The `k`-th code token (what rules iterate).
    pub fn code_tok(&self, k: usize) -> &Tok<'a> {
        &self.toks[self.code[k]]
    }

    /// Is this code token an identifier with exactly this text?
    pub fn is_ident(&self, k: usize, text: &str) -> bool {
        let t = self.code_tok(k);
        t.kind == TokKind::Ident && t.text == text
    }

    pub fn is_punct(&self, k: usize, ch: char) -> bool {
        let t = self.code_tok(k);
        t.kind == TokKind::Punct && t.text.len() == ch.len_utf8() && t.text.starts_with(ch)
    }

    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Crate directory name: `crates/num/…` → `num`, root `src/…` →
    /// `wivi`.
    pub fn crate_name(&self) -> &str {
        match self.path.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap_or(""),
            None => "wivi",
        }
    }

    /// Library source = under `src/`, excluding `src/bin/` and
    /// `src/main.rs` (binary entry points may print; libraries may
    /// not, and the determinism rules only bind shipped library code).
    pub fn is_lib_source(&self) -> bool {
        let in_src = self.path.contains("/src/") || self.path.starts_with("src/");
        in_src && !self.path.contains("/src/bin/") && !self.path.ends_with("/main.rs")
    }

    /// First line of the statement containing code token `k`: walk back
    /// to the previous `;`, `{`, or `}` and take the next token's line.
    /// Attributes have no terminators, so `#[…]` lines above an item
    /// count into the statement — exactly what the comment scan wants.
    pub fn stmt_start_line(&self, k: usize) -> u32 {
        let mut j = k;
        while j > 0 {
            let t = self.code_tok(j - 1);
            if t.kind == TokKind::Punct && matches!(t.text, ";" | "{" | "}") {
                break;
            }
            j -= 1;
        }
        self.code_tok(j).line
    }

    /// `true` if code token `k` carries a justification comment: a
    /// comment containing `marker` on the same line, or in the
    /// contiguous comment block directly above its statement (blank
    /// and attribute lines may sit between).
    pub fn has_marker(&self, k: usize, marker: &str) -> bool {
        let line = self.code_tok(k).line;
        if self.line_comment_contains(line, marker) {
            return true;
        }
        let mut l = self.stmt_start_line(k);
        // The statement's own leading lines may be comments already
        // (block comments lex onto their start line).
        while l > 1 {
            l -= 1;
            match self.line_kinds.get(l as usize - 1) {
                Some(LineKind::Comment) => {
                    if self.line_comment_contains(l, marker) {
                        return true;
                    }
                }
                Some(LineKind::Blank | LineKind::Attribute) => continue,
                _ => break,
            }
        }
        false
    }

    /// Does an allow comment on `sup_line` cover `diag_line`? Yes when
    /// they share a line (trailing comment), or when `diag_line` is the
    /// first code line after the comment block `sup_line` belongs to —
    /// so a wrapped multi-line justification still reaches the
    /// statement beneath it.
    fn allow_covers(&self, sup_line: u32, diag_line: u32) -> bool {
        if sup_line == diag_line {
            return true;
        }
        let mut l = sup_line;
        while (l as usize) < self.lines.len() {
            l += 1;
            match self.line_kinds.get(l as usize - 1) {
                Some(LineKind::Comment | LineKind::Blank | LineKind::Attribute) => continue,
                _ => return l == diag_line,
            }
        }
        false
    }

    /// Any comment token on `line` whose text contains `marker`.
    fn line_comment_contains(&self, line: u32, marker: &str) -> bool {
        self.toks
            .iter()
            .filter(|t| t.is_comment())
            .any(|t| spans_line(t, line) && t.text.contains(marker))
    }

    /// Marks the line ranges of `#[cfg(test)]` items (mod or single
    /// item) so rules can exempt test code.
    fn mark_test_regions(&mut self) {
        let n = self.code.len();
        let mut k = 0;
        while k < n {
            if self.is_cfg_test_attr(k) {
                // Skip to the `]` closing this attribute.
                let mut depth = 0usize;
                let mut j = k;
                while j < n {
                    if self.is_punct(j, '[') {
                        depth += 1;
                    } else if self.is_punct(j, ']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let start_line = self.code_tok(k).line;
                let end_line = self.item_end_line(j + 1);
                for l in start_line..=end_line {
                    if let Some(slot) = self.test_lines.get_mut(l as usize) {
                        *slot = true;
                    }
                }
                k = j + 1;
            } else {
                k += 1;
            }
        }
    }

    /// Does code token `k` start `#[cfg(test)]` / `#[cfg(all(test,…))]`?
    fn is_cfg_test_attr(&self, k: usize) -> bool {
        if !self.is_punct(k, '#') || k + 4 >= self.code.len() {
            return false;
        }
        if !(self.is_punct(k + 1, '[') && self.is_ident(k + 2, "cfg") && self.is_punct(k + 3, '('))
        {
            return false;
        }
        // Within the cfg(...) argument, look for a bare `test`.
        let mut depth = 1usize;
        let mut j = k + 4;
        while j < self.code.len() && depth > 0 {
            if self.is_punct(j, '(') {
                depth += 1;
            } else if self.is_punct(j, ')') {
                depth -= 1;
            } else if depth >= 1 && self.is_ident(j, "test") {
                return true;
            }
            j += 1;
        }
        false
    }

    /// Last line of the item starting at code token `start`: the
    /// matching close of its first `{`, or its first top-level `;`.
    fn item_end_line(&self, start: usize) -> u32 {
        let n = self.code.len();
        let mut j = start;
        // Skip any further attributes between cfg(test) and the item.
        while j < n {
            if self.is_punct(j, ';') {
                return self.code_tok(j).line;
            }
            if self.is_punct(j, '{') {
                let mut depth = 0usize;
                while j < n {
                    if self.is_punct(j, '{') {
                        depth += 1;
                    } else if self.is_punct(j, '}') {
                        depth -= 1;
                        if depth == 0 {
                            return self.code_tok(j).line;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        self.lines.len() as u32
    }
}

/// Does token `t` (which may span lines) cover `line`?
fn spans_line(t: &Tok<'_>, line: u32) -> bool {
    let end = t.line + t.text.bytes().filter(|&b| b == b'\n').count() as u32;
    (t.line..=end).contains(&line)
}

fn classify_lines(lines: &[&str], toks: &[Tok<'_>]) -> Vec<LineKind> {
    let mut kinds: Vec<LineKind> = lines
        .iter()
        .map(|l| {
            let t = l.trim_start();
            if t.is_empty() {
                LineKind::Blank
            } else if t.starts_with("#[") || t.starts_with("#![") {
                LineKind::Attribute
            } else {
                LineKind::Code
            }
        })
        .collect();
    // A line is a comment line when its only tokens are comments; a
    // multi-line block comment claims every line it spans.
    let mut has_code = vec![false; lines.len()];
    let mut has_comment = vec![false; lines.len()];
    for t in toks {
        let start = t.line as usize - 1;
        let end = start + t.text.bytes().filter(|&b| b == b'\n').count();
        for slot in start..=end.min(lines.len().saturating_sub(1)) {
            if t.is_comment() {
                has_comment[slot] = true;
            } else {
                has_code[slot] = true;
            }
        }
    }
    for (i, kind) in kinds.iter_mut().enumerate() {
        if *kind == LineKind::Code && has_comment[i] && !has_code[i] {
            *kind = LineKind::Comment;
        }
    }
    kinds
}

// ---------------------------------------------------------------------
// Suppressions.

const ALLOW_PREFIX: &str = "wivi-lint:";

/// Extracts `wivi-lint: allow(<rule>): <justification>` comments,
/// producing the suppression list plus L-series diagnostics for
/// malformed ones. Doc comments are ignored (docs may *mention* the
/// syntax without declaring an allow).
fn parse_suppressions(path: &str, ctx: &FileCtx<'_>) -> (Vec<Suppression>, Vec<Diag>) {
    let mut sup = Vec::new();
    let mut diags = Vec::new();
    for t in ctx.toks.iter().filter(|t| t.is_comment()) {
        if t.is_doc_comment() {
            continue;
        }
        let Some(at) = t.text.find(ALLOW_PREFIX) else {
            continue;
        };
        let rest = t.text[at + ALLOW_PREFIX.len()..].trim_start();
        let diag = |msg: String| Diag {
            rule: "L001",
            path: path.to_string(),
            line: t.line,
            msg,
        };
        let Some(inner) = rest.strip_prefix("allow(") else {
            diags.push(diag(format!(
                "malformed wivi-lint comment (expected `{ALLOW_PREFIX} allow(<rule>): <justification>`)"
            )));
            continue;
        };
        let Some(close) = inner.find(')') else {
            diags.push(diag("unterminated allow(<rule>)".to_string()));
            continue;
        };
        let rule = inner[..close].trim();
        let justification = inner[close + 1..]
            .trim_start_matches([':', '-', '—', ' '])
            .trim()
            .trim_end_matches("*/")
            .trim();
        if !rules::is_known_rule(rule) {
            diags.push(Diag {
                rule: "L002",
                path: path.to_string(),
                line: t.line,
                msg: format!("allow for unknown rule `{rule}`"),
            });
            continue;
        }
        if justification.is_empty() {
            diags.push(diag(format!(
                "allow({rule}) carries no justification — say why the rule does not apply here"
            )));
            continue;
        }
        sup.push(Suppression {
            rule: rule.to_string(),
            line: t.line,
            justification: justification.to_string(),
        });
    }
    (sup, diags)
}
