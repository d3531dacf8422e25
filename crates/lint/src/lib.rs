//! `mmdb-lint` — a workspace invariant linter (DESIGN.md §13).
//!
//! Four hand-maintained conventions in this codebase are load-bearing
//! but invisible to the compiler: dirty-partition marking (commit and
//! checkpoint durability), lock-acquisition order (the upcoming
//! multi-session 2PL), panic-free hot kernels, and `check`-feature
//! gating of the
//! verification hooks. `mmdb-check` (PR 2) verifies runtime *state*;
//! this crate is its compile-time sibling: a std-only static pass over
//! `crates/*/src/**/*.rs` that turns those conventions into CI-gated
//! rules driven by a checked-in policy file (`mmdb-lint.policy`).
//!
//! Findings are suppressed only by an inline waiver comment with a
//! written justification (see [`lexer::WAIVER_MARKER`] for the syntax)
//! or a policy allowlist entry; the full waiver inventory is part of
//! every report so reviewers see drift.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod diag;
pub mod lexer;
pub mod policy;
pub mod rules;
pub mod scanner;

use diag::{Diagnostic, LintReport, WaiverEntry};
use lexer::Waiver;
use policy::Policy;
use scanner::FnInfo;
use std::path::Path;

/// One source file to lint: workspace-relative path plus contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// `/`-separated path, relative to the workspace root.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// A lexed + scanned file, ready for the rules.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Token stream.
    pub toks: Vec<lexer::Tok>,
    /// Function items.
    pub fns: Vec<FnInfo>,
    /// Waivers with their resolved line-coverage range.
    pub waivers: Vec<(Waiver, (u32, u32))>,
    /// Malformed-waiver issues.
    pub issues: Vec<(u32, String)>,
}

/// The scanned workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All scanned files, in path order.
    pub files: Vec<ScannedFile>,
}

/// Lex and scan sources into a [`Workspace`].
#[must_use]
pub fn scan_sources(files: &[SourceFile]) -> Workspace {
    let mut ws = Workspace::default();
    for f in files {
        let lexed = lexer::lex(&f.text);
        let fns = scanner::scan(&lexed.toks);
        let waivers = lexed
            .waivers
            .into_iter()
            .map(|w| {
                let covers = waiver_scope(&w, &lexed.toks, &fns);
                (w, covers)
            })
            .collect();
        ws.files.push(ScannedFile {
            path: f.path.clone(),
            toks: lexed.toks,
            fns,
            waivers,
            issues: lexed.issues,
        });
    }
    ws.files.sort_by(|a, b| a.path.cmp(&b.path));
    ws
}

/// Which lines a waiver silences. A trailing waiver covers its own
/// line. An own-line waiver directly above a function item (attributes
/// and qualifiers included) covers the whole function; otherwise it
/// covers the next code line.
fn waiver_scope(w: &Waiver, toks: &[lexer::Tok], fns: &[FnInfo]) -> (u32, u32) {
    if !w.own_line {
        return (w.line, w.line);
    }
    let Some(next) = toks.iter().position(|t| t.line > w.line) else {
        return (w.line, w.line);
    };
    for f in fns {
        let header_end = f.body.map_or(f.header_start, |(open, _)| open);
        if next >= f.header_start && next <= header_end {
            let from = toks.get(f.header_start).map_or(f.line, |t| t.line);
            return (from, f.end_line);
        }
    }
    let line = toks[next].line;
    (line, line)
}

/// Lint in-memory sources against a policy. This is the core the CLI,
/// the self-tests, and other crates' regression tests all share.
#[must_use]
pub fn lint(files: &[SourceFile], policy: &Policy) -> LintReport {
    let ws = scan_sources(files);
    let mut raw: Vec<Diagnostic> = Vec::new();
    rules::dirty_mark::run(&ws, policy, &mut raw);
    rules::lock_order::run(&ws, policy, &mut raw);
    rules::panic_path::run(&ws, policy, &mut raw);
    rules::feature_gate::run(&ws, policy, &mut raw);

    let mut report = LintReport {
        files_scanned: ws.files.len(),
        ..LintReport::default()
    };

    // Malformed waivers are findings themselves and cannot be waived.
    for file in &ws.files {
        for (line, msg) in &file.issues {
            report.findings.push(Diagnostic {
                file: file.path.clone(),
                line: *line,
                rule: "bad-waiver".to_string(),
                message: msg.clone(),
                hint: format!(
                    "waiver syntax: `// {} allow(<rule, …>) — <justification>`",
                    lexer::WAIVER_MARKER
                ),
            });
        }
    }

    // Apply waivers.
    let mut used: Vec<Vec<bool>> = ws
        .files
        .iter()
        .map(|f| vec![false; f.waivers.len()])
        .collect();
    for d in raw {
        let fi = ws.files.iter().position(|f| f.path == d.file);
        let mut waived_by: Option<String> = None;
        if let Some(fi) = fi {
            for (wi, (w, covers)) in ws.files[fi].waivers.iter().enumerate() {
                if w.rules.iter().any(|r| r == &d.rule) && covers.0 <= d.line && d.line <= covers.1
                {
                    waived_by = Some(w.justification.clone());
                    used[fi][wi] = true;
                    break;
                }
            }
        }
        match waived_by {
            Some(just) => report.waived.push((d, just)),
            None => report.findings.push(d),
        }
    }

    // Waiver inventory, with usage marks.
    for (fi, file) in ws.files.iter().enumerate() {
        for (wi, (w, covers)) in file.waivers.iter().enumerate() {
            report.waivers.push(WaiverEntry {
                file: file.path.clone(),
                line: w.line,
                rules: w.rules.clone(),
                justification: w.justification.clone(),
                covers: *covers,
                used: used[fi][wi],
            });
        }
    }
    report.sort();
    report
}

/// Collect the workspace's lintable sources under `root`:
/// `crates/*/src/**/*.rs` plus the umbrella crate's `src/**/*.rs`.
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut members: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk_rs(&src, root, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, root, &mut out)?;
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

/// Walk `root` and lint everything against the policy file text.
pub fn lint_root(root: &Path, policy_text: &str) -> Result<LintReport, String> {
    let policy = Policy::parse(policy_text)?;
    let files = collect_sources(root)?;
    Ok(lint(&files, &policy))
}
