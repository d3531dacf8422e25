//! Rule `lock-order`: acquisitions must follow the canonical order
//! declared in the policy (catalog → relation → partition, matching the
//! paper's §2.5 partition-granularity locking), and no latch guard
//! (a `std::sync` mutex or lock guard, or a policy-named accessor's)
//! may be held across a call that can re-enter `mmdb-lock` —
//! the latent latch-vs-lock deadlock shape.
//!
//! Two transaction-context checks ride on the same scan:
//!
//! * **raw acquisition** — calls to `raw_acquire` idents *with
//!   arguments* (the lock-manager entry points, as opposed to the
//!   zero-argument latch methods) are only legal inside the designated
//!   `acquire_via` context functions, so every blocking acquisition is
//!   funnelled through the code that is audited to never hold the
//!   engine latch;
//! * **early release** — after a `commit_stage` ident (redo records
//!   staged, write-ahead pending), a `release` ident is a finding until
//!   a `commit_marker` ident appears: strict 2PL requires the locks to
//!   outlive the commit record, never the other way round.
//!
//! A raw acquisition under a live guard is a re-entry too, even in a
//! context function.
//!
//! All checks are intra-function over the token stream: acquisition
//! calls are mapped to levels by name; guards are recognized from
//! `let g = expr.lock()`-shaped bindings of zero-argument guard methods
//! and die at `drop(g)` or the end of their block.

use crate::diag::Diagnostic;
use crate::lexer::{Kind, Tok};
use crate::policy::{path_covered, Policy};
use crate::Workspace;

/// Rule id.
pub const RULE: &str = "lock-order";

struct Guard {
    name: String,
    depth: i32,
    line: u32,
    /// Token index after the binding's `;` — live from there on.
    active_from: usize,
}

/// Run the rule.
pub fn run(ws: &Workspace, policy: &Policy, out: &mut Vec<Diagnostic>) {
    let p = &policy.lock;
    if p.paths.is_empty() || p.order.is_empty() {
        return;
    }
    for file in &ws.files {
        if !path_covered(&file.path, &p.paths) {
            continue;
        }
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            if p.allow
                .iter()
                .any(|a| a.target == f.qual_name || a.target == f.name)
            {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let in_context = p
                .acquire_via
                .iter()
                .any(|a| a == &f.name || a == &f.qual_name);
            check_body(&file.path, &file.toks, open, close, in_context, policy, out);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn check_body(
    path: &str,
    toks: &[Tok],
    open: usize,
    close: usize,
    in_context: bool,
    policy: &Policy,
    out: &mut Vec<Diagnostic>,
) {
    let p = &policy.lock;
    let mut depth = 0i32;
    let mut max_level: Option<(usize, String, u32)> = None;
    let mut guards: Vec<Guard> = Vec::new();
    // Pending commit stage: Some((ident, line)) after a `commit_stage`
    // call until a `commit_marker` call flushes it.
    let mut staged: Option<(String, u32)> = None;
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            i += 1;
            continue;
        }
        // Guard binding: `let [mut] name = … .guard_method() … ;`
        if t.is_ident("let") {
            if let Some(g) = parse_guard_let(toks, i, close, depth, &p.guards) {
                guards.push(g);
            }
            i += 1;
            continue;
        }
        // `drop(name)` releases a guard early.
        if t.is_ident("drop")
            && i + 2 <= close
            && toks[i + 1].is_punct('(')
            && toks[i + 2].kind == Kind::Ident
        {
            let victim = toks[i + 2].text.clone();
            guards.retain(|g| g.name != victim);
            i += 3;
            continue;
        }
        // Calls: level ordering + reentrancy under a live guard.
        if t.kind == Kind::Ident
            && i < close
            && toks[i + 1].is_punct('(')
            && !(i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('!')))
        {
            // Raw lock-manager acquisition: a call with arguments, as
            // opposed to the zero-argument latch methods of the same name.
            let raw = p.raw_acquire.iter().any(|r| r == &t.text)
                && i + 2 <= close
                && !toks[i + 2].is_punct(')');
            // Outside the designated transaction-context functions.
            if !in_context && raw {
                out.push(Diagnostic {
                    file: path.to_string(),
                    line: t.line,
                    rule: RULE.to_string(),
                    message: format!(
                        "raw lock acquisition `{}` outside the transaction context \
                         (allowed only in: {})",
                        t.text,
                        p.acquire_via.join(", ")
                    ),
                    hint: "acquire partition locks through the txn-context functions, \
                           which are audited to never block under the engine latch"
                        .to_string(),
                });
            }
            // Early release: locks going away while a staged commit
            // record is not yet marked committed.
            if p.commit_stage.iter().any(|s| s == &t.text) && staged.is_none() {
                staged = Some((t.text.clone(), t.line));
            } else if p.commit_marker.iter().any(|m| m == &t.text) {
                staged = None;
            } else if p.release.iter().any(|r| r == &t.text) {
                if let Some((stage, line)) = &staged {
                    out.push(Diagnostic {
                        file: path.to_string(),
                        line: t.line,
                        rule: RULE.to_string(),
                        message: format!(
                            "releases transaction locks via `{}` while the commit record \
                             staged by `{}` (line {}) is unflushed",
                            t.text, stage, line
                        ),
                        hint: format!(
                            "log the commit marker ({}) before releasing — strict 2PL \
                             requires locks to outlive the commit record",
                            p.commit_marker.join(", ")
                        ),
                    });
                }
            }
            if raw || p.reentrant.iter().any(|r| r == &t.text) {
                if let Some(g) = guards.iter().find(|g| g.active_from <= i) {
                    out.push(Diagnostic {
                        file: path.to_string(),
                        line: t.line,
                        rule: RULE.to_string(),
                        message: format!(
                            "calls `{}` (re-enters mmdb-lock) while latch guard \
                             `{}` (line {}) is held",
                            t.text, g.name, g.line
                        ),
                        hint: format!(
                            "drop `{}` before the call, or restructure so the latch is \
                             never held across lock-manager entry",
                            g.name
                        ),
                    });
                }
            }
            if let Some(&(_, level)) = p
                .level_fns
                .iter()
                .map(|(n, l)| (n, *l))
                .find(|(n, _)| *n == &t.text)
                .as_ref()
            {
                match &max_level {
                    Some((maxl, maxn, maxline)) if level < *maxl => {
                        out.push(Diagnostic {
                            file: path.to_string(),
                            line: t.line,
                            rule: RULE.to_string(),
                            message: format!(
                                "acquires `{}` ({}) after `{}` ({}, line {}) — canonical \
                                 order is {}",
                                t.text,
                                p.order[level],
                                maxn,
                                p.order[*maxl],
                                maxline,
                                p.order.join(" → ")
                            ),
                            hint: "re-order the acquisitions (outermost level first), or \
                                   split the function so each path acquires in order"
                                .to_string(),
                        });
                    }
                    Some((maxl, _, _)) if level <= *maxl => {}
                    _ => max_level = Some((level, t.text.clone(), t.line)),
                }
            }
        }
        i += 1;
    }
}

/// Recognize `let [mut] name [: ty] = …` whose initializer calls a
/// zero-argument guard method. Returns the guard with its activation
/// point (the statement's terminating `;`).
fn parse_guard_let(
    toks: &[Tok],
    let_idx: usize,
    close: usize,
    depth: i32,
    guard_methods: &[String],
) -> Option<Guard> {
    let mut j = let_idx + 1;
    if j <= close && toks[j].is_ident("mut") {
        j += 1;
    }
    if j > close || toks[j].kind != Kind::Ident {
        return None; // destructuring pattern — not a single guard binding
    }
    let name = toks[j].text.clone();
    let line = toks[let_idx].line;
    // Scan the initializer to the statement's `;` at relative depth 0.
    let mut rel = 0i32;
    let mut k = j + 1;
    let mut found = false;
    while k <= close {
        let t = &toks[k];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            rel += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            rel -= 1;
            if rel < 0 {
                break;
            }
        } else if t.is_punct(';') && rel == 0 {
            break;
        } else if t.kind == Kind::Ident
            && rel == 0
            && guard_methods.iter().any(|g| g == &t.text)
            && k > 0
            && toks[k - 1].is_punct('.')
            && k + 2 <= close
            && toks[k + 1].is_punct('(')
            && toks[k + 2].is_punct(')')
        {
            // `rel == 0` keeps the guard on *this* binding: a guard
            // taken inside a brace/paren-nested sub-expression (e.g. a
            // block initializer with its own `let g = x.lock();`) is
            // scoped there, not bound to the outer name.
            found = true;
        }
        k += 1;
    }
    if found {
        Some(Guard {
            name,
            depth,
            line,
            active_from: k,
        })
    } else {
        None
    }
}
