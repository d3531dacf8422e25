//! The four invariant rules. Each gets the scanned workspace and the
//! policy, and appends [`Diagnostic`](crate::diag::Diagnostic)s.

pub mod dirty_mark;
pub mod feature_gate;
pub mod lock_order;
pub mod panic_path;

use crate::lexer::{Kind, Tok};

/// Call sites in a token slice: `(index of the name, name)` for every
/// ident directly followed by `(`. Macro invocations (`name!(…)`) and
/// nested `fn name(` headers are excluded.
///
/// Path-qualified calls are recorded with one level of qualification
/// (`TupleId::new(…)` → `TupleId::new`) so the ident-level call graph
/// does not link them to every function sharing the bare name; a
/// qualifier that is not a plain ident (`<T as Trait>::f`, turbofish)
/// records as `::f`, an opaque edge matching nothing.
#[must_use]
pub fn call_sites(toks: &[Tok]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        if i + 1 >= toks.len() || !toks[i + 1].is_punct('(') {
            continue;
        }
        if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('!')) {
            continue;
        }
        if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            if i >= 3 && toks[i - 3].kind == Kind::Ident {
                out.push((i, format!("{}::{}", toks[i - 3].text, t.text)));
            } else {
                out.push((i, format!("::{}", t.text)));
            }
            continue;
        }
        out.push((i, t.text.clone()));
    }
    out
}

/// Whether a recorded call can resolve to the function `(name,
/// qual_name, has_impl_type)`. Unqualified calls match by bare name. A
/// `Base::name` call matches the exact `qual_name`, or — when `Base`
/// starts lowercase (a module path, not a type) — a free function's
/// bare name.
#[must_use]
pub fn call_matches(call: &str, name: &str, qual_name: &str, has_impl_type: bool) -> bool {
    match call.split_once("::") {
        None => call == name,
        Some(("", _)) => false,
        Some((base, method)) => {
            call == qual_name
                || (!has_impl_type
                    && method == name
                    && base.chars().next().is_some_and(char::is_lowercase))
        }
    }
}

/// Every ident in a token slice (for marker presence like `mark_dirty`).
#[must_use]
pub fn idents_in(toks: &[Tok]) -> Vec<&str> {
    toks.iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}
