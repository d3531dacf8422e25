//! Rule `dirty-mark`: every mutating entry point into partitioned tuple
//! storage must (transitively) mark the partition it writes dirty, or
//! carry an explicit allowlist entry. The commit path write-ahead-logs
//! exactly `Relation::dirty_partitions()` and the checkpointer walks
//! `Relation::checkpoint_dirty_partitions()`, so a write that misses the
//! mark is acknowledged at commit yet absent from both the log and the
//! disk copy — lost at the next restart, with no test failing until a
//! crash lands in exactly that window.
//!
//! Approximation: an ident-level call graph per scanned scope. A call
//! edge exists from a function to every scanned function with the
//! called name; sink/mark vocabularies come from the policy.

use crate::diag::Diagnostic;
use crate::policy::{path_covered, Policy};
use crate::rules::{call_matches, call_sites, idents_in};
use crate::Workspace;

/// Rule id.
pub const RULE: &str = "dirty-mark";

struct Node {
    qual: String,
    name: String,
    /// Defined inside an `impl` block (its `qual` carries the type).
    impl_typed: bool,
    file: usize,
    line: u32,
    entry: bool,
    calls: Vec<String>,
    sink: Option<String>,
    bump: bool,
}

/// Run the rule.
pub fn run(ws: &Workspace, policy: &Policy, out: &mut Vec<Diagnostic>) {
    let p = &policy.dirty;
    if p.paths.is_empty() {
        return;
    }
    let mut nodes: Vec<Node> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !path_covered(&file.path, &p.paths) {
            continue;
        }
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let body = &file.toks[open..=close];
            let calls: Vec<String> = call_sites(body).into_iter().map(|(_, n)| n).collect();
            // A sink call counts whether written bare (`self.insert(…)`)
            // or path-qualified (`Partition::insert(…)`).
            let sink = calls
                .iter()
                .find(|c| {
                    let last = c.rsplit("::").next().unwrap_or(c);
                    p.sinks.iter().any(|s| s == last)
                })
                .cloned();
            let bump = idents_in(body)
                .iter()
                .any(|i| p.bumps.iter().any(|b| b == i));
            let entry = (f.mut_self
                && f.impl_type
                    .as_ref()
                    .is_some_and(|t| p.impl_types.contains(t)))
                || f.mut_params.iter().any(|t| p.mut_param_types.contains(t));
            nodes.push(Node {
                qual: f.qual_name.clone(),
                name: f.name.clone(),
                impl_typed: f.impl_type.is_some(),
                file: fi,
                line: f.line,
                entry,
                calls,
                sink,
                bump,
            });
        }
    }

    // Transitive closure by fixpoint over name-matched call edges.
    let mut reach_sink: Vec<Option<String>> = nodes.iter().map(|n| n.sink.clone()).collect();
    let mut reach_bump: Vec<bool> = nodes.iter().map(|n| n.bump).collect();
    loop {
        let mut changed = false;
        for i in 0..nodes.len() {
            for call in &nodes[i].calls {
                for j in 0..nodes.len() {
                    if i == j
                        || !call_matches(call, &nodes[j].name, &nodes[j].qual, nodes[j].impl_typed)
                    {
                        continue;
                    }
                    if reach_sink[i].is_none() {
                        if let Some(s) = reach_sink[j].clone() {
                            reach_sink[i] = Some(s);
                            changed = true;
                        }
                    }
                    if !reach_bump[i] && reach_bump[j] {
                        reach_bump[i] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    for (i, n) in nodes.iter().enumerate() {
        if p.allow
            .iter()
            .any(|a| a.target == n.qual || a.target == n.name)
        {
            continue;
        }
        if !n.entry || reach_bump[i] {
            continue;
        }
        let Some(sink) = &reach_sink[i] else {
            continue;
        };
        out.push(Diagnostic {
            file: ws.files[n.file].path.clone(),
            line: n.line,
            rule: RULE.to_string(),
            message: format!(
                "mutating entry `{}` reaches storage write `{}` without marking its partition dirty",
                n.qual, sink
            ),
            hint: format!(
                "mark every mutated partition dirty (policy bumps: {}) so commit logs it, \
                 or add `allow = {} -- <why>` to the policy",
                p.bumps.join("/"),
                n.qual
            ),
        });
    }
}
