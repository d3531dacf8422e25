//! The checked-in lint policy: which paths each rule covers, the
//! canonical lock order, sink/mark vocabularies for the dirty-mark
//! rule, and allowlist entries (which, like inline waivers, are only
//! accepted with a written justification).
//!
//! Format: INI-like, std-parseable. `[section]` headers are rule ids;
//! `key = v1, v2` lines; repeated keys accumulate; `#` starts a comment.
//! `allow` entries are `target -- justification`.

/// One allowlist entry: a function (bare or `Type::method`) plus why.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Function name or `Type::method` the entry matches.
    pub target: String,
    /// The mandatory justification.
    pub justification: String,
}

/// Dirty-partition discipline (rule `dirty-mark`).
#[derive(Debug, Clone, Default)]
pub struct DirtyPolicy {
    /// Path prefixes the rule scans.
    pub paths: Vec<String>,
    /// Impl types whose `&mut self` methods are mutating entry points.
    pub impl_types: Vec<String>,
    /// Parameter types making a free function an entry point (`&mut T`).
    pub mut_param_types: Vec<String>,
    /// Idents whose call means "writes tuple storage".
    pub sinks: Vec<String>,
    /// Idents whose presence means "marks the partition dirty".
    pub bumps: Vec<String>,
    /// Entry points excused from the rule.
    pub allow: Vec<AllowEntry>,
}

/// Lock acquisition order + guard discipline (rule `lock-order`).
#[derive(Debug, Clone, Default)]
pub struct LockPolicy {
    /// Path prefixes the rule scans.
    pub paths: Vec<String>,
    /// Canonical acquisition order, outermost first.
    pub order: Vec<String>,
    /// `(function ident, level index)` acquisition vocabulary.
    pub level_fns: Vec<(String, usize)>,
    /// Idents that (can) re-enter the lock manager.
    pub reentrant: Vec<String>,
    /// Zero-argument guard-returning methods (`.lock()`, `.read()`, …).
    pub guards: Vec<String>,
    /// Idents that are raw lock-manager acquisitions when called *with
    /// arguments* (`locks.lock(txn, target, mode)` — the zero-argument
    /// form is a latch, recognized via `guards`).
    pub raw_acquire: Vec<String>,
    /// Functions allowed to call raw acquisitions; everything else must
    /// go through them (the transaction context).
    pub acquire_via: Vec<String>,
    /// Idents that stage a commit's redo records (write-ahead work).
    pub commit_stage: Vec<String>,
    /// Idents that log the commit marker, making the staged records
    /// durable-on-restart.
    pub commit_marker: Vec<String>,
    /// Idents that release a transaction's locks (strict-2PL end).
    pub release: Vec<String>,
    /// Functions excused from the rule.
    pub allow: Vec<AllowEntry>,
}

/// Hot-kernel panic-path audit (rule `panic-path`).
#[derive(Debug, Clone, Default)]
pub struct PanicPolicy {
    /// Designated hot-kernel path prefixes.
    pub paths: Vec<String>,
    /// Functions excused from the rule.
    pub allow: Vec<AllowEntry>,
}

/// `check`-feature gating of verification hooks (rule `feature-gate`).
#[derive(Debug, Clone, Default)]
pub struct GatePolicy {
    /// Ident prefixes that are check-only API (e.g. `raw_`).
    pub prefixes: Vec<String>,
    /// Exact idents that are check-only API.
    pub idents: Vec<String>,
    /// The feature that must gate references.
    pub feature: String,
    /// Path prefixes exempt from the rule.
    pub exempt: Vec<String>,
}

/// The whole policy file.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Rule `dirty-mark`.
    pub dirty: DirtyPolicy,
    /// Rule `lock-order`.
    pub lock: LockPolicy,
    /// Rule `panic-path`.
    pub panic: PanicPolicy,
    /// Rule `feature-gate`.
    pub gate: GatePolicy,
}

fn split_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

fn parse_allow(v: &str, line_no: usize) -> Result<AllowEntry, String> {
    let (target, just) = v
        .split_once(" -- ")
        .or_else(|| v.split_once(" — "))
        .ok_or_else(|| {
            format!("policy line {line_no}: allow entry needs ` -- <justification>`: `{v}`")
        })?;
    let target = target.trim();
    let just = just.trim();
    if target.is_empty() || just.is_empty() {
        return Err(format!(
            "policy line {line_no}: allow entry needs a target and a non-empty justification"
        ));
    }
    Ok(AllowEntry {
        target: target.to_string(),
        justification: just.to_string(),
    })
}

impl Policy {
    /// Parse a policy from its file text.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut p = Policy {
            gate: GatePolicy {
                feature: "check".to_string(),
                ..GatePolicy::default()
            },
            ..Policy::default()
        };
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("policy line {line_no}: expected `key = value`"));
            };
            let key = key.trim();
            let value = value.trim();
            match (section.as_str(), key) {
                ("dirty-mark", "paths") => p.dirty.paths.extend(split_list(value)),
                ("dirty-mark", "impl_types") => p.dirty.impl_types.extend(split_list(value)),
                ("dirty-mark", "mut_param_types") => {
                    p.dirty.mut_param_types.extend(split_list(value));
                }
                ("dirty-mark", "sinks") => p.dirty.sinks.extend(split_list(value)),
                ("dirty-mark", "bumps") => p.dirty.bumps.extend(split_list(value)),
                ("dirty-mark", "allow") => p.dirty.allow.push(parse_allow(value, line_no)?),
                ("lock-order", "paths") => p.lock.paths.extend(split_list(value)),
                ("lock-order", "order") => p.lock.order.extend(split_list(value)),
                ("lock-order", "reentrant") => p.lock.reentrant.extend(split_list(value)),
                ("lock-order", "guards") => p.lock.guards.extend(split_list(value)),
                ("lock-order", "raw_acquire") => p.lock.raw_acquire.extend(split_list(value)),
                ("lock-order", "acquire_via") => p.lock.acquire_via.extend(split_list(value)),
                ("lock-order", "commit_stage") => p.lock.commit_stage.extend(split_list(value)),
                ("lock-order", "commit_marker") => p.lock.commit_marker.extend(split_list(value)),
                ("lock-order", "release") => p.lock.release.extend(split_list(value)),
                ("lock-order", "allow") => p.lock.allow.push(parse_allow(value, line_no)?),
                ("lock-order", level) if p.lock.order.iter().any(|o| o == level) => {
                    let li = p
                        .lock
                        .order
                        .iter()
                        .position(|o| o == level)
                        .unwrap_or_default();
                    for f in split_list(value) {
                        p.lock.level_fns.push((f, li));
                    }
                }
                ("panic-path", "paths") => p.panic.paths.extend(split_list(value)),
                ("panic-path", "allow") => p.panic.allow.push(parse_allow(value, line_no)?),
                ("feature-gate", "prefixes") => p.gate.prefixes.extend(split_list(value)),
                ("feature-gate", "idents") => p.gate.idents.extend(split_list(value)),
                ("feature-gate", "feature") => p.gate.feature = value.to_string(),
                ("feature-gate", "exempt") => p.gate.exempt.extend(split_list(value)),
                _ => {
                    return Err(format!(
                        "policy line {line_no}: unknown key `{key}` in section `[{section}]` \
                         (declare lock levels in `order` before mapping functions to them)"
                    ));
                }
            }
        }
        Ok(p)
    }
}

/// Does `path` (normalized, `/`-separated) fall under any of `prefixes`?
/// A prefix matches the identical path, a file (`…/x.rs`), or a
/// directory subtree.
#[must_use]
pub fn path_covered(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        let p = p.trim_end_matches('/');
        path == p || path.starts_with(&format!("{p}/"))
    })
}
